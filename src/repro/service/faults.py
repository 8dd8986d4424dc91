"""Deterministic, seed-driven fault injection for the worker runtime.

A :class:`FaultPlan` is a small set of rules — fault kind, firing
probability, optional parameters — threaded into every worker process
by the supervised pool (``--fault-inject`` on ``ompdart serve``, or the
``ompdart chaos`` harness).  Fault decisions are **derived, not
drawn**: whether a rule fires for a given job (or spill file) is a pure
function of ``(seed, kind, key)``, so two runs with the same seed and
the same workload inject exactly the same faults — which is what lets
the chaos harness assert bit-identical served results against a
fault-free run, and what makes every crash/retry test deterministic.

Rules fire on a job's *first* attempt only, unless marked ``always``:
a job whose worker was killed once is retried against the same rule
and survives, which models the transient faults (OOM kill, preempted
node) supervision exists for.  ``p=1`` with ``always`` kills every
attempt — the poison-quarantine path.

Kinds:

* ``kill-worker`` — ``os._exit(137)`` after the job computes but
  before the result is sent (the most adversarial point: the work and
  any artifacts it spilled exist, the reply does not).
* ``corrupt-spill`` — truncate an artifact spill file right after the
  cache writes it, exercising the corrupt-spill-as-miss recovery path
  in :mod:`repro.pipeline.cache`.
* ``wedge`` — swallow ``KeyboardInterrupt`` and stall for ``s``
  seconds, simulating a worker stuck in uninterruptible kernel code;
  only the supervisor's SIGKILL escalation can end it.

Plan syntax (CLI)::

    --fault-inject kill-worker:p=0.05,corrupt-spill:p=0.02
    --fault-inject kill-worker:p=1:always          # poison every job
    --fault-inject wedge:p=1:s=30 --fault-seed 7
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from ..pipeline import cache as cache_module

__all__ = ["FaultRule", "FaultPlan", "parse_fault_plan", "install"]

#: Exit code an injected kill uses (the conventional SIGKILL'd status).
KILL_EXIT_CODE = 137

KILL_WORKER = "kill-worker"
CORRUPT_SPILL = "corrupt-spill"
WEDGE = "wedge"

_KINDS = (KILL_WORKER, CORRUPT_SPILL, WEDGE)


@dataclass(frozen=True)
class FaultRule:
    """One injected fault kind with its firing probability."""

    kind: str
    probability: float
    #: Fire on every attempt of a job, not just attempt 0.  Without
    #: this a killed job's retry survives (transient-fault model);
    #: with it, the job is poison.
    always: bool = False
    #: ``wedge`` stall length.
    seconds: float = 30.0


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules; picklable (rides worker initargs)."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def rule(self, kind: str) -> FaultRule | None:
        for rule in self.rules:
            if rule.kind == kind:
                return rule
        return None

    def should_fire(self, kind: str, key: str, attempt: int = 0) -> bool:
        """Deterministic decision for one fault site.

        ``key`` identifies the site (job content hash, spill filename);
        the decision depends only on ``(seed, kind, key)`` so repeat
        runs inject identical faults.
        """
        rule = self.rule(kind)
        if rule is None or rule.probability <= 0.0:
            return False
        if attempt > 0 and not rule.always:
            return False
        if rule.probability >= 1.0:
            return True
        digest = hashlib.blake2b(
            f"{self.seed}\x1f{kind}\x1f{key}".encode(), digest_size=8
        ).digest()
        draw = int.from_bytes(digest, "big") / float(1 << 64)
        return draw < rule.probability


def parse_fault_plan(text: str, *, seed: int = 0) -> FaultPlan:
    """Parse ``kind:p=0.05[:always][:s=30],...`` into a plan.

    Raises :class:`ValueError` on unknown kinds or malformed params so
    the CLI can reject bad ``--fault-inject`` values up front.
    """
    rules: list[FaultRule] = []
    for item in filter(None, (part.strip() for part in text.split(","))):
        fields = item.split(":")
        kind = fields[0]
        if kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {_KINDS}"
            )
        probability = None
        always = False
        seconds = 30.0
        for param in fields[1:]:
            name, sep, value = param.partition("=")
            try:
                if name == "p" and sep:
                    probability = float(value)
                elif name == "s" and sep:
                    seconds = float(value)
                elif name == "always" and not sep:
                    always = True
                else:
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"bad fault parameter {param!r} in {item!r} "
                    "(expected p=FLOAT, s=FLOAT, or always)"
                ) from None
        if probability is None:
            raise ValueError(f"fault rule {item!r} is missing p=PROB")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"fault probability out of [0,1] in {item!r}")
        rules.append(FaultRule(kind, probability, always, seconds))
    if not rules:
        raise ValueError("empty fault plan")
    return FaultPlan(seed=seed, rules=tuple(rules))


# ===========================================================================
# Worker-side activation
# ===========================================================================

#: The plan this worker process runs under (None = no injection).
_ACTIVE: FaultPlan | None = None


def install(plan: FaultPlan | None) -> None:
    """Activate ``plan`` in this process (pool initializer path).

    Hooks the spill-corruption rule into the artifact cache's write
    path; the kill/wedge rules are invoked explicitly by the worker
    loop around job execution.
    """
    global _ACTIVE
    _ACTIVE = plan
    if plan is not None and plan.rule(CORRUPT_SPILL) is not None:
        cache_module.spill_fault_hook = _corrupt_spill
    elif cache_module.spill_fault_hook is _corrupt_spill:
        cache_module.spill_fault_hook = None


def maybe_kill(job_key: str, attempt: int) -> None:
    """Injected worker death: exit hard, as an OOM kill would."""
    if _ACTIVE is not None and _ACTIVE.should_fire(
        KILL_WORKER, job_key, attempt
    ):
        os._exit(KILL_EXIT_CODE)


def maybe_wedge(job_key: str, attempt: int) -> None:
    """Injected stall that shrugs off SIGINT, like wedged kernel code."""
    if _ACTIVE is None or not _ACTIVE.should_fire(WEDGE, job_key, attempt):
        return
    rule = _ACTIVE.rule(WEDGE)
    deadline = time.monotonic() + (rule.seconds if rule else 30.0)
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        try:
            time.sleep(remaining)
        except KeyboardInterrupt:
            continue  # uninterruptible: only SIGKILL ends this


def _corrupt_spill(path) -> None:
    """Cache write hook: deterministically truncate doomed spills."""
    if _ACTIVE is None or not _ACTIVE.should_fire(
        CORRUPT_SPILL, os.path.basename(str(path))
    ):
        return
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(max(1, size // 2))
    except OSError:
        pass  # the injected fault itself must never crash the worker
