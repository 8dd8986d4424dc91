"""Regression gate between two ``ompdart-suite-perf/1`` artifacts.

``ompdart suite-diff baseline.json candidate.json`` compares every
deterministic metric of the suite perf artifact and exits non-zero when
the candidate is worse than the baseline beyond ``--tolerance``
(relative).  CI runs it against the committed
``benchmarks/suite_a100-pcie4.json`` so a PR that silently inflates
transfer bytes, adds memcpy calls, or erodes the modelled speedups
fails the build.

What is compared, per platform / benchmark:

* per-variant transfer profiles, where **higher is worse**:
  calls, bytes, transfer/kernel/host/total modelled time, launches;
* the Fig. 3-6 ratio metrics, where **lower is worse**:
  ``transfer_reduction_x``, ``speedup_x``, ``expert_speedup_x``,
  ``transfer_time_improvement_x`` (and their geomeans);
* ``outputs_match`` flipping from true to false is always a regression;
* a platform or benchmark present in the baseline but missing from the
  candidate is a coverage regression.

* a per-variant ``vector_strategy`` whose coverage rank drops below the
  baseline's — a previously vectorized variant regressing to the
  interpreter, or a stronger lowering (``codegen``/``collapse``)
  degrading to a weaker one (``masked``/``wavefront``) — is a coverage
  regression regardless of tolerance.

Deliberately ignored: ``sim_wall_s``, ``vectorized_launches`` and
``strategy_launches`` (real wall time and executor choice are
machine-dependent observability fields, not modelled metrics) and the
``tool`` timing block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..runtime.vectorize import STRATEGY_RANK

__all__ = ["DiffResult", "MetricDelta", "diff_payloads", "render_diff"]

#: Variant-profile keys where an increase is a regression.
HIGHER_IS_WORSE = (
    "h2d_calls",
    "d2h_calls",
    "h2d_bytes",
    "d2h_bytes",
    "transfer_time_s",
    "kernel_time_s",
    "host_time_s",
    "total_time_s",
    "kernel_launches",
    # /4 additions — absent from older baselines, which ``number``
    # tolerates (nothing to gate on until a /4 artifact is committed).
    "map_overhead_s",
    "launches",
)

#: Benchmark-level ratio keys where a decrease is a regression.
LOWER_IS_WORSE = (
    "transfer_reduction_x",
    "speedup_x",
    "expert_speedup_x",
    "transfer_time_improvement_x",
)

#: Sentinel distinguishing "key absent from the artifact" (a schema or
#: serialization regression) from "present but null" (inf, a legitimate
#: value for the ratio metrics).
_ABSENT = object()


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between baseline and candidate."""

    where: str  # e.g. "a100-pcie4/clenergy/ompdart"
    metric: str
    baseline: float | None
    candidate: float | None
    #: Signed relative change, positive = candidate larger.
    rel_change: float

    def render(self) -> str:
        return (
            f"{self.where}: {self.metric} "
            f"{self.baseline!r} -> {self.candidate!r} "
            f"({self.rel_change:+.2%})"
        )


@dataclass
class DiffResult:
    """Outcome of one artifact comparison."""

    regressions: list[MetricDelta] = field(default_factory=list)
    improvements: list[MetricDelta] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing


def _as_dict(value: Any, label: str) -> dict:
    """Guard against structurally malformed artifacts: a wrong-typed
    container becomes a clean ``ValueError`` (CLI exit 2), not a raw
    AttributeError traceback."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"malformed artifact: {label} is not an object")
    return value


def _rel_change(baseline: float, candidate: float) -> float:
    if baseline == candidate:
        return 0.0
    if baseline == 0:
        return float("inf") if candidate > 0 else float("-inf")
    return (candidate - baseline) / abs(baseline)


class _Differ:
    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.result = DiffResult()

    @staticmethod
    def _num(value: Any) -> float | None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        return None

    def number(
        self,
        where: str,
        metric: str,
        baseline: Any,
        candidate: Any,
        *,
        higher_is_worse: bool,
    ) -> None:
        if baseline is _ABSENT:
            return  # metric the baseline never had — nothing to gate on
        if candidate is _ABSENT:
            self.result.missing.append(f"{where}: metric {metric!r} missing")
            return
        base = self._num(baseline)
        cand = self._num(candidate)
        if base is None and cand is None:
            return  # null on both sides (e.g. inf ratio) — stable
        if base is None or cand is None:
            # Ratio metrics serialize inf as null (perf._finite), and
            # for the lower-is-worse ratios null therefore means "best
            # possible": a candidate reaching null improved; a baseline
            # at null that the candidate left is a real regression.
            if not higher_is_worse:
                self.result.compared += 1
                # Candidate at null rose to inf (+inf change); baseline
                # at null means the candidate fell from inf (-inf).
                delta = MetricDelta(
                    where, metric, baseline, candidate,
                    float("-inf") if base is None else float("inf"),
                )
                if cand is None:
                    self.result.improvements.append(delta)
                else:
                    self.result.regressions.append(delta)
                return
            # Counts/times are always finite; a null candidate here
            # means the artifact lost the metric.  (A null *baseline*
            # count is equally broken but offers nothing to gate on.)
            if cand is None:
                self.result.compared += 1
                self.result.missing.append(
                    f"{where}: metric {metric!r} missing"
                )
            return
        self.result.compared += 1
        rel = _rel_change(base, cand)
        if rel == 0.0:
            return
        delta = MetricDelta(where, metric, baseline, candidate, rel)
        worse = rel > 0 if higher_is_worse else rel < 0
        if worse and abs(rel) > self.tolerance:
            self.result.regressions.append(delta)
        elif not worse:
            self.result.improvements.append(delta)

    def strategy(self, where: str, baseline: Any, candidate: Any) -> None:
        """Vectorizer-coverage gate: the candidate's strategy rank must
        not drop below the baseline's.

        Rank order (see ``repro.runtime.vectorize.STRATEGY_RANK``):
        interpreter < wavefront < masked < collapse < codegen.
        A baseline without the field (pre-phase-2 artifact) or with an
        unknown label offers nothing to gate on.
        """
        base_rank = STRATEGY_RANK.get(baseline) if isinstance(
            baseline, str
        ) else None
        if base_rank is None:
            return
        if candidate is _ABSENT:
            self.result.missing.append(
                f"{where}: metric 'vector_strategy' missing"
            )
            return
        cand_rank = STRATEGY_RANK.get(candidate) if isinstance(
            candidate, str
        ) else None
        if cand_rank is None:
            self.result.missing.append(
                f"{where}: vectorization coverage lost "
                f"({baseline!r} -> {candidate!r})"
            )
            return
        self.result.compared += 1
        if cand_rank < base_rank:
            self.result.missing.append(
                f"{where}: vectorization strategy downgrade "
                f"({baseline!r} -> {candidate!r})"
            )
        elif cand_rank > base_rank:
            self.result.improvements.append(MetricDelta(
                where, "vector_strategy", float(base_rank),
                float(cand_rank), float("inf"),
            ))

    def benchmark(self, where: str, base: dict, cand: dict) -> None:
        base_variants = _as_dict(base.get("variants"), f"{where} variants")
        cand_variants = _as_dict(cand.get("variants"), f"{where} variants")
        for variant, profile in base_variants.items():
            profile = _as_dict(profile, f"{where}/{variant}")
            cand_profile = cand_variants.get(variant)
            if cand_profile is None:
                self.result.missing.append(
                    f"{where}: variant {variant!r} missing from candidate"
                )
                continue
            cand_profile = _as_dict(cand_profile, f"{where}/{variant}")
            for key in HIGHER_IS_WORSE:
                self.number(
                    f"{where}/{variant}", key,
                    profile.get(key, _ABSENT),
                    cand_profile.get(key, _ABSENT),
                    higher_is_worse=True,
                )
            self.strategy(
                f"{where}/{variant}",
                profile.get("vector_strategy"),
                cand_profile.get("vector_strategy", _ABSENT),
            )
        for key in LOWER_IS_WORSE:
            self.number(
                where, key,
                base.get(key, _ABSENT), cand.get(key, _ABSENT),
                higher_is_worse=False,
            )
        if base.get("outputs_match") and not cand.get("outputs_match"):
            self.result.missing.append(
                f"{where}: variant outputs no longer match"
            )


def diff_payloads(
    baseline: dict[str, Any], candidate: dict[str, Any], *, tolerance: float = 0.01
) -> DiffResult:
    """Compare two parsed artifacts; see the module docstring for rules."""
    for label, payload in (("baseline", baseline), ("candidate", candidate)):
        schema = payload.get("schema", "")
        if not str(schema).startswith("ompdart-suite-perf/"):
            raise ValueError(
                f"{label} is not an ompdart-suite-perf artifact "
                f"(schema={schema!r})"
            )
    differ = _Differ(tolerance)
    base_results = _as_dict(baseline.get("results"), "baseline results")
    cand_results = _as_dict(candidate.get("results"), "candidate results")
    for platform, base_sweep in base_results.items():
        base_sweep = _as_dict(base_sweep, f"baseline {platform}")
        cand_sweep = cand_results.get(platform)
        if cand_sweep is None:
            differ.result.missing.append(
                f"platform {platform!r} missing from candidate"
            )
            continue
        cand_sweep = _as_dict(cand_sweep, f"candidate {platform}")
        base_benchmarks = _as_dict(
            base_sweep.get("benchmarks"), f"baseline {platform} benchmarks"
        )
        cand_benchmarks = _as_dict(
            cand_sweep.get("benchmarks"), f"candidate {platform} benchmarks"
        )
        for name, base_run in base_benchmarks.items():
            base_run = _as_dict(base_run, f"baseline {platform}/{name}")
            cand_run = cand_benchmarks.get(name)
            if cand_run is None:
                differ.result.missing.append(
                    f"{platform}: benchmark {name!r} missing from candidate"
                )
                continue
            cand_run = _as_dict(cand_run, f"candidate {platform}/{name}")
            differ.benchmark(f"{platform}/{name}", base_run, cand_run)
        base_geo = _as_dict(base_sweep.get("geomeans"), f"{platform} geomeans")
        cand_geo = _as_dict(cand_sweep.get("geomeans"), f"{platform} geomeans")
        for key in LOWER_IS_WORSE:
            differ.number(
                f"{platform}/geomean", key,
                base_geo.get(key, _ABSENT), cand_geo.get(key, _ABSENT),
                higher_is_worse=False,
            )
    return differ.result


def render_diff(result: DiffResult, *, verbose: bool = False) -> str:
    """Human-readable summary (regressions always, improvements on -v)."""
    lines: list[str] = []
    for entry in result.missing:
        lines.append(f"REGRESSION {entry}")
    for delta in result.regressions:
        lines.append(f"REGRESSION {delta.render()}")
    if verbose:
        for delta in result.improvements:
            lines.append(f"improved   {delta.render()}")
    verdict = "OK" if result.ok else "FAIL"
    lines.append(
        f"suite-diff: {verdict} — {result.compared} metric(s) compared, "
        f"{len(result.regressions) + len(result.missing)} regression(s), "
        f"{len(result.improvements)} improvement(s)"
    )
    return "\n".join(lines)
