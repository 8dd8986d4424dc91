"""Deterministic fault-injection harness (``ompdart chaos``).

Runs the served pipeline twice over one seeded workload — once under
an injected fault plan (worker kills, spill corruption), once
fault-free — and asserts the two served result streams are
byte-identical after stripping timing fields.  That is the
fault-tolerance contract in executable form: supervision, crash
retry and corrupt-spill quarantine must be *invisible* to clients,
not merely survivable.

Each variant boots its own in-process server (ephemeral port, private
cache directory) over the supervised worker pool, drives the full job
mix through real HTTP via :class:`~repro.service.loadgen.LoadClient`,
then tears everything down.  The faulted variant additionally runs a
cancellation probe: a deliberately slow job is started and
``DELETE``d, and the gate checks it settled ``cancelled`` within the
kill-grace window.

The gate fails on any divergence, on any job that did not finish
``done``, when a kill plan injected no faults (the wiring is broken,
not the luck), or when the cancel probe overran its grace.  A host
that cannot start worker processes fails the run itself: the
scheduler has no other runtime.  Results serialize as an
``ompdart-chaos/1`` JSON artifact so the CI ``chaos-smoke`` job can
archive the evidence.

Faults are decided by :mod:`repro.service.faults` — a pure function
of ``(seed, fault kind, job key)`` — so a given seed kills the same
workers at the same jobs on every run; a chaos failure reproduces
from its artifact's config block alone.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Any

from .._version import __version__
from .faults import (
    DROP_CONN,
    KILL_WORKER,
    PARTITION,
    FaultPlan,
    parse_fault_plan,
)
from .loadgen import LoadClient

__all__ = [
    "CHAOS_SCHEMA",
    "DEFAULT_PLAN",
    "ChaosConfig",
    "run_chaos",
    "gate_chaos",
    "render_chaos",
]

#: Chaos artifact schema identifier; bump on incompatible changes.
CHAOS_SCHEMA = "ompdart-chaos/1"

#: Default plan: the acceptance mix — a 5% worker-kill rate plus
#: occasional artifact-spill corruption.  Wedge faults are excluded on
#: purpose: a wedged-then-killed job settles ``cancelled``, which can
#: never match a fault-free ``done`` — the cancel probe covers that
#: path instead.
DEFAULT_PLAN = "kill-worker:p=0.05,corrupt-spill:p=0.02"

#: Result fields that legitimately differ between runs (wall time and
#: cache temperature); everything else must match byte for byte.
_SCRUB_KEYS = frozenset(
    {"elapsed_seconds", "timings", "cache_events", "cache_origins"}
)


@dataclass
class ChaosConfig:
    """One chaos run's shape (recorded verbatim in the artifact)."""

    jobs: int = 200
    workers: int = 2
    clients: int = 4
    seed: int = 0
    plan: str = DEFAULT_PLAN
    #: Distinct translation units cycled over the transform slots;
    #: repeats hit the on-disk artifact cache, where corrupt-spill
    #: faults (and their quarantine) actually bite.
    distinct_transforms: int = 16
    job_retries: int = 2
    max_worker_restarts: int = 64
    cancel_grace: float = 1.0
    cancel_probe: bool = True
    timeout: float = 120.0
    host: str = "127.0.0.1"
    #: Boot an in-process store node per variant and point the main
    #: scheduler's workers at it (the remote artifact tier under test).
    store: bool = False
    #: Abruptly kill the faulted variant's store node halfway through
    #: the workload: the remote breaker must open, jobs must not fail,
    #: and the served results must stay bit-identical.
    kill_store: bool = False


def _workload(config: ChaosConfig) -> list[tuple[str, dict[str, Any]]]:
    """The deterministic job mix: ``(label, POST /run payload)`` rows.

    Transforms dominate (they exercise the full pipeline and the
    artifact store); pings interleave as cheap liveness probes.  Every
    row is a function of its index alone, so both variants submit the
    same bytes in the same order.
    """
    rows: list[tuple[str, dict[str, Any]]] = []
    for i in range(max(1, config.jobs)):
        if i % 4 == 3:
            rows.append((
                f"ping[{i}]",
                {"kind": "ping", "token": f"chaos-{config.seed}-{i}"},
            ))
            continue
        if i % 7 == 5:
            # A sprinkle of never-repeated units keeps *fresh* spill
            # (and therefore remote-publish) traffic flowing through
            # the whole run — without these, the second half of a
            # store-kill run would be all cache hits and the breaker
            # wiring would go untested.  Same rows in both variants.
            unit = 1000 + i
        else:
            unit = i % max(1, config.distinct_transforms)
        source = (
            "int a[48];\n"
            "int main() {\n"
            f"  a[0] = {unit};\n"
            "  #pragma omp target teams distribute parallel for\n"
            f"  for (int i = 0; i < 48; i++) a[i] = a[i] * 2 + {unit + 1};\n"
            "  return a[0];\n"
            "}\n"
        )
        rows.append((
            f"transform[{i}]u{unit}",
            {
                "kind": "transform",
                "source": source,
                "filename": f"chaos_{unit}.c",
            },
        ))
    return rows


def _canonical(value: Any) -> Any:
    """Recursively drop run-varying fields; order-preserving otherwise."""
    if isinstance(value, dict):
        return {
            k: _canonical(v)
            for k, v in value.items()
            if k not in _SCRUB_KEYS
        }
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    return value


async def _drive(
    config: ChaosConfig,
    port: int,
    rows: list[tuple[str, dict[str, Any]]],
    on_progress: Any = None,
) -> list[dict[str, Any]]:
    """Submit every row through ``clients`` concurrent connections.

    Returns one record per row (in row order): state, error, and the
    canonicalized result — the stream the two variants are diffed on.
    ``on_progress`` (async, takes the completed count) fires after
    every settled row — the store-kill trigger rides on it.
    """
    records: list[dict[str, Any] | None] = [None] * len(rows)
    cursor = iter(range(len(rows)))
    completed = 0

    async def one_client() -> None:
        nonlocal completed
        client = LoadClient(
            config.host, port, keep_alive=True, timeout=config.timeout
        )
        try:
            for index in cursor:
                label, payload = rows[index]
                record: dict[str, Any] = {"label": label}
                try:
                    response = await client.request("POST", "/run", payload)
                    envelope = response.json()
                    record["status"] = response.status
                    record["state"] = envelope.get("state")
                    if envelope.get("error") is not None:
                        record["error"] = envelope["error"]
                    record["result"] = _canonical(envelope.get("result"))
                except Exception as exc:  # noqa: BLE001 - transport loss
                    # under faults is itself a finding, not a crash
                    record["status"] = 0
                    record["state"] = "transport-error"
                    record["error"] = f"{type(exc).__name__}: {exc}"
                records[index] = record
                completed += 1
                if on_progress is not None:
                    await on_progress(completed)
        finally:
            await client.aclose()

    await asyncio.gather(
        *[one_client() for _ in range(max(1, config.clients))]
    )
    return [r if r is not None else {"state": "missing"} for r in records]


async def _cancel_probe(config: ChaosConfig, port: int) -> dict[str, Any]:
    """Start a deliberately slow job, DELETE it, time the settle.

    The contract under test: a running worker is interrupted (SIGINT,
    then SIGKILL after the grace) and the DELETE returns the settled
    ``cancelled`` envelope within grace plus the scheduler's bounded
    wait — never the full job duration.
    """
    client = LoadClient(config.host, port, timeout=config.timeout)
    sleep_s = max(30.0, config.cancel_grace * 10)
    try:
        submitted = await client.request("POST", "/jobs", {
            "kind": "ping",
            "token": f"chaos-cancel-{config.seed}",
            "sleep_s": sleep_s,
        })
        key = submitted.json().get("job")
        await asyncio.sleep(0.2)  # let the worker pick the job up
        start = time.perf_counter()
        response = await client.request("DELETE", f"/jobs/{key}")
        elapsed = time.perf_counter() - start
        envelope = response.json()
        return {
            "ran": True,
            "job": key,
            "job_sleep_s": sleep_s,
            "status": response.status,
            "state": envelope.get("state"),
            "cancel_s": elapsed,
            "grace_s": config.cancel_grace,
        }
    except Exception as exc:  # noqa: BLE001 - probe failure is data
        return {"ran": True, "state": "probe-error",
                "error": f"{type(exc).__name__}: {exc}"}
    finally:
        await client.aclose()


async def _run_variant(
    config: ChaosConfig,
    rows: list[tuple[str, dict[str, Any]]],
    fault_plan: FaultPlan | None,
    *,
    kill_store: bool = False,
) -> dict[str, Any]:
    """Boot a server, drive the workload, tear down; one variant.

    With ``config.store``, the variant also boots a private store
    node — a second in-process server whose ``/artifacts`` routes the
    main scheduler's workers publish to and read through.  With
    ``kill_store``, that node dies abruptly halfway through the
    workload (accept socket closed, live connections aborted); the
    workers' remote tier must degrade, never fail a job.
    """
    from .scheduler import JobScheduler
    from .server import JobServer

    cache_dir = tempfile.mkdtemp(prefix="ompdart-chaos-")
    store_server = None
    store_cache = None
    store_url = None
    if config.store:
        store_cache = tempfile.mkdtemp(prefix="ompdart-chaos-store-")
        store_server = JobServer(
            JobScheduler(workers=1, cache_dir=store_cache),
            host=config.host,
            port=0,
        )
        _, store_port = await store_server.start()
        store_url = f"http://{config.host}:{store_port}"
    scheduler = JobScheduler(
        workers=config.workers,
        cache_dir=cache_dir,
        job_timeout=None,
        job_retries=config.job_retries,
        max_worker_restarts=config.max_worker_restarts,
        cancel_grace=config.cancel_grace,
        fault_plan=fault_plan,
        store_url=store_url,
    )
    server = JobServer(scheduler, host=config.host, port=0)
    out: dict[str, Any] = {
        "faulted": fault_plan is not None and bool(fault_plan.rules),
    }
    if config.store:
        out["store_node"] = {"enabled": True, "kill_planned": kill_store}
    try:
        _, port = await server.start()
        kill_after = max(1, len(rows) // 2)
        store_killed = False

        async def on_progress(done: int) -> None:
            nonlocal store_killed
            if store_killed or done < kill_after:
                return
            store_killed = True
            assert store_server is not None
            await store_server.kill()

        trigger = (
            on_progress
            if (kill_store and store_server is not None)
            else None
        )
        start = time.perf_counter()
        records = await _drive(config, port, rows, trigger)
        out["wall_s"] = time.perf_counter() - start
        if config.store:
            out["store_node"]["killed"] = store_killed
        if fault_plan is not None and config.cancel_probe:
            out["cancel_probe"] = await _cancel_probe(config, port)
        # The same server object must still answer after every fault:
        # the pool restarts workers, never the serve front.
        probe = LoadClient(config.host, port, timeout=config.timeout)
        try:
            stats = (await probe.request("GET", "/stats")).json()
            out["server_survived"] = True
        except Exception as exc:  # noqa: BLE001 - the gate reports it
            stats = {}
            out["server_survived"] = False
            out["server_error"] = f"{type(exc).__name__}: {exc}"
        finally:
            await probe.aclose()
        out["records"] = records
        out["states"] = _state_counts(records)
        out["supervisor"] = stats.get("supervisor", {})
        if "remote" in stats:
            out["remote"] = stats["remote"]
        if "degraded_reasons" in stats:
            out["degraded_reasons"] = stats["degraded_reasons"]
        out["scheduler"] = {
            k: stats.get(k)
            for k in ("executed", "failed", "cancelled", "poisoned",
                      "timed_out", "unavailable")
        }
    finally:
        await server.aclose()
        if store_server is not None:
            await store_server.aclose()
        shutil.rmtree(cache_dir, ignore_errors=True)
        if store_cache is not None:
            shutil.rmtree(store_cache, ignore_errors=True)
    return out


def _state_counts(records: list[dict[str, Any]]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in records:
        state = str(record.get("state"))
        counts[state] = counts.get(state, 0) + 1
    return counts


def _diff(
    faulted: list[dict[str, Any]], reference: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """Row-by-row canonical comparison; every mismatch is a finding."""
    divergences: list[dict[str, Any]] = []
    for index, (f_rec, r_rec) in enumerate(zip(faulted, reference)):
        if f_rec.get("state") != r_rec.get("state"):
            divergences.append({
                "index": index,
                "label": f_rec.get("label", r_rec.get("label")),
                "kind": "state",
                "faulted": f_rec.get("state"),
                "reference": r_rec.get("state"),
            })
            continue
        f_bytes = json.dumps(f_rec.get("result"), sort_keys=True)
        r_bytes = json.dumps(r_rec.get("result"), sort_keys=True)
        if f_bytes != r_bytes:
            divergences.append({
                "index": index,
                "label": f_rec.get("label", r_rec.get("label")),
                "kind": "result",
                "detail": _first_difference(f_bytes, r_bytes),
            })
    return divergences


def _first_difference(a: str, b: str) -> str:
    for i, (ca, cb) in enumerate(zip(a, b)):
        if ca != cb:
            lo = max(0, i - 40)
            return (
                f"first differing byte at {i}: "
                f"faulted ...{a[lo:i + 40]!r} vs "
                f"reference ...{b[lo:i + 40]!r}"
            )
    return f"length {len(a)} vs {len(b)} (one is a prefix of the other)"


async def run_chaos(config: ChaosConfig) -> dict[str, Any]:
    """Run both variants; returns the ``ompdart-chaos/1`` payload.

    Raises :class:`ValueError` for an unparseable fault plan; every
    runtime outcome (including a broken one) lands in the payload for
    :func:`gate_chaos` to judge.
    """
    if config.kill_store and not config.store:
        raise ValueError("kill_store requires store (nothing to kill)")
    plan = parse_fault_plan(config.plan, seed=config.seed)
    rows = _workload(config)
    faulted = await _run_variant(
        config, rows, plan, kill_store=config.kill_store
    )
    reference = await _run_variant(config, rows, None)
    divergences = _diff(
        faulted.get("records", []), reference.get("records", [])
    )
    payload: dict[str, Any] = {
        "schema": CHAOS_SCHEMA,
        "tool_version": __version__,
        "config": {
            "jobs": config.jobs,
            "workers": config.workers,
            "clients": config.clients,
            "seed": config.seed,
            "plan": config.plan,
            "distinct_transforms": config.distinct_transforms,
            "job_retries": config.job_retries,
            "max_worker_restarts": config.max_worker_restarts,
            "cancel_grace": config.cancel_grace,
            "store": config.store,
            "kill_store": config.kill_store,
        },
        "methodology": (
            "One seeded deterministic job mix is served twice by "
            "in-process ompdart servers over the supervised worker "
            "pool: once under the fault plan, once fault-free. "
            "Served results are compared row by row after stripping "
            "timing and cache-temperature fields; any byte of "
            "divergence fails the gate. Fault decisions are a pure "
            "function of (seed, kind, job key), so runs reproduce."
        ),
        "divergences": divergences[:25],
        "divergence_count": len(divergences),
    }
    for name, variant in (("chaos", faulted), ("reference", reference)):
        payload[name] = {
            k: variant.get(k)
            for k in ("wall_s", "states", "supervisor",
                      "scheduler", "server_survived", "server_error",
                      "cancel_probe", "remote", "degraded_reasons",
                      "store_node")
            if k in variant
        }
    return payload


def gate_chaos(payload: dict[str, Any]) -> list[str]:
    """The chaos contract as checks; returns human-readable failures."""
    problems: list[str] = []
    chaos = payload.get("chaos", {})
    reference = payload.get("reference", {})
    count = payload.get("divergence_count", 0)
    if count:
        first = (payload.get("divergences") or [{}])[0]
        problems.append(
            f"{count} served result(s) diverged from the fault-free "
            f"run (first: {first.get('label')} {first.get('kind')})"
        )
    for name, variant in (("chaos", chaos), ("reference", reference)):
        if not variant.get("server_survived", False):
            problems.append(
                f"{name}: server did not survive the run "
                f"({variant.get('server_error', 'no final /stats')})"
            )
        states = variant.get("states", {})
        bad = {s: n for s, n in states.items() if s != "done"}
        if bad:
            problems.append(
                f"{name}: {sum(bad.values())} job(s) not done: {bad}"
            )
    supervisor = chaos.get("supervisor", {})
    plan_text = str(payload.get("config", {}).get("plan", ""))
    expects_kills = (
        KILL_WORKER in plan_text
        and int(payload.get("config", {}).get("jobs", 0)) >= 50
    )
    if expects_kills and not supervisor.get("crashes", 0):
        problems.append(
            "kill-worker plan injected no worker crashes over "
            f"{payload.get('config', {}).get('jobs')} jobs — fault "
            "wiring is broken"
        )
    if supervisor:
        restarts = supervisor.get("restarts", 0)
        budget = supervisor.get("max_restarts", 0)
        if budget and restarts > budget:
            problems.append(
                f"worker restarts {restarts} exceeded budget {budget}"
            )
    config = payload.get("config", {})
    if config.get("store") and config.get("kill_store"):
        remote = chaos.get("remote") or {}
        if not remote.get("breaker_opens", 0):
            problems.append(
                "store node was killed mid-run but the remote circuit "
                "breaker never opened — degradation wiring is broken"
            )
        node = chaos.get("store_node") or {}
        if not node.get("killed", False):
            problems.append(
                "kill_store was requested but the store node was never "
                "killed (workload too short to reach the trigger?)"
            )
    if (
        config.get("store")
        and int(config.get("jobs", 0)) >= 50
        and any(k in plan_text for k in (DROP_CONN, PARTITION))
    ):
        remote = chaos.get("remote") or {}
        if not remote.get("errors", 0):
            problems.append(
                "network fault plan injected no remote store errors "
                f"over {config.get('jobs')} jobs — fault wiring is "
                "broken"
            )
    probe = chaos.get("cancel_probe")
    if probe is not None:
        if probe.get("state") != "cancelled":
            problems.append(
                "cancel probe did not settle cancelled "
                f"(state={probe.get('state')!r}, "
                f"error={probe.get('error')!r})"
            )
        else:
            grace = float(probe.get("grace_s") or 0.0)
            # The scheduler waits grace + 2s for the settle; transport
            # adds a little — anything near the job's sleep means the
            # kill never fired.
            budget_s = grace + 3.0
            if float(probe.get("cancel_s") or 0.0) > budget_s:
                problems.append(
                    f"cancel probe took {probe['cancel_s']:.2f}s "
                    f"(budget {budget_s:g}s): worker was not killed "
                    "within grace"
                )
    return problems


def render_chaos(payload: dict[str, Any]) -> str:
    """Human-readable summary of one chaos artifact."""
    config = payload.get("config", {})
    lines = [
        f"chaos: {config.get('jobs')} job(s) x {config.get('workers')} "
        f"worker(s), seed {config.get('seed')}, plan {config.get('plan')}"
    ]
    for name in ("chaos", "reference"):
        variant = payload.get(name, {})
        supervisor = variant.get("supervisor", {})
        lines.append(
            f"  {name:<9s} wall {variant.get('wall_s', 0.0):6.1f}s  "
            f"states {variant.get('states', {})}  "
            f"crashes {supervisor.get('crashes', 0)}  "
            f"retries {supervisor.get('retries', 0)}  "
            f"restarts {supervisor.get('restarts', 0)}"
        )
    remote = payload.get("chaos", {}).get("remote")
    if remote:
        node = payload.get("chaos", {}).get("store_node", {})
        lines.append(
            f"  remote store: hits {remote.get('hits', 0)} "
            f"misses {remote.get('misses', 0)} "
            f"puts {remote.get('puts', 0)} "
            f"errors {remote.get('errors', 0)} "
            f"breaker opens {remote.get('breaker_opens', 0)} "
            f"(store node killed: {node.get('killed', False)})"
        )
    probe = payload.get("chaos", {}).get("cancel_probe")
    if probe:
        lines.append(
            f"  cancel probe: state={probe.get('state')} "
            f"in {probe.get('cancel_s', 0.0):.3f}s "
            f"(grace {probe.get('grace_s', 0.0):g}s, job slept "
            f"{probe.get('job_sleep_s', 0.0):g}s)"
        )
    lines.append(
        f"  divergences: {payload.get('divergence_count', 0)}"
    )
    return "\n".join(lines)
