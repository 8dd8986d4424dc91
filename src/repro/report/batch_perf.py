"""Batch-throughput benchmark: files/sec over the synthetic corpus.

``ompdart bench-batch`` measures the end-to-end batch transform rate —
corpus generation excluded, submit-to-last-outcome included — on a
seeded :mod:`repro.suite.synth` corpus, so the number is reproducible
across machines up to hardware speed and comparable across revisions
on the same machine.  The result is the ``ompdart-batch-perf/1`` JSON
artifact:

* ``files_per_sec`` — the headline gate metric (CI compares it against
  a committed baseline with a relative tolerance);
* ``dedup`` — how many inputs were distinct vs. fanned out from a
  representative (the corpus duplicates ~:data:`~repro.suite.synth.
  DUPLICATE_SHARE` of its files on purpose);
* ``pass_wall_s`` — per-pass wall totals over the representatives
  that actually ran, for drilling into *where* a regression lives.

``ompdart bench-history`` folds these artifacts into the BENCH
trajectory table as per-file wall time under the pseudo-platform
``batch``.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from .._version import __version__

__all__ = [
    "SCHEMA",
    "run_bench_batch",
    "gate_batch_perf",
    "render_batch_perf",
]

#: Artifact schema identifier; bump on incompatible layout changes.
SCHEMA = "ompdart-batch-perf/1"


def run_bench_batch(
    count: int,
    *,
    seed: int = 0,
    jobs: int = 1,
    corpus_dir: str | None = None,
    options: Any = None,
) -> dict[str, Any]:
    """Transform a ``(count, seed)`` synthetic corpus and time it.

    The run is cold by construction: a fresh in-memory artifact cache
    (serial) or fresh worker pools (``jobs > 1``), no disk cache.  With
    ``corpus_dir`` the corpus is materialized on disk first and read
    back through the CLI's file path, which adds I/O but matches how a
    real 10k-file batch arrives.
    """
    from ..pipeline.batch import BatchRunStats, transform_batch, transform_paths
    from ..suite.synth import generate_corpus, write_corpus

    run_stats = BatchRunStats()
    if corpus_dir is not None:
        paths = [str(p) for p in write_corpus(corpus_dir, count, seed)]
        start = time.perf_counter()
        outcomes = transform_paths(
            paths, options, jobs=jobs, run_stats=run_stats
        )
    else:
        corpus = generate_corpus(count, seed)
        items = [(source, filename) for filename, source in corpus]
        start = time.perf_counter()
        outcomes = transform_batch(
            items, options, jobs=jobs, run_stats=run_stats
        )
    wall = time.perf_counter() - start

    pass_wall: dict[str, float] = {}
    for outcome in outcomes:
        if outcome.deduped_from is not None:
            continue  # shares a representative's timings; don't double-count
        for name, seconds in outcome.timings.items():
            pass_wall[name] = pass_wall.get(name, 0.0) + seconds
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "count": count,
        "seed": seed,
        "jobs": jobs,
        "wall_s": wall,
        "files_per_sec": count / wall if wall > 0 else 0.0,
        "ok_count": sum(1 for o in outcomes if o.ok),
        "dedup": {
            "unique": run_stats.unique_inputs,
            "duplicates": run_stats.deduped_inputs,
        },
        "pass_wall_s": pass_wall,
    }


def gate_batch_perf(
    payload: Mapping[str, Any],
    *,
    baseline: Mapping[str, Any] | None = None,
    tolerance: float = 0.2,
    min_files_per_sec: float | None = None,
) -> list[str]:
    """Problems that should fail CI; empty means the run passed.

    The baseline comparison is relative (a ``tolerance`` fraction of
    throughput may be lost before it counts), because absolute files/sec
    varies with the host; ``min_files_per_sec`` is the absolute floor
    for runs without a comparable baseline.
    """
    problems: list[str] = []
    ok, count = payload.get("ok_count", 0), payload.get("count", 0)
    if ok != count:
        problems.append(f"{count - ok} of {count} input(s) failed to transform")
    rate = float(payload.get("files_per_sec", 0.0))
    if min_files_per_sec is not None and rate < min_files_per_sec:
        problems.append(
            f"throughput {rate:.1f} files/s below the "
            f"{min_files_per_sec:.1f} files/s floor"
        )
    if baseline is not None:
        base_rate = float(baseline.get("files_per_sec", 0.0))
        floor = base_rate * (1.0 - tolerance)
        if base_rate > 0 and rate < floor:
            problems.append(
                f"throughput {rate:.1f} files/s regressed vs baseline "
                f"{base_rate:.1f} files/s (floor {floor:.1f} at "
                f"tolerance {tolerance:.0%})"
            )
    return problems


def render_batch_perf(payload: Mapping[str, Any]) -> str:
    """Human summary of one bench-batch run."""
    dedup = payload.get("dedup", {})
    lines = [
        f"bench-batch: {payload['count']} file(s) (seed "
        f"{payload['seed']}, {payload['jobs']} job(s)) in "
        f"{payload['wall_s']:.2f}s = {payload['files_per_sec']:.1f} "
        f"files/s; {payload['ok_count']}/{payload['count']} ok, "
        f"{dedup.get('unique', 0)} unique / "
        f"{dedup.get('duplicates', 0)} deduplicated",
    ]
    pass_wall = payload.get("pass_wall_s") or {}
    total = sum(pass_wall.values())
    for name, seconds in sorted(
        pass_wall.items(), key=lambda kv: kv[1], reverse=True
    ):
        share = seconds / total if total else 0.0
        lines.append(f"  {name:<11s} {seconds:8.3f}s  {share:6.1%}")
    return "\n".join(lines)
