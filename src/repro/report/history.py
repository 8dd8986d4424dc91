"""BENCH trajectory: fold accumulated suite artifacts into a trend table.

CI has uploaded an ``ompdart-suite-perf`` JSON per run since PR 2, and
each variant has carried its real simulation wall time (``sim_wall_s``)
since PR 3.  ``ompdart bench-history a.json b.json ...`` folds any
number of those artifacts — ordered oldest to newest on the command
line — into an ASCII trend table with a unicode sparkline per row, so
a perf regression (or a win, like the phase-2 vectorizer) is visible
across CI history without spreadsheet work.

The artifacts need not agree on platforms or benchmarks: rows are the
union, and runs that lack a cell show ``-``.  Schema versions are
mixed freely (any ``ompdart-suite-perf/`` artifact qualifies).

``ompdart-load-perf/`` artifacts (the ``ompdart load`` serve harness)
fold into the same table: each mode's p50/p99 request latency becomes
a row under the pseudo-platform ``serve``, so served-latency history
gets the same longitudinal view as kernel perf.  ``ompdart-batch-perf/``
artifacts (the ``ompdart bench-batch`` throughput harness) land as
per-file wall time under the pseudo-platform ``batch``.  All three
kinds mix freely on one command line — rows a run lacks show ``-``
as usual.
"""

from __future__ import annotations

from typing import Any

from ..artifact import read_artifact
from .ascii import render_table

__all__ = ["load_artifact", "history_rows", "render_history"]

#: Eight-level block sparkline, lowest to highest.
_SPARK = "▁▂▃▄▅▆▇█"

_VARIANTS = ("unoptimized", "ompdart", "expert")


def load_artifact(path: str) -> dict[str, Any] | None:
    """Parse and schema-check one suite or load perf artifact.

    Returns None for an empty (or whitespace-only) file: a freshly
    seeded BENCH trajectory holds placeholders before the first CI
    upload, and an empty data point means "nothing recorded yet", not
    a malformed artifact.
    """
    try:
        return read_artifact(
            path, "ompdart-suite-perf/", "ompdart-load-perf/",
            "ompdart-batch-perf/",
        )
    except ValueError:
        with open(path, "r", encoding="utf-8") as fh:
            if not fh.read().strip():
                return None
        raise


def _load_cells(payload: dict[str, Any]) -> dict[tuple[str, str, str], float]:
    """Serve-latency cells of one ``ompdart-load-perf`` artifact.

    Each mode's p50/p99 request latency lands under the ``serve``
    pseudo-platform — seconds, like ``sim_wall_s``, so the shared
    renderer's ms scaling applies unchanged.
    """
    cells: dict[tuple[str, str, str], float] = {}
    modes = payload.get("modes")
    if not isinstance(modes, dict):
        return cells
    for mode, result in modes.items():
        if not isinstance(result, dict):
            continue
        for metric in ("p50_s", "p99_s"):
            value = result.get(metric)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                label = metric[:-2]  # "p50_s" -> "p50"
                cells[("serve", str(mode), label)] = float(value)
    return cells


def _batch_cells(payload: dict[str, Any]) -> dict[tuple[str, str, str], float]:
    """Per-file wall cells of one ``ompdart-batch-perf`` artifact.

    Throughput is folded as *seconds per file* under the ``batch``
    pseudo-platform so the shared renderer's ms scaling (and the
    smaller-is-better reading of every other row) applies unchanged.
    """
    cells: dict[tuple[str, str, str], float] = {}
    count = payload.get("count")
    wall = payload.get("wall_s")
    if (
        isinstance(count, int)
        and count > 0
        and isinstance(wall, (int, float))
        and not isinstance(wall, bool)
    ):
        name = f"synth-{count}@{payload.get('seed', 0)}"
        variant = f"j{payload.get('jobs', 1)}"
        cells[("batch", name, variant)] = float(wall) / count
    return cells


def _cells(payload: dict[str, Any]) -> dict[tuple[str, str, str], float]:
    """(platform, benchmark, variant) -> sim_wall_s for one artifact."""
    cells: dict[tuple[str, str, str], float] = {}
    if str(payload.get("schema", "")).startswith("ompdart-load-perf/"):
        return _load_cells(payload)
    if str(payload.get("schema", "")).startswith("ompdart-batch-perf/"):
        return _batch_cells(payload)
    results = payload.get("results")
    if not isinstance(results, dict):
        return cells
    for platform, sweep in results.items():
        benchmarks = (
            sweep.get("benchmarks") if isinstance(sweep, dict) else None
        )
        if not isinstance(benchmarks, dict):
            continue
        for name, run in benchmarks.items():
            variants = (
                run.get("variants") if isinstance(run, dict) else None
            )
            if not isinstance(variants, dict):
                continue
            for variant, profile in variants.items():
                if not isinstance(profile, dict):
                    continue
                value = profile.get("sim_wall_s")
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    cells[(platform, name, variant)] = float(value)
    return cells


def sparkline(values: list[float | None]) -> str:
    """Min-max scaled block sparkline; gaps render as spaces."""
    present = [v for v in values if v is not None]
    if not present:
        return ""
    lo, hi = min(present), max(present)
    span = hi - lo
    out = []
    for v in values:
        if v is None:
            out.append(" ")
        elif span <= 0:
            out.append(_SPARK[0])
        else:
            idx = int((v - lo) / span * (len(_SPARK) - 1))
            out.append(_SPARK[idx])
    return "".join(out)


def history_rows(
    payloads: list[dict[str, Any]],
    *,
    platform: str | None = None,
    benchmarks: list[str] | None = None,
) -> list[tuple[str, str, str, list[float | None]]]:
    """One row per (platform, benchmark, variant) across all artifacts.

    Rows are the union over the artifacts, ordered by first appearance;
    missing cells are None.  A trailing ``(total)`` row per platform
    sums each artifact's present cells — the suite-wall trajectory.
    """
    per_run = [_cells(p) for p in payloads]
    keys: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str, str]] = set()
    for cells in per_run:
        for key in cells:
            if key in seen:
                continue
            if platform is not None and key[0] != platform:
                continue
            if benchmarks is not None and key[1] not in benchmarks:
                continue
            seen.add(key)
            keys.append(key)
    rows = [
        (p, b, v, [cells.get((p, b, v)) for cells in per_run])
        for p, b, v in keys
    ]
    platforms = []
    for p, _b, _v in keys:
        if p not in platforms:
            platforms.append(p)
    for p in platforms:
        if p in ("serve", "batch"):
            # Latency percentiles and per-file walls over differently
            # sized corpora don't sum into a meaningful total the way
            # per-benchmark wall times do.
            continue
        totals: list[float | None] = []
        for cells in per_run:
            # Only the displayed (filter-surviving) rows contribute —
            # the total must track what the table shows.
            values = [
                cells[key] for key in keys if key[0] == p and key in cells
            ]
            totals.append(sum(values) if values else None)
        rows.append((p, "(total)", "", totals))
    return rows


def render_history(
    payloads: list[dict[str, Any]],
    labels: list[str],
    *,
    platform: str | None = None,
    benchmarks: list[str] | None = None,
) -> str:
    """ASCII trend table of per-variant ``sim_wall_s`` across artifacts."""
    rows = history_rows(payloads, platform=platform, benchmarks=benchmarks)
    if not rows:
        return "bench-history: no sim_wall_s samples in the given artifacts"
    table = []
    for p, b, v, values in rows:
        cells = [
            "-" if value is None else f"{value * 1e3:.1f}" for value in values
        ]
        table.append([p, b, v] + cells + [sparkline(values)])
    header = ["platform", "app", "variant"] + labels + ["trend"]
    text = (
        "BENCH trajectory: per-variant simulation wall time and serve "
        "latency (ms), oldest artifact first\n"
    )
    return text + render_table(header, table)
