"""Per-pass / per-phase self-time and allocation profiling.

``ompdart profile FILE`` (and ``--profile OUT.json`` on run, batch and
suite) answers "where does the transform frontend actually spend its
time?" with measurements instead of guesses:

* **passes** — wall-clock self-time of every pipeline pass, plus net
  and peak allocation deltas (tracemalloc) and the cyclic collector's
  pauses inside the pass (time and collections per generation, from
  ``gc.callbacks``) when profiling in-process;
* **phases** — the frontend-oriented grouping used throughout this
  repo's perf work: ``lex`` (measured standalone over the same
  source), ``macro`` (preprocess minus lex), ``parse``, ``analysis``
  (constraints + effects + cfg), ``plan``, ``codegen``, ``rewrite``.

The payload is the ``ompdart-profile/1`` JSON artifact; aggregate
profiles (batch/suite, where per-pass walls come from worker outcome
timings and allocation is not observable) carry ``kind: "aggregate"``
and null alloc and collector columns.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from typing import Any, Iterable, Mapping

from .._version import __version__
from ..artifact import read_artifact

__all__ = [
    "SCHEMA",
    "PassProfiler",
    "profile_source",
    "aggregate_profile",
    "load_profile",
    "render_profile",
]

#: Artifact schema identifier; bump on incompatible layout changes.
SCHEMA = "ompdart-profile/1"

#: Frontend phase -> the pipeline passes whose self-time it covers.
#: ``lex`` is measured standalone and subtracted from preprocess to
#: form ``macro``, so the phase walls still sum to the pipeline wall.
PHASE_PASSES: dict[str, tuple[str, ...]] = {
    "parse": ("parse",),
    "analysis": ("constraints", "effects", "cfg"),
    "plan": ("plan",),
    "codegen": ("codegen",),
    "rewrite": ("rewrite",),
}


class PassProfiler:
    """PassManager observer recording wall, tracemalloc deltas and
    collector pauses.

    Attach via ``manager.profiler = PassProfiler()`` around a run;
    ``rows`` then holds one entry per executed pass, in pipeline order.
    Inside ``with PassProfiler() as profiler:`` it also hooks
    ``gc.callbacks``, so each row carries ``gc_s`` (seconds the cyclic
    collector paused the pass) and ``gc_collections`` (collections of
    generations 0, 1 and 2); outside it those are None.
    """

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] = []
        self._snapshot: tuple[int, int] | None = None
        self._started_tracing = False
        self._gc_hooked = False
        self._gc_started = 0.0
        self._gc_s = 0.0
        self._gc_collections = [0, 0, 0]

    def __enter__(self) -> "PassProfiler":
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        gc.callbacks.append(self._on_gc)
        self._gc_hooked = True
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._on_gc)
        self._gc_hooked = False
        if self._started_tracing:
            tracemalloc.stop()

    def _on_gc(self, phase: str, info: Mapping[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self._gc_s += time.perf_counter() - self._gc_started
            self._gc_collections[info["generation"]] += 1

    def begin_pass(self, name: str) -> None:
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            self._snapshot = tracemalloc.get_traced_memory()
        else:
            self._snapshot = None
        self._gc_s = 0.0
        self._gc_collections = [0, 0, 0]

    def end_pass(self, name: str, wall_s: float, event: str) -> None:
        alloc_kb = peak_kb = None
        if self._snapshot is not None:
            before, _ = self._snapshot
            current, peak = tracemalloc.get_traced_memory()
            alloc_kb = max(0, current - before) / 1024.0
            peak_kb = max(0, peak - before) / 1024.0
        hooked = self._gc_hooked
        self.rows.append(
            {
                "name": name,
                "wall_s": wall_s,
                "alloc_kb": alloc_kb,
                "peak_kb": peak_kb,
                "gc_s": self._gc_s if hooked else None,
                "gc_collections": list(self._gc_collections) if hooked else None,
                "cache": event,
            }
        )


def _measure_lex(source: str, filename: str) -> tuple[float, float | None]:
    """(wall, alloc_kb) of lexing ``source`` standalone."""
    from ..frontend.lexer import tokenize

    tracing = tracemalloc.is_tracing()
    if tracing:
        before, _ = tracemalloc.get_traced_memory()
    start = time.perf_counter()
    tokenize(source, filename)
    wall = time.perf_counter() - start
    if tracing:
        current, _ = tracemalloc.get_traced_memory()
        return wall, max(0, current - before) / 1024.0
    return wall, None


def profile_source(
    source: str,
    filename: str = "<input>",
    options: Any = None,
) -> dict[str, Any]:
    """Profile one cold uncached transform of ``source``.

    Returns the ``ompdart-profile/1`` payload.  Diagnostic failures
    (constraint violations etc.) still produce a profile of the passes
    that ran; the payload records the error.
    """
    from ..diagnostics import ToolError
    from ..pipeline.context import ToolOptions
    from ..pipeline.manager import PassManager

    manager = PassManager(cache=None)
    error: str | None = None
    with PassProfiler() as profiler:
        lex_wall, lex_alloc = _measure_lex(source, filename)
        manager.profiler = profiler
        start = time.perf_counter()
        try:
            manager.run(source, filename, options or ToolOptions())
        except ToolError as exc:
            error = str(exc)
        wall = time.perf_counter() - start

    passes = profiler.rows
    by_name = {row["name"]: row for row in passes}

    def _phase(name: str, pass_names: Iterable[str]) -> dict[str, Any]:
        rows = [by_name[p] for p in pass_names if p in by_name]
        allocs = [r["alloc_kb"] for r in rows]
        return {
            "name": name,
            "wall_s": sum(r["wall_s"] for r in rows),
            "alloc_kb": (
                sum(allocs) if allocs and None not in allocs else None
            ),
        }

    phases: list[dict[str, Any]] = []
    pre = by_name.get("preprocess")
    if pre is not None:
        # The standalone lex measurement is capped by the preprocess
        # wall it is part of, so phase walls keep summing to the total.
        lex_share = min(lex_wall, pre["wall_s"])
        phases.append(
            {"name": "lex", "wall_s": lex_share, "alloc_kb": lex_alloc}
        )
        phases.append(
            {
                "name": "macro",
                "wall_s": pre["wall_s"] - lex_share,
                "alloc_kb": None,
            }
        )
    for phase_name, pass_names in PHASE_PASSES.items():
        phases.append(_phase(phase_name, pass_names))

    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "kind": "single",
        "inputs": [filename],
        "count": 1,
        "wall_s": wall,
        "error": error,
        "passes": passes,
        "phases": phases,
    }


def aggregate_profile(
    timings: Iterable[Mapping[str, float]],
    inputs: Iterable[str],
    *,
    wall_s: float | None = None,
) -> dict[str, Any]:
    """Fold many per-run pass-timing maps into one aggregate profile.

    Used by batch/suite, where per-pass walls arrive from worker
    outcomes and allocation is not observable across the process
    boundary.
    """
    totals: dict[str, float] = {}
    count = 0
    for timing in timings:
        count += 1
        for name, seconds in timing.items():
            totals[name] = totals.get(name, 0.0) + seconds
    passes = [
        {
            "name": name,
            "wall_s": seconds,
            "alloc_kb": None,
            "peak_kb": None,
            "gc_s": None,
            "gc_collections": None,
            "cache": None,
        }
        for name, seconds in totals.items()
    ]
    phases = [
        {
            "name": phase,
            "wall_s": sum(totals.get(p, 0.0) for p in pass_names),
            "alloc_kb": None,
        }
        for phase, pass_names in (
            ("frontend", ("preprocess", "parse")),
            *PHASE_PASSES.items(),
        )
    ]
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "kind": "aggregate",
        "inputs": list(inputs),
        "count": count,
        "wall_s": wall_s if wall_s is not None else sum(totals.values()),
        "error": None,
        "passes": passes,
        "phases": phases,
    }


def load_profile(path: str) -> dict[str, Any]:
    """Read + validate an ``ompdart-profile/1`` artifact."""
    payload = read_artifact(path, "ompdart-profile/")
    for field in ("passes", "phases", "wall_s", "count"):
        if field not in payload:
            raise ValueError(f"{path}: profile artifact missing {field!r}")
    return payload


def _fmt_ms(seconds: float | None) -> str:
    return "-" if seconds is None else f"{seconds * 1e3:9.3f}"


def _fmt_kb(kb: float | None) -> str:
    return "-" if kb is None else f"{kb:9.1f}"


def _fmt_gens(counts: list[int] | None) -> str:
    return "-" if counts is None else "/".join(str(n) for n in counts)


def render_profile(payload: Mapping[str, Any]) -> str:
    """The ``--report`` table for one profile artifact."""
    wall = payload["wall_s"] or 0.0
    lines = [
        f"profile ({payload.get('kind', 'single')}) over "
        f"{payload['count']} input(s): wall {wall * 1e3:.3f} ms",
        "",
        f"{'pass':<12} {'wall ms':>9} {'alloc KiB':>9} "
        f"{'peak KiB':>9} {'gc ms':>9} {'gc gen0/1/2':>11} {'share':>6}  cache",
    ]
    for row in payload["passes"]:
        share = row["wall_s"] / wall if wall else 0.0
        lines.append(
            f"{row['name']:<12} {_fmt_ms(row['wall_s']):>9} "
            f"{_fmt_kb(row['alloc_kb']):>9} {_fmt_kb(row.get('peak_kb')):>9} "
            f"{_fmt_ms(row.get('gc_s')):>9} "
            f"{_fmt_gens(row.get('gc_collections')):>11} "
            f"{share:>6.1%}  {row.get('cache') or '-'}"
        )
    lines.append("")
    lines.append(f"{'phase':<12} {'wall ms':>9} {'alloc KiB':>9} {'share':>6}")
    for row in payload["phases"]:
        share = row["wall_s"] / wall if wall else 0.0
        lines.append(
            f"{row['name']:<12} {_fmt_ms(row['wall_s']):>9} "
            f"{_fmt_kb(row['alloc_kb']):>9} {share:>6.1%}"
        )
    if payload.get("error"):
        lines.append("")
        lines.append(f"run ended with error: {payload['error']}")
    return "\n".join(lines)
