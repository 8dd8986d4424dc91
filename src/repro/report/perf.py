"""Machine-readable performance artifact for the evaluation suite.

``ompdart suite --json out.json`` serializes a full (possibly
multi-platform) sweep into one JSON document: per-benchmark transfer
profiles for all three variants, the Fig. 3-6 ratio metrics, the
per-platform geomeans, and the tool-side per-pass timings and cache
events.  The artifact gives future revisions a bench trajectory to
diff against — schema changes bump ``SCHEMA``.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

from .._version import __version__
from ..runtime.platform import Platform
from ..runtime.profiler import TransferStats
from ..suite.runner import BenchmarkRun, SweepResult

__all__ = ["SCHEMA", "run_to_dict", "sweep_to_dict"]

#: Artifact schema identifier; bump on incompatible layout changes.
#: /2 adds the vectorizer-coverage fields (``vector_strategy``,
#: ``fallback_reason``, ``strategy_launches``) per variant; /3 added
#: an optional top-level ``artifact_store`` block, which is no longer
#: written (each benchmark's ``tool.cache_events`` records its cache
#: traffic).  Readers accept any ``ompdart-suite-perf/`` prefix.
SCHEMA = "ompdart-suite-perf/4"


def _stats_dict(result: Any) -> dict[str, Any]:
    """One variant's profile: modelled metrics + real simulation time.

    ``sim_wall_s`` (host wall-clock seconds the simulation took),
    ``vectorized_launches`` and ``strategy_launches`` are
    *observability* fields: they are the only non-deterministic /
    executor-dependent entries, and the ``suite-diff`` comparator's
    numeric gates deliberately ignore them.  They exist so BENCH
    trajectories capture real speedups (e.g. the vectorizing kernel
    executor) that the modelled metrics, by design, cannot show.
    ``vector_strategy`` *is* gated: suite-diff fails when a variant's
    strategy rank regresses (a previously vectorized variant falling
    back to the interpreter, or a codegen kernel degrading to a
    weaker lowering).
    """
    stats: TransferStats = result.stats
    return {
        "h2d_calls": stats.h2d_calls,
        "d2h_calls": stats.d2h_calls,
        "h2d_bytes": stats.h2d_bytes,
        "d2h_bytes": stats.d2h_bytes,
        "transfer_time_s": stats.transfer_time_s,
        "kernel_time_s": stats.kernel_time_s,
        "host_time_s": stats.host_time_s,
        "total_time_s": stats.total_time_s,
        "kernel_launches": stats.kernel_launches,
        "map_overhead_s": stats.map_overhead_s,
        "launches": stats.launches,
        "sim_wall_s": result.wall_time_s,
        "vectorized_launches": result.vectorized_launches,
        "vector_strategy": result.vector_strategy,
        "fallback_reason": result.fallback_reason,
        "strategy_launches": dict(result.strategy_launches),
    }


def _platform_dict(platform: Platform) -> dict[str, Any]:
    return {
        "name": platform.name,
        "device": platform.device,
        "interconnect": platform.interconnect,
        "unified_memory": platform.unified_memory,
        "cost_model": asdict(platform.cost_model),
    }


def _finite(value: float) -> float | None:
    """JSON has no inf/nan; represent them as null."""
    return value if value == value and abs(value) != float("inf") else None


def _run_dict(run: BenchmarkRun) -> dict[str, Any]:
    return {
        "variants": {
            "unoptimized": _stats_dict(run.unoptimized),
            "ompdart": _stats_dict(run.ompdart),
            "expert": _stats_dict(run.expert),
        },
        "outputs_match": run.outputs_match,
        "transfer_reduction_x": _finite(run.transfer_reduction_x),
        "call_reduction_vs_expert": _finite(run.call_reduction_vs_expert),
        "speedup_x": _finite(run.speedup_x),
        "expert_speedup_x": _finite(run.expert_speedup_x),
        "transfer_time_improvement_x": _finite(
            run.transfer_time_improvement_x
        ),
        "expert_transfer_time_improvement_x": _finite(
            run.expert_transfer_time_improvement_x
        ),
        "tool": {
            "elapsed_seconds": run.transform.elapsed_seconds,
            "directive_count": run.transform.directive_count(),
            "pass_timings": dict(run.transform.pass_timings),
            "cache_events": dict(run.transform.cache_events),
        },
    }


def run_to_dict(run: BenchmarkRun) -> dict[str, Any]:
    """One benchmark run's JSON-safe payload (the served job result)."""
    return _run_dict(run)


def sweep_to_dict(sweep: SweepResult) -> dict[str, Any]:
    """Serialize a sweep into the JSON-safe artifact layout."""
    results: dict[str, Any] = {}
    for platform_sweep in sweep:
        results[platform_sweep.platform.name] = {
            "benchmarks": {
                name: _run_dict(run)
                for name, run in platform_sweep.runs.items()
            },
            "geomeans": {
                k: _finite(v) for k, v in platform_sweep.geomeans().items()
            },
        }
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "platforms": [_platform_dict(p) for p in sweep.platforms],
        "benchmark_order": sweep.benchmark_names,
        "results": results,
    }
