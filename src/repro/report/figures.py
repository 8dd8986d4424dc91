"""Generators for paper Figures 3-6 (data series + ASCII rendering).

Each function takes one platform's dict of
:class:`~repro.suite.runner.BenchmarkRun` (``PlatformSweep.runs`` from
:func:`repro.suite.run_sweep`) and returns (series, text):
the numeric rows a plotting pipeline would consume, plus a rendered
plain-text figure.
"""

from __future__ import annotations

from ..suite.runner import BenchmarkRun, SweepResult, geometric_mean
from .ascii import format_bytes, render_table

_VARIANTS = ("Unoptimized", "OMPDart", "Expert")


def _stats_of(run: BenchmarkRun):
    return {
        "Unoptimized": run.unoptimized.stats,
        "OMPDart": run.ompdart.stats,
        "Expert": run.expert.stats,
    }


def figure3(runs: dict[str, BenchmarkRun]):
    """Fig. 3: GPU data transfer activity in bytes (lower is better)."""
    series: dict[str, dict[str, dict[str, int]]] = {}
    rows = []
    for name, run in runs.items():
        per = {}
        for variant, stats in _stats_of(run).items():
            per[variant] = {"HtoD": stats.h2d_bytes, "DtoH": stats.d2h_bytes}
        series[name] = per
        rows.append(
            [name]
            + [format_bytes(per[v]["HtoD"]) for v in _VARIANTS]
            + [format_bytes(per[v]["DtoH"]) for v in _VARIANTS]
        )
    text = "Figure 3: GPU data transfer activity (bytes), lower is better\n"
    text += render_table(
        ["app", "HtoD unopt", "HtoD OMPDart", "HtoD expert",
         "DtoH unopt", "DtoH OMPDart", "DtoH expert"],
        rows,
    )
    return series, text


def figure4(runs: dict[str, BenchmarkRun]):
    """Fig. 4: GPU data transfer activity in memcpy calls."""
    series: dict[str, dict[str, dict[str, int]]] = {}
    rows = []
    for name, run in runs.items():
        per = {}
        for variant, stats in _stats_of(run).items():
            per[variant] = {"HtoD": stats.h2d_calls, "DtoH": stats.d2h_calls}
        series[name] = per
        rows.append(
            [name]
            + [per[v]["HtoD"] for v in _VARIANTS]
            + [per[v]["DtoH"] for v in _VARIANTS]
        )
    text = "Figure 4: GPU data transfer activity (# memcpy calls), lower is better\n"
    text += render_table(
        ["app", "HtoD unopt", "HtoD OMPDart", "HtoD expert",
         "DtoH unopt", "DtoH OMPDart", "DtoH expert"],
        rows,
    )
    return series, text


def figure5(runs: dict[str, BenchmarkRun]):
    """Fig. 5: speedups over the unoptimized code (higher is better)."""
    series: dict[str, dict[str, float]] = {}
    rows = []
    for name, run in runs.items():
        series[name] = {
            "OMPDart": run.speedup_x,
            "Expert": run.expert_speedup_x,
        }
        rows.append([name, f"{run.speedup_x:.2f}x", f"{run.expert_speedup_x:.2f}x"])
    tool_geo = geometric_mean([v["OMPDart"] for v in series.values()])
    exp_geo = geometric_mean([v["Expert"] for v in series.values()])
    tool_vs_expert = geometric_mean(
        [run.ompdart.stats.speedup_over(run.expert.stats) for run in runs.values()]
    )
    rows.append(["(geomean)", f"{tool_geo:.2f}x", f"{exp_geo:.2f}x"])
    text = "Figure 5: speedups over unoptimized OpenMP offload code\n"
    text += render_table(["app", "OMPDart", "Expert"], rows)
    text += (
        f"\ngeomean OMPDart speedup over unoptimized: {tool_geo:.2f}x"
        f" (paper: 2.8x)\n"
        f"geomean OMPDart speedup over expert: {tool_vs_expert:.2f}x"
        f" (paper: 1.05x)"
    )
    return series, text


def figure6(runs: dict[str, BenchmarkRun]):
    """Fig. 6: data-transfer wall-time improvement (higher is better)."""
    series: dict[str, dict[str, float]] = {}
    rows = []
    for name, run in runs.items():
        series[name] = {
            "OMPDart": run.transfer_time_improvement_x,
            "Expert": run.expert_transfer_time_improvement_x,
        }
        rows.append(
            [name,
             f"{run.transfer_time_improvement_x:.1f}x",
             f"{run.expert_transfer_time_improvement_x:.1f}x"]
        )
    tool_geo = geometric_mean([v["OMPDart"] for v in series.values()])
    exp_geo = geometric_mean([v["Expert"] for v in series.values()])
    rows.append(["(geomean)", f"{tool_geo:.1f}x", f"{exp_geo:.1f}x"])
    text = "Figure 6: improvements in data-transfer wall time over unoptimized\n"
    text += render_table(["app", "OMPDart", "Expert"], rows)
    text += (
        f"\ngeomean transfer-time improvement: OMPDart {tool_geo:.1f}x"
        f" (paper: 5.1x), expert {exp_geo:.1f}x (paper: 4.2x)"
    )
    return series, text


def figure_coverage(runs: dict[str, BenchmarkRun]):
    """Vectorizer coverage: lowering strategy and residual fallbacks.

    One row per benchmark with the per-variant strategy label (the
    weakest-ranked strategy any launch used), the vectorized/total
    launch counts, and the fallback reason when any launch ran
    interpreted.  Since the phase-2 executor the expected steady state
    is a full column of strategies and an empty reason column.
    """
    series: dict[str, dict[str, dict[str, object]]] = {}
    rows = []
    results_of = {
        "Unoptimized": lambda r: r.unoptimized,
        "OMPDart": lambda r: r.ompdart,
        "Expert": lambda r: r.expert,
    }
    for name, run in runs.items():
        per: dict[str, dict[str, object]] = {}
        cells = []
        reasons = []
        for variant in _VARIANTS:
            result = results_of[variant](run)
            strategy = result.vector_strategy or "-"
            per[variant] = {
                "vector_strategy": strategy,
                "vectorized_launches": result.vectorized_launches,
                "kernel_launches": result.stats.kernel_launches,
                "fallback_reason": result.fallback_reason,
            }
            cells.append(
                f"{strategy} {result.vectorized_launches}"
                f"/{result.stats.kernel_launches}"
            )
            if result.fallback_reason:
                reasons.append(result.fallback_reason)
        series[name] = per
        rows.append([name] + cells + [reasons[0] if reasons else ""])
    text = (
        "Vectorizer coverage: strategy + vectorized/total launches "
        "per variant\n"
    )
    text += render_table(
        ["app", "unoptimized", "OMPDart", "expert", "fallback reason"],
        rows,
    )
    return series, text


def figure_cross_platform(sweep: SweepResult):
    """Fig. 5/6-style cross-platform comparison of the mapping win.

    One column per platform, one row per benchmark, two metric blocks:
    the OMPDart end-to-end speedup over the unoptimized code (Fig. 5)
    and the data-transfer wall-time improvement (Fig. 6).  The geomean
    row is the headline: it shows the win shrinking as interconnect
    bandwidth rises and collapsing to ~1.0x on coherent unified memory.
    """
    plat_names = [p.name for p in sweep.platforms]
    series: dict[str, dict[str, dict[str, float]]] = {}
    speed_rows = []
    xfer_rows = []
    for name in sweep.benchmark_names:
        per = {}
        for pn in plat_names:
            run = sweep[pn].runs[name]
            per[pn] = {
                "speedup_x": run.speedup_x,
                "transfer_time_improvement_x": run.transfer_time_improvement_x,
            }
        series[name] = per
        speed_rows.append(
            [name] + [f"{per[pn]['speedup_x']:.2f}x" for pn in plat_names]
        )
        xfer_rows.append(
            [name]
            + [
                f"{per[pn]['transfer_time_improvement_x']:.1f}x"
                for pn in plat_names
            ]
        )
    speed_rows.append(
        ["(geomean)"]
        + [f"{sweep[pn].geomean_speedup_x:.2f}x" for pn in plat_names]
    )
    xfer_rows.append(
        ["(geomean)"]
        + [
            f"{sweep[pn].geomean_transfer_time_improvement_x:.1f}x"
            for pn in plat_names
        ]
    )
    text = (
        "Cross-platform sweep: OMPDart speedup over unoptimized "
        "(Fig. 5 metric)\n"
    )
    text += render_table(["app"] + plat_names, speed_rows)
    text += (
        "\nCross-platform sweep: data-transfer wall-time improvement "
        "(Fig. 6 metric)\n"
    )
    text += render_table(["app"] + plat_names, xfer_rows)
    unified = [p.name for p in sweep.platforms if p.unified_memory]
    if unified:
        text += (
            "\nunified-memory platform(s) "
            + ", ".join(unified)
            + ": explicit staging is free, so the mapping win is ~1.0x "
            "by construction"
        )
    return series, text
