"""Three-variant benchmark runner + correctness verification (section VI).

For each application the harness:

1. simulates the **Unoptimized** program (implicit mappings only);
2. feeds the unoptimized source through **OMPDart** and simulates the
   transformed program;
3. simulates the **Expert** program from the suite;
4. verifies all three produce identical output (the paper's correctness
   criterion — the simulator executes kernels against device copies, so
   a wrong mapping yields observably different results);
5. returns the per-variant transfer profiles for the Fig. 3-6 metrics.

The three variants of one benchmark simulate in-process, one after
another, through one pass manager, so each source is parsed once
however many platforms consume it.  Each
:class:`~repro.runtime.interp.SimulationResult` comes back stamped with
its ``wall_time_s`` so the suite JSON artifact records real per-variant
simulation time alongside the modelled metrics.

:func:`run_benchmark` takes a ``platform`` (name or
:class:`~repro.runtime.platform.Platform`); :func:`run_sweep` evaluates
the suite across one or more platforms.  It hands whole benchmarks to
:func:`repro.service.core.dispatch_map`, which runs them serially on
the caller's manager or one built over ``cache_dir``, or with
``jobs > 1`` on the supervised worker pool, where each worker's manager
spills to the same ``cache_dir``.  Either way a benchmark's
parse/transform artifacts are reused across platforms, so the tool runs
once per source, not once per platform.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..core.tool import OMPDart, ToolOptions, TransformResult
from ..pipeline.manager import PassManager
from ..service.core import BatchWorkerError, dispatch_map
from ..runtime.costmodel import CostModel
from ..runtime.interp import SimulationResult, run_simulation
from ..runtime.platform import Platform, resolve_platform
from .registry import BENCHMARK_ORDER, Benchmark, get_benchmark


@dataclass
class BenchmarkRun:
    """All artifacts of one three-variant evaluation."""

    benchmark: Benchmark
    unoptimized: SimulationResult
    ompdart: SimulationResult
    expert: SimulationResult
    transform: TransformResult
    #: Platform the variants were simulated on (None when a raw
    #: ``cost_model`` was supplied instead).
    platform: Platform | None = None

    # -- correctness -----------------------------------------------------

    @property
    def outputs_match(self) -> bool:
        return (
            self.unoptimized.output == self.ompdart.output == self.expert.output
        )

    def verify(self) -> None:
        if not self.outputs_match:
            raise AssertionError(
                f"{self.benchmark.name}: variant outputs diverge\n"
                f"unoptimized: {self.unoptimized.output!r}\n"
                f"ompdart:     {self.ompdart.output!r}\n"
                f"expert:      {self.expert.output!r}"
            )

    # -- Fig. 3 ----------------------------------------------------------

    @property
    def transfer_reduction_x(self) -> float:
        """Unoptimized/OMPDart total transferred bytes."""
        return self.unoptimized.stats.total_bytes / max(
            self.ompdart.stats.total_bytes, 1
        )

    # -- Fig. 4 ----------------------------------------------------------

    @property
    def call_reduction_vs_expert(self) -> float:
        """Fractional memcpy-call reduction of the tool vs the expert."""
        expert_calls = max(self.expert.stats.total_calls, 1)
        return 1.0 - self.ompdart.stats.total_calls / expert_calls

    # -- Fig. 5 ----------------------------------------------------------

    @property
    def speedup_x(self) -> float:
        return self.ompdart.stats.speedup_over(self.unoptimized.stats)

    @property
    def expert_speedup_x(self) -> float:
        return self.expert.stats.speedup_over(self.unoptimized.stats)

    # -- Fig. 6 ----------------------------------------------------------

    @property
    def transfer_time_improvement_x(self) -> float:
        return self.ompdart.stats.transfer_improvement_over(
            self.unoptimized.stats
        )

    @property
    def expert_transfer_time_improvement_x(self) -> float:
        return self.expert.stats.transfer_improvement_over(
            self.unoptimized.stats
        )


def run_benchmark(
    name: str,
    *,
    platform: Platform | str | None = None,
    cost_model: CostModel | None = None,
    verify: bool = True,
    manager: PassManager | None = None,
    vectorize: bool = True,
) -> BenchmarkRun:
    """Run one application's three variants through the simulator.

    The tool and the simulator frontend share one pass manager: the
    unoptimized source — historically parsed twice, once by each — is
    parsed once and the cached artifact reused.  Pass a shared
    ``manager`` to extend that reuse across benchmarks (and across
    platforms: the transform does not depend on the platform, only the
    simulation does).

    ``vectorize=False`` forces every kernel through the closure
    interpreter (CLI ``--no-vectorize``).
    """
    resolved: Platform | None = None
    if cost_model is None:
        resolved = resolve_platform(platform)
        cost_model = resolved.effective_cost_model
    elif platform is not None:
        raise ValueError("pass either platform or cost_model, not both")

    bench = get_benchmark(name)
    unopt_src = bench.unoptimized_source()
    expert_src = bench.expert_source()
    manager = manager or PassManager()

    tool = OMPDart(ToolOptions(), pipeline=manager)
    unopt_name = f"{name}_unoptimized.c"
    transform = tool.run(unopt_src, unopt_name)
    sources = [
        (unopt_src, unopt_name),
        (transform.output_source, f"{name}_ompdart.c"),
        (expert_src, f"{name}_expert.c"),
    ]

    # The tool's parse artifact is the simulator's input: one parse per
    # source total, shared through the manager's artifact cache.  The
    # codegen pass rides the same cache, so each variant's kernels are
    # compiled to NumPy source once, outside the timed section (for the
    # unoptimized source they are cache hits from the tool run above).
    contexts = [
        manager.run(source, filename, until="codegen")
        for source, filename in sources
    ]
    tus = [transform.translation_unit] + [
        ctx.artifact("parse") for ctx in contexts[1:]
    ]
    results = []
    for (source, filename), tu, ctx in zip(sources, tus, contexts):
        start = time.perf_counter()
        result = run_simulation(
            source,
            filename,
            cost_model=cost_model,
            tu=tu,
            vectorize=vectorize,
            codegen_rows=ctx.artifact("codegen"),
        )
        result.wall_time_s = time.perf_counter() - start
        results.append(result)
    unopt, ompdart, expert = results

    run = BenchmarkRun(
        benchmark=bench,
        unoptimized=unopt,
        ompdart=ompdart,
        expert=expert,
        transform=transform,
        platform=resolved,
    )
    if verify:
        run.verify()
    return run


def _benchmark_failed(job: tuple, cause: str) -> None:
    """Failure hook: name the benchmark that failed."""
    raise BatchWorkerError(f"benchmark {job[0]!r}", cause)


# ======================================================================
# Cross-platform sweep
# ======================================================================


@dataclass
class PlatformSweep:
    """One platform's full evaluation inside a cross-platform sweep."""

    platform: Platform
    runs: dict[str, BenchmarkRun] = field(default_factory=dict)

    @property
    def geomean_speedup_x(self) -> float:
        return geometric_mean([r.speedup_x for r in self.runs.values()])

    @property
    def geomean_expert_speedup_x(self) -> float:
        return geometric_mean([r.expert_speedup_x for r in self.runs.values()])

    @property
    def geomean_transfer_reduction_x(self) -> float:
        return geometric_mean(
            [r.transfer_reduction_x for r in self.runs.values()]
        )

    @property
    def geomean_transfer_time_improvement_x(self) -> float:
        return geometric_mean(
            [r.transfer_time_improvement_x for r in self.runs.values()]
        )

    def geomeans(self) -> dict[str, float]:
        return {
            "speedup_x": self.geomean_speedup_x,
            "expert_speedup_x": self.geomean_expert_speedup_x,
            "transfer_reduction_x": self.geomean_transfer_reduction_x,
            "transfer_time_improvement_x": (
                self.geomean_transfer_time_improvement_x
            ),
        }


@dataclass
class SweepResult:
    """Per-platform sweeps plus the cross-platform geomean summary."""

    sweeps: dict[str, PlatformSweep]

    @property
    def platforms(self) -> list[Platform]:
        return [s.platform for s in self.sweeps.values()]

    @property
    def benchmark_names(self) -> list[str]:
        first = next(iter(self.sweeps.values()), None)
        return list(first.runs) if first is not None else []

    def __getitem__(self, platform_name: str) -> PlatformSweep:
        return self.sweeps[platform_name]

    def __iter__(self):
        return iter(self.sweeps.values())

    def summary(self) -> dict[str, dict[str, float]]:
        """Cross-platform geomean summary, keyed by platform name."""
        return {name: sweep.geomeans() for name, sweep in self.sweeps.items()}


def _sweep_job(
    manager: PassManager, job: tuple[str, tuple[Platform, ...], bool, bool]
) -> dict[str, BenchmarkRun]:
    """One benchmark across every platform, on ``manager``.

    The benchmark is parsed and transformed once, then simulated per
    platform: every pass after the first platform answers from the
    manager's artifact cache.
    """
    name, platforms, verify, vectorize = job
    return {
        p.name: run_benchmark(
            name,
            platform=p,
            verify=verify,
            manager=manager,
            vectorize=vectorize,
        )
        for p in platforms
    }


def run_sweep(
    platforms: "list[Platform | str]",
    *,
    verify: bool = True,
    jobs: int = 1,
    manager: PassManager | None = None,
    names: "list[str] | None" = None,
    vectorize: bool = True,
    cache_dir: str | None = None,
    store_url: str | None = None,
) -> SweepResult:
    """Evaluate the suite across several platforms (Fig. 5/6 sweep).

    The transform is platform-independent, so each benchmark runs
    through the tool exactly once regardless of how many platforms are
    requested: one benchmark's platforms share the pass manager that
    :func:`~repro.service.core.dispatch_map` hands it, and every pass
    after the first platform answers from the artifact cache —
    observable via ``manager.cache.stats["parse"].misses``.

    ``jobs``, ``manager``, ``cache_dir`` and ``store_url`` mean what
    they mean to :func:`~repro.service.core.dispatch_map`: a serial run
    uses the caller's manager or one built over ``cache_dir``, and a
    pooled run uses each worker's runtime manager over the same
    directory, so both leave the same records behind.  A failing
    benchmark raises :class:`~repro.service.core.BatchWorkerError`
    naming it.
    """
    resolved = [resolve_platform(p) for p in platforms]
    if not resolved:
        raise ValueError("run_sweep needs at least one platform")
    seen: set[str] = set()
    for p in resolved:
        if p.name in seen:
            raise ValueError(f"duplicate platform {p.name!r} in sweep")
        seen.add(p.name)
    names = list(names if names is not None else BENCHMARK_ORDER)
    per_bench = dispatch_map(
        _sweep_job,
        [(name, tuple(resolved), verify, vectorize) for name in names],
        jobs=jobs,
        manager=manager,
        on_failure=_benchmark_failed,
        cache_dir=cache_dir,
        store_url=store_url,
    )
    sweeps = {p.name: PlatformSweep(platform=p) for p in resolved}
    for name, by_platform in zip(names, per_bench):
        for p in resolved:
            sweeps[p.name].runs[name] = by_platform[p.name]
    return SweepResult(sweeps=sweeps)


def geometric_mean(values: "list[float]") -> float:
    """Geomean used for the paper's summary statistics.

    Raises :class:`ValueError` on an empty sequence and on non-positive
    values: both indicate a broken metric upstream (a speedup or byte
    ratio can never legitimately be <= 0), and silently clamping them —
    as an earlier revision did — masks the bug in every downstream
    summary.
    """
    if not values:
        raise ValueError("geometric_mean of an empty sequence")
    product = 1.0
    for v in values:
        if v <= 0 or math.isnan(v):
            raise ValueError(
                f"geometric_mean requires positive values, got {v!r}"
            )
        product *= v
    return product ** (1.0 / len(values))
