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

The three variant simulations of one benchmark run **concurrently on a
process pool** (each worker has its own interpreter, profiler and
device environment; workers receive only the picklable source text and
cost model).  Results are bit-identical to the serial path — the
workload is deterministic and the variants share no state — but unlike
the GIL-bound thread pool an earlier revision used, the variants now
simulate on real cores.  The pool is created lazily, reused across
benchmarks, and degrades to the serial path when process creation is
unavailable (sandboxes) or when ``jobs > 1`` benchmark-level process
workers are already saturating the host.  Each
:class:`~repro.runtime.interp.SimulationResult` comes back stamped with
its ``wall_time_s`` so the suite JSON artifact records real per-variant
simulation time alongside the modelled metrics.

Every entry point takes a ``platform`` (name or
:class:`~repro.runtime.platform.Platform`); :func:`run_sweep` evaluates
the whole suite across several platforms at once, reusing each
benchmark's parse/transform artifacts through the shared
:class:`~repro.pipeline.manager.PassManager` so the tool runs once per
source, not once per platform.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..core.tool import OMPDart, ToolOptions, TransformResult
from ..pipeline.cache import ArtifactCache
from ..pipeline.manager import PassManager
from ..service.core import dispatch_map
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


# -- process-based variant pool ---------------------------------------------

#: Lazily created, reused across benchmarks.  None until first use;
#: False once process creation failed (serial fallback from then on).
_VARIANT_POOL: "ProcessPoolExecutor | None | bool" = None

_VARIANT_COUNT = 3  # unoptimized / ompdart / expert


#: Per-worker-process parse pipeline.  The pool workers are long-lived
#: (the pool is shared across benchmarks), so a cross-platform sweep
#: parses each variant source once per *worker*, not once per platform
#: — the same artifact reuse the serial path gets from its shared
#: manager, relocated to where the simulation now runs.
_WORKER_PARSER: PassManager | None = None


def _simulate_variant(job: tuple) -> SimulationResult:
    """Top-level worker: simulate one variant from picklable inputs.

    Workers re-parse the source themselves (through a process-global
    cached pipeline) — shipping the translation unit would mean
    pickling the whole AST per variant, which costs more than the
    cached parse.  The returned result is stamped with the real
    wall-clock seconds the simulation took.
    """
    global _WORKER_PARSER
    source, filename, cost_model, vectorize = job
    if _WORKER_PARSER is None:
        _WORKER_PARSER = PassManager()
    # Parse and codegen outside the timed section: the serial path
    # times only the simulation, and sim_wall_s must mean the same
    # thing on both.  Running ``until="codegen"`` hands the simulator
    # precompiled kernel rows through the same cached pipeline.
    ctx = _WORKER_PARSER.run(source, filename, until="codegen")
    tu = ctx.artifact("parse")
    start = time.perf_counter()
    result = run_simulation(
        source,
        filename,
        cost_model=cost_model,
        vectorize=vectorize,
        tu=tu,
        codegen_rows=ctx.artifact("codegen"),
    )
    result.wall_time_s = time.perf_counter() - start
    return result


def _variant_pool() -> "ProcessPoolExecutor | None":
    """The shared 3-worker process pool, or None when unavailable."""
    global _VARIANT_POOL
    if _VARIANT_POOL is False:
        return None
    if _VARIANT_POOL is None:
        if (os.cpu_count() or 1) <= 1:
            # A single core gains nothing from concurrent variants and
            # pays fork latency plus per-worker re-parsing; the serial
            # path shares one pass manager (and its parse artifacts).
            _VARIANT_POOL = False
            return None
        try:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            _VARIANT_POOL = ProcessPoolExecutor(
                max_workers=_VARIANT_COUNT, mp_context=ctx
            )
        except (OSError, ValueError, PermissionError):
            _VARIANT_POOL = False
            return None
    return _VARIANT_POOL


def _discard_variant_pool() -> None:
    """Drop a broken pool so later runs fall back to the serial path."""
    global _VARIANT_POOL
    pool = _VARIANT_POOL
    _VARIANT_POOL = False
    if isinstance(pool, ProcessPoolExecutor):
        pool.shutdown(wait=False, cancel_futures=True)


def run_benchmark(
    name: str,
    *,
    platform: Platform | str | None = None,
    cost_model: CostModel | None = None,
    verify: bool = True,
    manager: PassManager | None = None,
    concurrent_variants: bool = True,
    vectorize: bool = True,
) -> BenchmarkRun:
    """Run one application's three variants through the simulator.

    The tool and the simulator frontend share one pass manager: the
    unoptimized source — historically parsed twice, once by each — is
    parsed once and the cached artifact reused.  Pass a shared
    ``manager`` to extend that reuse across benchmarks (and across
    platforms: the transform does not depend on the platform, only the
    simulation does).

    The three variant simulations run concurrently on a shared
    3-worker **process pool** unless ``concurrent_variants=False`` (the
    process-pool paths of :func:`run_all`/:func:`run_sweep` disable it:
    ``jobs > 1`` process workers would oversubscribe the host with
    nested pools).  If the pool cannot be created or dies, the serial
    path runs instead — results are identical either way.

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

    def simulate_serial() -> list[SimulationResult]:
        # The tool's parse artifact is the simulator's input: one parse
        # per source total, shared through the manager's artifact cache.
        # The codegen pass rides the same cache, so each variant's
        # kernels are compiled to NumPy source once, outside the timed
        # section (for the unoptimized source they are cache hits from
        # the tool run above).
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
        return results

    results: list[SimulationResult] | None = None
    if concurrent_variants:
        pool = _variant_pool()
        if pool is not None:
            # An unpicklable cost model (e.g. a subclass defined in
            # __main__) can't cross the process boundary; checking up
            # front keeps the except clause below narrow enough that
            # genuine worker-side simulation errors propagate once
            # instead of triggering a redundant serial re-run.
            try:
                pickle.dumps(cost_model)
            except Exception:  # noqa: BLE001 - any pickling failure
                pool = None
        if pool is not None:
            jobs = [
                (source, filename, cost_model, vectorize)
                for source, filename in sources
            ]
            try:
                results = list(pool.map(_simulate_variant, jobs))
            except (BrokenProcessPool, OSError):
                # ProcessPoolExecutor spawns workers lazily at submit
                # time, so a sandbox that blocks process creation fails
                # *here* (OSError/PermissionError), not in the
                # constructor _variant_pool guards.  Genuine simulation
                # errors raised inside a worker (SimulationError and
                # friends) are not OSErrors and propagate untouched.
                _discard_variant_pool()
                results = None
    if results is None:
        results = simulate_serial()
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


def _benchmark_job(
    job: tuple[str, Platform | CostModel | str | None, bool, bool]
) -> BenchmarkRun:
    """Top-level worker for the process-pool path of :func:`run_all`."""
    name, machine, verify, vectorize = job
    kwargs = (
        {"cost_model": machine}
        if isinstance(machine, CostModel)
        else {"platform": machine}
    )
    return run_benchmark(
        name,
        verify=verify,
        concurrent_variants=False,
        vectorize=vectorize,
        **kwargs,
    )


def _serial_runtime(
    manager: PassManager | None,
    cache_dir: str | None,
    store_url: str | None,
) -> "tuple[PassManager, object | None]":
    """(manager, remote client or None) for a serial suite run.

    A caller-provided manager is used as-is; otherwise the run gets a
    manager whose cache spills to ``cache_dir`` and — with a
    ``store_url`` — reads through to / publishes back to a remote
    store node, exactly like the batch driver's serial path.
    """
    if manager is not None:
        return manager, None
    cache = (
        ArtifactCache(disk_dir=cache_dir) if cache_dir else ArtifactCache()
    )
    remote = None
    if store_url and cache_dir:
        from ..service.core import make_remote_client

        remote = make_remote_client(store_url)
        cache.remote = remote
    return PassManager(cache=cache), remote


def _close_serial_runtime(remote: "object | None") -> None:
    if remote is not None:
        remote.flush(timeout=5.0)
        remote.close()




def run_all(
    *,
    platform: Platform | str | None = None,
    platforms: "list[Platform | str] | None" = None,
    cost_model: CostModel | None = None,
    verify: bool = True,
    jobs: int = 1,
    manager: PassManager | None = None,
    names: "list[str] | None" = None,
    concurrent_variants: bool = True,
    vectorize: bool = True,
    cache_dir: str | None = None,
    store_url: str | None = None,
) -> "dict[str, BenchmarkRun] | SweepResult":
    """Run the full nine-application evaluation (paper section VI).

    With ``platforms=[...]`` the evaluation becomes a cross-platform
    sweep and returns a :class:`SweepResult` (see :func:`run_sweep`);
    otherwise it returns the historical ``{name: BenchmarkRun}`` dict
    for the single requested ``platform`` (default: the paper's
    A100/PCIe4 testbed).

    ``jobs > 1`` fans the benchmarks out over the batch driver's
    process pool; ordering (and, for this deterministic workload, every
    metric) is identical to the serial path.  The serial path shares
    one pass manager — and thus one artifact cache — across all nine
    applications.
    """
    if platforms is not None:
        if cost_model is not None or platform is not None:
            raise ValueError(
                "platforms=[...] cannot be combined with platform/cost_model"
            )
        return run_sweep(
            platforms,
            verify=verify,
            jobs=jobs,
            manager=manager,
            names=names,
            concurrent_variants=concurrent_variants,
            vectorize=vectorize,
            cache_dir=cache_dir,
            store_url=store_url,
        )
    names = list(names if names is not None else BENCHMARK_ORDER)
    if jobs <= 1:
        manager, remote = _serial_runtime(manager, cache_dir, store_url)
        try:
            return {
                name: run_benchmark(
                    name,
                    platform=platform,
                    cost_model=cost_model,
                    verify=verify,
                    manager=manager,
                    concurrent_variants=concurrent_variants,
                    vectorize=vectorize,
                )
                for name in names
            }
        finally:
            _close_serial_runtime(remote)
    if manager is not None:
        raise ValueError(
            "a shared manager cannot cross worker processes; "
            "use jobs=1 to share one pass manager"
        )
    machine = cost_model if cost_model is not None else resolve_platform(platform)
    runs = dispatch_map(
        _benchmark_job,
        [(name, machine, verify, vectorize) for name in names],
        jobs=jobs,
        label=lambda job: f"benchmark {job[0]!r}",
        cache_dir=cache_dir,
        store_url=store_url,
    )
    return dict(zip(names, runs))


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
    job: tuple[str, tuple[Platform, ...], bool, bool]
) -> dict[str, BenchmarkRun]:
    """Process-pool worker: one benchmark across every platform.

    The worker-local manager means the benchmark is parsed and
    transformed once, then simulated per platform — the same artifact
    reuse the serial sweep gets from its shared manager.
    """
    name, platforms, verify, vectorize = job
    manager = PassManager()
    return {
        p.name: run_benchmark(
            name,
            platform=p,
            verify=verify,
            manager=manager,
            concurrent_variants=False,
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
    concurrent_variants: bool = True,
    vectorize: bool = True,
    cache_dir: str | None = None,
    store_url: str | None = None,
) -> SweepResult:
    """Evaluate the suite across several platforms (Fig. 5/6 sweep).

    The transform is platform-independent, so each benchmark runs
    through the tool exactly once regardless of how many platforms are
    requested: all platforms share one :class:`PassManager` (per worker
    when ``jobs > 1``) and every pass after the first platform answers
    from the artifact cache — observable via
    ``manager.cache.stats["parse"].misses``.
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
    sweeps = {p.name: PlatformSweep(platform=p) for p in resolved}

    if jobs <= 1:
        manager, remote = _serial_runtime(manager, cache_dir, store_url)
        try:
            # Benchmark-outer order keeps each source's artifacts hot in
            # the cache while every platform consumes them.
            for name in names:
                for p in resolved:
                    sweeps[p.name].runs[name] = run_benchmark(
                        name,
                        platform=p,
                        verify=verify,
                        manager=manager,
                        concurrent_variants=concurrent_variants,
                        vectorize=vectorize,
                    )
        finally:
            _close_serial_runtime(remote)
        return SweepResult(sweeps=sweeps)

    if manager is not None:
        raise ValueError(
            "a shared manager cannot cross worker processes; "
            "use jobs=1 to share one pass manager"
        )
    per_bench = dispatch_map(
        _sweep_job,
        [(name, tuple(resolved), verify, vectorize) for name in names],
        jobs=jobs,
        label=lambda job: f"benchmark {job[0]!r}",
        cache_dir=cache_dir,
        store_url=store_url,
    )
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
