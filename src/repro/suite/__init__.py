"""The nine-benchmark evaluation suite (Rodinia/HeCBench substitute)."""

from .complexity import ComplexityMetrics, analyze_complexity, possible_mappings  # noqa: F401
from .registry import (  # noqa: F401
    BENCHMARK_ORDER,
    BENCHMARKS,
    Benchmark,
    PaperNumbers,
    get_benchmark,
)
from .runner import (  # noqa: F401
    BenchmarkRun,
    PlatformSweep,
    SweepResult,
    geometric_mean,
    run_benchmark,
    run_sweep,
)

__all__ = [
    "ComplexityMetrics",
    "analyze_complexity",
    "possible_mappings",
    "BENCHMARK_ORDER",
    "BENCHMARKS",
    "Benchmark",
    "PaperNumbers",
    "get_benchmark",
    "BenchmarkRun",
    "PlatformSweep",
    "SweepResult",
    "geometric_mean",
    "run_benchmark",
    "run_sweep",
]
