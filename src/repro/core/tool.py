"""The OMPDart driver facade over the staged pass pipeline.

This is the tool the paper evaluates: it consumes a C translation unit
with OpenMP offload kernels (and **no** explicit data-management
directives) and produces the same source with ``target data`` /
``target update`` / ``firstprivate`` constructs inserted (Fig. 1
workflow).

The work itself is organized as a pass pipeline
(:mod:`repro.pipeline`): ``preprocess -> parse -> constraints ->
effects -> cfg -> plan -> rewrite``, run by a
:class:`~repro.pipeline.manager.PassManager` that caches the
``parse``, ``constraints``, ``plan`` and ``rewrite`` artifacts (the
analysis part of the input's record) under a content hash of
``(source, filename, options)`` and records per-pass wall time and
cache events.  :class:`OMPDart` is a thin facade: it owns a manager
(or accepts a shared one — the evaluation harness shares a single
manager across all nine benchmarks so the simulator frontend reuses
the parse artifact), runs the chain, and packages the context into a
:class:`TransformResult`, which carries the translation unit and the
planner outputs.  Repeated runs over unchanged source answer from
cache without building a pass, so their ``pass_timings`` list only
those four; ``TransformResult.report()`` surfaces the Table-V-style
per-pass overhead breakdown.  Batch transformation of many translation
units at once lives in :mod:`repro.pipeline.batch` (``ompdart batch``
on the command line); it returns only the output, diagnostics and
directive count, so it targets the ``summary`` pass and reads and
writes only the record's small summary part.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..diagnostics import Diagnostic
from ..frontend import ast_nodes as A
from ..pipeline.context import PipelineContext, ToolOptions
from ..pipeline.manager import PassManager
from .directives import FunctionPlan, count_constructs
from .planner import PlannerOutput

__all__ = ["OMPDart", "ToolOptions", "TransformResult", "transform_source"]


@dataclass
class TransformResult:
    """Output of one OMPDart run."""

    input_source: str
    output_source: str
    filename: str
    plans: list[FunctionPlan]
    diagnostics: list[Diagnostic]
    #: Tool execution time in seconds (paper Table V's metric).
    elapsed_seconds: float
    translation_unit: A.TranslationUnit | None = None
    planner_outputs: list[PlannerOutput] = field(default_factory=list)
    #: Per-pass wall time in seconds of the passes that ran, in
    #: pipeline order.
    pass_timings: dict[str, float] = field(default_factory=dict)
    #: Per-pass cache events: "hit" | "miss".
    cache_events: dict[str, str] = field(default_factory=dict)

    @property
    def changed(self) -> bool:
        return self.output_source != self.input_source

    @property
    def cache_hits(self) -> int:
        return sum(1 for e in self.cache_events.values() if e == "hit")

    def directive_count(self) -> int:
        """Number of constructs inserted (maps count once per clause)."""
        return count_constructs(self.plans)

    def overhead_breakdown(self) -> str:
        """Table-V-style per-pass overhead summary of this run."""
        lines = ["pass overhead (paper Table V breakdown):"]
        for name, seconds in self.pass_timings.items():
            event = self.cache_events[name]
            lines.append(f"  {name:<11s} {seconds * 1e3:8.3f}ms  [{event}]")
        lines.append(
            f"  {'total':<11s} {self.elapsed_seconds * 1e3:8.3f}ms  "
            f"[{self.cache_hits}/{len(self.pass_timings)} cached]"
        )
        return "\n".join(lines)

    def report(self) -> str:
        lines = [
            f"OMPDart transformed {self.filename!r} in "
            f"{self.elapsed_seconds:.3f}s "
            f"({self.directive_count()} constructs across {len(self.plans)} "
            "function(s))"
        ]
        for plan in self.plans:
            lines.append(plan.describe())
        for diag in self.diagnostics:
            lines.append(diag.render())
        if self.pass_timings:
            lines.append(self.overhead_breakdown())
        return "\n".join(lines)


class OMPDart:
    """OpenMP Data Reduction Tool — static mapping generator."""

    def __init__(
        self,
        options: ToolOptions | None = None,
        *,
        pipeline: PassManager | None = None,
    ):
        self.options = options or ToolOptions()
        self.pipeline = pipeline if pipeline is not None else PassManager()

    def run(self, source: str, filename: str = "<input>") -> TransformResult:
        """Analyze ``source`` and return the transformed program."""
        start = time.perf_counter()
        ctx = self.pipeline.run(source, filename, self.options)
        return self._package(ctx, time.perf_counter() - start)

    @staticmethod
    def _package(ctx: PipelineContext, elapsed: float) -> TransformResult:
        plans, outputs, _ = ctx.artifact("plan")
        return TransformResult(
            input_source=ctx.source,
            output_source=ctx.artifact("rewrite"),
            filename=ctx.filename,
            plans=list(plans),
            diagnostics=list(ctx.diagnostics),
            elapsed_seconds=elapsed,
            translation_unit=ctx.artifact("parse"),
            planner_outputs=list(outputs),
            pass_timings=dict(ctx.timings),
            cache_events=dict(ctx.cache_events),
        )


def transform_source(
    source: str,
    filename: str = "<input>",
    *,
    predefined_macros: dict[str, object] | None = None,
) -> TransformResult:
    """One-shot convenience wrapper around :class:`OMPDart`."""
    options = ToolOptions(predefined_macros=dict(predefined_macros or {}))
    return OMPDart(options).run(source, filename)
