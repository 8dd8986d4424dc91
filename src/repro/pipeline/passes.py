"""The named pipeline stages of the OMPDart driver.

Each pass is a pure function of the pipeline inputs plus earlier
artifacts, split in two:

* ``build(ctx)`` does the cacheable work and returns the pass artifact
  (skipped entirely on a cache hit);
* ``finalize(ctx, artifact)`` runs on *every* execution — hit or miss —
  and owns the side effects that must not be skipped: accumulating
  diagnostics and aborting the pipeline on errors.

The default chain mirrors the paper's Fig. 1 workflow: ``preprocess ->
parse -> codegen -> constraints -> effects -> cfg -> plan -> rewrite``
(``codegen`` is a reproduction-side addition: per-kernel generated
NumPy source for the simulator's fastest execution tier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..analysis.effects import InterproceduralAnalysis
from ..analysis.fused import fused_scan
from ..cfg.astcfg import build_astcfgs
from ..core.errors import check_input_constraints
from ..core.planner import plan_function
from ..diagnostics import Diagnostic, Severity, ToolError
from ..frontend.parser import Parser
from ..frontend.preprocessor import preprocess
from ..rewrite.emit import emit_plans
from .context import PipelineContext


@dataclass(frozen=True)
class Pass:
    """One named pipeline stage."""

    name: str
    build: Callable[[PipelineContext], Any]
    finalize: Callable[[PipelineContext, Any], None] | None = None
    cacheable: bool = True


# -- stage bodies ------------------------------------------------------------


def _build_preprocess(ctx: PipelineContext) -> Any:
    return preprocess(ctx.source, ctx.filename, ctx.options.predefined_macros)


def _build_parse(ctx: PipelineContext) -> Any:
    tokens, buffer = ctx.artifact("preprocess")
    return Parser(tokens, buffer).parse_translation_unit()


def _build_codegen(ctx: PipelineContext) -> Any:
    """Compile every offload kernel to a pickleable codegen row.

    Rows are pure data (generated Python/NumPy source keyed by content
    hash, or the decline reason) — the artifact store shares them across
    workers, so a batch run compiles each distinct kernel once.
    """
    from ..runtime.codegen import emit_rows

    return emit_rows(ctx.artifact("parse"))


def _build_constraints(ctx: PipelineContext) -> list[Diagnostic]:
    if ctx.options.legacy_analysis:
        return check_input_constraints(ctx.artifact("parse"))
    # Fused fast path: one walk gathers the constraint diagnostics AND
    # the effects-pass prep facts; the prep rides to _build_effects on
    # the uncached scratch channel, so the cached artifact (the
    # diagnostics list) is identical to the legacy pass's.
    prep = fused_scan(ctx.artifact("parse"))
    ctx.scratch["fused_prep"] = prep
    return prep.constraint_diagnostics


def _finalize_constraints(
    ctx: PipelineContext, diags: list[Diagnostic]
) -> None:
    ctx.diagnostics.extend(diags)
    if any(d.severity >= Severity.ERROR for d in diags):
        raise ToolError(
            "input violates OMPDart's constraints", list(ctx.diagnostics)
        )


def _build_effects(ctx: PipelineContext) -> InterproceduralAnalysis:
    if ctx.options.legacy_analysis:
        return InterproceduralAnalysis(ctx.artifact("parse"))
    prep = ctx.scratch.pop("fused_prep", None)
    if prep is None:
        # The constraints build was skipped (cache hit), so its scratch
        # handoff never happened — redo the single walk here.
        prep = fused_scan(ctx.artifact("parse"))
    return InterproceduralAnalysis(ctx.artifact("parse"), prepared=prep)


def _build_cfg(ctx: PipelineContext) -> Any:
    return build_astcfgs(ctx.artifact("parse"))


def _build_plan(ctx: PipelineContext) -> tuple[list, list, list[Diagnostic]]:
    """Plan every kernel-bearing function; returns (plans, outputs, diags)."""
    tu = ctx.artifact("parse")
    effects = ctx.artifact("effects")
    astcfgs = ctx.artifact("cfg")

    plans = []
    outputs = []
    diagnostics: list[Diagnostic] = []
    for name in sorted(astcfgs, key=lambda n: astcfgs[n].function.begin_offset):
        astcfg = astcfgs[name]
        kernels = astcfg.kernel_directives()
        if not kernels:
            continue
        output = plan_function(astcfg, tu, effects, kernels)
        outputs.append(output)
        diagnostics.extend(output.diagnostics)
        if output.plan is not None:
            plans.append(output.plan)
    return plans, outputs, diagnostics


def _finalize_plan(ctx: PipelineContext, artifact: Any) -> None:
    _, _, diagnostics = artifact
    ctx.diagnostics.extend(diagnostics)
    if any(d.severity >= Severity.ERROR for d in ctx.diagnostics):
        raise ToolError(
            "analysis reported errors; see diagnostics", list(ctx.diagnostics)
        )
    if ctx.options.werror and any(
        d.severity >= Severity.WARNING for d in ctx.diagnostics
    ):
        raise ToolError("warnings treated as errors", list(ctx.diagnostics))


def _build_rewrite(ctx: PipelineContext) -> str:
    plans, _, _ = ctx.artifact("plan")
    return emit_plans(ctx.source, plans)


#: The canonical OMPDart stage chain, in execution order.
DEFAULT_PASSES: tuple[Pass, ...] = (
    Pass("preprocess", _build_preprocess),
    Pass("parse", _build_parse),
    Pass("codegen", _build_codegen),
    Pass("constraints", _build_constraints, _finalize_constraints),
    Pass("effects", _build_effects),
    Pass("cfg", _build_cfg),
    Pass("plan", _build_plan, _finalize_plan),
    Pass("rewrite", _build_rewrite),
)
