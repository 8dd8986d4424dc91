"""The named pipeline stages of the OMPDart driver.

Each pass is a pure function of the pipeline inputs plus earlier
artifacts, split in two:

* ``build(ctx)`` does the cacheable work and returns the pass artifact
  (skipped entirely on a cache hit);
* ``finalize(ctx, artifact)`` runs on *every* execution — hit or miss —
  and owns the side effects that must not be skipped: accumulating
  diagnostics and aborting the pipeline on errors.

Each pass also names the passes whose artifacts it reads
(``requires``), and the pass manager runs only what a run's target
needs.  A transform targets ``rewrite``, which needs the paper's Fig. 1
chain ``preprocess -> parse -> constraints -> effects -> cfg -> plan
-> rewrite``.  ``codegen`` (per-kernel generated replay source) is a
reproduction-side addition for the simulator: no transform pass
requires it, so it runs only when a run asks for it with
``until="codegen"``, which builds ``preprocess -> parse -> codegen``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..analysis.effects import InterproceduralAnalysis
from ..analysis.fused import fused_scan
from ..cfg.astcfg import build_astcfgs
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
    #: Names of the earlier passes whose artifacts this pass reads.
    requires: tuple[str, ...] = ()


# -- stage bodies ------------------------------------------------------------


def _build_preprocess(ctx: PipelineContext) -> Any:
    return preprocess(ctx.source, ctx.filename, ctx.options.predefined_macros)


def _build_parse(ctx: PipelineContext) -> Any:
    tokens, buffer = ctx.artifact("preprocess")
    return Parser(tokens, buffer).parse_translation_unit()


def _build_codegen(ctx: PipelineContext) -> Any:
    """Compile every offload kernel to a pickleable codegen row.

    Rows are pure data (generated Python source keyed by content hash,
    or the decline reason), so the artifact record keeps them with the
    input's other artifacts.  Only simulator runs build them.
    """
    from ..runtime.codegen import emit_rows

    return emit_rows(ctx.artifact("parse"))


def _build_constraints(ctx: PipelineContext) -> list[Diagnostic]:
    # One walk gathers the constraint diagnostics AND the effects-pass
    # prep facts; the prep rides to _build_effects on the uncached
    # scratch channel, so the cached artifact is the diagnostics list
    # alone.
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


#: The OMPDart stage chain, in execution order.  ``effects`` requires
#: ``constraints`` for the fused prep it consumes, which also keeps a
#: constraint violation failing a run before any analysis starts.
DEFAULT_PASSES: tuple[Pass, ...] = (
    Pass("preprocess", _build_preprocess),
    Pass("parse", _build_parse, requires=("preprocess",)),
    Pass("codegen", _build_codegen, requires=("parse",)),
    Pass("constraints", _build_constraints, _finalize_constraints, requires=("parse",)),
    Pass("effects", _build_effects, requires=("parse", "constraints")),
    Pass("cfg", _build_cfg, requires=("parse",)),
    Pass("plan", _build_plan, _finalize_plan, requires=("parse", "effects", "cfg")),
    Pass("rewrite", _build_rewrite, requires=("plan",)),
)
