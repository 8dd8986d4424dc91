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
needs.  A run that names no target builds ``rewrite``, the paper's
Fig. 1 chain ``preprocess -> parse -> constraints -> effects -> cfg ->
plan -> rewrite``.  ``codegen`` (per-kernel generated replay source)
is a reproduction-side addition for the simulator: no transform pass
requires it, so it runs only when a run asks for it with
``until="codegen"``, which builds ``preprocess -> parse -> codegen``.
``summary`` follows ``rewrite``: it is what a batch or served
transform returns (output text, diagnostics, directive count,
``changed``), and those runs target it, so that a hit of it answers
the run alone.

A pass is ``stored`` when the artifact record keeps its artifact: the
``summary`` in the record's summary part, and ``parse``, ``codegen``,
``constraints``, ``plan`` and ``rewrite`` in its analysis part
(:mod:`repro.pipeline.artifacts`).  ``preprocess`` (the token list),
``effects`` and ``cfg`` are not stored: they are intermediate
artifacts only the next passes of the same run read, so they live in
the run's context and are built only when a pass that needs them is
built.  A run whose stored passes all hit builds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from ..analysis.effects import InterproceduralAnalysis
from ..analysis.fused import fused_scan
from ..cfg.astcfg import build_astcfgs
from ..core.directives import count_constructs
from ..core.planner import plan_function
from ..diagnostics import Diagnostic, Severity, ToolError
from ..frontend.parser import Parser
from ..frontend.preprocessor import preprocess
from ..rewrite.emit import emit_plans
from .artifacts import SUMMARY
from .context import PipelineContext

#: What a run that names no target builds: the transformed source.
DEFAULT_TARGET = "rewrite"


@dataclass(frozen=True)
class Pass:
    """One named pipeline stage."""

    name: str
    build: Callable[[PipelineContext], Any]
    finalize: Callable[[PipelineContext, Any], None] | None = None
    #: Names of the earlier passes whose artifacts this pass reads.
    requires: tuple[str, ...] = ()
    #: Whether the artifact record keeps this pass's artifact.  An
    #: unstored artifact lives only in the run's context, and the pass
    #: is built only when a pass being built requires it.
    stored: bool = True
    #: For a stored pass: ``reject(ctx, error)`` builds the artifact of
    #: a run targeting this pass that a :class:`ToolError` stopped
    #: before it, so that a hit replays the rejection; None stores
    #: nothing for such a run.
    reject: Callable[[PipelineContext, ToolError], Any] | None = None


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


class Summary(NamedTuple):
    """What a batch or served transform returns: the ``summary`` artifact."""

    #: The rewritten source; None for a rejected input.
    output: str | None
    #: The run's diagnostics, in pass order.
    diagnostics: tuple[Diagnostic, ...]
    directive_count: int = 0
    #: Did the rewrite differ from the input source?
    changed: bool = False
    #: The message of the :class:`ToolError` that rejected the input.
    error: str | None = None


def _build_summary(ctx: PipelineContext) -> Summary:
    plans, _, _ = ctx.artifact("plan")
    output = ctx.artifact("rewrite")
    return Summary(
        output, tuple(ctx.diagnostics), count_constructs(plans),
        output != ctx.source,
    )


def _reject_summary(ctx: PipelineContext, error: ToolError) -> Summary:
    return Summary(None, tuple(error.diagnostics), error=str(error))


def _finalize_summary(ctx: PipelineContext, summary: Summary) -> None:
    """Replay the run's diagnostics, and its rejection if it had one.

    The diagnostics a built summary holds are the ones the run's
    ``constraints`` and ``plan`` checks left, and a rejected input's
    summary holds the error those checks (the werror one included) or
    a build raised, so a hit fails exactly as the run it replays.
    """
    ctx.diagnostics[:] = summary.diagnostics
    if summary.error is not None:
        raise ToolError(summary.error, list(summary.diagnostics))


#: The OMPDart stage chain, in execution order.  ``effects`` requires
#: ``constraints`` for the fused prep it consumes, which also keeps a
#: constraint violation failing a run before any analysis starts.  The
#: record keeps ``parse``, ``codegen``, ``constraints``, ``plan``,
#: ``rewrite`` and ``summary``: everything a hit reads.
DEFAULT_PASSES: tuple[Pass, ...] = (
    Pass("preprocess", _build_preprocess, stored=False),
    Pass("parse", _build_parse, requires=("preprocess",)),
    Pass("codegen", _build_codegen, requires=("parse",)),
    Pass("constraints", _build_constraints, _finalize_constraints, requires=("parse",)),
    Pass("effects", _build_effects, requires=("parse", "constraints"), stored=False),
    Pass("cfg", _build_cfg, requires=("parse",), stored=False),
    Pass("plan", _build_plan, _finalize_plan, requires=("parse", "effects", "cfg")),
    Pass("rewrite", _build_rewrite, requires=("plan",)),
    Pass(
        SUMMARY, _build_summary, _finalize_summary,
        requires=("plan", "rewrite"), reject=_reject_summary,
    ),
)
