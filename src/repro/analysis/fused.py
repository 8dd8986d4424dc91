"""Fused single-walk frontend analysis (the PR-10 fast path).

The constraints and effects passes historically each re-walked the
whole AST — the constraints scan once, then the interprocedural
analysis several more times per fixpoint pass (definition discovery,
call-graph depth, statement filtering).  :func:`fused_scan` gathers all
of those facts in **one** pass over the translation unit's cached
pre-order list:

* the input-constraint diagnostics (data-management directives), in
  pre-order;
* the function-definition table in declaration order;
* per function, the CFG-granular statements (``Stmt`` minus compounds
  and OMP directives — the same filter the effects fixpoint applies on
  every pass) and every ``CallExpr`` (what the call-depth bound walks).

The result is handed from the constraints pass to the effects pass via
``PipelineContext.scratch`` — never cached, never pickled — and
``InterproceduralAnalysis(tu)`` without ``prepared`` runs this scan
itself.  The plans, rewrites and diagnostics it leads to are pinned for
all 27 corpus variants by ``tests/data/position_golden.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import data_management_diagnostic
from ..diagnostics import Diagnostic
from ..frontend import ast_nodes as A


@dataclass
class FusedPrep:
    """Facts gathered by one pre-order walk of a translation unit."""

    #: Constraint diagnostics, in pre-order.
    constraint_diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Function definitions, in declaration order, last duplicate wins
    #: (same contract as ``tu.function_definitions()`` fed into a dict).
    definitions: dict[str, A.FunctionDecl] = field(default_factory=dict)
    #: function name -> its CFG-granular statements, pre-order.
    statements: dict[str, list[A.Stmt]] = field(default_factory=dict)
    #: function name -> every CallExpr in its body, pre-order.
    calls: dict[str, list[A.CallExpr]] = field(default_factory=dict)


def fused_scan(tu: A.TranslationUnit) -> FusedPrep:
    """Collect constraints + effects prep facts in a single walk."""
    prep = FusedPrep()
    diagnostics = prep.constraint_diagnostics
    order = tu.preorder()
    data_mgmt = A.DATA_MANAGEMENT_DIRECTIVES
    stmt_type = A.Stmt
    skipped_stmts = (A.CompoundStmt, A.OMPExecutableDirective)
    call_type = A.CallExpr

    # C has no nested functions, so one (end, stmts, calls) frame is
    # enough: any node with index < fn_end belongs to the current
    # definition's subtree.
    fn_end = -1
    stmts: list[A.Stmt] = []
    calls: list[A.CallExpr] = []
    for index, node in enumerate(order):
        if isinstance(node, data_mgmt):
            diagnostics.append(data_management_diagnostic(node))
        if index < fn_end:
            if isinstance(node, stmt_type):
                if not isinstance(node, skipped_stmts):
                    stmts.append(node)
            elif isinstance(node, call_type):
                calls.append(node)
        elif (
            isinstance(node, A.FunctionDecl)
            and node.body is not None
            and node.parent is tu
        ):
            fn_end = node.walk_end
            prep.definitions[node.name] = node
            stmts = prep.statements[node.name] = []
            calls = prep.calls[node.name] = []
    return prep
