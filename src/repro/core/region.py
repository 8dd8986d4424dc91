"""Target data region extent computation (paper section IV-D).

"For each function with at least one true dependency, we create a
single target data region that encompasses all the kernels in the
function's body.  The starting point of the region is determined by
finding the start of the earliest offload kernel, and the end location
is the end of the last offload kernel in the function ...  we must
extend the target data region to begin before any loop capturing the
first kernel and end after any loop capturing the last kernel."

Implementation: find the lowest common ancestor block of all kernels,
then take its top-level children containing the first and last kernels.
Because a child containing a kernel includes every loop (or branch)
wrapping that kernel, the loop-extension rule falls out structurally.
"""

from __future__ import annotations

from ..cfg.astcfg import ASTCFG
from ..diagnostics import AnalysisError, Diagnostic, Severity
from ..frontend import ast_nodes as A
from .directives import RegionSpec


def _ancestor_chain(node: A.Node) -> list[A.Node]:
    """``node`` and its ancestors, outermost first."""
    chain = [node]
    chain.extend(node.ancestors())
    chain.reverse()
    return chain


def _owning_block(kernels: list[A.OMPExecutableDirective],
                  fn: A.FunctionDecl) -> A.CompoundStmt:
    """The block where the region's directives live.

    Deepest CompoundStmt containing every kernel, then hoisted above any
    loop still capturing it — the paper's loop-extension rule ("extend
    the target data region to begin before any loop capturing the first
    kernel"), which also prevents the region from re-mapping data every
    iteration.
    """
    chains = [_ancestor_chain(k) for k in kernels]
    common_depth = min(len(c) for c in chains)
    lca: A.Node = fn.body  # type: ignore[assignment]
    for depth in range(common_depth):
        first = chains[0][depth]
        if all(c[depth] is first for c in chains):
            if isinstance(first, A.CompoundStmt):
                lca = first
        else:
            break
    assert isinstance(lca, A.CompoundStmt)

    # Hoist above any loop enclosing the candidate block (but stay
    # inside the function body).
    outermost_loop: A.LoopStmt | None = None
    for anc in lca.ancestors():
        if isinstance(anc, A.LoopStmt):
            outermost_loop = anc
        if isinstance(anc, A.FunctionDecl):
            break
    if outermost_loop is not None:
        for anc in outermost_loop.ancestors():
            if isinstance(anc, A.CompoundStmt):
                return anc
        raise AnalysisError("loop without an enclosing block")
    return lca


def _child_containing(block: A.CompoundStmt, target: A.Node) -> A.Stmt:
    """The top-level statement of ``block`` whose subtree holds ``target``."""
    node: A.Node = target
    for anc in _ancestor_chain(target):
        if anc.parent is block and isinstance(anc, A.Stmt):
            return anc
    # target is a direct child
    for stmt in block.stmts:
        if stmt is target:
            return stmt
    raise AnalysisError("region target not inside its owning block")


def compute_region(
    astcfg: ASTCFG, kernels: list[A.OMPExecutableDirective] | None = None
) -> RegionSpec:
    """The function's single target data region.

    ``kernels`` is the function's :meth:`ASTCFG.kernel_directives`, when
    the caller already has it.
    """
    if kernels is None:
        kernels = astcfg.kernel_directives()
    if not kernels:
        raise AnalysisError(
            f"function {astcfg.function.name!r} has no offload kernels"
        )
    block = _owning_block(kernels, astcfg.function)
    first = _child_containing(block, kernels[0])
    last = _child_containing(block, kernels[-1])
    if first.begin_offset > last.begin_offset:
        first, last = last, first
    single_kernel = first is last and A.is_offload_kernel(first)
    return RegionSpec(astcfg.function.name, first, last, single_kernel)


def check_declarations_precede_region(
    astcfg: ASTCFG,
    region: RegionSpec,
    tracked: set[str],
    kernels: list[A.OMPExecutableDirective],
) -> list[Diagnostic]:
    """The paper's declaration-placement requirement.

    "A single data region introduces the additional requirement that any
    variable declaration in the function body used by both the host and
    device must precede the location at which the tool intends the
    placement of the target data region.  If the input program violates
    this, the tool will detect this and issue an error indicating before
    which point the programmer should move the declaration."
    """
    diagnostics: list[Diagnostic] = []

    # Declarations actually referenced from inside offload kernels —
    # identity matters: an unrelated same-named variable declared after
    # the region is fine.
    kernel_decls: set[int] = set()
    for node in astcfg.cfg.nodes:
        if not node.offloaded or node.ast is None:
            continue
        for ref in node.ast.walk_instances(A.DeclRefExpr):
            if isinstance(ref.decl, A.VarDecl) and ref.name in tracked:
                kernel_decls.add(ref.decl.node_id)
    # Declarations referenced at or after the region end, collected by
    # one walk the first time an in-region declaration needs them.
    referenced_after: set[int] | None = None

    for decl in astcfg.function.walk_instances(A.VarDecl):
        if isinstance(decl, A.ParmVarDecl):
            continue
        in_region = region.begin_offset <= decl.begin_offset < region.end_offset
        violates = False
        if decl.node_id in kernel_decls and decl.begin_offset >= region.begin_offset:
            # Declared inside the kernel region itself => private, fine.
            declared_in_kernel = any(
                k.begin_offset <= decl.begin_offset
                and decl.end_offset <= k.end_offset
                for k in kernels
            )
            violates = not declared_in_kernel
        elif in_region and not region.single_kernel:
            # A host-only local declared inside the (to-be-braced) region
            # but referenced after it would fall out of scope once the
            # rewriter wraps the block — same remedy as the paper's rule.
            if referenced_after is None:
                referenced_after = {
                    id(ref.decl)
                    for ref in astcfg.function.walk_instances(A.DeclRefExpr)
                    if ref.begin_offset >= region.end_offset
                }
            violates = id(decl) in referenced_after
        if violates:
            loc = decl.location()
            region_loc = region.first_stmt.location()
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    f"declaration of {decl.name!r} must precede the target "
                    f"data region; move it before line {region_loc.line}, "
                    f"column {region_loc.column}",
                    filename=loc.filename,
                    line=loc.line,
                    column=loc.column,
                )
            )
    return diagnostics
