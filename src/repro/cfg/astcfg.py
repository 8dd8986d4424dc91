"""The hybrid AST-CFG representation (paper section IV-B, Fig. 2).

"The AST and CFG are combined to form a hybrid AST-CFG representation in
which each node of the CFG is linked with the corresponding AST
representation."  Here that link is bidirectional: every
:class:`~repro.cfg.graph.CFGNode` holds its AST node, and
:class:`ASTCFG` indexes the reverse direction so analyses can hop from
an AST statement to its control-flow position in O(1).

Construction is per-function, like a Code Property Graph (Yamaguchi et
al., cited by the paper).
"""

from __future__ import annotations

from ..frontend import ast_nodes as A
from .builder import build_cfg
from .graph import CFG, CFGNode


class ASTCFG:
    """One function's hybrid AST-CFG."""

    def __init__(self, function: A.FunctionDecl):
        self.function = function
        self.cfg: CFG = build_cfg(function)
        #: AST node id -> CFG node owning it (statement granularity).
        self._by_ast: dict[int, CFGNode] = {}
        for node in self.cfg.nodes:
            if node.ast is not None:
                self._by_ast.setdefault(node.ast.node_id, node)

    # -- cross-structure navigation ------------------------------------------

    def cfg_node_of(self, ast_node: A.Node) -> CFGNode | None:
        """The CFG node whose statement *is* ``ast_node``, if any."""
        return self._by_ast.get(ast_node.node_id)

    def cfg_node_containing(self, ast_node: A.Node) -> CFGNode | None:
        """The CFG node whose statement contains ``ast_node``.

        Walks up the AST parent chain until a statement owning a CFG
        node is found — the "intermittent AST analysis" hop of the paper.
        """
        node: A.Node | None = ast_node
        while node is not None:
            found = self._by_ast.get(node.node_id)
            if found is not None:
                return found
            node = node.parent
        return None

    # -- kernel/offload queries -------------------------------------------------

    def kernel_directives(self) -> list[A.OMPExecutableDirective]:
        """Table I offload kernels in this function, in source order."""
        kernels = [
            n for n in self.function.walk()
            if A.is_offload_kernel(n)
        ]
        kernels.sort(key=lambda k: k.begin_offset)
        return kernels  # type: ignore[return-value]

    def data_management_directives(self) -> list[A.OMPExecutableDirective]:
        """``target (enter/exit) data`` / ``target update`` in the input.

        OMPDart requires these to be absent (paper section IV-A); the
        driver uses this query to enforce that.
        """
        return [
            n for n in self.function.walk()
            if isinstance(n, A.DATA_MANAGEMENT_DIRECTIVES)
        ]  # type: ignore[return-value]

    def call_sites(self) -> list[tuple[CFGNode, A.CallExpr]]:
        """(CFG node, call) pairs for every call in the function."""
        out: list[tuple[CFGNode, A.CallExpr]] = []
        for node in self.cfg.nodes:
            if node.ast is None:
                continue
            for call in node.ast.walk_instances(A.CallExpr):
                out.append((node, call))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ASTCFG {self.function.name} {self.cfg!r}>"


def build_astcfgs(tu: A.TranslationUnit) -> dict[str, ASTCFG]:
    """Build the hybrid AST-CFG for every function definition in a TU."""
    return {fn.name: ASTCFG(fn) for fn in tu.function_definitions()}
