"""CFG construction from the AST (paper section IV-B).

``IfStmt`` and ``SwitchStmt`` nodes are classified as conditionals and
``ForStmt``, ``WhileStmt`` and ``DoStmt`` as loops, exactly as the paper
describes.  Nodes belonging to a Table I offload-kernel region are
marked ``offloaded`` and remember their kernel directive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnostics import AnalysisError
from ..frontend import ast_nodes as A
from .graph import CFG, CFGEdge, CFGNode, EdgeLabel, LoopInfo, NodeKind

#: (node, label) pairs whose edge to the *next* node is not yet created.
Frontier = list[tuple[CFGNode, EdgeLabel]]


@dataclass
class _LoopCtx:
    """Break/continue routing while a loop or switch body is built."""

    break_exits: Frontier = field(default_factory=list)
    continue_target: CFGNode | None = None
    #: deferred continue edges when the target is created after the body
    continue_exits: Frontier = field(default_factory=list)


class CFGBuilder:
    """Builds one :class:`CFG` per function definition."""

    def __init__(self, function: A.FunctionDecl):
        if not function.is_definition:
            raise AnalysisError(f"cannot build CFG for prototype {function.name!r}")
        self.function = function
        self.cfg = CFG(function)
        self._loop_stack: list[_LoopCtx] = []
        self._loop_infos: list[LoopInfo] = []
        self._kernel: A.OMPExecutableDirective | None = None
        self._loop_depth = 0

    # -- public ------------------------------------------------------------

    def build(self) -> CFG:
        frontier: Frontier = [(self.cfg.entry, EdgeLabel.EPSILON)]
        frontier = self._stmt(self.function.body, frontier)
        self._connect(frontier, self.cfg.exit)
        self._assign_loop_parents()
        return self.cfg

    def _assign_loop_parents(self) -> None:
        """Post-pass: link each loop to its nearest enclosing loop.

        Done after construction because inner loops finish building (and
        register) before their enclosing loop does.
        """
        by_stmt = {info.stmt.node_id: info for info in self.cfg.loops}
        for info in self.cfg.loops:
            for anc in info.stmt.ancestors():
                if isinstance(anc, A.LoopStmt) and anc.node_id in by_stmt:
                    info.parent = by_stmt[anc.node_id]
                    break

    # -- plumbing ------------------------------------------------------------

    def _connect(self, frontier: Frontier, target: CFGNode) -> None:
        for node, label in frontier:
            self.cfg.add_edge(node, target, label)

    def _node(self, kind: NodeKind, ast: A.Node | None, frontier: Frontier) -> CFGNode:
        node = self.cfg.new_node(
            kind, ast,
            offloaded=self._kernel is not None,
            kernel=self._kernel,
            loop_depth=self._loop_depth,
        )
        self._connect(frontier, node)
        return node

    # -- statement dispatch --------------------------------------------------

    def _stmt(self, stmt: A.Stmt | None, frontier: Frontier) -> Frontier:
        if stmt is None:
            return frontier
        handler = getattr(self, f"_stmt_{type(stmt).__name__}", None)
        if handler is not None:
            return handler(stmt, frontier)
        if isinstance(stmt, A.OMPExecutableDirective):
            return self._omp_directive(stmt, frontier)
        # Fallback: treat as a simple statement node.
        node = self._node(NodeKind.STMT, stmt, frontier)
        return [(node, EdgeLabel.EPSILON)]

    def _stmt_CompoundStmt(self, stmt: A.CompoundStmt, frontier: Frontier) -> Frontier:
        for child in stmt.stmts:
            frontier = self._stmt(child, frontier)
        return frontier

    def _stmt_DeclStmt(self, stmt: A.DeclStmt, frontier: Frontier) -> Frontier:
        node = self._node(NodeKind.DECL, stmt, frontier)
        return [(node, EdgeLabel.EPSILON)]

    def _stmt_ExprStmt(self, stmt: A.ExprStmt, frontier: Frontier) -> Frontier:
        node = self._node(NodeKind.STMT, stmt, frontier)
        return [(node, EdgeLabel.EPSILON)]

    def _stmt_NullStmt(self, stmt: A.NullStmt, frontier: Frontier) -> Frontier:
        return frontier

    def _stmt_ReturnStmt(self, stmt: A.ReturnStmt, frontier: Frontier) -> Frontier:
        node = self._node(NodeKind.STMT, stmt, frontier)
        self.cfg.add_edge(node, self.cfg.exit)
        return []

    def _stmt_BreakStmt(self, stmt: A.BreakStmt, frontier: Frontier) -> Frontier:
        node = self._node(NodeKind.STMT, stmt, frontier)
        if not self._loop_stack:
            raise AnalysisError(f"break outside loop/switch at {stmt.location()}")
        self._loop_stack[-1].break_exits.append((node, EdgeLabel.EPSILON))
        return []

    def _stmt_ContinueStmt(self, stmt: A.ContinueStmt, frontier: Frontier) -> Frontier:
        node = self._node(NodeKind.STMT, stmt, frontier)
        # `continue` skips switch contexts; find the innermost loop ctx.
        for ctx in reversed(self._loop_stack):
            if ctx.continue_target is not None or ctx.continue_exits is not None:
                if ctx.continue_target is not None:
                    # The target (a while-loop head) already exists, so the
                    # continue edge retreats — mark it as a back edge.
                    self.cfg.add_edge(node, ctx.continue_target, is_back_edge=True)
                else:
                    ctx.continue_exits.append((node, EdgeLabel.EPSILON))
                return []
        raise AnalysisError(f"continue outside loop at {stmt.location()}")

    def _stmt_IfStmt(self, stmt: A.IfStmt, frontier: Frontier) -> Frontier:
        pred = self._node(NodeKind.PRED, stmt, frontier)
        then_exits = self._stmt(stmt.then_branch, [(pred, EdgeLabel.TRUE)])
        if stmt.else_branch is not None:
            else_exits = self._stmt(stmt.else_branch, [(pred, EdgeLabel.FALSE)])
        else:
            else_exits = [(pred, EdgeLabel.FALSE)]
        return then_exits + else_exits

    # -- loops ----------------------------------------------------------------

    def _begin_loop(self) -> tuple[_LoopCtx, int]:
        ctx = _LoopCtx()
        self._loop_stack.append(ctx)
        self._loop_depth += 1
        return ctx, len(self.cfg.nodes)

    def _end_loop(
        self,
        stmt: A.LoopStmt,
        ctx: _LoopCtx,
        node_watermark: int,
        head: CFGNode | None,
        body_entry: CFGNode,
        back_edge: CFGEdge | None,
    ) -> None:
        self._loop_stack.pop()
        self._loop_depth -= 1
        nodes = set(self.cfg.nodes[node_watermark:])
        if head is not None:
            nodes.add(head)
        info = LoopInfo(stmt, head, body_entry, nodes, back_edge, None)
        self._loop_infos.append(info)
        self.cfg.loops.append(info)

    def _stmt_ForStmt(self, stmt: A.ForStmt, frontier: Frontier) -> Frontier:
        if stmt.init is not None:
            frontier = self._stmt(stmt.init, frontier)

        ctx, watermark = self._begin_loop()
        head: CFGNode | None = None
        if stmt.cond is not None:
            head = self._node(NodeKind.PRED, stmt, frontier)
            body_preds: Frontier = [(head, EdgeLabel.TRUE)]
        else:
            body_preds = frontier

        body_exits = self._stmt(stmt.body, body_preds)
        if head is None and not self.cfg.nodes[watermark:]:
            # Degenerate `for(;;) ;` — synthesize a node to anchor the loop.
            anchor = self._node(NodeKind.STMT, stmt, body_preds)
            body_exits = [(anchor, EdgeLabel.EPSILON)]

        body_entry = (
            self.cfg.nodes[watermark + 1]
            if head is not None and len(self.cfg.nodes) > watermark + 1
            else (self.cfg.nodes[watermark] if self.cfg.nodes[watermark:] else head)
        )

        # Increment runs after the body and before re-testing the predicate.
        inc_node: CFGNode | None = None
        if stmt.inc is not None:
            inc = stmt.inc
            inc_stmt = A.ExprStmt(inc).set_span(
                inc.begin_offset, inc.end_offset, inc.buffer
            )
            inc_node = self.cfg.new_node(
                NodeKind.STMT, inc_stmt,
                offloaded=self._kernel is not None, kernel=self._kernel,
                loop_depth=self._loop_depth,
            )
            # Keep AST parentage: the synthesized ExprStmt wraps the real inc.
            inc_node.ast.parent = stmt  # type: ignore[union-attr]
            self._connect(body_exits, inc_node)
            self._connect(ctx.continue_exits, inc_node)
            latch_frontier: Frontier = [(inc_node, EdgeLabel.EPSILON)]
        else:
            latch_frontier = body_exits + ctx.continue_exits

        back_target = head if head is not None else body_entry
        back_edge: CFGEdge | None = None
        if back_target is not None:
            for node, label in latch_frontier:
                back_edge = self.cfg.add_edge(node, back_target, label, is_back_edge=True)

        exits: Frontier = list(ctx.break_exits)
        if head is not None:
            exits.append((head, EdgeLabel.FALSE))
        self._end_loop(stmt, ctx, watermark, head, body_entry, back_edge)
        return exits

    def _stmt_WhileStmt(self, stmt: A.WhileStmt, frontier: Frontier) -> Frontier:
        ctx, watermark = self._begin_loop()
        head = self._node(NodeKind.PRED, stmt, frontier)
        ctx.continue_target = head
        body_exits = self._stmt(stmt.body, [(head, EdgeLabel.TRUE)])
        body_entry = (
            self.cfg.nodes[watermark + 1] if len(self.cfg.nodes) > watermark + 1 else head
        )
        back_edge: CFGEdge | None = None
        for node, label in body_exits:
            back_edge = self.cfg.add_edge(node, head, label, is_back_edge=True)
        exits: Frontier = list(ctx.break_exits) + [(head, EdgeLabel.FALSE)]
        self._end_loop(stmt, ctx, watermark, head, body_entry, back_edge)
        return exits

    def _stmt_DoStmt(self, stmt: A.DoStmt, frontier: Frontier) -> Frontier:
        ctx, watermark = self._begin_loop()
        body_exits = self._stmt(stmt.body, frontier)
        body_entry = (
            self.cfg.nodes[watermark] if len(self.cfg.nodes) > watermark else None
        )
        head = self._node(NodeKind.PRED, stmt, body_exits + ctx.continue_exits)
        if body_entry is None:
            body_entry = head
        back_edge = self.cfg.add_edge(head, body_entry, EdgeLabel.TRUE, is_back_edge=True)
        exits: Frontier = list(ctx.break_exits) + [(head, EdgeLabel.FALSE)]
        self._end_loop(stmt, ctx, watermark, head, body_entry, back_edge)
        return exits

    # -- switch -----------------------------------------------------------------

    def _stmt_SwitchStmt(self, stmt: A.SwitchStmt, frontier: Frontier) -> Frontier:
        pred = self._node(NodeKind.PRED, stmt, frontier)
        ctx = _LoopCtx()  # only break routing; continue passes through
        ctx.continue_target = None
        ctx.continue_exits = None  # type: ignore[assignment]
        self._loop_stack.append(ctx)

        body = stmt.body
        stmts = body.stmts if isinstance(body, A.CompoundStmt) else [body]
        fallthrough: Frontier = []
        has_default = False
        for child in stmts:
            labels: list[EdgeLabel] = []
            inner: A.Stmt | None = child
            while isinstance(inner, (A.CaseStmt, A.DefaultStmt)):
                if isinstance(inner, A.DefaultStmt):
                    labels.append(EdgeLabel.DEFAULT)
                    has_default = True
                    inner = inner.sub_stmt
                else:
                    labels.append(EdgeLabel.CASE)
                    inner = inner.sub_stmt
            preds: Frontier = list(fallthrough)
            preds.extend((pred, lbl) for lbl in labels)
            fallthrough = self._stmt(inner, preds) if inner is not None else preds

        self._loop_stack.pop()
        exits: Frontier = list(ctx.break_exits) + fallthrough
        if not has_default:
            exits.append((pred, EdgeLabel.DEFAULT))
        return exits

    # -- OpenMP -------------------------------------------------------------------

    def _omp_directive(self, stmt: A.OMPExecutableDirective, frontier: Frontier) -> Frontier:
        node = self._node(NodeKind.DIRECTIVE, stmt, frontier)
        frontier = [(node, EdgeLabel.EPSILON)]
        if stmt.associated_stmt is None:
            return frontier
        if stmt.is_offload_kernel:
            prev_kernel = self._kernel
            self._kernel = stmt
            node.kernel = stmt
            frontier = self._stmt(stmt.associated_stmt, frontier)
            self._kernel = prev_kernel
            return frontier
        # target data / host directives: body executes with current context.
        return self._stmt(stmt.associated_stmt, frontier)


def build_cfg(function: A.FunctionDecl) -> CFG:
    """Build the CFG for one function definition."""
    return CFGBuilder(function).build()
