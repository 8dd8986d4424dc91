"""Control-flow graph data structures (paper section IV-B, Fig. 2).

The CFG is statement-granular: each node holds one declaration,
expression-statement, predicate, or OpenMP directive, matching the
node granularity of the paper's Fig. 2 (``Entry``, ``Decl``, ``Pred``,
``Stmt``, ``Exit`` boxes).  Edges carry labels (``ε``/``true``/``false``)
and a back-edge flag so loop structure is recoverable during the forward
validity traversal.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from ..frontend import ast_nodes as A


class NodeKind(enum.Enum):
    ENTRY = "Entry"
    EXIT = "Exit"
    DECL = "Decl"
    STMT = "Stmt"
    PRED = "Pred"  # branch predicate (if/loop/switch condition)
    DIRECTIVE = "Directive"  # an OpenMP directive itself


class EdgeLabel(enum.Enum):
    EPSILON = "ε"
    TRUE = "true"
    FALSE = "false"
    CASE = "case"
    DEFAULT = "default"


_cfg_node_ids = itertools.count(1)


@dataclass
class CFGEdge:
    """A directed control-flow edge."""

    src: "CFGNode"
    dst: "CFGNode"
    label: EdgeLabel = EdgeLabel.EPSILON
    is_back_edge: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        back = " back" if self.is_back_edge else ""
        return f"{self.src.node_id}->{self.dst.node_id}[{self.label.value}{back}]"


@dataclass
class CFGNode:
    """One statement-granular CFG node linked to its AST node."""

    kind: NodeKind
    ast: A.Node | None = None
    #: True when the node executes on the accelerator (inside a Table I
    #: offload-kernel region) — the paper's "offloaded" marking.
    offloaded: bool = False
    #: The innermost offload kernel directive containing this node.
    kernel: A.OMPExecutableDirective | None = None
    #: Nesting depth in loops (0 = not inside any loop).
    loop_depth: int = 0
    node_id: int = field(default_factory=lambda: next(_cfg_node_ids))
    successors: list[CFGEdge] = field(default_factory=list)
    predecessors: list[CFGEdge] = field(default_factory=list)

    def succ_nodes(self) -> list["CFGNode"]:
        return [e.dst for e in self.successors]

    def pred_nodes(self) -> list["CFGNode"]:
        return [e.src for e in self.predecessors]

    def forward_successors(self) -> list["CFGNode"]:
        return [e.dst for e in self.successors if not e.is_back_edge]

    @property
    def label(self) -> str:
        """Short human-readable description for dumps and DOT export."""
        if self.kind in (NodeKind.ENTRY, NodeKind.EXIT):
            return self.kind.value
        if self.ast is None:
            return self.kind.value
        name = self.ast.class_name
        where = f"@{self.ast.location().line}" if self.ast.buffer is not None else ""
        return f"{self.kind.value}:{name}{where}"

    def __hash__(self) -> int:
        return self.node_id

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        off = " offloaded" if self.offloaded else ""
        return f"<CFGNode #{self.node_id} {self.label}{off}>"


@dataclass
class LoopInfo:
    """Structure of one source loop inside a CFG."""

    stmt: A.LoopStmt
    #: Node evaluating the loop predicate (None for `for(;;)`).
    head: CFGNode | None
    #: First node of the loop body region.
    body_entry: CFGNode
    #: All nodes belonging to the loop (body + header + increment).
    nodes: set[CFGNode]
    #: The back edge closing the loop.
    back_edge: CFGEdge | None
    #: Enclosing loop, if any.
    parent: "LoopInfo | None" = None

    @property
    def depth(self) -> int:
        d, p = 1, self.parent
        while p is not None:
            d += 1
            p = p.parent
        return d

    def contains(self, node: CFGNode) -> bool:
        return node in self.nodes


class CFG:
    """Per-function control flow graph."""

    def __init__(self, function: A.FunctionDecl):
        self.function = function
        self.entry = CFGNode(NodeKind.ENTRY)
        self.exit = CFGNode(NodeKind.EXIT)
        self.nodes: list[CFGNode] = [self.entry, self.exit]
        self.edges: list[CFGEdge] = []
        self.loops: list[LoopInfo] = []

    def new_node(
        self,
        kind: NodeKind,
        ast: A.Node | None = None,
        *,
        offloaded: bool = False,
        kernel: A.OMPExecutableDirective | None = None,
        loop_depth: int = 0,
    ) -> CFGNode:
        node = CFGNode(kind, ast, offloaded, kernel, loop_depth)
        self.nodes.append(node)
        return node

    def add_edge(
        self,
        src: CFGNode,
        dst: CFGNode,
        label: EdgeLabel = EdgeLabel.EPSILON,
        *,
        is_back_edge: bool = False,
    ) -> CFGEdge:
        edge = CFGEdge(src, dst, label, is_back_edge)
        src.successors.append(edge)
        dst.predecessors.append(edge)
        self.edges.append(edge)
        return edge

    # -- queries -----------------------------------------------------------

    def offloaded_nodes(self) -> list[CFGNode]:
        return [n for n in self.nodes if n.offloaded]

    def reachable_nodes(self) -> set[CFGNode]:
        """Nodes reachable from entry (following all edges)."""
        seen: set[CFGNode] = set()
        stack = [self.entry]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(node.succ_nodes())
        return seen

    def topological_order(self) -> list[CFGNode]:
        """Reverse post-order on forward edges — the natural order for
        the paper's forward validity traversal."""
        seen: set[CFGNode] = set()
        post: list[CFGNode] = []

        def dfs(start: CFGNode) -> None:
            stack: list[tuple[CFGNode, int]] = [(start, 0)]
            while stack:
                node, idx = stack.pop()
                if idx == 0:
                    if node in seen:
                        continue
                    seen.add(node)
                succs = [e.dst for e in node.successors if not e.is_back_edge]
                if idx < len(succs):
                    stack.append((node, idx + 1))
                    stack.append((succs[idx], 0))
                else:
                    post.append(node)

        dfs(self.entry)
        return list(reversed(post))

    def loop_of(self, node: CFGNode) -> LoopInfo | None:
        """The innermost loop containing ``node``, or None."""
        best: LoopInfo | None = None
        for loop in self.loops:
            if loop.contains(node) and (best is None or loop.depth > best.depth):
                best = loop
        return best

    def validate(self) -> list[str]:
        """Structural sanity checks; returns a list of problems."""
        problems: list[str] = []
        ids = {n.node_id for n in self.nodes}
        if len(ids) != len(self.nodes):
            problems.append("duplicate node ids")
        for edge in self.edges:
            if edge.src not in self.nodes or edge.dst not in self.nodes:
                problems.append(f"edge {edge!r} references foreign node")
            if edge not in edge.src.successors:
                problems.append(f"edge {edge!r} missing from src successors")
            if edge not in edge.dst.predecessors:
                problems.append(f"edge {edge!r} missing from dst predecessors")
        if self.entry.predecessors:
            problems.append("entry node has predecessors")
        if self.exit.successors:
            problems.append("exit node has successors")
        reachable = self.reachable_nodes()
        if self.exit not in reachable and len(self.nodes) > 2:
            problems.append("exit unreachable from entry")
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CFG {self.function.name}: {len(self.nodes)} nodes, "
            f"{len(self.edges)} edges, {len(self.loops)} loops>"
        )
