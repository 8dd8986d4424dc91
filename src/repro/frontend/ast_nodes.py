"""AST node hierarchy for the mini-C frontend.

Node class names deliberately mirror Clang's so that the paper's
terminology maps one-to-one onto this reproduction: ``ForStmt``,
``ArraySubscriptExpr``, ``DeclRefExpr``, ``OMPTargetDirective`` and the
rest of Table I all appear here under the same names.

Every node carries its half-open byte span ``[begin_offset,
end_offset)`` in the *original* source text as two ints, plus the
:class:`~repro.frontend.source.SourceBuffer` those offsets index,
because the rewriter inserts directives by byte offset.  Macro
expansions take their use-site span.  Line and column are computed from
the buffer only when something renders a position
(:meth:`Node.location`).  Most nodes index the translation unit's
buffer; an expression parsed from a pragma clause indexes the clause's
own text.  Synthesized nodes have offset -1 and no buffer.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Self

from .ctypes_ import QualType
from .source import UNKNOWN_LOCATION, SourceBuffer, SourceLocation

_node_ids = itertools.count(1)


class Node:
    """Base class of all AST nodes.

    Nodes carry their **pre-order walk index** once the owning
    :class:`TranslationUnit` has been finalized (``tu.preorder()``):
    ``walk_index`` is the node's position in the TU's pre-order
    traversal and ``walk_end`` is one past its last descendant, so a
    subtree is the contiguous slice ``preorder[walk_index:walk_end]``.
    ``walk()`` uses that slice when available — the per-analysis AST
    re-walks become list slicing instead of repeated ``children()``
    traversals.  Un-finalized trees (hand-built test fixtures) fall
    back to the generic traversal.
    """

    __slots__ = (
        "begin_offset", "end_offset", "buffer",
        "parent", "node_id", "walk_index", "walk_end",
    )

    def __init__(self):
        self.begin_offset = -1
        self.end_offset = -1
        self.buffer: SourceBuffer | None = None
        self.parent: Node | None = None
        self.node_id: int = next(_node_ids)
        self.walk_index: int = -1
        self.walk_end: int = -1

    # -- structure ---------------------------------------------------------

    def children(self) -> list["Node"]:
        """Direct child nodes, in source order."""
        return []

    def _generic_walk(self) -> Iterator["Node"]:
        """Pre-order traversal by repeated ``children()`` calls."""
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def _preorder_slice(self) -> "list[Node] | None":
        """This subtree as a slice of the root TU's cached pre-order list.

        Returns None when the tree has not been finalized (or this node
        was re-parented since) — callers fall back to the generic walk.
        The identity check guards against stale indices: a node pickled
        out of one TU and grafted elsewhere never serves a wrong slice.
        """
        begin, end = self.walk_index, self.walk_end
        if begin < 0 or end < begin:
            return None
        root: Node = self
        while root.parent is not None:
            root = root.parent
        order = getattr(root, "_preorder", None)
        if order is None or end > len(order) or order[begin] is not self:
            return None
        return order[begin:end]

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of this subtree (including ``self``)."""
        subtree = self._preorder_slice()
        if subtree is not None:
            return iter(subtree)
        return self._generic_walk()

    def walk_instances(self, *kinds: type) -> Iterator["Node"]:
        """Pre-order traversal filtered to instances of ``kinds``.

        When the finalized pre-order slice is available (the common
        case) the filter runs eagerly as a list comprehension — C-speed
        instead of resuming a generator per node — and an iterator over
        the result is returned, preserving the ``next()``-able contract.
        """
        subtree = self._preorder_slice()
        if subtree is not None:
            return iter([node for node in subtree if isinstance(node, kinds)])
        return (node for node in self._generic_walk() if isinstance(node, kinds))

    def ancestors(self) -> Iterator["Node"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    @property
    def class_name(self) -> str:
        return type(self).__name__

    def set_span(self, begin: int, end: int, buffer: SourceBuffer | None) -> Self:
        """Place this node at ``[begin, end)`` of ``buffer``; returns it."""
        self.begin_offset = begin
        self.end_offset = end
        self.buffer = buffer
        return self

    def location(self) -> SourceLocation:
        """Where this node begins, as file, line and column.

        For rendering only: the line table lookup runs on every call.
        """
        if self.buffer is None:
            return UNKNOWN_LOCATION
        return self.buffer.location(self.begin_offset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.class_name} #{self.node_id} @{self.begin_offset}>"


def _flatten(*parts: object) -> list[Node]:
    out: list[Node] = []
    for part in parts:
        if part is None:
            continue
        if isinstance(part, Node):
            out.append(part)
        elif isinstance(part, Iterable):
            out.extend(p for p in part if isinstance(p, Node))
    return out


# ===========================================================================
# Declarations
# ===========================================================================


class Decl(Node):
    """Base class for declarations."""

    __slots__ = ()


class TranslationUnit(Decl):
    """Root of the AST for one source file."""

    __slots__ = ("decls", "filename", "_preorder")

    def __init__(self, decls: list[Decl], filename: str):
        super().__init__()
        self.decls = decls
        self.filename = filename
        self._preorder: list[Node] | None = None

    def children(self) -> list[Node]:
        return list(self.decls)

    # -- pre-order finalization -------------------------------------------

    def preorder(self) -> list[Node]:
        """The cached pre-order node list, stamping ``walk_index`` /
        ``walk_end`` and the ``parent`` link on every node the first
        time it is built.

        The parser calls this once per parse, so this one walk is what
        finalizes a parsed tree; unpickled or hand-built trees build it
        lazily on first use.  The list is dropped from pickles
        (:meth:`__getstate__`) and recomputed on demand — walk order is
        structural, so indices agree across processes.
        """
        order = self._preorder
        if order is None:
            order = []
            stack: list[tuple[Node, bool]] = [(self, False)]
            while stack:
                node, exiting = stack.pop()
                if exiting:
                    node.walk_end = len(order)
                    continue
                node.walk_index = len(order)
                order.append(node)
                stack.append((node, True))
                for child in reversed(node.children()):
                    child.parent = node
                    stack.append((child, False))
            self._preorder = order
        return order

    def __getstate__(self):
        # The cached pre-order list is derived state: dropping it keeps
        # spills lean and lets indices revalidate lazily after a
        # pickle round trip.
        state = {
            "begin_offset": self.begin_offset,
            "end_offset": self.end_offset,
            "buffer": self.buffer,
            "parent": self.parent,
            "node_id": self.node_id,
            "walk_index": self.walk_index,
            "walk_end": self.walk_end,
            "decls": self.decls,
            "filename": self.filename,
        }
        return (None, state)

    def __setstate__(self, state):
        _, slots = state
        self._preorder = None
        self.walk_index = -1
        self.walk_end = -1
        for name, value in slots.items():
            setattr(self, name, value)

    def functions(self) -> list["FunctionDecl"]:
        return [d for d in self.decls if isinstance(d, FunctionDecl)]

    def function_definitions(self) -> list["FunctionDecl"]:
        return [f for f in self.functions() if f.body is not None]

    def lookup_function(self, name: str) -> "FunctionDecl | None":
        """Prefer a definition; fall back to a prototype."""
        proto = None
        for f in self.functions():
            if f.name == name:
                if f.body is not None:
                    return f
                proto = proto or f
        return proto

    def global_vars(self) -> list["VarDecl"]:
        out: list[VarDecl] = []
        for d in self.decls:
            if isinstance(d, VarDecl):
                out.append(d)
            elif isinstance(d, DeclStmt):
                out.extend(v for v in d.decls if isinstance(v, VarDecl))
        return out


class VarDecl(Decl):
    """A variable declaration (global, local, or struct-free standalone)."""

    __slots__ = ("name", "qual_type", "init", "is_global", "storage")

    def __init__(
        self,
        name: str,
        qual_type: QualType,
        init: "Expr | None" = None,
        *,
        is_global: bool = False,
        storage: str = "",
    ):
        super().__init__()
        self.name = name
        self.qual_type = qual_type
        self.init = init
        self.is_global = is_global
        self.storage = storage  # "", "static", "extern"

    def children(self) -> list[Node]:
        return _flatten(self.init)


class ParmVarDecl(VarDecl):
    """A function parameter."""

    __slots__ = ("index",)

    def __init__(self, name: str, qual_type: QualType, index: int):
        super().__init__(name, qual_type, None)
        self.index = index


class FieldDecl(Decl):
    """A struct member."""

    __slots__ = ("name", "qual_type")

    def __init__(self, name: str, qual_type: QualType):
        super().__init__()
        self.name = name
        self.qual_type = qual_type


class RecordDecl(Decl):
    """A struct definition."""

    __slots__ = ("tag", "fields", "struct_type")

    def __init__(self, tag: str, fields: list[FieldDecl], struct_type):
        super().__init__()
        self.tag = tag
        self.fields = fields
        self.struct_type = struct_type

    def children(self) -> list[Node]:
        return list(self.fields)


class TypedefDecl(Decl):
    __slots__ = ("name", "qual_type")

    def __init__(self, name: str, qual_type: QualType):
        super().__init__()
        self.name = name
        self.qual_type = qual_type


class FunctionDecl(Decl):
    """A function declaration or definition (``body is None`` for protos)."""

    __slots__ = ("name", "return_type", "params", "body", "storage", "variadic")

    def __init__(
        self,
        name: str,
        return_type: QualType,
        params: list[ParmVarDecl],
        body: "CompoundStmt | None",
        *,
        storage: str = "",
        variadic: bool = False,
    ):
        super().__init__()
        self.name = name
        self.return_type = return_type
        self.params = params
        self.body = body
        self.storage = storage
        self.variadic = variadic

    def children(self) -> list[Node]:
        return _flatten(self.params, self.body)

    @property
    def is_definition(self) -> bool:
        return self.body is not None


# ===========================================================================
# Statements
# ===========================================================================


class Stmt(Node):
    __slots__ = ()


class CompoundStmt(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: list[Stmt]):
        super().__init__()
        self.stmts = stmts

    def children(self) -> list[Node]:
        return list(self.stmts)


class DeclStmt(Stmt):
    """One or more local declarations in a single statement."""

    __slots__ = ("decls",)

    def __init__(self, decls: list[VarDecl]):
        super().__init__()
        self.decls = decls

    def children(self) -> list[Node]:
        return list(self.decls)


class ExprStmt(Stmt):
    """An expression evaluated for its side effects."""

    __slots__ = ("expr",)

    def __init__(self, expr: "Expr"):
        super().__init__()
        self.expr = expr

    def children(self) -> list[Node]:
        return [self.expr]


class NullStmt(Stmt):
    __slots__ = ()


class IfStmt(Stmt):
    __slots__ = ("cond", "then_branch", "else_branch")

    def __init__(self, cond, then_branch, else_branch=None):
        super().__init__()
        self.cond = cond
        self.then_branch = then_branch
        self.else_branch = else_branch

    def children(self) -> list[Node]:
        return _flatten(self.cond, self.then_branch, self.else_branch)


class LoopStmt(Stmt):
    """Common base of for/while/do — the loop set OMPDart recognises."""

    __slots__ = ("body",)

    def __init__(self, body: Stmt):
        super().__init__()
        self.body = body


class ForStmt(LoopStmt):
    __slots__ = ("init", "cond", "inc")

    def __init__(self, init, cond, inc, body):
        super().__init__(body)
        self.init = init  # Stmt | None (DeclStmt or ExprStmt)
        self.cond = cond  # Expr | None
        self.inc = inc  # Expr | None

    def children(self) -> list[Node]:
        return _flatten(self.init, self.cond, self.inc, self.body)


class WhileStmt(LoopStmt):
    __slots__ = ("cond",)

    def __init__(self, cond, body):
        super().__init__(body)
        self.cond = cond

    def children(self) -> list[Node]:
        return _flatten(self.cond, self.body)


class DoStmt(LoopStmt):
    __slots__ = ("cond",)

    def __init__(self, body, cond):
        super().__init__(body)
        self.cond = cond

    def children(self) -> list[Node]:
        return _flatten(self.body, self.cond)


class SwitchStmt(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond, body):
        super().__init__()
        self.cond = cond
        self.body = body

    def children(self) -> list[Node]:
        return _flatten(self.cond, self.body)


class CaseStmt(Stmt):
    __slots__ = ("value", "sub_stmt")

    def __init__(self, value, sub_stmt):
        super().__init__()
        self.value = value
        self.sub_stmt = sub_stmt

    def children(self) -> list[Node]:
        return _flatten(self.value, self.sub_stmt)


class DefaultStmt(Stmt):
    __slots__ = ("sub_stmt",)

    def __init__(self, sub_stmt):
        super().__init__()
        self.sub_stmt = sub_stmt

    def children(self) -> list[Node]:
        return _flatten(self.sub_stmt)


class BreakStmt(Stmt):
    __slots__ = ()


class ContinueStmt(Stmt):
    __slots__ = ()


class ReturnStmt(Stmt):
    __slots__ = ("value",)

    def __init__(self, value=None):
        super().__init__()
        self.value = value

    def children(self) -> list[Node]:
        return _flatten(self.value)


# ===========================================================================
# Expressions
# ===========================================================================


class Expr(Node):
    __slots__ = ("qual_type",)

    def __init__(self, qual_type: QualType | None = None):
        super().__init__()
        self.qual_type = qual_type


class IntegerLiteral(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, qual_type=None):
        super().__init__(qual_type)
        self.value = value


class FloatingLiteral(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float, qual_type=None):
        super().__init__(qual_type)
        self.value = value


class CharacterLiteral(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, qual_type=None):
        super().__init__(qual_type)
        self.value = value


class StringLiteral(Expr):
    __slots__ = ("value",)

    def __init__(self, value: str, qual_type=None):
        super().__init__(qual_type)
        self.value = value


class DeclRefExpr(Expr):
    """A reference to a declared variable or function."""

    __slots__ = ("name", "decl")

    def __init__(self, name: str, decl: Decl | None = None, qual_type=None):
        super().__init__(qual_type)
        self.name = name
        self.decl = decl


class ParenExpr(Expr):
    __slots__ = ("inner",)

    def __init__(self, inner: Expr):
        super().__init__(inner.qual_type)
        self.inner = inner

    def children(self) -> list[Node]:
        return [self.inner]


class UnaryOperator(Expr):
    """Prefix or postfix unary op: ``+ - ! ~ * & ++ --``."""

    __slots__ = ("op", "operand", "is_prefix")

    def __init__(self, op: str, operand: Expr, is_prefix: bool = True, qual_type=None):
        super().__init__(qual_type)
        self.op = op
        self.operand = operand
        self.is_prefix = is_prefix

    def children(self) -> list[Node]:
        return [self.operand]


class BinaryOperator(Expr):
    """All binary operators, including plain assignment ``=``."""

    __slots__ = ("op", "lhs", "rhs")

    ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})

    def __init__(self, op: str, lhs: Expr, rhs: Expr, qual_type=None):
        super().__init__(qual_type)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def children(self) -> list[Node]:
        return [self.lhs, self.rhs]

    @property
    def is_assignment(self) -> bool:
        return self.op in self.ASSIGN_OPS

    @property
    def is_compound_assignment(self) -> bool:
        return self.is_assignment and self.op != "="


class CompoundAssignOperator(BinaryOperator):
    """Kept as a distinct class purely for Clang-parity in dumps."""

    __slots__ = ()


class ConditionalOperator(Expr):
    __slots__ = ("cond", "true_expr", "false_expr")

    def __init__(self, cond, true_expr, false_expr, qual_type=None):
        super().__init__(qual_type)
        self.cond = cond
        self.true_expr = true_expr
        self.false_expr = false_expr

    def children(self) -> list[Node]:
        return [self.cond, self.true_expr, self.false_expr]


class ArraySubscriptExpr(Expr):
    __slots__ = ("base", "index")

    def __init__(self, base: Expr, index: Expr, qual_type=None):
        super().__init__(qual_type)
        self.base = base
        self.index = index

    def children(self) -> list[Node]:
        return [self.base, self.index]

    def base_decl_ref(self) -> DeclRefExpr | None:
        """The DeclRefExpr at the root of a (possibly nested) subscript."""
        node: Expr = self
        while True:
            if isinstance(node, ArraySubscriptExpr):
                node = node.base
            elif isinstance(node, ParenExpr):
                node = node.inner
            elif isinstance(node, MemberExpr):
                node = node.base
            elif isinstance(node, DeclRefExpr):
                return node
            else:
                return None

    def index_exprs(self) -> list[Expr]:
        """All index expressions of a nested subscript, outermost first."""
        out: list[Expr] = []
        node: Expr = self
        while isinstance(node, ArraySubscriptExpr):
            out.append(node.index)
            node = node.base
        out.reverse()
        return out


class MemberExpr(Expr):
    __slots__ = ("base", "member", "is_arrow")

    def __init__(self, base: Expr, member: str, is_arrow: bool, qual_type=None):
        super().__init__(qual_type)
        self.base = base
        self.member = member
        self.is_arrow = is_arrow

    def children(self) -> list[Node]:
        return [self.base]


class CallExpr(Expr):
    __slots__ = ("callee", "args")

    def __init__(self, callee: Expr, args: list[Expr], qual_type=None):
        super().__init__(qual_type)
        self.callee = callee
        self.args = args

    def children(self) -> list[Node]:
        return _flatten(self.callee, self.args)

    @property
    def callee_name(self) -> str | None:
        node = self.callee
        while isinstance(node, ParenExpr):
            node = node.inner
        return node.name if isinstance(node, DeclRefExpr) else None


class CStyleCastExpr(Expr):
    __slots__ = ("target_type", "operand")

    def __init__(self, target_type: QualType, operand: Expr):
        super().__init__(target_type)
        self.target_type = target_type
        self.operand = operand

    def children(self) -> list[Node]:
        return [self.operand]


class SizeOfExpr(Expr):
    __slots__ = ("arg_type", "arg_expr")

    def __init__(self, arg_type: QualType | None, arg_expr: Expr | None,
                 qual_type=None):
        super().__init__(qual_type)
        self.arg_type = arg_type
        self.arg_expr = arg_expr

    def children(self) -> list[Node]:
        return _flatten(self.arg_expr)


class InitListExpr(Expr):
    __slots__ = ("inits",)

    def __init__(self, inits: list[Expr], qual_type=None):
        super().__init__(qual_type)
        self.inits = inits

    def children(self) -> list[Node]:
        return list(self.inits)


# ===========================================================================
# OpenMP
# ===========================================================================


class OMPClause(Node):
    """Base class of OpenMP clauses."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind


class OMPVarListClause(OMPClause):
    """A clause carrying a variable/section list (map, firstprivate, ...)."""

    __slots__ = ("items",)

    def __init__(self, kind: str, items: list["OMPSectionItem"]):
        super().__init__(kind)
        self.items = items

    def children(self) -> list[Node]:
        return list(self.items)

    def var_names(self) -> list[str]:
        return [item.name for item in self.items]


class OMPSectionItem(Node):
    """A map/update list item: ``a`` or ``a[lo:len]`` (possibly nested)."""

    __slots__ = ("name", "sections")

    def __init__(self, name: str, sections: list[tuple[Expr | None, Expr | None]]):
        super().__init__()
        self.name = name
        #: one (lower, length) pair per dimension; empty for a whole-var item
        self.sections = sections

    def children(self) -> list[Node]:
        out: list[Node] = []
        for lo, ln in self.sections:
            out.extend(_flatten(lo, ln))
        return out

    @property
    def is_whole_variable(self) -> bool:
        return not self.sections


class OMPMapClause(OMPVarListClause):
    """``map([always,][map-type:] list)``; ``map_type`` defaults to ``tofrom``."""

    __slots__ = ("map_type", "always")

    MAP_TYPES = ("to", "from", "tofrom", "alloc", "release", "delete")

    def __init__(self, map_type: str, items: list[OMPSectionItem],
                 always: bool = False):
        super().__init__("map", items)
        if map_type not in self.MAP_TYPES:
            raise ValueError(f"invalid map type {map_type!r}")
        self.map_type = map_type
        self.always = always


class OMPToClause(OMPVarListClause):
    """``to(list)`` on ``target update``."""

    __slots__ = ()

    def __init__(self, items: list[OMPSectionItem]):
        super().__init__("to", items)


class OMPFromClause(OMPVarListClause):
    """``from(list)`` on ``target update``."""

    __slots__ = ()

    def __init__(self, items: list[OMPSectionItem]):
        super().__init__("from", items)


class OMPFirstprivateClause(OMPVarListClause):
    __slots__ = ()

    def __init__(self, items: list[OMPSectionItem]):
        super().__init__("firstprivate", items)


class OMPPrivateClause(OMPVarListClause):
    __slots__ = ()

    def __init__(self, items: list[OMPSectionItem]):
        super().__init__("private", items)


class OMPReductionClause(OMPVarListClause):
    __slots__ = ("operator",)

    def __init__(self, operator: str, items: list[OMPSectionItem]):
        super().__init__("reduction", items)
        self.operator = operator


class OMPExprClause(OMPClause):
    """Clauses with a single expression argument (num_teams, if, ...)."""

    __slots__ = ("expr",)

    def __init__(self, kind: str, expr: Expr):
        super().__init__(kind)
        self.expr = expr

    def children(self) -> list[Node]:
        return [self.expr]


class OMPSimpleClause(OMPClause):
    """Argument-less clauses (nowait) or raw-text ones (schedule)."""

    __slots__ = ("argument",)

    def __init__(self, kind: str, argument: str = ""):
        super().__init__(kind)
        self.argument = argument


class OMPExecutableDirective(Stmt):
    """Base of all ``#pragma omp ...`` statements."""

    __slots__ = ("directive_kind", "clauses", "associated_stmt", "pragma_text")

    def __init__(
        self,
        directive_kind: str,
        clauses: list[OMPClause],
        associated_stmt: Stmt | None,
        pragma_text: str = "",
    ):
        super().__init__()
        self.directive_kind = directive_kind
        self.clauses = clauses
        self.associated_stmt = associated_stmt
        self.pragma_text = pragma_text

    def children(self) -> list[Node]:
        return _flatten(self.clauses, self.associated_stmt)

    def clauses_of(self, cls: type) -> list[OMPClause]:
        return [c for c in self.clauses if isinstance(c, cls)]

    def map_clauses(self) -> list[OMPMapClause]:
        return [c for c in self.clauses if isinstance(c, OMPMapClause)]

    @property
    def is_offload_kernel(self) -> bool:
        return type(self) in OFFLOAD_KERNEL_DIRECTIVES


# -- Table I: AST nodes recognised as offload kernels -----------------------


class OMPTargetDirective(OMPExecutableDirective):
    __slots__ = ()


class OMPTargetParallelDirective(OMPExecutableDirective):
    __slots__ = ()


class OMPTargetParallelForDirective(OMPExecutableDirective):
    __slots__ = ()


class OMPTargetParallelForSimdDirective(OMPExecutableDirective):
    __slots__ = ()


class OMPTargetParallelGenericLoopDirective(OMPExecutableDirective):
    __slots__ = ()


class OMPTargetSimdDirective(OMPExecutableDirective):
    __slots__ = ()


class OMPTargetTeamsDirective(OMPExecutableDirective):
    __slots__ = ()


class OMPTargetTeamsDistributeDirective(OMPExecutableDirective):
    __slots__ = ()


class OMPTargetTeamsDistributeParallelForDirective(OMPExecutableDirective):
    __slots__ = ()


class OMPTargetTeamsDistributeParallelForSimdDirective(OMPExecutableDirective):
    __slots__ = ()


class OMPTargetTeamsDistributeSimdDirective(OMPExecutableDirective):
    __slots__ = ()


class OMPTargetTeamsGenericLoopDirective(OMPExecutableDirective):
    __slots__ = ()


#: Paper Table I — offload-kernel AST node -> OpenMP directive spelling.
OFFLOAD_KERNEL_DIRECTIVES: dict[type, str] = {
    OMPTargetDirective: "omp target",
    OMPTargetParallelDirective: "omp target parallel",
    OMPTargetParallelForDirective: "omp target parallel for",
    OMPTargetParallelForSimdDirective: "omp target parallel for simd",
    OMPTargetParallelGenericLoopDirective: "omp target parallel loop",
    OMPTargetSimdDirective: "omp target simd",
    OMPTargetTeamsDirective: "omp target teams",
    OMPTargetTeamsDistributeDirective: "omp target teams distribute",
    OMPTargetTeamsDistributeParallelForDirective:
        "omp target teams distribute parallel for",
    OMPTargetTeamsDistributeParallelForSimdDirective:
        "omp target teams distribute parallel for simd",
    OMPTargetTeamsDistributeSimdDirective: "omp target teams distribute simd",
    OMPTargetTeamsGenericLoopDirective: "omp target teams loop",
}


# -- Data-management directives (the ones OMPDart inserts / rejects) --------


class OMPTargetDataDirective(OMPExecutableDirective):
    """``omp target data`` — structured data region."""

    __slots__ = ()


class OMPTargetEnterDataDirective(OMPExecutableDirective):
    __slots__ = ()


class OMPTargetExitDataDirective(OMPExecutableDirective):
    __slots__ = ()


class OMPTargetUpdateDirective(OMPExecutableDirective):
    __slots__ = ()


DATA_MANAGEMENT_DIRECTIVES: tuple[type, ...] = (
    OMPTargetDataDirective,
    OMPTargetEnterDataDirective,
    OMPTargetExitDataDirective,
    OMPTargetUpdateDirective,
)


# -- Host-side OpenMP (parsed, treated as plain host code by the analyses) --


class OMPHostDirective(OMPExecutableDirective):
    """``parallel for`` and friends without ``target``."""

    __slots__ = ()


def is_offload_kernel(node: Node) -> bool:
    """True if ``node`` is one of the Table I offload-kernel directives."""
    return isinstance(node, OMPExecutableDirective) and node.is_offload_kernel


def enclosing_function(node: Node) -> FunctionDecl | None:
    for anc in node.ancestors():
        if isinstance(anc, FunctionDecl):
            return anc
    return None


def enclosing_loops(node: Node, *, within: Node | None = None) -> list[LoopStmt]:
    """Loops enclosing ``node``, innermost first, stopping at ``within``."""
    out: list[LoopStmt] = []
    for anc in node.ancestors():
        if anc is within:
            break
        if isinstance(anc, LoopStmt):
            out.append(anc)
    return out
