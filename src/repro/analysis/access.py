"""Memory access extraction and classification (paper section IV-B).

"OMPDart begins by parsing the AST to identify memory accesses
associated with each variable reference.  The memory accesses are
grouped by parent function and classified as read, write, read/write,
or unknown."

The classifier walks expression trees with a load/store context.  Calls
produce placeholder accesses that the interprocedural pass
(:mod:`repro.analysis.effects`) later resolves; until resolved they are
``UNKNOWN`` — the maximally pessimistic assumption the paper prescribes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..frontend import ast_nodes as A


class AccessKind(enum.Enum):
    """Classification of one variable access.

    ``UNKNOWN`` dominates everything in the join; it is treated as a
    read-modify-write by all downstream consumers (soundness over
    precision, paper section VII).
    """

    NONE = 0
    READ = 1
    WRITE = 2
    READWRITE = 3
    UNKNOWN = 4

    def join(self, other: "AccessKind") -> "AccessKind":
        if self is AccessKind.UNKNOWN or other is AccessKind.UNKNOWN:
            return AccessKind.UNKNOWN
        if self is AccessKind.NONE:
            return other
        if other is AccessKind.NONE:
            return self
        if self is other:
            return self
        return AccessKind.READWRITE

    @property
    def reads(self) -> bool:
        return self in (AccessKind.READ, AccessKind.READWRITE, AccessKind.UNKNOWN)

    @property
    def writes(self) -> bool:
        return self in (AccessKind.WRITE, AccessKind.READWRITE, AccessKind.UNKNOWN)


@dataclass
class Access:
    """One classified access to a named variable."""

    name: str
    decl: A.Decl | None
    kind: AccessKind
    #: The DeclRefExpr (or subscript root ref) where the access occurs.
    ref: A.DeclRefExpr | None
    #: Innermost ArraySubscriptExpr when the access is an element access.
    subscript: A.ArraySubscriptExpr | None = None
    #: Set when this access is the (unresolved) effect of a call argument.
    via_call: A.CallExpr | None = None

    @property
    def is_whole_variable(self) -> bool:
        return self.subscript is None


def _base_ref(expr: A.Expr) -> tuple[A.DeclRefExpr | None, A.ArraySubscriptExpr | None]:
    """Peel an lvalue down to its base DeclRefExpr (+ outermost subscript)."""
    subscript: A.ArraySubscriptExpr | None = None
    node: A.Expr = expr
    while True:
        if isinstance(node, A.ParenExpr):
            node = node.inner
        elif isinstance(node, A.ArraySubscriptExpr):
            if subscript is None:
                subscript = node
            node = node.base
        elif isinstance(node, A.MemberExpr):
            node = node.base
        elif isinstance(node, A.UnaryOperator) and node.op == "*":
            node = node.operand
        elif isinstance(node, A.CStyleCastExpr):
            node = node.operand
        elif isinstance(node, A.DeclRefExpr):
            return node, subscript
        else:
            return None, subscript


def _is_function_ref(ref: A.DeclRefExpr) -> bool:
    return isinstance(ref.decl, A.FunctionDecl)


class _Collector:
    """Context-sensitive expression walk producing Access records."""

    def __init__(self) -> None:
        self.accesses: list[Access] = []

    # -- entry points -----------------------------------------------------

    def collect_stmt(self, stmt: A.Stmt) -> list[Access]:
        if isinstance(stmt, A.ExprStmt):
            self._expr(stmt.expr, AccessKind.READ, value_used=False)
        elif isinstance(stmt, A.DeclStmt):
            for decl in stmt.decls:
                if isinstance(decl, A.VarDecl) and decl.init is not None:
                    self._expr(decl.init, AccessKind.READ)
                    self._emit_decl_write(decl)
        elif isinstance(stmt, A.ReturnStmt):
            if stmt.value is not None:
                self._expr(stmt.value, AccessKind.READ)
        elif isinstance(stmt, A.IfStmt):
            self._expr(stmt.cond, AccessKind.READ)
        elif isinstance(stmt, A.WhileStmt):
            self._expr(stmt.cond, AccessKind.READ)
        elif isinstance(stmt, A.DoStmt):
            self._expr(stmt.cond, AccessKind.READ)
        elif isinstance(stmt, A.SwitchStmt):
            self._expr(stmt.cond, AccessKind.READ)
        elif isinstance(stmt, A.ForStmt):
            # Only the predicate: init and inc get their own CFG nodes
            # during construction, and the body has its own nodes too.
            if stmt.cond is not None:
                self._expr(stmt.cond, AccessKind.READ)
        elif isinstance(stmt, A.CaseStmt) and stmt.value is not None:
            self._expr(stmt.value, AccessKind.READ)
        return self.accesses

    def _emit_decl_write(self, decl: A.VarDecl) -> None:
        self.accesses.append(Access(decl.name, decl, AccessKind.WRITE, None))

    # -- expressions ------------------------------------------------------

    def _emit(
        self,
        expr: A.Expr,
        kind: AccessKind,
        via_call: A.CallExpr | None = None,
    ) -> None:
        ref, subscript = _base_ref(expr)
        if ref is None or _is_function_ref(ref):
            return
        self.accesses.append(Access(ref.name, ref.decl, kind, ref, subscript, via_call))

    def _expr(self, expr: A.Expr, ctx: AccessKind, *, value_used: bool = True) -> None:
        if isinstance(expr, A.ParenExpr):
            self._expr(expr.inner, ctx, value_used=value_used)
            return
        if isinstance(expr, A.DeclRefExpr):
            if not _is_function_ref(expr):
                self._emit(expr, ctx)
            return
        if isinstance(expr, A.BinaryOperator):
            if expr.is_assignment:
                # RHS evaluated first (reads), then LHS written.
                self._expr(expr.rhs, AccessKind.READ)
                lhs_kind = (
                    AccessKind.READWRITE if expr.is_compound_assignment else AccessKind.WRITE
                )
                # Subscript/member/deref sub-expressions of the LHS are reads.
                self._lvalue_subexpr_reads(expr.lhs)
                self._emit(expr.lhs, lhs_kind)
                return
            self._expr(expr.lhs, AccessKind.READ)
            self._expr(expr.rhs, AccessKind.READ)
            return
        if isinstance(expr, A.UnaryOperator):
            if expr.op in ("++", "--"):
                self._lvalue_subexpr_reads(expr.operand)
                self._emit(expr.operand, AccessKind.READWRITE)
                return
            if expr.op == "&":
                # Address escapes: we can no longer classify precisely.
                self._lvalue_subexpr_reads(expr.operand)
                self._emit(expr.operand, AccessKind.UNKNOWN)
                return
            if expr.op == "*":
                # Dereference in a load context.
                self._expr(expr.operand, AccessKind.READ)
                self._emit(expr, ctx)
                return
            self._expr(expr.operand, AccessKind.READ)
            return
        if isinstance(expr, A.ArraySubscriptExpr):
            for idx in expr.index_exprs():
                self._expr(idx, AccessKind.READ)
            self._emit(expr, ctx)
            return
        if isinstance(expr, A.MemberExpr):
            self._emit(expr, ctx)
            return
        if isinstance(expr, A.ConditionalOperator):
            self._expr(expr.cond, AccessKind.READ)
            self._expr(expr.true_expr, ctx)
            self._expr(expr.false_expr, ctx)
            return
        if isinstance(expr, A.CallExpr):
            self._call(expr)
            return
        if isinstance(expr, A.CStyleCastExpr):
            self._expr(expr.operand, ctx, value_used=value_used)
            return
        if isinstance(expr, A.SizeOfExpr):
            return  # unevaluated operand
        if isinstance(expr, A.InitListExpr):
            for init in expr.inits:
                self._expr(init, AccessKind.READ)
            return
        # Literals and anything else: no variable access.

    def _lvalue_subexpr_reads(self, lvalue: A.Expr) -> None:
        """Index/base sub-expressions of an lvalue are loads."""
        if isinstance(lvalue, A.ParenExpr):
            self._lvalue_subexpr_reads(lvalue.inner)
        elif isinstance(lvalue, A.ArraySubscriptExpr):
            for idx in lvalue.index_exprs():
                self._expr(idx, AccessKind.READ)
            self._lvalue_subexpr_reads(lvalue.base)
        elif isinstance(lvalue, A.MemberExpr):
            self._lvalue_subexpr_reads(lvalue.base)
        elif isinstance(lvalue, A.UnaryOperator) and lvalue.op == "*":
            self._lvalue_subexpr_reads(lvalue.operand)

    def _call(self, call: A.CallExpr) -> None:
        """Arguments of a call.

        Scalar arguments are plain reads.  Pointer-valued arguments may
        let the callee read or write the pointed-to data; they are
        recorded as UNKNOWN accesses tagged ``via_call`` so the
        interprocedural pass can sharpen them (paper section IV-C).
        Pointer-to-const arguments are read-only by assumption.
        """
        for arg in call.args:
            qt = arg.qual_type
            passes_storage = (
                (qt is not None and (qt.is_pointer or qt.is_array))
                or isinstance(arg, A.UnaryOperator) and arg.op == "&"
            )
            if not passes_storage:
                self._expr(arg, AccessKind.READ)
                continue
            inner = arg
            if isinstance(inner, A.UnaryOperator) and inner.op == "&":
                inner = inner.operand
            ref, subscript = _base_ref(inner)
            if ref is None or _is_function_ref(ref):
                self._expr(arg, AccessKind.READ)
                continue
            # Index expressions used to form the argument are reads.
            self._lvalue_subexpr_reads(inner)
            if qt is not None and qt.points_to_const():
                kind = AccessKind.READ
            else:
                kind = AccessKind.UNKNOWN
            self.accesses.append(
                Access(ref.name, ref.decl, kind, ref, subscript, via_call=call)
            )


def collect_accesses(stmt: A.Stmt) -> list[Access]:
    """Classified variable accesses of one statement-granular CFG node."""
    return _Collector().collect_stmt(stmt)


def summarize(accesses: list[Access]) -> dict[str, AccessKind]:
    """Join all accesses per variable name."""
    out: dict[str, AccessKind] = {}
    for acc in accesses:
        out[acc.name] = out.get(acc.name, AccessKind.NONE).join(acc.kind)
    return out
