"""Alias analysis (paper section VII).

"We assume that pointers can be disambiguated through alias analysis.
If alias analysis fails to determine whether two pointers in a program
can refer to the same memory location, the analysis will fail."

This is a flow-insensitive, Andersen-style points-to computed per
function with a whole-TU view of allocation sites:

* named arrays (globals and locals) are their own memory objects;
* each ``malloc``/``calloc`` call is one allocation-site object;
* each pointer parameter is an opaque object (distinct per parameter —
  the standard no-argument-aliasing assumption, which the paper also
  makes implicitly by mapping each pointer parameter independently).

``verify_disambiguation`` raises :class:`AnalysisError` when a pointer
used in an offloaded region may point at more than one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnostics import AnalysisError
from ..frontend import ast_nodes as A


@dataclass(frozen=True)
class MemoryObject:
    """One abstract memory location."""

    kind: str  # "array" | "alloc" | "param" | "global"
    name: str  # variable name or synthesized site name
    site: int = 0  # AST node id for alloc sites

    def __str__(self) -> str:
        if self.kind == "alloc":
            return f"alloc@{self.name}"
        return self.name


@dataclass
class PointsToResult:
    """Points-to sets per pointer variable name, per function."""

    sets: dict[str, set[MemoryObject]] = field(default_factory=dict)

    def of(self, name: str) -> set[MemoryObject]:
        return self.sets.get(name, set())

    def unambiguous(self, name: str) -> bool:
        return len(self.sets.get(name, set())) <= 1

    def may_alias(self, a: str, b: str) -> bool:
        return bool(self.of(a) & self.of(b))


def _strip(expr: A.Expr) -> A.Expr:
    while True:
        if isinstance(expr, A.ParenExpr):
            expr = expr.inner
        elif isinstance(expr, A.CStyleCastExpr):
            expr = expr.operand
        else:
            return expr


def _is_allocation(expr: A.Expr) -> bool:
    expr = _strip(expr)
    return isinstance(expr, A.CallExpr) and expr.callee_name in (
        "malloc", "calloc", "realloc",
    )


class PointsToAnalysis:
    """Flow-insensitive points-to for one function."""

    def __init__(self, fn: A.FunctionDecl, tu: A.TranslationUnit):
        self.fn = fn
        self.tu = tu
        self.result = PointsToResult()
        self._seed()
        self._propagate()

    # -- seeding -------------------------------------------------------------

    def _seed(self) -> None:
        sets = self.result.sets
        for p in self.fn.params:
            if p.qual_type.is_pointer:
                sets[p.name] = {MemoryObject("param", p.name)}
        for var in self.tu.global_vars():
            if var.qual_type.is_array or var.qual_type.is_aggregate:
                sets.setdefault(var.name, set()).add(MemoryObject("global", var.name))
        for decl in self.fn.walk_instances(A.VarDecl):
            if decl.qual_type.is_array:
                sets.setdefault(decl.name, set()).add(MemoryObject("array", decl.name))

    # -- constraint propagation ------------------------------------------------

    def _pointer_assignments(self) -> list[tuple[str, A.Expr]]:
        """(pointer-name, rhs) pairs from declarations and assignments."""
        out: list[tuple[str, A.Expr]] = []
        for decl in self.fn.walk_instances(A.VarDecl):
            if decl.qual_type.is_pointer and decl.init is not None:
                out.append((decl.name, decl.init))
        for binop in self.fn.walk_instances(A.BinaryOperator):
            if binop.op != "=":
                continue
            lhs = _strip(binop.lhs)
            if isinstance(lhs, A.DeclRefExpr) and lhs.qual_type is not None \
                    and lhs.qual_type.is_pointer:
                out.append((lhs.name, binop.rhs))
        return out

    def _rhs_objects(self, rhs: A.Expr) -> tuple[set[MemoryObject], set[str]]:
        """Objects and pointer-copies a RHS may yield."""
        rhs = _strip(rhs)
        if _is_allocation(rhs):
            line, _ = rhs.buffer.line_col(rhs.begin_offset)
            return {MemoryObject("alloc", f"L{line}", rhs.node_id)}, set()
        if isinstance(rhs, A.ConditionalOperator):
            o1, c1 = self._rhs_objects(rhs.true_expr)
            o2, c2 = self._rhs_objects(rhs.false_expr)
            return o1 | o2, c1 | c2
        if isinstance(rhs, A.UnaryOperator) and rhs.op == "&":
            inner = _strip(rhs.operand)
            base = inner
            while isinstance(base, (A.ArraySubscriptExpr, A.MemberExpr)):
                base = _strip(base.base)
            if isinstance(base, A.DeclRefExpr):
                return {MemoryObject("array", base.name)}, set()
            return set(), set()
        if isinstance(rhs, A.DeclRefExpr):
            qt = rhs.qual_type
            if qt is not None and qt.is_array:
                return {MemoryObject("array", rhs.name)}, set()
            if qt is not None and qt.is_pointer:
                return set(), {rhs.name}
        if isinstance(rhs, A.BinaryOperator) and rhs.op in ("+", "-"):
            # pointer arithmetic keeps pointing into the same object(s)
            o1, c1 = self._rhs_objects(rhs.lhs)
            o2, c2 = self._rhs_objects(rhs.rhs)
            return o1 | o2, c1 | c2
        return set(), set()

    def _propagate(self) -> None:
        assignments = self._pointer_assignments()
        sets = self.result.sets
        changed = True
        while changed:
            changed = False
            for name, rhs in assignments:
                objs, copies = self._rhs_objects(rhs)
                for copy_of in copies:
                    objs |= sets.get(copy_of, set())
                cur = sets.setdefault(name, set())
                if not objs <= cur:
                    cur |= objs
                    changed = True


def analyze_function(fn: A.FunctionDecl, tu: A.TranslationUnit) -> PointsToResult:
    """Points-to sets for one function definition."""
    return PointsToAnalysis(fn, tu).result


def verify_disambiguation(
    fn: A.FunctionDecl,
    tu: A.TranslationUnit,
    kernel_var_names: set[str],
) -> PointsToResult:
    """Fail loudly when a kernel-referenced pointer is ambiguous.

    Mirrors the paper's stated limitation: rather than risk an unsound
    mapping, the analysis refuses to continue.
    """
    result = analyze_function(fn, tu)
    for name in sorted(kernel_var_names):
        if not result.unambiguous(name):
            objs = ", ".join(sorted(str(o) for o in result.of(name)))
            raise AnalysisError(
                f"alias analysis cannot disambiguate pointer {name!r} in "
                f"function {fn.name!r} (may point to: {objs}); "
                "OMPDart requires unambiguous pointers (paper section VII)"
            )
    return result
