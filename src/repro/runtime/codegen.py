"""Sequential kernel source: loop nests -> order-exact Python.

:class:`_ScalarEmitter` flattens a kernel body into order-exact
sequential Python — the replay tier behind
:mod:`repro.runtime.replay`, one statement per line.  The generated
function charges the same tick ledger, applies the same coercions in
the same order, and raises the same diagnostics as the interpreter, so
it is bit-identical by construction.  Its output is a *serializable
row* (source + content-hash key + symbolic slot specs), the artifact of
the simulator's ``codegen`` pipeline pass: it rides the input's
artifact record, so codegen cost is paid once per distinct kernel
across launches and across simulator runs sharing a cache.

The NumPy vector emitter that lowers parallel nests lives in
:mod:`repro.runtime.vectorize`; both share :func:`compile_source`, a
bounded code-object cache keyed by generated source.  The launch side
(signature-specialized map_enter/map_exit) lives in
:mod:`repro.runtime.launch`.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Callable

from ..frontend import ast_nodes as A
from ..frontend.ctypes_ import ArrayType, StructType
from ..frontend.parser import EnumConstantDecl, fold_integer_constant
from .builtins import make_math_builtins
from .interp import SimulationError, _c_div, _c_mod, _eq

CODEGEN_SCHEMA = "ompdart-codegen/1"

_MATH_NAMES = frozenset(make_math_builtins())


class _CodegenDecline(Exception):
    """The nest uses a construct the emitter does not cover.

    Carries the exact replay-tier ineligibility message so fallback
    notes stay stable across the closure -> codegen migration.
    """


def _strip(expr: A.Expr) -> A.Expr:
    while isinstance(expr, A.ParenExpr):
        expr = expr.inner
    return expr


# -- runtime support injected into every generated scalar kernel ---------


class _Unset:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


_UNSET = _Unset()


def _chk(value: Any, name: str) -> Any:
    if value is _UNSET:
        raise SimulationError(f"use of uninitialized variable {name!r}")
    return value


def _ovf(max_steps: int) -> None:
    raise SimulationError(
        f"simulation exceeded {max_steps} steps (runaway loop?)"
    )


def _prod(shape: tuple, k: int) -> int:
    stride = 1
    for d in shape[k:]:
        stride *= d
    return stride


def _lset(data: list, pos: int, value: Any) -> None:
    data[pos] = value


def _cset(cell: Any, value: Any) -> None:
    cell.value = value


def _base_namespace() -> dict[str, Any]:
    return {
        "_UNSET": _UNSET,
        "_chk": _chk,
        "_ovf": _ovf,
        "_prod": _prod,
        "_lset": _lset,
        "_cset": _cset,
        "_c_div": _c_div,
        "_c_mod": _c_mod,
        "_eq": _eq,
    }


# -- expression spelling tables (mirror interp._BINOPS exactly) ----------

_BINOP_FORMS: dict[str, Callable[[str, str], str]] = {
    "+": lambda a, b: f"({a} + {b})",
    "-": lambda a, b: f"({a} - {b})",
    "*": lambda a, b: f"({a} * {b})",
    "/": lambda a, b: f"_c_div({a}, {b})",
    "%": lambda a, b: f"_c_mod({a}, {b})",
    "<": lambda a, b: f"int({a} < {b})",
    ">": lambda a, b: f"int({a} > {b})",
    "<=": lambda a, b: f"int({a} <= {b})",
    ">=": lambda a, b: f"int({a} >= {b})",
    "==": lambda a, b: f"int(_eq({a}, {b}))",
    "!=": lambda a, b: f"int(not _eq({a}, {b}))",
    "&": lambda a, b: f"(int({a}) & int({b}))",
    "|": lambda a, b: f"(int({a}) | int({b}))",
    "^": lambda a, b: f"(int({a}) ^ int({b}))",
    "<<": lambda a, b: f"(int({a}) << int({b}))",
    ">>": lambda a, b: f"(int({a}) >> int({b}))",
}


def _lit(value: Any) -> str:
    if isinstance(value, float):
        if value != value:
            return "float('nan')"
        if value in (float("inf"), float("-inf")):
            return f"float('{value}')"
        return repr(value)
    return repr(int(value))


# -- symbolic bindings (the serializable half of a slot spec) ------------


def _binding_descriptor(ref: A.DeclRefExpr) -> dict[str, Any]:
    decl = ref.decl
    if isinstance(decl, EnumConstantDecl):
        return {"scope": "enum", "name": ref.name, "value": decl.value}
    if isinstance(decl, A.ParmVarDecl) or (
        isinstance(decl, A.VarDecl) and not decl.is_global
    ):
        return {"scope": "local", "name": ref.name, "node_id": decl.node_id}
    return {
        "scope": "global",
        "name": ref.name,
        "node_id": decl.node_id if decl is not None else None,
    }


def _bind_getter(desc: dict[str, Any]) -> Callable[[Any], Any]:
    """Rebuild ``Interpreter._binding_getter`` from a descriptor."""
    name = desc["name"]
    if desc["scope"] == "enum":
        from .values import Cell

        cell = Cell(name, desc["value"])
        return lambda m: cell
    if desc["scope"] == "local":
        key = desc["node_id"]

        def get_local(m: Any) -> Any:
            if m.on_device:
                ov = m.kernel_overrides.get(name)
                if ov is not None:
                    return ov
            binding = m.frame.get(key)
            if binding is None:
                raise SimulationError(
                    f"use of uninitialized variable {name!r}"
                )
            return binding

        return get_local
    node_id = desc["node_id"]

    def get_global(m: Any) -> Any:
        if m.on_device:
            ov = m.kernel_overrides.get(name)
            if ov is not None:
                return ov
        binding = m.globals.get(name)
        if binding is None:
            binding = m.frame.get(node_id) if node_id is not None else None
        if binding is None:
            raise SimulationError(f"unbound variable {name!r}")
        return binding

    return get_global


# -- the sequential-scalar emitter ---------------------------------------


class _ScalarEmitter:
    """Emit order-exact sequential Python source for one kernel.

    Mirrors the closure-walker replay compiler statement for
    statement: same tick placement, same coercions, same evaluation
    order, same slot-allocation order, same ineligibility messages.
    """

    def __init__(
        self, directive: Any, math_names: frozenset[str]
    ) -> None:
        self.directive = directive
        self._math_names = math_names
        self._specs: list[dict[str, Any]] = []
        self._slot_map: dict[tuple, dict[str, Any]] = {}
        self._local_ids: set[int] = set()
        self._local_names: set[str] = set()
        self._nonlocal_names: set[str] = set()
        self._assigned: set[str] = set()
        self._used_math: set[str] = set()
        self._strides: set[tuple[int, int]] = set()
        self._decl_names: list[str] = []
        self._lines: list[str] = []
        self._indent = 0
        self._tmp = 0

    # -- infrastructure

    def _line(self, text: str) -> None:
        self._lines.append("    " * self._indent + text)

    def _fresh(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def _emit_into(self, fn: Callable[[], None]) -> list[str]:
        saved, self._lines = self._lines, []
        try:
            captured = self._lines
            fn()
        finally:
            self._lines = saved
        return captured

    def _tick(self) -> None:
        self._line("n += 1")
        self._line("if n > _budget: _ovf(_max_steps)")

    @staticmethod
    def _coerce(qt: Any, s: str) -> str:
        if qt is not None and qt.is_integer:
            return f"int({s})"
        if qt is not None and qt.is_floating:
            return f"float({s})"
        return s

    def _is_local(self, ref: A.DeclRefExpr) -> bool:
        return ref.decl is not None and ref.decl.node_id in self._local_ids

    def _slot(
        self, ref: A.DeclRefExpr, kind: str, *, written: bool = False
    ) -> int:
        key = (
            kind,
            ref.decl.node_id if ref.decl is not None else f"name:{ref.name}",
        )
        spec = self._slot_map.get(key)
        if spec is None:
            spec = {
                "kind": kind,
                "name": ref.name,
                "written": False,
                "members": set(),
                "index": len(self._specs),
                "binding": _binding_descriptor(ref),
            }
            self._slot_map[key] = spec
            self._specs.append(spec)
        spec["written"] = spec["written"] or written
        self._nonlocal_names.add(ref.name)
        return spec["index"]

    # -- top level

    def emit(self) -> str:
        stmt = self.directive.associated_stmt
        if stmt is None:
            raise _CodegenDecline("kernel has no associated statement")
        for d in stmt.walk_instances(A.VarDecl):
            self._local_ids.add(d.node_id)
            if d.name not in self._decl_names:
                self._decl_names.append(d.name)
        self._emit_stmt(stmt, ticks=True)
        self._validate()
        return self._assemble()

    def _validate(self) -> None:
        clause_names: set[str] = set()
        for cls in (
            A.OMPFirstprivateClause,
            A.OMPPrivateClause,
            A.OMPReductionClause,
        ):
            for clause in self.directive.clauses_of(cls):
                clause_names.update(clause.var_names())
        for clause in self.directive.map_clauses():
            clause_names.update(item.name for item in clause.items)
        shadowed = self._local_names & (self._nonlocal_names | clause_names)
        if shadowed:
            raise _CodegenDecline(
                "kernel-local name shadows a mapped variable: "
                f"{sorted(shadowed)[0]!r}"
            )

    def _assemble(self) -> str:
        out = ["def _kernel(_slots, _budget, _max_steps):"]
        for spec in self._specs:
            i = spec["index"]
            if spec["kind"] == "array":
                out.append(
                    f"    _d{i}, _o{i}, _sh{i}, _c{i} = _slots[{i}]"
                )
            else:
                out.append(f"    _s{i} = _slots[{i}]")
        for sidx, k in sorted(self._strides):
            out.append(f"    _st{sidx}_{k} = _prod(_sh{sidx}, {k + 1})")
        for name in self._decl_names:
            out.append(f"    v_{name} = _UNSET")
        out.append("    n = 0")
        out.extend("    " + ln for ln in self._lines)
        out.append("    return n")
        return "\n".join(out) + "\n"

    # -- statements

    @staticmethod
    def _static_ticks(stmt: A.Stmt | None) -> int | None:
        if stmt is None or isinstance(stmt, A.NullStmt):
            return 0
        if isinstance(stmt, A.CompoundStmt):
            total = 0
            for s in stmt.stmts:
                t = _ScalarEmitter._static_ticks(s)
                if t is None:
                    return None
                total += t
            return total
        if isinstance(stmt, (A.DeclStmt, A.ExprStmt)):
            return 1
        return None

    def _emit_stmt(self, stmt: A.Stmt | None, *, ticks: bool) -> None:
        if stmt is None or isinstance(stmt, A.NullStmt):
            return
        if isinstance(stmt, A.CompoundStmt):
            for s in stmt.stmts:
                self._emit_stmt(s, ticks=ticks)
            return
        if isinstance(stmt, A.DeclStmt):
            self._emit_decl(stmt, ticks=ticks)
            return
        if isinstance(stmt, A.ExprStmt):
            if ticks:
                self._tick()
            self._emit_expr_effect(stmt.expr)
            return
        if isinstance(stmt, A.IfStmt):
            self._emit_if(stmt)
            return
        if isinstance(stmt, A.ForStmt):
            self._emit_for(stmt)
            return
        raise _CodegenDecline(
            f"unsupported kernel statement {stmt.class_name}"
        )

    def _emit_decl(self, stmt: A.DeclStmt, *, ticks: bool) -> None:
        if ticks:
            self._tick()
        for decl in stmt.decls:
            qt = decl.qual_type
            if (
                qt is None
                or qt.is_pointer
                or isinstance(qt.type, (ArrayType, StructType))
            ):
                raise _CodegenDecline("kernel-local aggregate or pointer")
            if decl.init is not None:
                value = self._coerce(qt, self._emit_expr(decl.init))
            else:
                value = "0.0" if qt.is_floating else "0"
            self._local_names.add(decl.name)
            self._line(f"v_{decl.name} = {value}")
            self._assigned.add(decl.name)

    def _emit_if(self, stmt: A.IfStmt) -> None:
        self._tick()
        cond = self._emit_expr(stmt.cond)
        self._line(f"if {cond}:")
        before = set(self._assigned)
        self._indent += 1
        mark = len(self._lines)
        self._emit_stmt(stmt.then_branch, ticks=True)
        if len(self._lines) == mark:
            self._line("pass")
        self._indent -= 1
        then_assigned = self._assigned
        self._assigned = set(before)
        if stmt.else_branch is not None:
            self._line("else:")
            self._indent += 1
            mark = len(self._lines)
            self._emit_stmt(stmt.else_branch, ticks=True)
            if len(self._lines) == mark:
                self._line("pass")
            self._indent -= 1
            else_assigned = self._assigned
            self._assigned = before | (then_assigned & else_assigned)
        else:
            self._assigned = before

    def _emit_for(self, stmt: A.ForStmt) -> None:
        # Emission order mirrors the replay compile order (init, cond,
        # inc, body) so slot allocation and ineligibility diagnostics
        # match, while placement puts inc after the body.
        if stmt.init is not None:
            self._emit_stmt(stmt.init, ticks=True)
        cond = (
            self._emit_expr(stmt.cond) if stmt.cond is not None else None
        )
        outer = self._indent
        self._indent = outer + 1
        inc_lines: list[str] = []
        if stmt.inc is not None:
            inc_lines = self._emit_into(
                lambda: self._emit_expr_effect(stmt.inc)
            )
        body_ticks = self._static_ticks(stmt.body)
        batched = body_ticks is not None and cond is not None
        before_body = set(self._assigned)
        body_lines = self._emit_into(
            lambda: self._emit_stmt(stmt.body, ticks=not batched)
        )
        self._assigned = before_body
        self._indent = outer
        self._line("while True:")
        self._indent = outer + 1
        self._tick()
        if cond is not None:
            self._line(f"if not {cond}:")
            self._indent += 1
            self._line("break")
            self._indent -= 1
        if batched and body_ticks:
            self._line(f"n += {body_ticks}")
            self._line("if n > _budget: _ovf(_max_steps)")
        self._lines.extend(body_lines)
        self._lines.extend(inc_lines)
        self._indent = outer

    # -- lvalues and statement-position side effects

    def _lvalue(self, expr: A.Expr) -> tuple:
        expr = _strip(expr)
        if isinstance(expr, A.DeclRefExpr):
            if self._is_local(expr):
                return ("local", expr.name, expr.qual_type)
            sidx = self._slot(expr, "scalar", written=True)
            return ("cell", sidx, expr.qual_type)
        if isinstance(expr, A.ArraySubscriptExpr):
            sidx, pos = self._subscript(expr)
            return ("array", sidx, pos)
        raise _CodegenDecline(
            f"unsupported assignment target {expr.class_name}"
        )

    def _local_load(self, name: str) -> str:
        if name in self._assigned:
            return f"v_{name}"
        return f"_chk(v_{name}, {name!r})"

    def _emit_expr_effect(self, expr: A.Expr) -> None:
        expr = _strip(expr)
        if isinstance(expr, A.BinaryOperator) and expr.is_assignment:
            self._emit_assign_effect(expr)
            return
        if isinstance(expr, A.UnaryOperator) and expr.op in ("++", "--"):
            self._emit_incdec_effect(expr)
            return
        self._line(self._emit_expr(expr))

    def _emit_assign_effect(self, expr: A.BinaryOperator) -> None:
        op = expr.op
        kind = self._lvalue(expr.lhs)
        rhs = self._emit_expr(expr.rhs)
        if kind[0] == "local":
            _, name, qt = kind
            value = (
                rhs
                if op == "="
                else _BINOP_FORMS[op[:-1]](self._local_load(name), rhs)
            )
            self._line(f"v_{name} = {self._coerce(qt, value)}")
            self._assigned.add(name)
        elif kind[0] == "cell":
            _, sidx, qt = kind
            value = (
                rhs
                if op == "="
                else _BINOP_FORMS[op[:-1]](f"_s{sidx}.value", rhs)
            )
            self._line(f"_s{sidx}.value = {self._coerce(qt, value)}")
        else:
            _, sidx, pos = kind
            t0 = self._fresh()
            if op == "=":
                self._line(f"{t0} = {rhs}")
            else:
                loaded = _BINOP_FORMS[op[:-1]](f"_d{sidx}[{pos}]", rhs)
                self._line(f"{t0} = {loaded}")
            t1 = self._fresh()
            self._line(f"{t1} = {pos}")
            self._line(f"_d{sidx}[{t1}] = _c{sidx}({t0})")

    def _emit_incdec_effect(self, expr: A.UnaryOperator) -> None:
        kind = self._lvalue(expr.operand)
        delta = "1" if expr.op == "++" else "-1"
        if kind[0] == "local":
            _, name, qt = kind
            value = self._coerce(qt, f"({self._local_load(name)} + {delta})")
            self._line(f"v_{name} = {value}")
            self._assigned.add(name)
        elif kind[0] == "cell":
            _, sidx, qt = kind
            value = self._coerce(qt, f"(_s{sidx}.value + {delta})")
            self._line(f"_s{sidx}.value = {value}")
        else:
            _, sidx, pos = kind
            t0 = self._fresh()
            self._line(f"{t0} = (_d{sidx}[{pos}] + {delta})")
            t1 = self._fresh()
            self._line(f"{t1} = {pos}")
            self._line(f"_d{sidx}[{t1}] = _c{sidx}({t0})")

    # -- expressions

    def _subscript(self, expr: A.ArraySubscriptExpr) -> tuple[int, str]:
        idx_strs: list[str] = []
        node: A.Expr = expr
        while isinstance(node, A.ArraySubscriptExpr):
            idx_strs.append(self._emit_expr(node.index))
            node = _strip(node.base)
        if not isinstance(node, A.DeclRefExpr) or self._is_local(node):
            raise _CodegenDecline("unsupported subscript base")
        idx_strs.reverse()
        sidx = self._slot(node, "array", written=True)
        if len(idx_strs) == 1:
            pos = f"_o{sidx} + int({idx_strs[0]})"
        else:
            terms = [f"_o{sidx}"]
            for k, ix in enumerate(idx_strs):
                self._strides.add((sidx, k))
                terms.append(f"int({ix}) * _st{sidx}_{k}")
            pos = " + ".join(terms)
        return sidx, pos

    def _emit_expr(self, expr: A.Expr) -> str:
        expr = _strip(expr)
        folded = fold_integer_constant(expr)
        if folded is not None:
            return _lit(folded)
        if isinstance(
            expr,
            (A.IntegerLiteral, A.FloatingLiteral, A.CharacterLiteral),
        ):
            return _lit(expr.value)
        if isinstance(expr, A.DeclRefExpr):
            return self._emit_ref(expr)
        if isinstance(expr, A.ArraySubscriptExpr):
            sidx, pos = self._subscript(expr)
            return f"_d{sidx}[{pos}]"
        if isinstance(expr, A.MemberExpr):
            return self._emit_member(expr)
        if isinstance(expr, A.BinaryOperator):
            return self._emit_binop(expr)
        if isinstance(expr, A.UnaryOperator):
            return self._emit_unop(expr)
        if isinstance(expr, A.ConditionalOperator):
            cond = self._emit_expr(expr.cond)
            t = self._emit_expr(expr.true_expr)
            f = self._emit_expr(expr.false_expr)
            return f"({t} if {cond} else {f})"
        if isinstance(expr, A.CStyleCastExpr):
            if expr.target_type.is_pointer:
                raise _CodegenDecline("pointer cast in kernel")
            operand = self._emit_expr(expr.operand)
            return self._coerce(expr.target_type, operand)
        if isinstance(expr, A.CallExpr):
            name = expr.callee_name or "<indirect>"
            if name not in self._math_names or not name.isidentifier():
                raise _CodegenDecline(f"call to {name!r} in kernel")
            args = [self._emit_expr(a) for a in expr.args]
            self._used_math.add(name)
            return f"_m_{name}({', '.join(args)})"
        raise _CodegenDecline(
            f"unsupported kernel expression {expr.class_name}"
        )

    def _emit_ref(self, ref: A.DeclRefExpr) -> str:
        if isinstance(ref.decl, EnumConstantDecl):
            return _lit(ref.decl.value)
        if isinstance(ref.decl, A.FunctionDecl):
            raise _CodegenDecline("function reference in kernel")
        name = ref.name
        if self._is_local(ref):
            return self._local_load(name)
        qt = ref.qual_type
        if qt is not None and (
            qt.is_pointer or isinstance(qt.type, (ArrayType, StructType))
        ):
            raise _CodegenDecline(
                f"non-scalar value {name!r} used as a scalar"
            )
        sidx = self._slot(ref, "scalar")
        return f"_s{sidx}.value"

    def _emit_member(self, expr: A.MemberExpr) -> str:
        base = _strip(expr.base)
        if expr.is_arrow:
            raise _CodegenDecline("pointer member access in kernel")
        if not isinstance(base, A.DeclRefExpr) or self._is_local(base):
            raise _CodegenDecline("unsupported member access base")
        sidx = self._slot(base, "struct")
        self._specs[sidx]["members"].add(expr.member)
        return f"_s{sidx}.fields[{expr.member!r}]"

    def _emit_binop(self, expr: A.BinaryOperator) -> str:
        op = expr.op
        if op == ",":
            raise _CodegenDecline("comma expression in kernel")
        if op in ("&&", "||"):
            lhs = self._emit_expr(expr.lhs)
            rhs = self._emit_expr(expr.rhs)
            joiner = "and" if op == "&&" else "or"
            return f"int(bool({lhs}) {joiner} bool({rhs}))"
        if expr.is_assignment:
            return self._emit_assign_expr(expr)
        form = _BINOP_FORMS.get(op)
        if form is None:
            raise _CodegenDecline(f"unsupported operator {op!r} in kernel")
        lhs = self._emit_expr(expr.lhs)
        rhs = self._emit_expr(expr.rhs)
        return form(lhs, rhs)

    def _emit_assign_expr(self, expr: A.BinaryOperator) -> str:
        op = expr.op
        kind = self._lvalue(expr.lhs)
        rhs = self._emit_expr(expr.rhs)
        t0 = self._fresh()
        if kind[0] == "local":
            _, name, qt = kind
            src = (
                rhs
                if op == "="
                else _BINOP_FORMS[op[:-1]](self._local_load(name), rhs)
            )
            stored = self._coerce(qt, t0)
            return f"(({t0} := {src}), (v_{name} := {stored}))[0]"
        if kind[0] == "cell":
            _, sidx, qt = kind
            src = (
                rhs
                if op == "="
                else _BINOP_FORMS[op[:-1]](f"_s{sidx}.value", rhs)
            )
            stored = self._coerce(qt, t0)
            return f"(({t0} := {src}), _cset(_s{sidx}, {stored}))[0]"
        _, sidx, pos = kind
        src = (
            rhs
            if op == "="
            else _BINOP_FORMS[op[:-1]](f"_d{sidx}[{pos}]", rhs)
        )
        t1 = self._fresh()
        return (
            f"(({t0} := {src}), ({t1} := {pos}), "
            f"_lset(_d{sidx}, {t1}, _c{sidx}({t0})))[0]"
        )

    def _emit_unop(self, expr: A.UnaryOperator) -> str:
        op = expr.op
        if op in ("&", "*"):
            raise _CodegenDecline(
                f"unsupported unary operator {op!r} in kernel"
            )
        if op in ("++", "--"):
            return self._emit_incdec_expr(expr)
        operand = self._emit_expr(expr.operand)
        if op == "-":
            return f"(- {operand})"
        if op == "+":
            return operand
        if op == "!":
            return f"int(not {operand})"
        if op == "~":
            return f"(~ int({operand}))"
        raise _CodegenDecline(
            f"unsupported unary operator {op!r} in kernel"
        )

    def _emit_incdec_expr(self, expr: A.UnaryOperator) -> str:
        kind = self._lvalue(expr.operand)
        delta = "1" if expr.op == "++" else "-1"
        prefix = expr.is_prefix
        t0 = self._fresh()
        if kind[0] == "local":
            _, name, qt = kind
            load = self._local_load(name)
            if prefix:
                stored = self._coerce(qt, t0)
                return (
                    f"(({t0} := ({load} + {delta})), "
                    f"(v_{name} := {stored}))[0]"
                )
            stored = self._coerce(qt, f"({t0} + {delta})")
            return f"(({t0} := {load}), (v_{name} := {stored}))[0]"
        if kind[0] == "cell":
            _, sidx, qt = kind
            load = f"_s{sidx}.value"
            if prefix:
                stored = self._coerce(qt, t0)
                return (
                    f"(({t0} := ({load} + {delta})), "
                    f"_cset(_s{sidx}, {stored}))[0]"
                )
            stored = self._coerce(qt, f"({t0} + {delta})")
            return f"(({t0} := {load}), _cset(_s{sidx}, {stored}))[0]"
        _, sidx, pos = kind
        t1 = self._fresh()
        if prefix:
            return (
                f"(({t0} := (_d{sidx}[{pos}] + {delta})), "
                f"({t1} := {pos}), "
                f"_lset(_d{sidx}, {t1}, _c{sidx}({t0})))[0]"
            )
        return (
            f"(({t0} := _d{sidx}[{pos}]), ({t1} := {pos}), "
            f"_lset(_d{sidx}, {t1}, _c{sidx}(({t0} + {delta}))))[0]"
        )


# -- rows: the serializable codegen artifact -----------------------------


def emit_scalar_row(
    directive: Any, math_names: frozenset[str] | None = None
) -> dict[str, Any]:
    """Compile one directive to a serializable codegen row.

    A row either carries generated source (``reason is None``) or the
    exact ineligibility message the closure replay tier would have
    raised.  Rows are pure data — pickleable, store-cacheable — and
    bind to a live interpreter via :func:`bind_specs`.
    """
    names = _MATH_NAMES if math_names is None else frozenset(math_names)
    emitter = _ScalarEmitter(directive, names)
    reason: str | None = None
    source: str | None = None
    try:
        source = emitter.emit()
    except _CodegenDecline as exc:
        reason = str(exc)
    except Exception as exc:  # noqa: BLE001 - fallback is always correct
        reason = f"codegen error: {exc!r}"
    row: dict[str, Any] = {
        "schema": CODEGEN_SCHEMA,
        "node_id": directive.node_id,
        "reason": reason,
        "source": source,
        "key": None,
        "specs": [],
        "math": [],
    }
    if reason is None:
        row["key"] = hashlib.sha256(
            (CODEGEN_SCHEMA + "\0" + source).encode()
        ).hexdigest()
        row["specs"] = [
            {
                "kind": s["kind"],
                "name": s["name"],
                "written": s["written"],
                "members": sorted(s["members"]),
                "index": s["index"],
                "binding": s["binding"],
            }
            for s in emitter._specs
        ]
        row["math"] = sorted(emitter._used_math)
    return row


def emit_rows(tu: Any) -> dict[int, dict[str, Any]]:
    """Codegen rows for every offload kernel in a translation unit."""
    rows: dict[int, dict[str, Any]] = {}
    for node in tu.walk_instances(A.OMPExecutableDirective):
        if node.is_offload_kernel:
            rows[node.node_id] = emit_scalar_row(node)
    return rows


def bind_specs(row: dict[str, Any]) -> list[dict[str, Any]]:
    """Turn a row's symbolic slot specs into live preflight specs."""
    specs = []
    for s in row["specs"]:
        specs.append(
            {
                "kind": s["kind"],
                "getter": _bind_getter(s["binding"]),
                "name": s["name"],
                "written": s["written"],
                "members": list(s["members"]),
                "index": s["index"],
            }
        )
    return specs


#: Compiled code objects by generated source text, least recently used
#: first.  Keyed by the source alone, so an entry pins no AST node (and
#: so no translation unit) for the life of the process; the bound keeps
#: a long-running process from accumulating one entry per kernel seen.
_SOURCE_CACHE: OrderedDict[str, Any] = OrderedDict()
_SOURCE_CACHE_LIMIT = 256


def compile_source(source: str) -> Any:
    """``compile`` generated kernel source, memoized by its text."""
    code = _SOURCE_CACHE.get(source)
    if code is None:
        code = compile(source, "<ompdart-codegen>", "exec")
        _SOURCE_CACHE[source] = code
        while len(_SOURCE_CACHE) > _SOURCE_CACHE_LIMIT:
            _SOURCE_CACHE.popitem(last=False)
    else:
        _SOURCE_CACHE.move_to_end(source)
    return code


def compiled_kernel(row: dict[str, Any], math: dict[str, Any]) -> Any:
    """exec a row's (memoized) compiled source into a fresh namespace."""
    ns = _base_namespace()
    for name in row["math"]:
        ns[f"_m_{name}"] = math[name]
    exec(compile_source(row["source"]), ns)  # noqa: S102 - our own generated source
    return ns["_kernel"]
