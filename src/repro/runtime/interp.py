"""Closure-compiling interpreter for mini-C with OpenMP offloading.

Each AST node is compiled at most once into a Python closure; execution
then runs closures only (no per-step dispatch on node types) — the
standard technique for fast tree interpreters in Python.

Compiling happens on first use.  A function compiles at its first call,
but its kernels and ``for`` loops only to a stub.  A kernel builds its
launch plan and vector candidates at its first launch, and its
interpreted body at the first launch that every candidate declines (or
at its first launch under ``vectorize=False``).  A host ``for`` loop
compiles its vector candidates at its first host execution, and its
interpreted parts at its first interpreted run.  So a kernel that never
launches costs nothing, and a vectorized one never builds the body it
does not run.  An unsupported statement is reported when it first
executes.

Offload semantics implemented here (and observed by the profiler):

* **kernel launch** (any Table I directive): every referenced variable
  is resolved; explicit ``map``/``firstprivate``/``private``/
  ``reduction`` clauses are honored; everything else is implicitly
  mapped ``tofrom`` against the refcounted present table.  With no
  explicit clauses this reproduces the default-mapping redundancy the
  paper's "Unoptimized" variants measure (Listing 1/2 behaviour).
* **kernels execute against device copies** — a missing or misplaced
  transfer yields stale data and observably wrong output, which is how
  mapping correctness is verified (paper section VI).
* ``target data`` regions and ``target update`` directives follow the
  OpenMP 5.2 reference-count rules of :mod:`repro.runtime.device`,
  including the Listing 3 pitfall.
* ``firstprivate``/``reduction``/implicit-scalar arguments travel as
  kernel arguments: **no memcpy recorded** — the optimization OMPDart
  exploits (paper section IV-D, verified on clang/gcc/icx).

Implicit-mapping note: scalars referenced without any clause are mapped
``tofrom`` like aggregates (OpenMP 4.0 semantics, which the evaluated
benchmarks' "Unoptimized" variants rely on for correctness); explicit
``firstprivate`` suppresses the copies.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Iterator

import numpy as np

from ..frontend import ast_nodes as A
from ..frontend.ctypes_ import ArrayType, QualType, StructType
from ..frontend.parser import EnumConstantDecl, fold_integer_constant, parse_source
from .builtins import LCG, c_printf, make_math_builtins, mem_copy, mem_set
from .costmodel import CostModel
from .device import DeviceDataEnvironment
from .platform import Platform, resolve_platform
from .profiler import Profiler, TransferStats
from .values import NULL, ArrayObject, Cell, Pointer, StructObject


class SimulationError(RuntimeError):
    """Raised on runtime errors in the simulated program."""


class _Return(Exception):
    def __init__(self, value: Any):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class CellPointer:
    """Pointer to a scalar cell (``&x``); supports ``p[0]`` and ``*p``."""

    __slots__ = ("cell",)

    def __init__(self, cell: Cell):
        self.cell = cell


@dataclass
class SimulationResult:
    """Outcome of one simulated program run."""

    output: str
    return_code: int
    stats: TransferStats
    profiler: Profiler
    #: Host wall-clock seconds the simulation itself took (filled in by
    #: the suite runner; 0.0 when nobody timed the run).  Unlike every
    #: field above this is *not* deterministic.
    wall_time_s: float = 0.0
    #: Kernel launches executed through the vectorizing executor
    #: (:mod:`repro.runtime.vectorize`); the remaining
    #: ``stats.kernel_launches - vectorized_launches`` ran interpreted.
    vectorized_launches: int = 0
    #: Launch counts per lowering strategy ("codegen", "collapse",
    #: "masked", "wavefront") plus "interpreter" for launches no
    #: strategy accepted.
    strategy_launches: dict[str, int] = dataclass_field(default_factory=dict)
    #: Why the first kernel in source order that ran interpreted did
    #: (its static ineligibility or runtime-decline note); None when
    #: every launch vectorized.
    fallback_reason: str | None = None

    @property
    def total_time_s(self) -> float:
        return self.stats.total_time_s

    @property
    def vector_strategy(self) -> str | None:
        """The weakest-ranked strategy any launch used (coverage label).

        ``interpreter`` when at least one launch fell back, None when
        the run launched no kernels at all.
        """
        if not self.strategy_launches:
            return None
        from .vectorize import STRATEGY_RANK

        return min(
            self.strategy_launches,
            key=lambda s: STRATEGY_RANK.get(s, -1),
        )


class Machine:
    """Mutable runtime state shared by all compiled closures."""

    def __init__(self, profiler: Profiler, max_steps: int):
        self.profiler = profiler
        self.device = DeviceDataEnvironment(profiler)
        self.globals: dict[str, Any] = {}
        self.frame: dict[int, Any] = {}
        self.on_device = False
        self.kernel_overrides: dict[str, Any] = {}
        self.rng = LCG()
        self.stdout: list[str] = []
        self.steps = 0
        self.max_steps = max_steps
        self.vectorized_launches = 0
        #: Launch counts per lowering strategy (+ "interpreter").
        self.strategy_launches: dict[str, int] = {}

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise SimulationError(
                f"simulation exceeded {self.max_steps} steps (runaway loop?)"
            )
        if self.on_device:
            self.profiler.tick_device()
        else:
            self.profiler.tick_host()

    def storage_of(self, obj: ArrayObject) -> Any:
        """Array backing store in the current memory space."""
        if self.on_device and self.device.present(obj):
            return self.device.device_storage(obj)
        return obj.data


def _truthy(value: Any) -> bool:
    if isinstance(value, (Pointer, CellPointer, ArrayObject)):
        return True
    if value is NULL:
        return False
    return bool(value)


def _c_div(a: Any, b: Any) -> Any:
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        if b == 0:
            raise SimulationError("integer division by zero")
        q = abs(int(a)) // abs(int(b))
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def _c_mod(a: Any, b: Any) -> Any:
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        if b == 0:
            raise SimulationError("integer modulo by zero")
        return int(a) - _c_div(a, b) * int(b)
    import math

    return math.fmod(a, b)


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _c_div,
    "%": _c_mod,
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(_eq(a, b)),
    "!=": lambda a, b: int(not _eq(a, b)),
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
    "<<": lambda a, b: int(a) << int(b),
    ">>": lambda a, b: int(a) >> int(b),
}


def _eq(a: Any, b: Any) -> bool:
    if a is NULL or b is NULL:
        null_a = a is NULL or (isinstance(a, (int, np.integer)) and a == 0)
        null_b = b is NULL or (isinstance(b, (int, np.integer)) and b == 0)
        return null_a and null_b
    return a == b


def _coerce_for(qt: QualType | None) -> Callable[[Any], Any]:
    if qt is not None and qt.is_integer:
        return lambda v: int(v)
    if qt is not None and qt.is_floating:
        return lambda v: float(v)
    return lambda v: v


class _MallocResult:
    """Marker value returned by malloc/calloc until bound to a pointer."""

    __slots__ = ("nbytes", "zeroed", "elem_qt")

    def __init__(self, nbytes: int, zeroed: bool, elem_qt: QualType | None = None):
        self.nbytes = int(nbytes)
        self.zeroed = zeroed
        self.elem_qt = elem_qt


class Interpreter:
    """Compiles and runs one translation unit."""

    def __init__(
        self,
        tu: A.TranslationUnit,
        *,
        cost_model: CostModel | None = None,
        platform: Platform | str | None = None,
        max_steps: int = 200_000_000,
        vectorize: bool = True,
        codegen_rows: dict[int, Any] | None = None,
    ):
        if cost_model is None:
            cost_model = resolve_platform(platform).effective_cost_model
        elif platform is not None:
            raise ValueError("pass either cost_model or platform, not both")
        self.tu = tu
        #: Precompiled kernel-source rows from the pipeline's ``codegen``
        #: pass, keyed by directive node id; when absent, the replay
        #: tier emits rows on first use.
        self._codegen_rows = codegen_rows
        self.profiler = Profiler(cost_model)
        self.machine = Machine(self.profiler, max_steps)
        self.vectorize = vectorize
        #: Why each kernel that ran interpreted did, keyed by directive
        #: node id (populated only when ``vectorize`` is on).
        self.vector_notes: dict[int, str] = {}
        self._functions: dict[str, Callable[[list[Any]], Any]] = {}
        self._math = make_math_builtins()
        self._alloc_counter = 0
        #: True while compiling an offload kernel's body — suppresses
        #: the host-loop vectorization hook (the kernel-level
        #: candidates own those loops).
        self._compiling_kernel = False

    # ==================================================================
    # Program entry
    # ==================================================================

    def run(self, entry: str = "main") -> SimulationResult:
        self._init_globals()
        fn = self.tu.lookup_function(entry)
        if fn is None or not fn.is_definition:
            raise SimulationError(f"no definition of entry function {entry!r}")
        try:
            rc = self._call_function(fn, [])
        except _Return as ret:  # pragma: no cover - defensive
            rc = ret.value
        rc = int(rc) if isinstance(rc, (int, float, np.integer)) else 0
        stats = self.profiler.snapshot()
        fallback_reason = None
        if stats.kernel_launches > self.machine.vectorized_launches:
            if not self.vectorize:
                fallback_reason = "vectorization disabled (--no-vectorize)"
            else:
                # The first kernel in source order among those that ran
                # interpreted, whichever launched first.
                notes = self.vector_notes
                fallback_reason = next(
                    (notes[node.node_id] for node in self.tu.preorder()
                     if node.node_id in notes),
                    "kernel declined vectorization",
                )
        return SimulationResult(
            output="".join(self.machine.stdout),
            return_code=rc,
            stats=stats,
            profiler=self.profiler,
            vectorized_launches=self.machine.vectorized_launches,
            strategy_launches=dict(self.machine.strategy_launches),
            fallback_reason=fallback_reason,
        )

    def _init_globals(self) -> None:
        m = self.machine
        for decl in self.tu.global_vars():
            m.globals[decl.name] = self._create_binding(decl, None)

    # ==================================================================
    # Binding creation
    # ==================================================================

    def _create_binding(self, decl: A.VarDecl, init_value: Any) -> Any:
        qt = decl.qual_type
        if isinstance(qt.type, ArrayType):
            elem_qt, dims = qt.type.flattened()
            if any(d < 0 for d in dims):
                raise SimulationError(f"unsized array {decl.name!r}")
            length = 1
            for d in dims:
                length *= d
            obj = ArrayObject(decl.name, length, elem_qt, shape=tuple(dims))
            if decl.init is not None and init_value is None:
                self._fill_array_static(obj, decl.init)
            elif init_value is not None:
                self._fill_array_static(obj, None, init_value)
            return obj
        if isinstance(qt.type, StructType):
            return StructObject(qt.type)
        # scalar / pointer
        cell = Cell(decl.name, 0 if not qt.is_floating else 0.0, qt.size)
        if qt.is_pointer:
            cell.value = NULL
        if decl.init is not None and init_value is None:
            init_value = self._eval_constant_init(decl.init)
        if init_value is not None:
            cell.value = _coerce_for(qt)(init_value) if not isinstance(
                init_value, (Pointer, CellPointer, _MallocResult)
            ) else init_value
        return cell

    def _eval_constant_init(self, expr: A.Expr) -> Any:
        folded = fold_integer_constant(expr)
        if folded is not None:
            return folded
        if isinstance(expr, A.FloatingLiteral):
            return expr.value
        if isinstance(expr, A.StringLiteral):
            return expr.value
        if isinstance(expr, A.UnaryOperator) and isinstance(
            expr.operand, A.FloatingLiteral
        ):
            return -expr.operand.value if expr.op == "-" else expr.operand.value
        return 0

    def _fill_array_static(
        self, obj: ArrayObject, init: A.Expr | None, values: Any = None
    ) -> None:
        if values is not None:
            obj.data[: len(values)] = values
            return
        if not isinstance(init, A.InitListExpr):
            return
        flat: list[Any] = []

        def flatten(e: A.Expr) -> None:
            if isinstance(e, A.InitListExpr):
                for sub in e.inits:
                    flatten(sub)
            else:
                flat.append(self._eval_constant_init(e))

        flatten(init)
        if obj.is_struct:
            return  # struct-array initializers unsupported (unused)
        obj.data[: len(flat)] = flat

    # ==================================================================
    # Function compilation & calls
    # ==================================================================

    def _compiled(self, fn: A.FunctionDecl) -> Callable[[list[Any]], Any]:
        cached = self._functions.get(fn.name)
        if cached is not None:
            return cached
        body = self._compile_stmt(fn.body)
        params = fn.params
        machine = self.machine

        def invoke(args: list[Any]) -> Any:
            saved = machine.frame
            machine.frame = {}
            try:
                for param, arg in zip(params, args):
                    if isinstance(arg, ArrayObject):
                        arg = Pointer(arg, 0)
                    if isinstance(arg, StructObject):
                        machine.frame[param.node_id] = arg.copy()
                    else:
                        cell = Cell(param.name, 0, param.qual_type.size)
                        if isinstance(arg, (Pointer, CellPointer)) or arg is NULL:
                            cell.value = arg
                        else:
                            cell.value = _coerce_for(param.qual_type)(arg)
                        machine.frame[param.node_id] = cell
                try:
                    body(machine)
                except _Return as ret:
                    return ret.value
                return 0
            finally:
                machine.frame = saved

        self._functions[fn.name] = invoke
        return invoke

    def _call_function(self, fn: A.FunctionDecl, args: list[Any]) -> Any:
        return self._compiled(fn)(args)

    # ==================================================================
    # Statement compilation
    # ==================================================================

    def _compile_stmt(self, stmt: A.Stmt | None) -> Callable[[Machine], None]:
        if stmt is None or isinstance(stmt, A.NullStmt):
            return lambda m: None
        method = getattr(self, f"_stmt_{type(stmt).__name__}", None)
        if method is not None:
            return method(stmt)
        if isinstance(stmt, A.OMPExecutableDirective):
            return self._compile_omp(stmt)
        raise SimulationError(f"cannot execute statement {stmt.class_name}")

    def _stmt_CompoundStmt(self, stmt: A.CompoundStmt) -> Callable[[Machine], None]:
        parts = [self._compile_stmt(s) for s in stmt.stmts]

        def run(m: Machine) -> None:
            for part in parts:
                part(m)

        return run

    def _stmt_ExprStmt(self, stmt: A.ExprStmt) -> Callable[[Machine], None]:
        expr = self._compile_expr(stmt.expr)

        def run(m: Machine) -> None:
            m.tick()
            expr(m)

        return run

    def _stmt_DeclStmt(self, stmt: A.DeclStmt) -> Callable[[Machine], None]:
        compiled: list[tuple[A.VarDecl, Callable[[Machine], Any] | None]] = []
        for decl in stmt.decls:
            init = self._compile_expr(decl.init) if decl.init is not None else None
            compiled.append((decl, init))
        create = self._create_binding

        def run(m: Machine) -> None:
            m.tick()
            for decl, init in compiled:
                value = init(m) if init is not None else None
                binding = create(decl, None)
                if value is not None:
                    if isinstance(binding, Cell):
                        binding.value = self._bind_cell_value(decl, value)
                    elif isinstance(binding, ArrayObject) and isinstance(value, list):
                        binding.data[: len(value)] = value
                m.frame[decl.node_id] = binding

        return run

    def _bind_cell_value(self, decl: A.VarDecl, value: Any) -> Any:
        if isinstance(value, _MallocResult):
            return self._materialize_malloc(decl.qual_type, value, decl.name)
        if isinstance(value, (Pointer, CellPointer)) or value is NULL:
            return value
        if isinstance(value, ArrayObject):
            return Pointer(value, 0)
        return _coerce_for(decl.qual_type)(value)

    def _materialize_malloc(
        self, ptr_qt: QualType, req: _MallocResult, name: str
    ) -> Pointer:
        elem_qt = req.elem_qt
        if elem_qt is None and ptr_qt.is_pointer:
            elem_qt = ptr_qt.pointee()
        if elem_qt is None or elem_qt.size == 0:
            from ..frontend.ctypes_ import UCHAR

            elem_qt = UCHAR
        self._alloc_counter += 1
        length = max(req.nbytes // elem_qt.size, 0)
        return Pointer(ArrayObject(f"{name}#{self._alloc_counter}", length, elem_qt), 0)

    def _stmt_ReturnStmt(self, stmt: A.ReturnStmt) -> Callable[[Machine], None]:
        value = self._compile_expr(stmt.value) if stmt.value is not None else None

        def run(m: Machine) -> None:
            m.tick()
            raise _Return(value(m) if value is not None else 0)

        return run

    def _stmt_BreakStmt(self, stmt: A.BreakStmt) -> Callable[[Machine], None]:
        def run(m: Machine) -> None:
            raise _Break()

        return run

    def _stmt_ContinueStmt(self, stmt: A.ContinueStmt) -> Callable[[Machine], None]:
        def run(m: Machine) -> None:
            raise _Continue()

        return run

    def _stmt_IfStmt(self, stmt: A.IfStmt) -> Callable[[Machine], None]:
        cond = self._compile_expr(stmt.cond)
        then_branch = self._compile_stmt(stmt.then_branch)
        else_branch = (
            self._compile_stmt(stmt.else_branch)
            if stmt.else_branch is not None
            else None
        )

        def run(m: Machine) -> None:
            m.tick()
            if _truthy(cond(m)):
                then_branch(m)
            elif else_branch is not None:
                else_branch(m)

        return run

    def _stmt_ForStmt(self, stmt: A.ForStmt) -> Callable[[Machine], None]:
        # The vector candidates compile at the loop's first host
        # execution and the interpreted parts at its first interpreted
        # run, in the kernel-or-host context the loop was found in.
        in_kernel = self._compiling_kernel
        host_vector = self.vectorize and not in_kernel
        if host_vector:
            from .vectorize import compile_host_loop_candidates, run_candidates
        candidates: list[Any] | None = None
        loop: Callable[[Machine], None] | None = None

        def run(m: Machine) -> None:
            nonlocal candidates, loop
            # Host-side loops route through the same vector executor as
            # kernels (bit-identical values and tick charges); inside an
            # interpreted kernel body (on_device) the loop stays
            # interpreted — kernel-level candidates own that case.
            if host_vector and not m.on_device:
                if candidates is None:
                    candidates = compile_host_loop_candidates(self, stmt)
                if candidates and run_candidates(candidates, m) is not None:
                    return
            if loop is None:
                with self._compiling(in_kernel):
                    loop = self._compile_for_loop(stmt)
            loop(m)

        return run

    def _compile_for_loop(self, stmt: A.ForStmt) -> Callable[[Machine], None]:
        init = self._compile_stmt(stmt.init) if stmt.init is not None else None
        cond = self._compile_expr(stmt.cond) if stmt.cond is not None else None
        inc = self._compile_expr(stmt.inc) if stmt.inc is not None else None
        body = self._compile_stmt(stmt.body)

        def run(m: Machine) -> None:
            if init is not None:
                init(m)
            while True:
                m.tick()
                if cond is not None and not _truthy(cond(m)):
                    return
                try:
                    body(m)
                except _Break:
                    return
                except _Continue:
                    pass
                if inc is not None:
                    inc(m)

        return run

    def _stmt_WhileStmt(self, stmt: A.WhileStmt) -> Callable[[Machine], None]:
        cond = self._compile_expr(stmt.cond)
        body = self._compile_stmt(stmt.body)

        def run(m: Machine) -> None:
            while True:
                m.tick()
                if not _truthy(cond(m)):
                    return
                try:
                    body(m)
                except _Break:
                    return
                except _Continue:
                    continue

        return run

    def _stmt_DoStmt(self, stmt: A.DoStmt) -> Callable[[Machine], None]:
        cond = self._compile_expr(stmt.cond)
        body = self._compile_stmt(stmt.body)

        def run(m: Machine) -> None:
            while True:
                m.tick()
                try:
                    body(m)
                except _Break:
                    return
                except _Continue:
                    pass
                if not _truthy(cond(m)):
                    return

        return run

    def _stmt_SwitchStmt(self, stmt: A.SwitchStmt) -> Callable[[Machine], None]:
        cond = self._compile_expr(stmt.cond)
        # Flatten the body into (case-value | "default" | None, closure).
        entries: list[tuple[Any, Callable[[Machine], None]]] = []
        body = stmt.body
        stmts = body.stmts if isinstance(body, A.CompoundStmt) else [body]
        for child in stmts:
            labels: list[Any] = []
            inner: A.Stmt | None = child
            while isinstance(inner, (A.CaseStmt, A.DefaultStmt)):
                if isinstance(inner, A.DefaultStmt):
                    labels.append("default")
                    inner = inner.sub_stmt
                else:
                    value = fold_integer_constant(inner.value)
                    if value is None:
                        raise SimulationError("non-constant case label")
                    labels.append(value)
                    inner = inner.sub_stmt
            closure = self._compile_stmt(inner) if inner is not None else (lambda m: None)
            entries.append((labels, closure))

        def run(m: Machine) -> None:
            m.tick()
            selector = cond(m)
            start = None
            default_start = None
            for i, (labels, _) in enumerate(entries):
                if any(lbl != "default" and lbl == selector for lbl in labels):
                    start = i
                    break
                if "default" in labels and default_start is None:
                    default_start = i
            if start is None:
                start = default_start
            if start is None:
                return
            try:
                for _, closure in entries[start:]:
                    closure(m)
            except _Break:
                return

        return run

    # ==================================================================
    # OpenMP directive compilation
    # ==================================================================

    def _compile_omp(self, stmt: A.OMPExecutableDirective) -> Callable[[Machine], None]:
        if stmt.is_offload_kernel:
            return self._compile_kernel(stmt)
        if isinstance(stmt, A.OMPTargetDataDirective):
            return self._compile_target_data(stmt)
        if isinstance(stmt, A.OMPTargetEnterDataDirective):
            return self._compile_enter_exit_data(stmt, entering=True)
        if isinstance(stmt, A.OMPTargetExitDataDirective):
            return self._compile_enter_exit_data(stmt, entering=False)
        if isinstance(stmt, A.OMPTargetUpdateDirective):
            return self._compile_target_update(stmt)
        # Host directives (parallel for, ...) execute their body directly.
        return self._compile_stmt(stmt.associated_stmt)

    # -- clause helpers -----------------------------------------------------

    def _clause_names(self, stmt: A.OMPExecutableDirective, cls: type) -> set[str]:
        names: set[str] = set()
        for clause in stmt.clauses_of(cls):
            names.update(clause.var_names())  # type: ignore[attr-defined]
        return names

    def _map_items(
        self, stmt: A.OMPExecutableDirective
    ) -> list[tuple[str, str, bool]]:
        items: list[tuple[str, str, bool]] = []
        for clause in stmt.map_clauses():
            for item in clause.items:
                items.append((item.name, clause.map_type, clause.always))
        return items

    def _referenced_decls(
        self, stmt: A.OMPExecutableDirective
    ) -> list[tuple[str, A.Decl | None]]:
        """Variables the kernel references, minus kernel-local decls."""
        body = stmt.associated_stmt
        if body is None:
            return []
        local_ids: set[int] = set()
        for decl in body.walk_instances(A.VarDecl):
            local_ids.add(decl.node_id)
        seen: dict[str, A.Decl | None] = {}
        for ref in body.walk_instances(A.DeclRefExpr):
            decl = ref.decl
            if isinstance(decl, (A.FunctionDecl, EnumConstantDecl)):
                continue
            if decl is None and getattr(ref.parent, "callee", None) is ref:
                continue  # an unknown function: compiling its call reports it
            if decl is not None and decl.node_id in local_ids:
                continue
            if decl is None and ref.name not in seen:
                seen[ref.name] = None
                continue
            seen.setdefault(ref.name, decl)
        return list(seen.items())

    def _resolve_name(self, m: Machine, name: str, decl: A.Decl | None) -> Any:
        if decl is not None and decl.node_id in m.frame:
            return m.frame[decl.node_id]
        if name in m.globals:
            return m.globals[name]
        # Fall back: search the frame by cell/array name (callee params).
        for binding in m.frame.values():
            if getattr(binding, "name", None) == name:
                return binding
        raise SimulationError(f"unbound variable {name!r} in OpenMP clause")

    def _mappable_of(self, binding: Any) -> Any:
        if isinstance(binding, Cell) and isinstance(binding.value, Pointer):
            return binding.value.obj
        if isinstance(binding, Cell) and isinstance(binding.value, CellPointer):
            return binding.value.cell
        return binding

    # -- kernels ------------------------------------------------------------

    @contextmanager
    def _compiling(self, in_kernel: bool) -> Iterator[None]:
        """Compile in a kernel body's context or a host context."""
        saved, self._compiling_kernel = self._compiling_kernel, in_kernel
        try:
            yield
        finally:
            self._compiling_kernel = saved

    def _compile_kernel(self, stmt: A.OMPExecutableDirective) -> Callable[[Machine], None]:
        # The launch plan and the vector candidates are built at the
        # kernel's first launch, the interpreted body at the first
        # launch that runs it; a vectorized kernel never needs one.
        launch: tuple[Any, list[Any], str | None] | None = None
        body: Callable[[Machine], None] | None = None
        vector_notes = self.vector_notes
        node_id = stmt.node_id
        if self.vectorize:
            from .vectorize import run_candidates

        def run(m: Machine) -> None:
            nonlocal launch, body
            if launch is None:
                launch = self._kernel_launch(stmt)
            plan, candidates, note = launch
            m.profiler.record_kernel_launch()
            token = plan.enter(m)

            prev_device = m.on_device
            prev_overrides = m.kernel_overrides
            m.on_device = True
            m.kernel_overrides = token.overrides
            try:
                # Every vectorized strategy is bit-identical to the
                # interpreted body (values, transfers, step accounting);
                # a runner returns False to decline a launch — e.g. a
                # pointer bound to a struct array, or a failed scatter
                # commit check — and the next candidate (ultimately the
                # closure body) runs.  Candidates that declined before
                # sort last, so a shape that always fails its launch
                # checks pays the failed attempt once.
                executed = (
                    run_candidates(candidates, m) if candidates else None
                )
                if executed is not None:
                    m.vectorized_launches += 1
                    m.strategy_launches[executed] = (
                        m.strategy_launches.get(executed, 0) + 1
                    )
                else:
                    if note is not None:
                        vector_notes.setdefault(node_id, note)
                    m.strategy_launches["interpreter"] = (
                        m.strategy_launches.get("interpreter", 0) + 1
                    )
                    if body is None:
                        with self._compiling(True):
                            body = self._compile_stmt(stmt.associated_stmt)
                    body(m)
            finally:
                m.on_device = prev_device
                m.kernel_overrides = prev_overrides
            plan.exit(m, token)

        return run

    def _kernel_launch(
        self, stmt: A.OMPExecutableDirective
    ) -> tuple[Any, list[Any], str | None]:
        """A kernel's launch plan, its vector candidates, and the note a
        launch that runs interpreted records (None without vectorizing)."""
        candidates: list[Any] = []
        note = None
        if self.vectorize:
            from .vectorize import compile_kernel_candidates

            candidates, note = compile_kernel_candidates(self, stmt)
            if candidates:
                note = (
                    "launch-time checks declined every strategy "
                    "(data-dependent shape)"
                )
        refs = self._referenced_decls(stmt)
        explicit_map = {name: (mt, alw) for name, mt, alw in self._map_items(stmt)}
        firstprivate = self._clause_names(stmt, A.OMPFirstprivateClause)
        private = self._clause_names(stmt, A.OMPPrivateClause)
        from .launch import KernelLaunchPlan

        plan = KernelLaunchPlan(
            refs=refs,
            explicit_map=explicit_map,
            private=private,
            firstprivate=firstprivate,
            reduction_names=self._clause_names(stmt, A.OMPReductionClause),
            resolve=self._resolve_name,
            mappable=self._mappable_of,
        )
        return plan, candidates, note

    # -- data regions / updates ------------------------------------------------

    def _compile_target_data(self, stmt: A.OMPTargetDataDirective) -> Callable[[Machine], None]:
        body = self._compile_stmt(stmt.associated_stmt)
        items = self._map_items(stmt)
        resolve = self._resolve_name
        mappable = self._mappable_of

        def run(m: Machine) -> None:
            mapped: list[tuple[Any, str, bool]] = []
            for name, map_type, always in items:
                obj = mappable(resolve(m, name, None))
                m.device.map_enter(obj, map_type, always=always)
                mapped.append((obj, map_type, always))
            try:
                body(m)
            finally:
                for obj, map_type, always in reversed(mapped):
                    m.device.map_exit(obj, map_type, always=always)

        return run

    def _compile_enter_exit_data(
        self, stmt: A.OMPExecutableDirective, *, entering: bool
    ) -> Callable[[Machine], None]:
        items = self._map_items(stmt)
        resolve = self._resolve_name
        mappable = self._mappable_of

        def run(m: Machine) -> None:
            for name, map_type, always in items:
                obj = mappable(resolve(m, name, None))
                if entering:
                    m.device.map_enter(obj, map_type, always=always)
                else:
                    m.device.map_exit(obj, map_type, always=always)

        return run

    def _compile_target_update(
        self, stmt: A.OMPTargetUpdateDirective
    ) -> Callable[[Machine], None]:
        to_names = [
            item.name
            for clause in stmt.clauses_of(A.OMPToClause)
            for item in clause.items  # type: ignore[attr-defined]
        ]
        from_names = [
            item.name
            for clause in stmt.clauses_of(A.OMPFromClause)
            for item in clause.items  # type: ignore[attr-defined]
        ]
        resolve = self._resolve_name
        mappable = self._mappable_of

        def run(m: Machine) -> None:
            for name in to_names:
                m.device.update_to(mappable(resolve(m, name, None)))
            for name in from_names:
                m.device.update_from(mappable(resolve(m, name, None)))

        return run

    # ==================================================================
    # Expression compilation
    # ==================================================================

    def _compile_expr(self, expr: A.Expr) -> Callable[[Machine], Any]:
        method = getattr(self, f"_expr_{type(expr).__name__}", None)
        if method is None:
            raise SimulationError(f"cannot evaluate {expr.class_name}")
        return method(expr)

    # -- literals -----------------------------------------------------------

    def _expr_IntegerLiteral(self, expr: A.IntegerLiteral):
        value = expr.value
        return lambda m: value

    def _expr_FloatingLiteral(self, expr: A.FloatingLiteral):
        value = expr.value
        return lambda m: value

    def _expr_CharacterLiteral(self, expr: A.CharacterLiteral):
        value = expr.value
        return lambda m: value

    def _expr_StringLiteral(self, expr: A.StringLiteral):
        value = expr.value
        return lambda m: value

    def _expr_ParenExpr(self, expr: A.ParenExpr):
        return self._compile_expr(expr.inner)

    def _expr_SizeOfExpr(self, expr: A.SizeOfExpr):
        size = fold_integer_constant(expr) or 0
        return lambda m: size

    # -- name references --------------------------------------------------------

    def _binding_getter(self, ref: A.DeclRefExpr) -> Callable[[Machine], Any]:
        decl = ref.decl
        name = ref.name
        if isinstance(decl, EnumConstantDecl):
            value = decl.value
            return lambda m: value
        if isinstance(decl, A.ParmVarDecl) or (
            isinstance(decl, A.VarDecl) and not decl.is_global
        ):
            key = decl.node_id

            def get_local(m: Machine) -> Any:
                if m.on_device:
                    ov = m.kernel_overrides.get(name)
                    if ov is not None:
                        return ov
                binding = m.frame.get(key)
                if binding is None:
                    raise SimulationError(f"use of uninitialized variable {name!r}")
                return binding

            return get_local

        def get_global(m: Machine) -> Any:
            if m.on_device:
                ov = m.kernel_overrides.get(name)
                if ov is not None:
                    return ov
            binding = m.globals.get(name)
            if binding is None:
                binding = m.frame.get(decl.node_id) if decl is not None else None
            if binding is None:
                raise SimulationError(f"unbound variable {name!r}")
            return binding

        return get_global

    def _expr_DeclRefExpr(self, expr: A.DeclRefExpr):
        if isinstance(expr.decl, A.FunctionDecl):
            name = expr.name
            return lambda m: name  # callee handled by CallExpr
        getter = self._binding_getter(expr)

        def load(m: Machine) -> Any:
            binding = getter(m)
            if isinstance(binding, Cell):
                return binding.value
            return binding  # ArrayObject / StructObject decay to themselves

        return load

    # -- lvalues ------------------------------------------------------------------

    def _compile_lvalue(
        self, expr: A.Expr
    ) -> tuple[Callable[[Machine], Any], Callable[[Machine, Any], None]]:
        expr = self._strip_paren(expr)
        if isinstance(expr, A.DeclRefExpr):
            getter = self._binding_getter(expr)
            coerce = _coerce_for(expr.qual_type)
            qt = expr.qual_type

            def load(m: Machine) -> Any:
                binding = getter(m)
                return binding.value if isinstance(binding, Cell) else binding

            def store(m: Machine, value: Any) -> None:
                binding = getter(m)
                if isinstance(binding, Cell):
                    if isinstance(value, _MallocResult):
                        binding.value = self._materialize_malloc(
                            qt if qt is not None else QualType(StructType()),
                            value, binding.name,
                        )
                    elif isinstance(value, (Pointer, CellPointer)) or value is NULL:
                        binding.value = value
                    elif isinstance(value, ArrayObject):
                        binding.value = Pointer(value, 0)
                    else:
                        binding.value = coerce(value)
                elif isinstance(binding, StructObject) and isinstance(value, StructObject):
                    binding.fields = dict(value.fields)
                else:
                    raise SimulationError(f"cannot assign to {expr.name!r}")

            return load, store

        if isinstance(expr, A.ArraySubscriptExpr):
            return self._subscript_lvalue(expr)
        if isinstance(expr, A.MemberExpr):
            return self._member_lvalue(expr)
        if isinstance(expr, A.UnaryOperator) and expr.op == "*":
            operand = self._compile_expr(expr.operand)

            def load_deref(m: Machine) -> Any:
                return self._pointer_load(m, operand(m), 0)

            def store_deref(m: Machine, value: Any) -> None:
                self._pointer_store(m, operand(m), 0, value)

            return load_deref, store_deref
        raise SimulationError(f"not an lvalue: {expr.class_name}")

    @staticmethod
    def _strip_paren(expr: A.Expr) -> A.Expr:
        while isinstance(expr, A.ParenExpr):
            expr = expr.inner
        return expr

    def _subscript_lvalue(self, expr: A.ArraySubscriptExpr):
        # Collect the full subscript chain: base expr + index closures.
        indices: list[Callable[[Machine], Any]] = []
        node: A.Expr = expr
        while isinstance(node, A.ArraySubscriptExpr):
            indices.append(self._compile_expr(node.index))
            node = self._strip_paren(node.base)
        indices.reverse()
        base = self._compile_expr(node)

        def resolve(m: Machine) -> tuple[Any, int]:
            target = base(m)
            idx_vals = [int(ix(m)) for ix in indices]
            if isinstance(target, CellPointer):
                if idx_vals != [0]:
                    raise SimulationError("scalar pointer indexed beyond 0")
                return target, 0
            if isinstance(target, Pointer):
                obj = target.obj
                flat = target.offset + obj.flat_index(tuple(idx_vals)) \
                    if len(idx_vals) > 1 else target.offset + idx_vals[0]
                return obj, flat
            if isinstance(target, ArrayObject):
                return target, target.flat_index(tuple(idx_vals))
            raise SimulationError(f"subscript of non-array value {target!r}")

        def load(m: Machine) -> Any:
            obj, flat = resolve(m)
            if isinstance(obj, CellPointer):
                return obj.cell.value
            storage = m.storage_of(obj)
            value = storage[flat]
            return value.item() if isinstance(value, np.generic) else value

        def store(m: Machine, value: Any) -> None:
            obj, flat = resolve(m)
            if isinstance(obj, CellPointer):
                obj.cell.value = value
                return
            storage = m.storage_of(obj)
            if obj.is_struct:
                storage[flat] = value.copy() if isinstance(value, StructObject) else value
            else:
                storage[flat] = value

        return load, store

    def _member_lvalue(self, expr: A.MemberExpr):
        base_expr = self._strip_paren(expr.base)
        member = expr.member
        if isinstance(base_expr, A.ArraySubscriptExpr):
            elem_load, elem_store = self._subscript_lvalue(base_expr)

            def load_elem_member(m: Machine) -> Any:
                struct = elem_load(m)
                return struct.fields[member]

            def store_elem_member(m: Machine, value: Any) -> None:
                struct = elem_load(m)
                struct.fields[member] = value

            return load_elem_member, store_elem_member

        base = self._compile_expr(base_expr)
        is_arrow = expr.is_arrow

        def get_struct(m: Machine) -> StructObject:
            target = base(m)
            if is_arrow and isinstance(target, Pointer):
                storage = m.storage_of(target.obj)
                target = storage[target.offset]
            if isinstance(target, StructObject):
                return target
            raise SimulationError(f"member access on non-struct {target!r}")

        def load(m: Machine) -> Any:
            return get_struct(m).fields[member]

        def store(m: Machine, value: Any) -> None:
            get_struct(m).fields[member] = value

        return load, store

    def _pointer_load(self, m: Machine, target: Any, offset: int) -> Any:
        if isinstance(target, CellPointer):
            return target.cell.value
        if isinstance(target, Pointer):
            storage = m.storage_of(target.obj)
            value = storage[target.offset + offset]
            return value.item() if isinstance(value, np.generic) else value
        if isinstance(target, ArrayObject):
            storage = m.storage_of(target)
            value = storage[offset]
            return value.item() if isinstance(value, np.generic) else value
        raise SimulationError(f"dereference of non-pointer {target!r}")

    def _pointer_store(self, m: Machine, target: Any, offset: int, value: Any) -> None:
        if isinstance(target, CellPointer):
            target.cell.value = value
            return
        if isinstance(target, Pointer):
            m.storage_of(target.obj)[target.offset + offset] = value
            return
        if isinstance(target, ArrayObject):
            m.storage_of(target)[offset] = value
            return
        raise SimulationError(f"dereference of non-pointer {target!r}")

    def _expr_ArraySubscriptExpr(self, expr: A.ArraySubscriptExpr):
        load, _ = self._subscript_lvalue(expr)
        return load

    def _expr_MemberExpr(self, expr: A.MemberExpr):
        load, _ = self._member_lvalue(expr)
        return load

    # -- operators -----------------------------------------------------------------

    def _expr_BinaryOperator(self, expr: A.BinaryOperator):
        op = expr.op
        if op == ",":
            lhs = self._compile_expr(expr.lhs)
            rhs = self._compile_expr(expr.rhs)

            def run_comma(m: Machine) -> Any:
                lhs(m)
                return rhs(m)

            return run_comma
        if op == "&&":
            lhs = self._compile_expr(expr.lhs)
            rhs = self._compile_expr(expr.rhs)
            return lambda m: int(_truthy(lhs(m)) and _truthy(rhs(m)))
        if op == "||":
            lhs = self._compile_expr(expr.lhs)
            rhs = self._compile_expr(expr.rhs)
            return lambda m: int(_truthy(lhs(m)) or _truthy(rhs(m)))
        if expr.is_assignment:
            return self._compile_assignment(expr)

        lhs = self._compile_expr(expr.lhs)
        rhs = self._compile_expr(expr.rhs)
        fn = _BINOPS.get(op)
        if fn is None:
            raise SimulationError(f"unsupported binary operator {op!r}")

        def run(m: Machine) -> Any:
            a, b = lhs(m), rhs(m)
            # pointer arithmetic
            if isinstance(a, Pointer) and op in ("+", "-") and not isinstance(b, Pointer):
                return a + int(b) if op == "+" else a - int(b)
            if isinstance(b, Pointer) and op == "+":
                return b + int(a)
            if isinstance(a, ArrayObject):
                a = Pointer(a, 0)
                if op in ("+", "-") and not isinstance(b, (Pointer, ArrayObject)):
                    return a + int(b) if op == "+" else a - int(b)
            return fn(a, b)

        return run

    _COMPOUND = {
        "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
        "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
    }

    def _compile_assignment(self, expr: A.BinaryOperator):
        load, store = self._compile_lvalue(expr.lhs)
        rhs = self._compile_expr(expr.rhs)
        if expr.op == "=":
            def run(m: Machine) -> Any:
                value = rhs(m)
                store(m, value)
                return value

            return run
        base_op = self._COMPOUND[expr.op]
        fn = _BINOPS[base_op]

        def run_compound(m: Machine) -> Any:
            old = load(m)
            value = rhs(m)
            if isinstance(old, Pointer):
                new = old + int(value) if base_op == "+" else old - int(value)
            else:
                new = fn(old, value)
            store(m, new)
            return new

        return run_compound

    def _expr_CompoundAssignOperator(self, expr: A.CompoundAssignOperator):
        return self._compile_assignment(expr)

    def _expr_UnaryOperator(self, expr: A.UnaryOperator):
        op = expr.op
        if op in ("++", "--"):
            load, store = self._compile_lvalue(expr.operand)
            delta = 1 if op == "++" else -1
            prefix = expr.is_prefix

            def run_incdec(m: Machine) -> Any:
                old = load(m)
                new = old + delta
                store(m, new)
                return new if prefix else old

            return run_incdec
        if op == "&":
            operand = self._strip_paren(expr.operand)
            if isinstance(operand, A.ArraySubscriptExpr):
                _, _ = self._subscript_lvalue(operand)  # validate shape
                indices = []
                node: A.Expr = operand
                while isinstance(node, A.ArraySubscriptExpr):
                    indices.append(self._compile_expr(node.index))
                    node = self._strip_paren(node.base)
                indices.reverse()
                base = self._compile_expr(node)

                def addr_of_elem(m: Machine) -> Any:
                    target = base(m)
                    idx_vals = tuple(int(ix(m)) for ix in indices)
                    if isinstance(target, Pointer):
                        return Pointer(target.obj, target.offset + idx_vals[0])
                    if isinstance(target, ArrayObject):
                        return Pointer(target, target.flat_index(idx_vals))
                    raise SimulationError("cannot take address of element")

                return addr_of_elem
            if isinstance(operand, A.DeclRefExpr):
                getter = self._binding_getter(operand)

                def addr_of_var(m: Machine) -> Any:
                    binding = getter(m)
                    if isinstance(binding, ArrayObject):
                        return Pointer(binding, 0)
                    if isinstance(binding, Cell):
                        return CellPointer(binding)
                    raise SimulationError("cannot take address of binding")

                return addr_of_var
            raise SimulationError("unsupported address-of operand")
        if op == "*":
            operand = self._compile_expr(expr.operand)
            return lambda m: self._pointer_load(m, operand(m), 0)

        operand = self._compile_expr(expr.operand)
        if op == "-":
            return lambda m: -operand(m)
        if op == "+":
            return operand
        if op == "!":
            return lambda m: int(not _truthy(operand(m)))
        if op == "~":
            return lambda m: ~int(operand(m))
        raise SimulationError(f"unsupported unary operator {op!r}")

    def _expr_ConditionalOperator(self, expr: A.ConditionalOperator):
        cond = self._compile_expr(expr.cond)
        true_expr = self._compile_expr(expr.true_expr)
        false_expr = self._compile_expr(expr.false_expr)
        return lambda m: true_expr(m) if _truthy(cond(m)) else false_expr(m)

    def _expr_CStyleCastExpr(self, expr: A.CStyleCastExpr):
        operand = self._compile_expr(expr.operand)
        target = expr.target_type
        if target.is_pointer:
            pointee = target.pointee()

            def run_ptr_cast(m: Machine) -> Any:
                value = operand(m)
                if isinstance(value, _MallocResult):
                    value.elem_qt = pointee
                    return value
                return value

            return run_ptr_cast
        coerce = _coerce_for(target)
        return lambda m: coerce(operand(m))

    def _expr_InitListExpr(self, expr: A.InitListExpr):
        parts = [self._compile_expr(e) for e in expr.inits]
        return lambda m: [p(m) for p in parts]

    # -- calls ------------------------------------------------------------------

    def _expr_CallExpr(self, expr: A.CallExpr):
        name = expr.callee_name
        if name is None:
            raise SimulationError("indirect calls are not supported")
        arg_closures = [self._compile_expr(a) for a in expr.args]

        target_fn = self.tu.lookup_function(name)
        if target_fn is not None and target_fn.is_definition:
            interp = self

            def run_user(m: Machine) -> Any:
                args = [c(m) for c in arg_closures]
                return interp._call_function(target_fn, args)

            return run_user

        return self._compile_builtin_call(name, arg_closures, expr)

    def _compile_builtin_call(
        self,
        name: str,
        arg_closures: list[Callable[[Machine], Any]],
        expr: A.CallExpr,
    ) -> Callable[[Machine], Any]:
        math_fn = self._math.get(name)
        if math_fn is not None:
            return lambda m: math_fn(*(c(m) for c in arg_closures))

        if name in ("printf", "fprintf"):
            skip = 1 if name == "fprintf" else 0

            def run_printf(m: Machine) -> Any:
                args = [c(m) for c in arg_closures]
                fmt = args[skip]
                if not isinstance(fmt, str):
                    return 0
                text = c_printf(fmt, args[skip + 1:])
                m.stdout.append(text)
                return len(text)

            return run_printf
        if name == "puts":
            def run_puts(m: Machine) -> Any:
                m.stdout.append(str(arg_closures[0](m)) + "\n")
                return 0

            return run_puts
        if name in ("malloc", "calloc"):
            zeroed = name == "calloc"

            def run_alloc(m: Machine) -> Any:
                args = [int(c(m)) for c in arg_closures]
                nbytes = args[0] * args[1] if zeroed else args[0]
                return _MallocResult(nbytes, zeroed)

            return run_alloc
        if name in ("free", "srand", "exit", "assert"):
            def run_misc(m: Machine) -> Any:
                args = [c(m) for c in arg_closures]
                if name == "srand":
                    m.rng.srand(int(args[0]))
                elif name == "exit":
                    raise _Return(int(args[0]))
                elif name == "assert" and not _truthy(args[0]):
                    raise SimulationError("assertion failed in simulated program")
                return 0

            return run_misc
        if name == "rand":
            return lambda m: m.rng.rand()
        if name == "memset":
            return lambda m: mem_set(*(c(m) for c in arg_closures))
        if name == "memcpy":
            return lambda m: mem_copy(*(c(m) for c in arg_closures))
        if name == "omp_get_wtime":
            return lambda m: m.profiler.current_time_s
        if name in ("omp_get_thread_num", "omp_get_team_num"):
            return lambda m: 0
        if name in ("omp_get_num_threads", "omp_get_num_teams"):
            return lambda m: 1
        if name == "omp_is_initial_device":
            return lambda m: 0 if m.on_device else 1
        raise SimulationError(f"call to unknown function {name!r}")


def run_simulation(
    source: str,
    filename: str = "<input>",
    *,
    predefined_macros: dict[str, object] | None = None,
    cost_model: CostModel | None = None,
    platform: Platform | str | None = None,
    max_steps: int = 200_000_000,
    entry: str = "main",
    tu: A.TranslationUnit | None = None,
    vectorize: bool = True,
    codegen_rows: dict[int, Any] | None = None,
) -> SimulationResult:
    """Parse and execute a mini-C OpenMP program on the simulated machine.

    The machine is selected by ``platform`` (a :class:`Platform`, a
    registry name, or None for the default A100/PCIe4 testbed); a raw
    ``cost_model`` may be passed instead for one-off experiments.

    Pass a pre-parsed ``tu`` (e.g. the pipeline's cached parse artifact)
    to skip the frontend entirely; the interpreter never mutates the
    AST, so sharing one translation unit between the tool and the
    simulator is safe.

    ``vectorize`` (default on) routes eligible offload loop nests
    through the NumPy executor of :mod:`repro.runtime.vectorize` —
    bit-identical results and profiler accounting, orders of magnitude
    faster on large kernels.  ``vectorize=False`` (CLI
    ``--no-vectorize``) forces the closure interpreter everywhere.
    """
    if tu is None:
        tu = parse_source(source, filename, predefined_macros)
    interp = Interpreter(
        tu,
        cost_model=cost_model,
        platform=platform,
        max_steps=max_steps,
        vectorize=vectorize,
        codegen_rows=codegen_rows,
    )
    return interp.run(entry)
