"""Vectorizing kernel executor: offload loop nests as generated NumPy source.

The closure interpreter executes every kernel one loop iteration at a
time — for the paper's O(N^2) kernels (clenergy's lattice x atom sweep)
this dominates suite wall time.  This module lowers ``target ... for``
loop nests to NumPy array expressions evaluated directly against device
storage, the standard escape hatch for data-parallel loops in Python
tree interpreters (compare Devito's lowering of stencil loop nests to
array expressions).

One emitter, four strategies
----------------------------

:class:`_NestCompiler` is the only vector lowering.  Its statement and
expression methods check eligibility (slot table, taint, affine forms,
the store-disjointness proof, the :mod:`repro.analysis.depend`
obligations) and emit Python/NumPy source lines; the source is compiled
once per distinct text (:func:`repro.runtime.codegen.compile_source`)
and runs inside a small per-strategy runner:

``codegen``
    Single-level nests: canonical loop headers, affine injective write
    subscripts with read==write subscripts on RW arrays, arbitrary
    gathers on read-only arrays, ``+``/``-`` reductions replayed in
    exact sequential rounding via cumsum prefix scans, fmin/fmax and
    ternary min/max reduction patterns, math calls.

``collapse``
    Perfectly nested parallel loops flatten into one index space: each
    collapsed level contributes an index vector over the combined lane
    space, store injectivity is checked across the whole space with a
    mixed-radix dominance test, and reductions still accumulate in
    lexicographic (= sequential) order.

``masked``
    ``if`` bodies lower to compressed-lane execution: the guard's mask
    selects an *active lane subset* and every statement below evaluates
    only on those lanes — so division, overflow and gathers on the
    discarded lanes are never evaluated at all (the interpreter never
    evaluates them either).  Data-dependent scatter stores and
    lane-varying ("ragged") inner loop bounds execute under a deferred
    store buffer with launch-time uniqueness/overlap checks; a failed
    check rolls the launch back and falls to the next strategy.

``wavefront``
    Nests whose stores and loads *do* carry values between iterations
    (nw's anti-diagonals) replay the outer loop sequentially while each
    slice's inner iterations evaluate as one vector.  The dependence
    classifier of :mod:`repro.analysis.depend` proves, per launch, that
    no dependence connects two cells of one slice — cross-slice flow,
    anti and output dependences are honoured by slice order itself.
    Nests with unit-distance carries (hotspot's in-place stencil) are
    the degenerate case — one-lane slices — and execute through the
    sequential scalar replay engine of :mod:`repro.runtime.replay`,
    which is order-exact by construction.

Math calls (``sqrt``/``exp``/``fabs``/``log``/...) map to NumPy ufuncs
behind a libm-parity gate: functions whose IEEE results are specified
exactly (sqrt, fabs, fmin/fmax, fmod) vectorize unconditionally, the
rest are probed bit-for-bit against :mod:`math` on a corpus of
magnitudes once per process and drop to a per-lane libm loop when the
NumPy build rounds differently — never to the interpreter.

Anything no strategy can express falls back to the closure
interpreter; correctness never depends on the vectorizer.
``Interpreter(vectorize=False)`` (CLI ``--no-vectorize``) disables the
whole module.

Exactness
---------

Every strategy is bit-identical to the interpreted path, not just
close: element updates run per-lane-private (same IEEE operations in
the same order), integer ``/`` and ``%`` use C truncating semantics,
``+``/``-`` reductions replay the loop's sequential rounding through a
``cumsum`` prefix scan, masked statements evaluate only the lanes the
interpreter would execute, wavefront slices replay in exact sequential
order, and deferred scatter stores commit only after proving the
lane-major and statement-major execution orders agree (unique store
targets, no store/load overlap).  The step/tick ledger is charged
*synthetically*: each vector-executed statement charges the exact
number of ``Machine.tick`` calls the interpreted loop would have made
— masked statements charge only the active lane count — so
``kernel_time_s``, ``omp_get_wtime`` and the Fig. 5/6 metrics are
unchanged.  Charges land *before* the corresponding array expression
is evaluated, so the ``Machine.max_steps`` runaway-loop guard still
trips — without first allocating a runaway-sized index vector.
Strategies that can decline mid-launch (masked merges, scatter
commits) snapshot the written bindings and the step ledger first and
restore both before the next candidate runs.
"""

from __future__ import annotations

import math
import re

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..frontend import ast_nodes as A
from ..frontend.ctypes_ import ArrayType, QualType, StructType
from ..frontend.parser import EnumConstantDecl, fold_integer_constant
from ..analysis.bounds import find_indexing_var, step_of
from ..analysis.depend import WavefrontObligation
from .codegen import _UNSET, _chk, _lit, _prod, compile_source
from .interp import SimulationError, _c_div, _c_mod
from .values import ArrayObject, Cell, Pointer, StructObject

__all__ = [
    "STRATEGY_RANK",
    "VectorCandidate",
    "compile_kernel_candidates",
    "compile_host_loop_candidates",
]

#: Coverage ordering used by the suite artifact and ``suite-diff``:
#: higher rank = more specialized (faster) lowering.  ``interpreter``
#: is rank 0 so "lost coverage" and "strategy downgrade" are one test.
STRATEGY_RANK: dict[str, int] = {
    "interpreter": 0,
    "wavefront": 1,
    "masked": 2,
    "collapse": 3,
    "codegen": 4,
}



class _Ineligible(Exception):
    """Internal: the nest cannot be compiled by this strategy (reason)."""


class _RuntimeDecline(Exception):
    """Internal: a launch-time check failed mid-execution; the runner
    restores its snapshot and returns False so the caller can try the
    next candidate (ultimately the interpreter)."""


# ===========================================================================
# Small helpers
# ===========================================================================


def _strip(expr: A.Expr) -> A.Expr:
    while isinstance(expr, A.ParenExpr):
        expr = expr.inner
    return expr


def _stmts_of(body: A.Stmt | None) -> list[A.Stmt]:
    if body is None:
        return []
    if isinstance(body, A.CompoundStmt):
        return list(body.stmts)
    return [body]


def _unwrap_for(stmt: A.Stmt | None) -> A.Stmt | None:
    """Peel single-statement compounds down to the loop they wrap."""
    while isinstance(stmt, A.CompoundStmt) and len(stmt.stmts) == 1:
        stmt = stmt.stmts[0]
    return stmt


def _ref_names(expr: A.Expr | None) -> set[str]:
    if expr is None:
        return set()
    return {r.name for r in expr.walk_instances(A.DeclRefExpr)}


def _expr_equal(x: A.Expr, y: A.Expr) -> bool:
    """Structural equality of the restricted (side-effect-free) grammar."""
    x, y = _strip(x), _strip(y)
    fx = fold_integer_constant(x)
    if fx is not None:
        return fx == fold_integer_constant(y)
    if type(x) is not type(y):
        return False
    if isinstance(x, A.IntegerLiteral) or isinstance(x, A.FloatingLiteral) \
            or isinstance(x, A.CharacterLiteral):
        return x.value == y.value
    if isinstance(x, A.DeclRefExpr):
        if x.decl is not None and y.decl is not None:
            return x.decl.node_id == y.decl.node_id
        return x.name == y.name
    if isinstance(x, A.UnaryOperator):
        return x.op == y.op and _expr_equal(x.operand, y.operand)
    if isinstance(x, A.BinaryOperator):
        return (x.op == y.op and _expr_equal(x.lhs, y.lhs)
                and _expr_equal(x.rhs, y.rhs))
    if isinstance(x, A.ConditionalOperator):
        return (_expr_equal(x.cond, y.cond)
                and _expr_equal(x.true_expr, y.true_expr)
                and _expr_equal(x.false_expr, y.false_expr))
    if isinstance(x, A.ArraySubscriptExpr):
        return _expr_equal(x.base, y.base) and _expr_equal(x.index, y.index)
    if isinstance(x, A.MemberExpr):
        return (x.member == y.member and x.is_arrow == y.is_arrow
                and _expr_equal(x.base, y.base))
    return False


def _chain_equal(a: list[A.Expr], b: list[A.Expr]) -> bool:
    return len(a) == len(b) and all(_expr_equal(x, y) for x, y in zip(a, b))


# ===========================================================================
# Vector numeric semantics (mirroring the closure interpreter exactly)
# ===========================================================================


def _int_like(v: Any) -> bool:
    if isinstance(v, np.ndarray):
        # Object arrays only arise from the exact-integer escalation in
        # _grow_op, so they always hold Python ints.
        return v.dtype.kind in "buiO"
    return isinstance(v, (bool, int, np.integer))


#: Magnitude above which an int64 float approximation may have wrapped;
#: half of 2**63 leaves a 2x margin over float64 rounding error.
_INT_GUARD = float(2 ** 62)


def _grow_op(py_op: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """``+``/``-``/``*`` with exact integer semantics.

    The interpreter computes every lane in unbounded Python ints; int64
    lanes would silently wrap past 2**63.  A float64 shadow of the
    result flags potential wraparound, and flagged ops are redone in
    object dtype (element-wise Python ints) — exact, like the
    interpreter, at object-array speed only in the rare kernels that
    actually overflow.
    """

    def fn(a: Any, b: Any) -> Any:
        result = py_op(a, b)
        if (
            _int_like(a)
            and _int_like(b)
            and (isinstance(a, np.ndarray) or isinstance(b, np.ndarray))
            and not (
                isinstance(result, np.ndarray) and result.dtype.kind == "O"
            )
        ):
            approx = py_op(
                np.asarray(a, dtype=np.float64),
                np.asarray(b, dtype=np.float64),
            )
            if np.any(np.abs(approx) > _INT_GUARD):
                return py_op(
                    np.asarray(a, dtype=object), np.asarray(b, dtype=object)
                )
        return result

    return fn


def _vec_div(a: Any, b: Any) -> Any:
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return _c_div(a, b)
    if _int_like(a) and _int_like(b):
        if np.any(np.equal(b, 0)):
            raise SimulationError("integer division by zero")
        q = np.floor_divide(np.abs(a), np.abs(b))
        neg = np.not_equal(np.greater_equal(a, 0), np.greater_equal(b, 0))
        return np.where(neg, -q, q)
    if np.any(np.equal(b, 0)):
        # The interpreter computes per-lane in Python, where float
        # division by zero raises; matching that beats a silent inf.
        raise ZeroDivisionError("float division by zero")
    return a / b


def _vec_mod(a: Any, b: Any) -> Any:
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return _c_mod(a, b)
    if _int_like(a) and _int_like(b):
        if np.any(np.equal(b, 0)):
            raise SimulationError("integer modulo by zero")
        return a - _vec_div(a, b) * b
    if np.any(np.equal(b, 0)):
        raise ValueError("math domain error")  # math.fmod(x, 0.0)
    return np.fmod(a, b)


def _cmp_fn(op: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def fn(a: Any, b: Any) -> Any:
        r = op(a, b)
        if isinstance(r, np.ndarray):
            return r.astype(np.int64)
        return int(r)

    return fn


def _as_int(v: Any) -> Any:
    if isinstance(v, np.ndarray):
        if v.dtype.kind == "f":
            return np.trunc(v).astype(np.int64)
        if v.dtype != np.int64 and v.dtype != object:
            return v.astype(np.int64)
        return v
    return int(v)


def _widen(v: Any) -> Any:
    """Array-load widening, mirroring the interpreter's ``.item()``.

    The closure interpreter converts every loaded element to a Python
    float (= float64) or unbounded int before computing, narrowing only
    when the value is stored back into array storage.  Vector loads
    must widen the same way, or float32 kernels would double-round
    (float32 ops lane-side vs float64-compute + one narrowing store
    interpreter-side) and diverge bitwise.
    """
    if isinstance(v, np.ndarray):
        if v.dtype.kind == "f" and v.dtype != np.float64:
            return v.astype(np.float64)
        if v.dtype.kind in "bui" and v.dtype != np.int64:
            return v.astype(np.int64)
        return v
    if isinstance(v, np.generic):
        return v.item()
    return v


def _int_op(op: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    return lambda a, b: op(_as_int(a), _as_int(b))


_VEC_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": _grow_op(lambda a, b: a + b),
    "-": _grow_op(lambda a, b: a - b),
    "*": _grow_op(lambda a, b: a * b),
    "/": _vec_div,
    "%": _vec_mod,
    "<": _cmp_fn(lambda a, b: a < b),
    ">": _cmp_fn(lambda a, b: a > b),
    "<=": _cmp_fn(lambda a, b: a <= b),
    ">=": _cmp_fn(lambda a, b: a >= b),
    "==": _cmp_fn(lambda a, b: np.equal(a, b)),
    "!=": _cmp_fn(lambda a, b: np.not_equal(a, b)),
    "&": _int_op(lambda a, b: a & b),
    "|": _int_op(lambda a, b: a | b),
    "^": _int_op(lambda a, b: a ^ b),
    "<<": _int_op(lambda a, b: a << b),
    ">>": _int_op(lambda a, b: a >> b),
}

_COMPOUND = {
    "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}

_LOOP_CMPS = {"<", "<=", ">", ">=", "!="}

_COND_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "!=": "!="}

_MINMAX_CALLS = {"fmin": "min", "fminf": "min", "fmax": "max", "fmaxf": "max"}



def _coerce_src(qt: QualType | None, src: str) -> str:
    """Store-side coercion matching the interpreter's ``_coerce_for``."""
    if qt is not None and qt.is_integer:
        return f"_as_int({src})"
    if qt is not None and qt.is_floating:
        return f"_as_float({src})"
    return src


def _as_float(v: Any) -> Any:
    # Always float64, whatever the declared width: the interpreter's
    # ``float(v)`` coercion computes C-float locals in double precision.
    if isinstance(v, np.ndarray):
        return v if v.dtype == np.float64 else v.astype(np.float64)
    return float(v)


def _broadcast(value: Any, lanes: int) -> np.ndarray:
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return value
    return np.full(lanes, value)


def _as_lane_vec(value: Any, lanes: int) -> np.ndarray:
    """Per-lane int64 position vector (scatter targets, read logs)."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return value if value.dtype == np.int64 else value.astype(np.int64)
    return np.full(lanes, int(value), dtype=np.int64)


def _as_value_vec(value: Any, lanes: int) -> np.ndarray:
    """Per-lane value vector for a deferred store buffer."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return value
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.full(lanes, value, dtype=arr.dtype)
    return arr


def _seq_sum(init: float, vec: np.ndarray) -> float:
    """Sequential-order float accumulation: ``((init+v0)+v1)+...``.

    ``cumsum`` computes every prefix, so each partial sum is rounded in
    loop order — bit-identical to the interpreted accumulation, unlike
    pairwise ``np.sum``.
    """
    buf = np.empty(vec.size + 1, dtype=np.float64)
    buf[0] = init
    buf[1:] = vec
    return float(buf.cumsum()[-1])


def _masked_merge(mask: np.ndarray, tv: Any, fv: Any) -> np.ndarray:
    """Join the two branch results of a lane-varying conditional.

    The interpreter keeps one Python value per lane, so a conditional
    whose branches yield an int on some lanes and a float on others
    would give later ``/``/``%`` operators per-lane C-vs-IEEE
    semantics no single dtype can express — those merges decline the
    launch instead of guessing.
    """
    ta, fa = np.asarray(tv), np.asarray(fv)
    if ta.dtype == object or fa.dtype == object:
        dtype: Any = object
    else:
        tk, fk = ta.dtype.kind, fa.dtype.kind
        if tk in "bui" and fk in "bui":
            dtype = np.int64
        elif tk == "f" and fk == "f":
            dtype = np.float64
        else:
            raise _RuntimeDecline(
                "mixed int/float branches in a lane-varying conditional"
            )
    out = np.empty(mask.size, dtype=dtype)
    out[mask] = tv
    out[~mask] = fv
    return out


def _scatter_into(full: np.ndarray, idx: np.ndarray, value: Any) -> np.ndarray:
    """Masked assignment into a full-lane vector, escalating to object
    dtype when the incoming values exceed int64 (exact-int semantics)."""
    if full.dtype != object:
        escalate = False
        if isinstance(value, np.ndarray):
            escalate = value.dtype == object
        elif isinstance(value, int) and not isinstance(value, bool):
            escalate = abs(value) > int(_INT_GUARD)
        if escalate:
            full = full.astype(object)
    full[idx] = value
    return full


_SCALAR_TYPES = (bool, int, float, np.integer, np.floating)


def _preflight(machine: Any, specs: list[dict[str, Any]]) -> list[Any] | None:
    """Resolve every referenced binding; None declines the launch.

    Runs before any step is charged or any storage touched, so a
    declined launch falls back with zero observable effect.  Checks the
    *runtime* shapes eligibility could not see statically: pointers
    hiding behind scalars, struct-element arrays, and two names
    aliasing one written array.
    """
    slots: list[Any] = []
    seen_arrays: dict[int, bool] = {}
    for spec in specs:
        binding = spec["getter"](machine)
        kind = spec["kind"]
        if kind == "scalar":
            if not isinstance(binding, Cell):
                return None
            if not isinstance(binding.value, _SCALAR_TYPES):
                return None
            slots.append(binding)
        elif kind == "array":
            offset = 0
            obj = binding
            if isinstance(binding, Cell):
                value = binding.value
                if not isinstance(value, Pointer):
                    return None
                obj, offset = value.obj, value.offset
            if not isinstance(obj, ArrayObject) or obj.is_struct:
                return None
            storage = machine.storage_of(obj)
            if not isinstance(storage, np.ndarray):
                return None
            written_before = seen_arrays.get(obj.object_id)
            if written_before is not None and (written_before or spec["written"]):
                return None  # two names alias a written array
            seen_arrays[obj.object_id] = bool(written_before) or spec["written"]
            slots.append((storage, offset, obj.shape))
        else:  # struct
            if not isinstance(binding, StructObject):
                return None
            for member in spec["members"]:
                if not isinstance(binding.fields.get(member), _SCALAR_TYPES):
                    return None
            slots.append(binding)
    return slots


@dataclass(frozen=True)
class _Header:
    """Canonical for-loop header: ``for (int var = init; var op bound; var += step)``."""

    var: str
    init_expr: A.Expr
    op: str
    bound_expr: A.Expr
    step: int


def _trip_count(lo: int, bound: int, op: str, step: int) -> int | None:
    """Iterations of the canonical loop; None when not statically finite."""
    if op == "!=":
        delta = bound - lo
        if step != 0 and delta % step == 0 and delta // step >= 0:
            return delta // step
        return None  # interpreted path would run away; let it
    if op == "<":
        span = bound - lo
    elif op == "<=":
        span = bound - lo + 1
    elif op == ">":
        span = lo - bound
    else:  # ">="
        span = lo - bound + 1
    if span <= 0:
        return 0
    mag = abs(step)
    return (span + mag - 1) // mag


def _trip_vec(lo: np.ndarray, bound: np.ndarray, op: str, step: int) -> np.ndarray:
    """Per-lane trip counts of a ragged (lane-varying-bound) loop."""
    if op == "<":
        span = bound - lo
    elif op == "<=":
        span = bound - lo + 1
    elif op == ">":
        span = lo - bound
    else:  # ">="
        span = lo - bound + 1
    mag = abs(step)
    return np.maximum((span + mag - 1) // mag, 0)


# ===========================================================================
# Math-call lowering: NumPy ufuncs behind a libm-parity gate
# ===========================================================================

#: Functions whose results IEEE 754 pins down exactly: sqrt is required
#: correctly rounded, fabs/fmin/fmax are sign/comparison operations,
#: fmod's remainder is exactly representable.  These need no probe.
_UFUNC_EXACT = {
    "sqrt", "sqrtf", "fabs", "fabsf", "fmin", "fminf", "fmax", "fmaxf",
    "fmod", "abs", "floor", "ceil",
}

#: Per-process probe verdicts for the remaining (implementation-defined
#: rounding) functions; True = the NumPy build matched libm bit-for-bit
#: on the probe corpus.  Tests monkeypatch entries to force the scalar
#: path.
_UFUNC_PARITY: dict[str, bool] = {}


def _probe_values() -> np.ndarray:
    probe = np.concatenate([
        np.linspace(-9.75, 9.75, 157),
        np.geomspace(1e-300, 1e300, 101),
        -np.geomspace(1e-300, 1e300, 101),
        np.array([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.pi, math.e,
                  699.9, 700.0, 1e-8, 123456.789]),
    ])
    return probe


def _parity_ok(name: str, np_fn: Callable[[np.ndarray], Any],
               math_fn: Callable[..., float], arity: int) -> bool:
    """Bit-compare the NumPy lowering against libm on the probe corpus.

    Lanes where libm raises (domain errors) are skipped — the vector
    implementations guard those domains and fall to the scalar path at
    runtime, so only the lanes both sides can compute must agree.
    """
    cached = _UFUNC_PARITY.get(name)
    if cached is not None:
        return cached
    probe = _probe_values()
    if arity == 2:
        xs = np.repeat(probe, 7)
        ys = np.resize(probe[::-1], xs.size)
        args = (xs, ys)
    else:
        args = (probe,)
    ok = True
    try:
        with np.errstate(all="ignore"):
            vec = np_fn(*args)
    except Exception:  # noqa: BLE001 - a raising lowering never vectorizes
        _UFUNC_PARITY[name] = False
        return False
    if vec is None:
        vec = np.full(args[0].size, np.nan)
    vec = np.asarray(vec, dtype=np.float64)
    for i in range(args[0].size):
        try:
            ref = math_fn(*(float(a[i]) for a in args))
        except (ValueError, OverflowError, ZeroDivisionError):
            continue
        got = float(vec[i])
        if np.float64(ref).tobytes() != np.float64(got).tobytes():
            ok = False
            break
    _UFUNC_PARITY[name] = ok
    return ok


def _np_clamped_exp(v: np.ndarray) -> np.ndarray:
    return np.exp(np.minimum(v, 700.0))


def _np_sqrt(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(v, 0.0))


def _np_log(v: np.ndarray) -> Any:
    return None if np.any(~(v > 0.0)) else np.log(v)


def _np_log2(v: np.ndarray) -> Any:
    return None if np.any(~(v > 0.0)) else np.log2(v)


def _np_log10(v: np.ndarray) -> Any:
    return None if np.any(~(v > 0.0)) else np.log10(v)


def _np_pow(x: np.ndarray, y: Any) -> Any:
    # Negative bases raise to complex in Python and 0**neg raises;
    # guard both to the per-lane path where libm semantics apply.
    if np.any(~(np.asarray(x, dtype=np.float64) > 0.0)):
        return None
    return np.power(x, y)


def _np_fmod(x: Any, y: Any) -> Any:
    return None if np.any(np.equal(y, 0.0)) else np.fmod(x, y)


def _np_fmin(x: Any, y: Any) -> Any:
    # Python's min(a, b) returns b only when b < a — asymmetric under
    # NaN, unlike np.minimum/np.fmin; np.where replicates it exactly.
    return np.where(np.less(y, x), y, x)


def _np_fmax(x: Any, y: Any) -> Any:
    return np.where(np.greater(y, x), y, x)


def _np_exp2(v: np.ndarray) -> np.ndarray:
    return np.exp2(np.minimum(v, 1000.0))


def _np_cbrt(v: np.ndarray) -> np.ndarray:
    return np.copysign(np.abs(v) ** (1.0 / 3.0), v)


def _np_floor(v: Any) -> Any:
    r = np.floor(np.asarray(v, dtype=np.float64))
    return None if np.any(np.abs(r) > _INT_GUARD) else r.astype(np.int64)


def _np_ceil(v: Any) -> Any:
    r = np.ceil(np.asarray(v, dtype=np.float64))
    return None if np.any(np.abs(r) > _INT_GUARD) else r.astype(np.int64)


def _np_abs(v: Any) -> Any:
    return np.abs(_as_int(v))


#: name -> (arity, vector implementation).  A vector implementation may
#: return ``None`` ("this input needs libm semantics") to push the call
#: onto the per-lane scalar path.  Float inputs are widened to float64
#: first — exactly the ``float(x)`` coercion the interpreter's builtins
#: apply.
_VEC_CALLS: dict[str, tuple[int, Callable[..., Any]]] = {
    "sqrt": (1, _np_sqrt),
    "sqrtf": (1, _np_sqrt),
    "fabs": (1, lambda v: np.abs(v)),
    "fabsf": (1, lambda v: np.abs(v)),
    "exp": (1, _np_clamped_exp),
    "expf": (1, _np_clamped_exp),
    "exp2": (1, _np_exp2),
    "log": (1, _np_log),
    "log2": (1, _np_log2),
    "log10": (1, _np_log10),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "tan": (1, np.tan),
    "tanh": (1, np.tanh),
    "cbrt": (1, _np_cbrt),
    "pow": (2, _np_pow),
    "powf": (2, _np_pow),
    "fmod": (2, _np_fmod),
    "fmin": (2, _np_fmin),
    "fminf": (2, _np_fmin),
    "fmax": (2, _np_fmax),
    "fmaxf": (2, _np_fmax),
    "floor": (1, _np_floor),
    "ceil": (1, _np_ceil),
    "abs": (1, _np_abs),
}

#: Calls whose interpreter builtin coerces through float() — their
#: vector operands widen to float64 the same way.
_FLOAT_ARG_CALLS = set(_VEC_CALLS) - {"abs"}


# ===========================================================================
# The nest compiler: eligibility analysis + NumPy source emission
# ===========================================================================

#: Math calls whose vector result is integer-valued (C ``floor``/``ceil``
#: are typed double but the interpreter computes them as Python ints).
_INT_RESULT_CALLS = {"floor", "ceil", "abs"}

_BINOP_NAMES = {
    "+": "_add", "-": "_sub", "*": "_mul", "/": "_div", "%": "_mod",
    "<": "_lt", ">": "_gt", "<=": "_le", ">=": "_ge", "==": "_eq",
    "!=": "_ne", "&": "_and", "|": "_or", "^": "_xor", "<<": "_shl",
    ">>": "_shr",
}

_ATOM = re.compile(r"[A-Za-z_][\w.]*|-?[\d.]+(?:e[-+]?\d+)?")


def _surely_float(expr: A.Expr) -> bool:
    """Does ``expr`` evaluate to floats on every lane?

    Float operands take ``_grow_op``'s passthrough branch (the exact
    integer escalation only triggers on int lanes), so ``+ - *`` between
    two of them can be spelled as the raw operator."""
    expr = _strip(expr)
    qt = getattr(expr, "qual_type", None)
    if qt is None or not qt.is_floating:
        return False
    return not any(
        (call.callee_name or "") in _INT_RESULT_CALLS
        for call in expr.walk_instances(A.CallExpr)
    )


def _define(signature: str, body: list[str]) -> str:
    return f"def {signature}:\n" + "".join(f"    {ln}\n" for ln in body)


class _NestCompiler:
    """Compiles one offload kernel's loop nest into NumPy source.

    One instance compiles one strategy attempt: the default mode covers
    ``codegen``/``collapse``/``masked`` (the label reflects which
    features the nest actually used); ``wavefront=True`` compiles the
    outer-sequential/inner-vector slicing mode instead.  Raises
    :class:`_Ineligible` the moment an unsupported construct appears;
    on success :meth:`compile` returns ``run(machine) -> bool`` where
    False means a launch-time check declined and the caller must try
    the next candidate (ultimately the interpreted body).

    Generated code names: ``v_<name>`` for kernel locals and loop
    indices, ``_d/_o/_sh/_st<slot>`` for array storage, offset, shape
    and strides, ``_s<slot>`` for scalar cells and structs, ``_t<n>``
    for temporaries.  ``_lanes`` is the lane count, ``_all`` the lane
    index vector.  Inside masked regions the active lane subset lives
    in a temporary (``self._act``) that may hold None at runtime (a
    lane-invariant guard keeps the enclosing set).
    """

    def __init__(
        self,
        interp: Any,
        directive: A.OMPExecutableDirective,
        *,
        collapse: bool = True,
        wavefront: bool = False,
        scatter: frozenset[int] = frozenset(),
    ):
        self.interp = interp
        self.directive = directive
        self.collapse = collapse and not wavefront
        self.wavefront = wavefront
        self.allow_scatter = not wavefront
        self.allow_ragged = not wavefront
        self.allow_seq_loops = not wavefront
        self.pvars: list[_Header] = []
        self.pvar_index: dict[str, int] = {}
        self._slice_header: _Header | None = None
        self._slice_var: str | None = None
        self._features: set[str] = set()
        self._depth = 0
        self._mask_depth = 0
        self._in_control = False
        self._tainted: set[str] = set()
        self._assigned: set[str] = set()
        self._local_ids: set[int] = set()
        self._local_names: set[str] = set()
        self._nonlocal_names: set[str] = set()
        self._scalar_loads: set[str] = set()
        self._shared_written: set[str] = set()
        self._specs: list[dict[str, Any]] = []
        self._slot_map: dict[Any, dict[str, Any]] = {}
        #: Per-slot store/load records: subscript chains (structural and
        #: affine) plus the injectivity check each store needs.
        self._writes: dict[int, list[dict[str, Any]]] = {}
        self._reads: dict[int, list[dict[str, Any]]] = {}
        #: Array slots referenced from ragged loop bounds — the trip
        #: counts are evaluated once per loop entry, so these arrays
        #: must not be written anywhere in the nest.
        self._control_slots: set[int] = set()
        #: Lane-invariance decisions taken mid-compile (loop bounds).
        #: Taint only grows, and a local can become lane-varying *after*
        #: the decision (assigned from a vector later in the same loop
        #: body — loop-carried), so every decision is re-checked against
        #: the final taint set in :meth:`_validate`.
        self._taint_checks: list[tuple[set[str], str]] = []
        #: Constant value ranges of in-scope sequential loop indices,
        #: for the store lane-disjointness check.
        self._loop_env: dict[str, tuple[int, int]] = {}
        #: Per-store disjointness obligations, checked against the real
        #: array shape at launch time (strides are runtime knowledge).
        self._store_checks: list[dict[str, Any]] = []
        #: Wavefront dependence obligations (analysis.depend), also
        #: evaluated at launch once strides are known.
        self._obligations: list[WavefrontObligation] = []
        #: Slots whose stores defer to the commit phase (the analysis
        #: result) and the set the emitted code was written for: a nest
        #: that needs deferral compiles twice (see :func:`_compile_nest`).
        self._scatter_slots: set[int] = set()
        self._scatter_known = scatter
        #: Affine forms of single-assignment locals, substituted into
        #: subscript analysis (``int j = t - i; a[i*DIM + j]``); None =
        #: poisoned by reassignment.
        self._affine_forms: dict[str, tuple[dict[str, int], int] | None] = {}
        # -- emission state
        self._lines: list[str] = []
        self._indent = 0
        self._tmp = 0
        self._act: str | None = None
        #: Locals certainly bound at the current emission point (their
        #: loads skip the uninitialized-variable check).
        self._bound: set[str] = set()
        self._strides: set[tuple[int, int]] = set()
        self._math_used: set[str] = set()
        #: Launch-invariant position cache: keys handed out so far, the
        #: locals holding launch-invariant values, and the shared scalar
        #: slots stored so far (a later read sees a mid-kernel value).
        self._pc_keys = 0
        self._stable_locals: set[str] = set()
        self._shared_stored: set[int] = set()

    # -- entry ----------------------------------------------------------

    def compile(self) -> Callable[[Any], bool]:
        for_stmt = _unwrap_for(self.directive.associated_stmt)
        if not isinstance(for_stmt, A.ForStmt):
            raise _Ineligible("kernel body is not a for loop")
        self._local_ids = {
            d.node_id for d in for_stmt.walk_instances(A.VarDecl)
        }
        if self.wavefront:
            return self._compile_wavefront(for_stmt)
        header = self._loop_header(for_stmt, parallel=True)
        self._check_header_refs(header)
        self._add_pvar(header)
        body_stmt: A.Stmt | None = for_stmt.body
        if self.collapse:
            while True:
                inner = _unwrap_for(body_stmt)
                if not isinstance(inner, A.ForStmt) or not self._collapsible(inner):
                    break
                h = self._loop_header(inner, parallel=True)
                self._check_header_refs(h)
                self._add_pvar(h)
                body_stmt = inner.body
            if len(self.pvars) > 1:
                self._features.add("collapse")
        heads = [
            self._header_fn(f"_kh{k}", h.init_expr, h.bound_expr)
            for k, h in enumerate(self.pvars)
        ]
        for k, h in enumerate(self.pvars):
            self._line(f"v_{h.var} = _pv[{k}]")
        self._bound.update(self.pvar_index)
        for s in _stmts_of(body_stmt):
            self._stmt(s)
        self._validate()
        source = "".join(heads) + self._function(
            "_kbody(_slots, _charge, _lanes, _all, _pv, _pc, _sc, _rl)"
        )
        return self._build_runner(self._load(source))

    def _compile_wavefront(self, outer: A.ForStmt) -> Callable[[Any], bool]:
        sh = self._loop_header(outer, parallel=False)
        self._slice_header = sh
        self._slice_var = sh.var
        interval = self._header_interval(sh)
        if interval is not None:
            self._loop_env[sh.var] = interval
        inner = _unwrap_for(outer.body)
        if not isinstance(inner, A.ForStmt):
            raise _Ineligible("no inner loop to execute as wavefront slices")
        header = self._loop_header(inner, parallel=True)
        if header.op == "!=":
            raise _Ineligible("wavefront inner loop with '!=' condition")
        self._check_header_refs(header)
        self._add_pvar(header)
        head = self._header_fn("_kh0", sh.init_expr, sh.bound_expr)
        self._line("_lanes = 0")
        self._line("_charge(1)")  # the slice loop's init DeclStmt
        self._line("_ts = _lo")
        self._line("while True:")
        self._indent += 1
        self._line("_charge(1)")  # slice condition-check tick
        self._line(f"if not (_ts {sh.op} _hi): break")
        self._line(f"v_{sh.var} = _ts")
        self._bound.add(sh.var)
        self._line("_charge(1)")  # inner init DeclStmt tick
        self._line(f"_ti = int({self._expr(header.init_expr, bound=True)})")
        self._line(f"_tb = int({self._expr(header.bound_expr, bound=True)})")
        self._line(
            f"_lanes = _trip_count(_ti, _tb, {header.op!r}, {header.step}) or 0"
        )
        self._line("_charge(_lanes + 1)")
        self._line("if _lanes:")
        self._indent += 1
        self._line("_all = np.arange(_lanes, dtype=np.int64)")
        self._line(f"v_{header.var} = _ti + {header.step} * _all")
        self._bound.add(header.var)
        for s in _stmts_of(inner.body):
            self._stmt(s)
        self._indent -= 1
        self._line(f"_ts += {sh.step}")
        self._indent -= 1
        self._validate()
        source = head + self._function("_kbody(_slots, _charge, _lo, _hi)")
        return self._build_wavefront_runner(self._load(source))

    def _add_pvar(self, header: _Header) -> None:
        self.pvar_index[header.var] = len(self.pvars)
        self.pvars.append(header)
        self._tainted.add(header.var)

    def _check_header_refs(self, header: _Header) -> None:
        refs = _ref_names(header.init_expr) | _ref_names(header.bound_expr)
        if refs & self._tainted:
            raise _Ineligible("loop bound depends on a vectorized value")
        self._taint_checks.append((refs, "loop bound"))

    def _collapsible(self, stmt: A.ForStmt) -> bool:
        """Cheap probe: can this inner loop join the parallel index space?

        Conservative on purpose — a False keeps the loop sequential,
        which is always correct.
        """
        var = find_indexing_var(stmt)
        if var is None:
            return False
        init = stmt.init
        if not isinstance(init, A.DeclStmt) or len(init.decls) != 1:
            return False
        decl = init.decls[0]
        if decl.name != var or decl.init is None:
            return False
        qt = decl.qual_type
        if qt is None or not qt.is_integer:
            return False
        if step_of(stmt.inc, var) == 0:
            return False
        for expr in (decl.init, stmt.cond):
            if expr is None:
                return False
            if _ref_names(expr) & self._tainted:
                return False
            for cls in (A.ArraySubscriptExpr, A.CallExpr, A.ConditionalOperator):
                if any(True for _ in expr.walk_instances(cls)):
                    return False
        return True

    def strategy_label(self) -> str:
        if self.wavefront:
            return "wavefront"
        if self._features & {"masked", "scatter", "ragged"}:
            return "masked"
        if "collapse" in self._features:
            return "collapse"
        return "codegen"

    # -- source assembly --------------------------------------------------

    def _line(self, text: str) -> None:
        self._lines.append("    " * self._indent + text)

    def _fresh(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def _capture(self, fn: Callable[[], Any]) -> tuple[Any, list[str]]:
        """Run an emitter into a separate buffer (indentation relative)."""
        saved, indent = self._lines, self._indent
        self._lines, self._indent = [], 0
        try:
            value = fn()
            lines = self._lines
        finally:
            self._lines, self._indent = saved, indent
        return value, lines

    def _put(self, lines: list[str]) -> None:
        pad = "    " * self._indent
        self._lines.extend(pad + ln for ln in lines)

    def _block(self, head: str, fn: Callable[[], None]) -> None:
        self._line(head)
        self._indent += 1
        mark = len(self._lines)
        fn()
        if len(self._lines) == mark:
            self._line("pass")
        self._indent -= 1

    def _prologue(self, *, strides: bool) -> list[str]:
        out = []
        for spec in self._specs:
            i = spec["index"]
            if spec["kind"] == "array":
                out.append(f"_d{i}, _o{i}, _sh{i} = _slots[{i}]")
            else:
                out.append(f"_s{i} = _slots[{i}]")
        if strides:
            for sidx, k in sorted(self._strides):
                out.append(f"_st{sidx}_{k} = _prod(_sh{sidx}, {k + 1})")
        return out

    def _header_fn(self, name: str, init: A.Expr, bound: A.Expr) -> str:
        """One loop level's ``(lo, bound)`` as its own function: the
        runner evaluates headers before charging anything, and reuses
        their trip counts across launches with unchanged inputs."""

        def emit() -> None:
            self._line(f"_lo = int({self._expr(init, bound=True)})")
            self._line(f"_hi = int({self._expr(bound, bound=True)})")
            self._line("return _lo, _hi")

        _, lines = self._capture(emit)
        return _define(
            f"{name}(_slots)",
            self._prologue(strides=False) + ["_lanes = 0"] + lines,
        )

    def _function(self, signature: str) -> str:
        body = self._prologue(strides=True)
        for i in sorted(self._scatter_known):
            body.append(f"_sc{i} = _sc[{i}]")
            body.append(f"_rl{i} = _rl[{i}]")
        stmt = self.directive.associated_stmt
        names = {d.name for d in stmt.walk_instances(A.VarDecl)}
        body.extend(f"v_{n} = _UNSET" for n in sorted(names - set(self.pvar_index)))
        return _define(signature, body + self._lines)

    def _load(self, source: str) -> dict[str, Any]:
        ns = dict(_RUNTIME)
        for name in self._math_used:
            ns[f"_m_{name}"] = self.interp._math[name]
        exec(compile_source(source), ns)  # noqa: S102 - our own generated source
        return ns

    # -- emission helpers ---------------------------------------------------

    def _count(self) -> str:
        """Lanes the current statement executes on."""
        if self._act is None:
            return "_lanes"
        return f"(_lanes if {self._act} is None else {self._act}.size)"

    def _base(self) -> str:
        """The current active set as an absolute lane index array."""
        if self._act is None:
            return "_all"
        return f"(_all if {self._act} is None else {self._act})"

    def _charge(self) -> None:
        self._line(f"_charge({self._count()})")

    def _ordered(self, emitters: list[Callable[[], str]]) -> list[str]:
        """Emit operands left to right.  An operand whose evaluation
        needs statement lines first pins every earlier operand into a
        temporary, so evaluation order matches the interpreter's."""
        out: list[str] = []
        for emit in emitters:
            src, lines = self._capture(emit)
            if lines:
                for k, prev in enumerate(out):
                    if not _ATOM.fullmatch(prev):
                        t = self._fresh()
                        self._line(f"{t} = {prev}")
                        out[k] = t
                self._put(lines)
            out.append(src)
        return out

    def _operands(self, *exprs: A.Expr, bound: bool = False) -> list[str]:
        return self._ordered([
            lambda e=e: self._expr(e, bound=bound) for e in exprs
        ])

    def _load_local(self, name: str) -> str:
        src = f"v_{name}" if name in self._bound else f"_chk(v_{name}, {name!r})"
        if self._act is None:
            return src
        return f"_ld({src}, {self._act})"

    def _bind_local(
        self, name: str, value: str, *, default: str | None, stable: bool
    ) -> None:
        """Assign a local (``default`` given: a declaration), mask-aware."""
        if stable and self._pc_ok():
            if not _ATOM.fullmatch(value):
                # A launch-invariant local (e.g. clamped stencil neighbor
                # indices): its lane vector is computed once and reused
                # on every input-stable launch.
                value = self._pc_wrap(value)
            self._stable_locals.add(name)
        else:
            self._stable_locals.discard(name)
        if self._act is None:
            self._line(f"v_{name} = {value}")
        elif default is None:
            self._line(
                f"v_{name} = _asg(v_{name}, {self._act}, _lanes, {value}, "
                f"{name!r})"
            )
        else:
            self._line(
                f"v_{name} = _dset(v_{name}, {self._act}, _lanes, {value}, "
                f"{default})"
            )
        self._bound.add(name)

    def _pc_ok(self) -> bool:
        """Does the current statement run exactly once per launch on all
        lanes (so launch-invariant values may be cached across launches)?"""
        return not self.wavefront and self._act is None and self._depth == 0

    def _pc_wrap(self, src: str) -> str:
        key = self._pc_keys
        self._pc_keys += 1
        return f"(_pc[{key}] if {key} in _pc else _pc.setdefault({key}, {src}))"

    def _expr_stable(self, e: A.Expr) -> bool:
        """True when the expression is launch-invariant given stable
        inputs: built only from the parallel lane vectors, constants,
        stable locals, and shared scalars neither stored by the kernel
        so far nor hidden from the runner's value comparison.  Array and
        struct contents are excluded — they are validated by identity,
        not by value."""
        for node in e.walk():
            if isinstance(node, A.DeclRefExpr):
                if isinstance(node.decl, EnumConstantDecl):
                    continue
                if node.name in self.pvar_index:
                    continue
                if self._is_local(node):
                    if node.name in self._stable_locals:
                        continue
                    return False
                qt = node.qual_type
                if qt is None or not (qt.is_integer or qt.is_floating):
                    return False
                spec = self._slot_map.get(("scalar", self._slot_key(node)))
                if spec is None or spec["index"] in self._shared_stored:
                    return False
            elif isinstance(
                node, (A.CallExpr, A.MemberExpr, A.ArraySubscriptExpr)
            ):
                return False
        return True

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        for refs, what in self._taint_checks:
            if refs & self._tainted:
                # The decision was taken before a later statement made
                # one of these names lane-varying (loop-carried value).
                raise _Ineligible(
                    f"{what} depends on a vectorized value"
                )
        self._classify_arrays()
        if self._control_slots & set(self._writes):
            raise _Ineligible(
                "ragged loop bound reads an array the nest writes"
            )
        clause_names: set[str] = set()
        for cls in (A.OMPFirstprivateClause, A.OMPPrivateClause,
                    A.OMPReductionClause):
            for clause in self.directive.clauses_of(cls):
                clause_names.update(clause.var_names())  # type: ignore[attr-defined]
        for clause in self.directive.map_clauses():
            clause_names.update(item.name for item in clause.items)
        shadowed = self._local_names & (self._nonlocal_names | clause_names)
        if shadowed:
            raise _Ineligible(
                f"kernel-local name shadows a mapped variable: "
                f"{sorted(shadowed)[0]!r}"
            )
        clash = self._shared_written & self._scalar_loads
        if clash:
            raise _Ineligible(
                f"shared scalar {sorted(clash)[0]!r} is both read and updated"
            )
        if self._scatter_slots != self._scatter_known:
            raise _Rescatter(frozenset(self._scatter_slots))
    def _classify_arrays(self) -> None:
        """Split written arrays into in-place (immediate stores) and
        scatter (deferred, launch-checked) classes; in wavefront mode,
        cross-chain pairs become dependence obligations instead."""
        for sidx, writes in self._writes.items():
            scatter_reason: str | None = None
            for w in writes:
                if w["forced"]:
                    scatter_reason = w["reason"]
                elif w["check"] is not None and (
                    w["check"]["syms"] & self._tainted
                ):
                    scatter_reason = (
                        "store subscript depends on a vectorized local"
                    )
            first = writes[0]["chain_exprs"]
            conflicting = [
                w for w in writes[1:]
                if not _chain_equal(first, w["chain_exprs"])
            ]
            mismatched = [
                r for r in self._reads.get(sidx, [])
                if not _chain_equal(first, r["chain_exprs"])
            ]
            if self.wavefront:
                if scatter_reason is not None:
                    raise _Ineligible(scatter_reason)
                for w in writes:
                    self._require_wavefront_chain(w["affine"])
                # Every distinct pair of accesses with at least one
                # write needs its own intra-slice obligation — pairing
                # only against the first chain would leave e.g. a
                # third store's collision with the second unchecked.
                for a_idx, wa in enumerate(writes):
                    for wb in writes[a_idx + 1:]:
                        if _chain_equal(wa["chain_exprs"], wb["chain_exprs"]):
                            continue
                        self._obligations.append(WavefrontObligation.make(
                            sidx, wa["affine"], wb["affine"]
                        ))
                for r in self._reads.get(sidx, []):
                    for w in writes:
                        if _chain_equal(w["chain_exprs"], r["chain_exprs"]):
                            continue
                        self._require_wavefront_chain(r["affine"])
                        self._obligations.append(WavefrontObligation.make(
                            sidx, w["affine"], r["affine"]
                        ))
                for w in writes:
                    self._store_checks.append(w["check"])
                continue
            if conflicting and scatter_reason is None:
                scatter_reason = "conflicting store subscripts"
            if mismatched and scatter_reason is None:
                scatter_reason = (
                    "array read/write subscript mismatch "
                    "(cross-iteration dependence)"
                )
            if scatter_reason is not None:
                if not self.allow_scatter:
                    raise _Ineligible(scatter_reason)
                self._scatter_slots.add(sidx)
                self._features.add("scatter")
            else:
                for w in writes:
                    self._store_checks.append(w["check"])

    def _require_wavefront_chain(self, chain: Any) -> None:
        if chain is None:
            raise _Ineligible(
                "non-affine subscript on a written array in a wavefront nest"
            )
        allowed = set(self.pvar_index)
        if self._slice_var is not None:
            allowed.add(self._slice_var)
        for coeffs, _const in chain:
            unknown = {n for n, c in coeffs.items() if c and n not in allowed}
            if unknown:
                raise _Ineligible(
                    f"wavefront subscript symbol {sorted(unknown)[0]!r} "
                    f"is not a loop index"
                )

    # -- loop headers ---------------------------------------------------

    def _loop_header(self, stmt: A.ForStmt, *, parallel: bool) -> _Header:
        var = find_indexing_var(stmt)
        if var is None:
            raise _Ineligible("unrecognized loop increment")
        init = stmt.init
        if not isinstance(init, A.DeclStmt) or len(init.decls) != 1:
            raise _Ineligible("loop init must declare its index variable")
        decl = init.decls[0]
        if decl.name != var or decl.init is None:
            raise _Ineligible("loop init must initialize its index variable")
        qt = decl.qual_type
        if qt is None or not qt.is_integer:
            raise _Ineligible("loop index is not an integer")
        step = step_of(stmt.inc, var)
        if step == 0:
            raise _Ineligible("non-constant loop step")
        cond = _strip(stmt.cond) if stmt.cond is not None else None
        if not isinstance(cond, A.BinaryOperator):
            raise _Ineligible("unrecognized loop condition")
        lhs, rhs, op = _strip(cond.lhs), _strip(cond.rhs), cond.op
        if isinstance(rhs, A.DeclRefExpr) and rhs.name == var:
            lhs, rhs = rhs, lhs
            op = _COND_FLIP.get(op, op)
        if not (isinstance(lhs, A.DeclRefExpr) and lhs.name == var):
            raise _Ineligible("loop condition does not test the index")
        if op not in _LOOP_CMPS:
            raise _Ineligible(f"unsupported loop condition {op!r}")
        if op != "!=" and (step > 0) != (op in ("<", "<=")):
            raise _Ineligible("loop step runs away from its bound")
        if var in self._affine_forms:
            self._affine_forms[var] = None  # shadowed name: poison
        self._local_names.add(var)
        self._assigned.add(var)
        return _Header(var, decl.init, op, rhs, step)

    # -- affine analysis with single-assignment forwarding ---------------

    def _affine(self, expr: A.Expr) -> tuple[dict[str, int], int] | None:
        """``expr`` as ``sum(coeff[name] * name) + const``, or None.

        Single-assignment locals with affine initializers are
        substituted (``int j = t - i`` makes ``a[i*DIM + j]`` affine
        over the loop indices — nw's anti-diagonal shape)."""
        expr = _strip(expr)
        folded = fold_integer_constant(expr)
        if folded is not None:
            return {}, folded
        if isinstance(expr, A.DeclRefExpr):
            if isinstance(expr.decl, EnumConstantDecl):
                return {}, expr.decl.value
            form = self._affine_forms.get(expr.name)
            if form is not None:
                return dict(form[0]), form[1]
            return {expr.name: 1}, 0
        if isinstance(expr, A.UnaryOperator) and expr.op in ("-", "+"):
            inner = self._affine(expr.operand)
            if inner is None:
                return None
            if expr.op == "+":
                return inner
            coeffs, const = inner
            return {n: -c for n, c in coeffs.items()}, -const
        if isinstance(expr, A.BinaryOperator) and expr.op in ("+", "-"):
            left = self._affine(expr.lhs)
            right = self._affine(expr.rhs)
            if left is None or right is None:
                return None
            sign = 1 if expr.op == "+" else -1
            coeffs = dict(left[0])
            for name, c in right[0].items():
                coeffs[name] = coeffs.get(name, 0) + sign * c
            return coeffs, left[1] + sign * right[1]
        if isinstance(expr, A.BinaryOperator) and expr.op == "*":
            left = self._affine(expr.lhs)
            right = self._affine(expr.rhs)
            if left is None or right is None:
                return None
            for (ca, ka), (cb, kb) in ((left, right), (right, left)):
                if not ca:  # one side folds to a pure constant
                    return {n: c * ka for n, c in cb.items()}, kb * ka
            return None
        return None

    def _record_affine_local(self, name: str, init: A.Expr | None) -> None:
        if name in self._affine_forms:
            self._affine_forms[name] = None  # redeclared: poison
            return
        form = self._affine(init) if init is not None else None
        self._affine_forms[name] = form

    def _chain_affine(
        self, indices: list[A.Expr]
    ) -> list[tuple[dict[str, int], int]] | None:
        chain = []
        for ix in indices:
            form = self._affine(ix)
            if form is None:
                return None
            chain.append(form)
        return chain


    @staticmethod
    def _header_interval(header: _Header) -> tuple[int, int] | None:
        """Inclusive range the loop index can take, when fully constant."""
        lo = fold_integer_constant(header.init_expr)
        bound = fold_integer_constant(header.bound_expr)
        if lo is None or bound is None:
            return None
        if header.op == "<":
            ends = (lo, bound - 1)
        elif header.op == "<=":
            ends = (lo, bound)
        elif header.op == ">":
            ends = (bound + 1, lo)
        elif header.op == ">=":
            ends = (bound, lo)
        else:  # "!=" — endpoints still bound the walk
            ends = (lo, bound - header.step)
        return min(ends), max(ends)


    def _is_local(self, ref: A.DeclRefExpr) -> bool:
        return ref.decl is not None and ref.decl.node_id in self._local_ids


    def _match_minmax(
        self, rhs: A.Expr, target: A.DeclRefExpr
    ) -> tuple[str | None, A.Expr | None]:
        """Recognize ``t = fmin(t, e)`` and ``t = e < t ? e : t`` shapes."""
        rhs = _strip(rhs)
        if isinstance(rhs, A.CallExpr):
            mode = _MINMAX_CALLS.get(rhs.callee_name or "")
            if mode is not None and len(rhs.args) == 2:
                a, b = _strip(rhs.args[0]), _strip(rhs.args[1])
                a_is_t = _expr_equal(a, target)
                b_is_t = _expr_equal(b, target)
                if a_is_t != b_is_t:
                    return mode, b if a_is_t else a
            return None, None
        if not isinstance(rhs, A.ConditionalOperator):
            return None, None
        cond = _strip(rhs.cond)
        if not isinstance(cond, A.BinaryOperator) or cond.op not in (
            "<", "<=", ">", ">="
        ):
            return None, None
        a, b = _strip(cond.lhs), _strip(cond.rhs)
        t, f = _strip(rhs.true_expr), _strip(rhs.false_expr)
        if _expr_equal(t, a) and _expr_equal(f, b):
            true_is_lhs = True
        elif _expr_equal(t, b) and _expr_equal(f, a):
            true_is_lhs = False
        else:
            return None, None
        is_less = cond.op in ("<", "<=")
        mode = "min" if (true_is_lhs == is_less) else "max"
        a_is_t = _expr_equal(a, target)
        b_is_t = _expr_equal(b, target)
        if a_is_t == b_is_t:
            return None, None
        return mode, b if a_is_t else a

    # -- array stores ---------------------------------------------------

    def _subscript_chain(
        self, expr: A.ArraySubscriptExpr
    ) -> tuple[A.DeclRefExpr, list[A.Expr]]:
        indices: list[A.Expr] = []
        node: A.Expr = expr
        while isinstance(node, A.ArraySubscriptExpr):
            indices.append(node.index)
            node = _strip(node.base)
        indices.reverse()
        if not isinstance(node, A.DeclRefExpr):
            raise _Ineligible("unsupported subscript base")
        if self._is_local(node):
            raise _Ineligible("subscript of a kernel-local value")
        return node, indices

    def _injectivity_check(
        self,
        sidx: int,
        chain: list[tuple[dict[str, int], int]],
        ndims: int,
    ) -> dict[str, Any]:
        """Build the launch-time lane-disjointness obligation for one
        store; raises when the subscript cannot be proven injective."""
        pvar_terms: list[tuple[int, int, int]] = []
        seen_levels: set[int] = set()
        spread: list[tuple[int, int, int]] = []
        syms: set[str] = set()
        for k, (coeffs, _const) in enumerate(chain):
            for sym, coeff in coeffs.items():
                if coeff == 0:
                    continue
                if sym in self.pvar_index:
                    lvl = self.pvar_index[sym]
                    if lvl in seen_levels:
                        raise _Ineligible(
                            "parallel index in several store dimensions"
                        )
                    seen_levels.add(lvl)
                    pvar_terms.append((lvl, k, abs(coeff)))
                    continue
                if sym == self._slice_var:
                    # Fixed within one wavefront slice; cross-slice
                    # collisions resolve in slice (= sequential) order.
                    continue
                syms.add(sym)
                if sym in self._tainted:
                    raise _Ineligible(
                        "store subscript depends on a vectorized local"
                    )
                interval = self._loop_env.get(sym)
                if interval is None:
                    # Only symbols with statically known ranges (inner
                    # loop indices with constant bounds) can be proven
                    # lane-disjoint.
                    raise _Ineligible(
                        "store subscript symbol with unknown range"
                    )
                spread.append((k, abs(coeff), interval[1] - interval[0]))
        if len(seen_levels) != len(self.pvars):
            raise _Ineligible(
                "store subscript is not injective in the parallel index"
            )
        return {
            "slot": sidx,
            "ndims": ndims,
            "pvar_terms": pvar_terms,
            "spread_terms": spread,
            "syms": syms,
        }


    def _slot(
        self, ref: A.DeclRefExpr, kind: str, *, written: bool = False
    ) -> int:
        key = (kind, self._slot_key(ref))
        spec = self._slot_map.get(key)
        if spec is None:
            spec = {
                "kind": kind,
                "getter": self.interp._binding_getter(ref),
                "name": ref.name,
                "written": False,
                "members": set(),
                "index": len(self._specs),
            }
            self._slot_map[key] = spec
            self._specs.append(spec)
        spec["written"] = spec["written"] or written
        self._nonlocal_names.add(ref.name)
        return spec["index"]


    @staticmethod
    def _branch_can_fault(expr: A.Expr) -> bool:
        """Could evaluating ``expr`` on a discarded lane fault?

        Division/modulo (zero divisors), gathers (out-of-range
        subscripts) and math calls (domain errors) can; plain
        arithmetic cannot, and such branches may evaluate on every lane
        through one ``np.where`` — the cheap lowering.
        """
        for node in expr.walk_instances(A.BinaryOperator):
            if node.op in ("/", "%"):
                return True
        if any(True for _ in expr.walk_instances(A.ArraySubscriptExpr)):
            return True
        if any(True for _ in expr.walk_instances(A.CallExpr)):
            return True
        return False


    def _stores_disjoint_fn(self) -> Callable[[list[Any], list[int]], bool]:
        """Lane-disjointness of every store, against real strides.

        Generalized mixed-radix dominance: order the parallel-index
        terms by their per-step element gap and require each gap to
        clear the total excursion of all finer terms plus the span of
        the sequential-loop symbols.  This is what makes ``b*HID + h``
        (h < HID), ``m[i][j]`` (j within the row) and the collapsed
        ``(i, h) -> i*HID + h`` space safe while ``a[i + j]`` is not.
        """
        store_checks = self._store_checks
        steps = [h.step for h in self.pvars]

        def stores_disjoint(slots: list[Any], trips: list[int]) -> bool:
            for check in store_checks:
                _, _, shape = slots[check["slot"]]
                ndims = check["ndims"]

                def stride_of(k: int) -> int:
                    if ndims == 1:
                        return 1  # one-dimensional positions use the raw index
                    stride = 1
                    for d in shape[k + 1:]:
                        stride *= d
                    return stride

                span = sum(
                    coeff * stride_of(k) * width
                    for k, coeff, width in check["spread_terms"]
                )
                terms = sorted(
                    (
                        coeff * stride_of(dim) * abs(steps[lvl]),
                        max(trips[lvl], 1),
                    )
                    for lvl, dim, coeff in check["pvar_terms"]
                )
                acc = span
                for gap, count in terms:
                    if gap <= acc:
                        return False
                    acc += gap * (count - 1)
            return True

        return stores_disjoint

    def _snapshot_indices(self) -> tuple[list[int], list[int]]:
        arrays = [
            s["index"] for s in self._specs
            if s["kind"] == "array" and s["written"]
        ]
        cells = [
            s["index"] for s in self._specs
            if s["kind"] == "scalar" and s["written"]
        ]
        return arrays, cells


    # -- statements -----------------------------------------------------

    def _stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.NullStmt):
            return
        if isinstance(stmt, A.CompoundStmt):
            for s in stmt.stmts:
                self._stmt(s)
            return
        if isinstance(stmt, A.DeclStmt):
            self._decl(stmt)
        elif isinstance(stmt, A.ExprStmt):
            self._expr_stmt(stmt)
        elif isinstance(stmt, A.ForStmt):
            self._for(stmt)
        elif isinstance(stmt, A.IfStmt):
            self._if(stmt)
        else:
            raise _Ineligible(f"unsupported kernel statement {stmt.class_name}")

    def _if(self, stmt: A.IfStmt) -> None:
        self._features.add("masked")
        if self._if_fast(stmt):
            return
        self._charge()
        cond = self._expr(stmt.cond)
        then_stmts = _stmts_of(stmt.then_branch)
        else_stmts = _stmts_of(stmt.else_branch)
        t, act = self._fresh(), self._act or "None"
        # A lane-varying guard splits the active set into the lanes that
        # take each branch; a lane-invariant one keeps the enclosing set
        # for the branch it selects.
        self._line(f"{t}c = {cond}")
        self._line(f"if isinstance({t}c, np.ndarray):")
        self._indent += 1
        self._line(f"{t}m = {t}c != 0")
        self._line(f"{t}b = {self._base()}")
        self._line(f"{t}t = {t}b[{t}m]")
        self._line(f"{t}g = {t}t.size > 0")
        if else_stmts:
            self._line(f"{t}e = {t}b[~{t}m]")
            self._line(f"{t}h = {t}e.size > 0")
        self._indent -= 1
        self._line("else:")
        self._indent += 1
        self._line(f"{t}t = {act}")
        self._line(f"{t}g = bool({t}c)")
        if else_stmts:
            self._line(f"{t}e = {act}")
            self._line(f"{t}h = not {t}g")
        self._indent -= 1
        saved_act, before = self._act, set(self._bound)
        self._mask_depth += 1
        self._act = f"{t}t"
        self._block(f"if {t}g:", lambda: [self._stmt(s) for s in then_stmts])
        after_then, self._bound = self._bound, set(before)
        if else_stmts:
            self._act = f"{t}e"
            self._block(f"if {t}h:", lambda: [self._stmt(s) for s in else_stmts])
            # Some lane runs one of the branches (active sets are never
            # empty), so names both bind are bound afterwards.
            before |= after_then & self._bound
        self._mask_depth -= 1
        self._act, self._bound = saved_act, before

    def _if_fast(self, stmt: A.IfStmt) -> bool:
        """``if (c) { v = e; }`` with a fault-free condition and RHS and
        a local target lowers to one ``np.where`` merge — nw's inner
        max-folding guards hit this on every slice, where the generic
        compressed-branch path would allocate per slice."""
        if stmt.else_branch is not None:
            return False
        stmts = _stmts_of(stmt.then_branch)
        if len(stmts) != 1 or not isinstance(stmts[0], A.ExprStmt):
            return False
        expr = _strip(stmts[0].expr)
        if not isinstance(expr, A.BinaryOperator) or expr.op != "=":
            return False
        target = _strip(expr.lhs)
        if not isinstance(target, A.DeclRefExpr) or not self._is_local(target):
            return False
        if target.name in self.pvar_index:
            return False
        if self._branch_can_fault(stmt.cond) or self._branch_can_fault(expr.rhs):
            return False
        name = target.name
        self._charge()  # the if statement's tick
        cond = self._expr(stmt.cond)
        t = self._fresh()
        self._line(f"{t}c = {cond}")
        self._line(f"if isinstance({t}c, np.ndarray):")
        self._line(f"    {t}m = {t}c != 0")
        self._line(f"    {t}n = int({t}m.sum())")
        self._line("else:")
        self._line(f"    {t}m = None")
        self._line(f"    {t}n = {self._count()} if {t}c else 0")
        self._line(f"if {t}n:")
        self._indent += 1
        self._line(f"_charge({t}n)")  # assignment ticks on taken lanes only
        self._line(f"if {t}m is not None: {t}o = {self._load_local(name)}")
        rhs = self._expr(expr.rhs)
        self._tainted.add(name)
        self._affine_forms[name] = None
        self._assigned.add(name)
        before = set(self._bound)
        value = _coerce_src(
            target.qual_type,
            f"({rhs} if {t}m is None else np.where({t}m, {rhs}, {t}o))",
        )
        self._bind_local(name, value, default=None, stable=False)
        self._bound = before
        self._indent -= 1
        return True

    def _decl(self, stmt: A.DeclStmt) -> None:
        self._charge()
        for decl in stmt.decls:
            qt = decl.qual_type
            if qt is None or qt.is_pointer or isinstance(
                qt.type, (ArrayType, StructType)
            ):
                raise _Ineligible("kernel-local aggregate or pointer")
            init = self._expr(decl.init) if decl.init is not None else None
            if self._mask_depth > 0 or (
                decl.init is not None
                and _ref_names(decl.init) & self._tainted
            ):
                self._tainted.add(decl.name)
            self._record_affine_local(decl.name, decl.init)
            self._local_names.add(decl.name)
            self._assigned.add(decl.name)
            default = "0.0" if qt.is_floating else "0"
            self._bind_local(
                decl.name,
                default if init is None else _coerce_src(qt, init),
                default=default,
                stable=decl.init is None or self._expr_stable(decl.init),
            )

    def _for(self, stmt: A.ForStmt) -> None:
        if not self.allow_seq_loops:
            raise _Ineligible("inner loop inside a wavefront slice body")
        header = self._loop_header(stmt, parallel=False)
        bound_refs = _ref_names(header.init_expr) | _ref_names(header.bound_expr)
        ragged = bool(bound_refs & self._tainted)
        if not ragged:
            for expr in (header.init_expr, header.bound_expr):
                if any(True for _ in expr.walk_instances(A.ArraySubscriptExpr)):
                    ragged = True
                    break
        if ragged:
            self._ragged_for(stmt, header, bound_refs)
            return
        t = self._fresh()
        self._charge()  # the init DeclStmt, once per lane
        self._line(f"{t}v = int({self._expr(header.init_expr, bound=True)})")
        self._line(f"{t}b = int({self._expr(header.bound_expr, bound=True)})")
        self._taint_checks.append((bound_refs, "loop bound"))
        assigned_before, bound_before = set(self._assigned), set(self._bound)
        interval = self._header_interval(header)
        shadowed = self._loop_env.get(header.var)
        if interval is not None:
            self._loop_env[header.var] = interval
        self._line("while True:")
        self._indent += 1
        self._charge()  # the condition-check tick per lane
        self._line(f"if not ({t}v {header.op} {t}b): break")
        self._line(f"v_{header.var} = {t}v")
        self._bound.add(header.var)
        self._stable_locals.discard(header.var)
        self._depth += 1
        for s in _stmts_of(stmt.body):
            self._stmt(s)
        self._depth -= 1
        self._line(f"{t}v += {header.step}")
        self._indent -= 1
        self._bound = bound_before
        if interval is not None:
            if shadowed is None:
                del self._loop_env[header.var]
            else:
                self._loop_env[header.var] = shadowed
        assigned_inside = self._assigned - assigned_before
        if assigned_inside & bound_refs:
            raise _Ineligible("loop bound mutated inside the loop body")
        if header.var in assigned_inside:
            raise _Ineligible("loop index reassigned inside the loop body")

    def _ragged_for(
        self, stmt: A.ForStmt, header: _Header, bound_refs: set[str]
    ) -> None:
        """Lane-varying trip counts: iterate k-major over the refined
        active set (bfs's ``for (t = starts[i]; t < starts[i+1]; ...)``).

        The k-major order transposes the interpreter's lane-major one,
        which is only observable through cross-lane dependences — and
        those are exactly what the scatter commit checks rule out, so
        ragged loops force the nest into the deferred-store class via
        the tainted loop variable."""
        if not self.allow_ragged:
            raise _Ineligible("loop bound depends on a vectorized value")
        if header.op == "!=":
            raise _Ineligible("ragged loop with '!=' condition")
        self._features.add("ragged")
        t, n = self._fresh(), self._count()
        self._line(f"if {n}:")
        self._indent += 1
        self._charge()  # the init DeclStmt, once per active lane
        self._in_control = True
        init = self._expr(header.init_expr)
        self._line(f"{t}l = _as_lane_vec(_as_int({init}), {n})")
        bound = self._expr(header.bound_expr)
        self._line(f"{t}h = _as_lane_vec(_as_int({bound}), {n})")
        self._in_control = False
        self._tainted.add(header.var)
        self._line(f"{t}n = _trip_vec({t}l, {t}h, {header.op!r}, {header.step})")
        # Exact total of condition-check ticks (each lane runs trips+1
        # checks), summed in Python ints so a runaway bound cannot wrap
        # int64 — charged before any body work so max_steps trips
        # without allocating per-k vectors.
        self._line(f"_charge(int({t}n.astype(object).sum()) + {n})")
        self._line(f"{t}b = {self._base()}")
        self._line(f"for {t}k in range(int({t}n.max())):")
        self._indent += 1
        self._line(f"{t}s = {t}n > {t}k")
        self._line(f"{t}a = {t}b[{t}s]")
        self._line(
            f"v_{header.var} = _ragged_index(v_{header.var}, _lanes, {t}a, "
            f"{t}l[{t}s] + {t}k * {header.step})"
        )
        assigned_before, bound_before = set(self._assigned), set(self._bound)
        saved_act, self._act = self._act, f"{t}a"
        self._bound.add(header.var)
        self._depth += 1
        for s in _stmts_of(stmt.body):
            self._stmt(s)
        self._depth -= 1
        self._act, self._bound = saved_act, bound_before
        self._indent -= 2
        assigned_inside = self._assigned - assigned_before
        if assigned_inside & bound_refs:
            raise _Ineligible("loop bound mutated inside the loop body")
        if header.var in assigned_inside:
            raise _Ineligible("loop index reassigned inside the loop body")

    def _expr_stmt(self, stmt: A.ExprStmt) -> None:
        expr = _strip(stmt.expr)
        if not isinstance(expr, A.BinaryOperator) or not expr.is_assignment:
            raise _Ineligible(
                f"unsupported kernel statement {expr.class_name}"
            )
        target = _strip(expr.lhs)
        if isinstance(target, A.DeclRefExpr):
            if self._is_local(target):
                self._local_assign(expr, target)
            else:
                self._shared_assign(expr, target)
        elif isinstance(target, A.ArraySubscriptExpr):
            self._array_store(expr, target)
        else:
            raise _Ineligible(
                f"unsupported assignment target {target.class_name}"
            )

    def _update(self, op: str, old_src: str, rhs: A.Expr, floats: bool) -> str:
        """``old <op>= rhs`` as source; ``old`` is evaluated first."""
        old, value = self._ordered([lambda: old_src, lambda: self._expr(rhs)])
        base_op = _COMPOUND[op]
        if floats and base_op in ("+", "-", "*") and _surely_float(rhs):
            return f"({old} {base_op} {value})"
        return f"{_BINOP_NAMES[base_op]}({old}, {value})"

    # -- scalar assignments ---------------------------------------------

    def _local_assign(
        self, expr: A.BinaryOperator, target: A.DeclRefExpr
    ) -> None:
        name = target.name
        if name in self.pvar_index:
            raise _Ineligible("assignment to the parallel index")
        self._charge()
        qt = target.qual_type
        if expr.op == "=":
            value = self._expr(expr.rhs)
            stable = self._expr_stable(expr.rhs)
        else:
            value = self._update(
                expr.op, self._load_local(name), expr.rhs,
                qt is not None and qt.is_floating,
            )
            stable = name in self._stable_locals and self._expr_stable(expr.rhs)
        if (
            _ref_names(expr.rhs) & self._tainted
            or name in self._tainted
            or self._mask_depth > 0
        ):
            self._tainted.add(name)
        self._affine_forms[name] = None  # reassigned: poison forwarding
        self._assigned.add(name)
        self._bind_local(
            name, _coerce_src(qt, value), default=None, stable=stable
        )

    def _shared_assign(
        self, expr: A.BinaryOperator, target: A.DeclRefExpr
    ) -> None:
        name = target.name
        if self.wavefront:
            raise _Ineligible("shared scalar update in a wavefront nest")
        if self._depth != 0:
            raise _Ineligible("shared scalar updated inside an inner loop")
        if name in self._shared_written:
            raise _Ineligible(f"shared scalar {name!r} updated twice")
        self._shared_written.add(name)
        self._assigned.add(name)
        sidx = self._slot(target, "scalar", written=True)
        qt = target.qual_type
        cell, t = f"_s{sidx}.value", self._fresh()
        if expr.op in ("+=", "-="):
            # Integer accumulation would need per-step truncation; floats
            # replay the exact sequential rounding through cumsum.  Under
            # a mask, the compressed lanes are exactly the ones the
            # interpreter would accumulate, in ascending lane order.
            if qt is None or not qt.is_floating:
                raise _Ineligible("non-float shared accumulation")
            if name in _ref_names(expr.rhs):
                raise _Ineligible("accumulation reads its own target")
            self._charge()
            rhs = self._expr(expr.rhs)
            sign = "-" if expr.op == "-=" else ""
            self._line(f"{t} = _broadcast({rhs}, {self._count()})")
            self._line(f"{cell} = _seq_sum(float({cell}), {sign}{t})")
        elif expr.op != "=":
            raise _Ineligible(
                f"unsupported shared-scalar update {expr.op!r}"
            )
        else:
            mode, other = self._match_minmax(expr.rhs, target)
            if mode is not None:
                if qt is None or not qt.is_floating:
                    raise _Ineligible("non-float min/max reduction")
                if name in _ref_names(other):
                    raise _Ineligible("min/max reduction reads its own target")
                self._charge()
                value = self._expr(other)
                reduce = "np.minimum" if mode == "min" else "np.maximum"
                self._line(f"{t} = _broadcast({value}, {self._count()})")
                self._line(
                    f"{cell} = float({mode}({cell}, float({reduce}.reduce({t}))))"
                )
            else:
                if name in _ref_names(expr.rhs):
                    raise _Ineligible("shared scalar reads its own update")
                # The interpreter assigns once per executing lane in lane
                # order; the surviving value is the last (active) lane's.
                self._charge()
                value = self._expr(expr.rhs)
                self._line(f"{cell} = {_coerce_src(qt, f'_last({value})')}")
        self._shared_stored.add(sidx)

    # -- array stores ---------------------------------------------------

    def _array_store(
        self, expr: A.BinaryOperator, target: A.ArraySubscriptExpr
    ) -> None:
        base, indices = self._subscript_chain(target)
        sidx = self._slot(base, "array", written=True)
        affine_chain = self._chain_affine(indices)
        check: dict[str, Any] | None = None
        forced = False
        reason: str | None = None
        if affine_chain is None:
            forced, reason = True, "non-affine store subscript"
        else:
            try:
                check = self._injectivity_check(
                    sidx, affine_chain, len(indices)
                )
            except _Ineligible as exc:
                if len(self.pvars) > 1:
                    # Under collapse, prefer retrying with the inner
                    # level sequential (often restoring a clean
                    # in-place store) over demoting to scatter.
                    raise
                forced, reason = True, str(exc)
        if forced and not self.allow_scatter:
            raise _Ineligible(reason or "non-affine store subscript")
        self._writes.setdefault(sidx, []).append({
            "chain_exprs": indices,
            "affine": affine_chain,
            "forced": forced,
            "check": check,
            "reason": reason,
        })
        self._charge()
        p, n = self._fresh(), self._count()
        pos = self._position(sidx, indices)
        elem = f"_widen(_d{sidx}[{p}])"
        floats = _surely_float(target)
        if sidx in self._scatter_known:
            # Deferred: the commit's uniqueness check guarantees no
            # earlier buffered store targeted these elements, so a
            # compound update may read the pre-launch state.
            self._line(f"{p} = _as_lane_vec({pos}, {n})")
            value = (
                self._expr(expr.rhs) if expr.op == "="
                else self._update(expr.op, elem, expr.rhs, floats)
            )
            self._line(f"_sc{sidx}.append(({p}, _as_value_vec({value}, {n})))")
            return
        self._line(f"{p} = {pos}")
        if expr.op != "=":
            value = self._update(expr.op, elem, expr.rhs, floats)
        else:
            value = self._expr(expr.rhs)
            if self._pc_ok() and self._expr_stable(expr.rhs) and not _ATOM.fullmatch(value):
                # The store still runs every launch (the array may have
                # changed), but a launch-invariant value is computed once.
                value = self._pc_wrap(value)
        self._line(f"_d{sidx}[{p}] = {value}")

    def _position(self, sidx: int, indices: list[A.Expr]) -> str:
        """Flat element position(s), mirroring ``ArrayObject.flat_index``."""
        idx = self._operands(*indices)
        if len(idx) == 1:
            pos = f"(_o{sidx} + {idx[0]})"
        else:
            terms = [f"_o{sidx}"]
            for k, ix in enumerate(idx):
                self._strides.add((sidx, k))
                terms.append(f"{ix} * _st{sidx}_{k}")
            pos = "(" + " + ".join(terms) + ")"
        if self._pc_ok() and all(self._expr_stable(e) for e in indices):
            # Index arithmetic built only from the lane vectors, shared
            # scalars and constants yields the same positions on every
            # launch whose inputs are unchanged — the runner hands in a
            # persistent cache exactly when that holds.
            pos = self._pc_wrap(pos)
        return pos

    # -- expressions ----------------------------------------------------

    def _expr(self, expr: A.Expr, *, bound: bool = False) -> str:
        expr = _strip(expr)
        folded = fold_integer_constant(expr)
        if folded is not None:
            return _lit(folded)
        if isinstance(expr, A.IntegerLiteral) or isinstance(
            expr, A.FloatingLiteral
        ) or isinstance(expr, A.CharacterLiteral):
            return _lit(expr.value)
        if isinstance(expr, A.DeclRefExpr):
            return self._ref(expr, bound=bound)
        if isinstance(expr, A.ArraySubscriptExpr):
            if bound:
                raise _Ineligible("array access in a loop bound")
            return self._array_load(expr)
        if isinstance(expr, A.MemberExpr):
            return self._member(expr)
        if isinstance(expr, A.BinaryOperator):
            return self._binop(expr, bound=bound)
        if isinstance(expr, A.UnaryOperator):
            return self._unop(expr, bound=bound)
        if isinstance(expr, A.ConditionalOperator):
            return self._ternary(expr, bound=bound)
        if isinstance(expr, A.CStyleCastExpr):
            if expr.target_type.is_pointer:
                raise _Ineligible("pointer cast in kernel")
            operand = self._expr(expr.operand, bound=bound)
            return _coerce_src(expr.target_type, operand)
        if isinstance(expr, A.CallExpr):
            return self._call(expr, bound=bound)
        raise _Ineligible(f"unsupported kernel expression {expr.class_name}")

    def _ternary(self, expr: A.ConditionalOperator, *, bound: bool) -> str:
        """Lane-varying conditionals whose branches could fault evaluate
        each branch on exactly the lanes that selected it (compressed
        actives), so division, overflow and gathers in the untaken
        branch never execute — the interpreter never executes them
        either.  Fault-free branches keep the one-``np.where`` path."""
        cond = self._expr(expr.cond, bound=bound)
        t = self._fresh()
        if not (
            self._branch_can_fault(expr.true_expr)
            or self._branch_can_fault(expr.false_expr)
        ):
            tv, t_lines = self._capture(lambda: self._expr(expr.true_expr, bound=bound))
            fv, f_lines = self._capture(lambda: self._expr(expr.false_expr, bound=bound))
            if not t_lines and not f_lines:
                return (
                    f"(np.where({t} != 0, {tv}, {fv}) if isinstance(({t} := "
                    f"{cond}), np.ndarray) else ({tv} if {t} else {fv}))"
                )
            self._line(f"{t}c = {cond}")
            self._line(f"if isinstance({t}c, np.ndarray):")
            self._indent += 1
            self._put(t_lines + f_lines)
            self._line(f"{t} = np.where({t}c != 0, {tv}, {fv})")
            self._indent -= 1
            for head, lines, value in (
                (f"elif {t}c:", t_lines, tv), ("else:", f_lines, fv)
            ):
                self._line(head)
                self._indent += 1
                self._put(lines)
                self._line(f"{t} = {value}")
                self._indent -= 1
            return t
        if not bound:
            self._features.add("merge")
        act = self._act or "None"
        self._line(f"{t}c = {cond}")
        self._line(f"{t}m = None")
        self._line(f"if not isinstance({t}c, np.ndarray):")
        self._line(f"    {t}t, {t}f = ({act}, _SKIP) if {t}c else (_SKIP, {act})")
        self._line("else:")
        self._indent += 1
        self._line(f"{t}m = {t}c != 0")
        self._line(f"if {t}m.all(): {t}t, {t}f = {act}, _SKIP")
        self._line(f"elif not {t}m.any(): {t}t, {t}f = _SKIP, {act}")
        self._line("else:")
        self._line(f"    {t}b = {self._base()}")
        self._line(f"    {t}t, {t}f = {t}b[{t}m], {t}b[~{t}m]")
        self._indent -= 1
        saved = self._act
        for branch, which in ((expr.true_expr, "t"), (expr.false_expr, "f")):
            self._act = f"{t}{which}"
            self._line(f"if {t}{which} is not _SKIP:")
            self._indent += 1
            value = self._expr(branch, bound=bound)
            self._line(f"{t}{which}v = {value}")
            self._indent -= 1
        self._act = saved
        self._line(
            f"{t} = {t}tv if {t}f is _SKIP else {t}fv if {t}t is _SKIP "
            f"else _masked_merge({t}m, {t}tv, {t}fv)"
        )
        return t

    def _call(self, expr: A.CallExpr, *, bound: bool) -> str:
        name = expr.callee_name or "<indirect>"
        spec = _VEC_CALLS.get(name)
        math_fn = self.interp._math.get(name)
        if spec is None or math_fn is None or len(expr.args) != spec[0]:
            raise _Ineligible(f"call to {name!r} in kernel")
        args = self._operands(*expr.args, bound=bound)
        self._math_used.add(name)
        return f"_vcall({name!r}, _m_{name}, {self._count()}, {', '.join(args)})"

    def _ref(self, ref: A.DeclRefExpr, *, bound: bool) -> str:
        if isinstance(ref.decl, EnumConstantDecl):
            return _lit(ref.decl.value)
        if isinstance(ref.decl, A.FunctionDecl):
            raise _Ineligible("function reference in kernel")
        name = ref.name
        if self._is_local(ref):
            if bound and name in self._tainted:
                raise _Ineligible("loop bound depends on a vectorized value")
            return self._load_local(name)
        qt = ref.qual_type
        if qt is not None and (
            qt.is_pointer or isinstance(qt.type, (ArrayType, StructType))
        ):
            raise _Ineligible(f"non-scalar value {name!r} used as a scalar")
        sidx = self._slot(ref, "scalar")
        self._scalar_loads.add(name)
        return f"_s{sidx}.value"

    def _array_load(self, expr: A.ArraySubscriptExpr) -> str:
        base, indices = self._subscript_chain(expr)
        sidx = self._slot(base, "array")
        self._reads.setdefault(sidx, []).append({
            "chain_exprs": indices,
            "affine": self._chain_affine(indices),
        })
        if self._in_control:
            self._control_slots.add(sidx)
        pos = self._position(sidx, indices)
        if sidx in self._scatter_known:
            pos = f"_logpos(_rl{sidx}, {pos})"
        return f"_widen(_d{sidx}[{pos}])"

    def _member(self, expr: A.MemberExpr) -> str:
        base = _strip(expr.base)
        if expr.is_arrow:
            raise _Ineligible("pointer member access in kernel")
        if not isinstance(base, A.DeclRefExpr) or self._is_local(base):
            raise _Ineligible("unsupported member access base")
        sidx = self._slot(base, "struct")
        self._specs[sidx]["members"].add(expr.member)
        return f"_s{sidx}.fields[{expr.member!r}]"

    def _binop(self, expr: A.BinaryOperator, *, bound: bool) -> str:
        op = expr.op
        if expr.is_assignment:
            raise _Ineligible("assignment inside a kernel expression")
        if op == ",":
            raise _Ineligible("comma expression in kernel")
        if op in ("&&", "||"):
            return self._logical(expr, bound=bound)
        lhs, rhs = self._operands(expr.lhs, expr.rhs, bound=bound)
        if op not in _VEC_BINOPS:
            raise _Ineligible(f"unsupported operator {op!r} in kernel")
        if op in ("+", "-", "*") and _surely_float(expr.lhs) and _surely_float(expr.rhs):
            return f"({lhs} {op} {rhs})"
        return f"{_BINOP_NAMES[op]}({lhs}, {rhs})"

    def _logical(self, expr: A.BinaryOperator, *, bound: bool) -> str:
        """``&&``/``||``: a lane-invariant left side keeps the
        interpreter's short-circuit (guards div-by-zero on the right); a
        lane-varying one evaluates the right side only on the lanes that
        did not short-circuit (compressed), exactly the lanes the
        interpreter evaluates it on."""
        is_and = expr.op == "&&"
        lhs = self._expr(expr.lhs, bound=bound)
        t, act = self._fresh(), self._act or "None"
        self._line(f"{t}l = {lhs}")
        self._line(f"{t}s = None")
        self._line(f"if isinstance({t}l, np.ndarray):")
        self._indent += 1
        self._line(f"{t}s = {t}l != 0" if is_and else f"{t}s = {t}l == 0")
        self._line(f"{t} = np.empty({t}s.size, dtype=np.int64)")
        self._line(f"{t}[~{t}s] = {0 if is_and else 1}")
        self._line(
            f"{t}a = ({act} if {t}s.all() else {self._base()}[{t}s]) "
            f"if {t}s.any() else _SKIP"
        )
        self._indent -= 1
        self._line(f"elif {'not ' if is_and else ''}{t}l:")
        self._line(f"    {t}, {t}a = {0 if is_and else 1}, _SKIP")
        self._line("else:")
        self._line(f"    {t}, {t}a = None, {act}")
        saved, self._act = self._act, f"{t}a"
        self._line(f"if {t}a is not _SKIP:")
        self._indent += 1
        rhs = self._expr(expr.rhs, bound=bound)
        self._line(f"{t} = _logic_join({t}, {t}s, {rhs})")
        self._indent -= 1
        self._act = saved
        return t

    def _unop(self, expr: A.UnaryOperator, *, bound: bool) -> str:
        op = expr.op
        if op in ("++", "--", "&", "*"):
            raise _Ineligible(f"unsupported unary operator {op!r} in kernel")
        operand = self._expr(expr.operand, bound=bound)
        if op == "-":
            return f"(- {operand})"
        if op == "+":
            return operand
        if op == "!":
            return f"_vnot({operand})"
        if op == "~":
            return f"_vinv({operand})"
        raise _Ineligible(f"unsupported unary operator {op!r} in kernel")

    @staticmethod
    def _slot_key(ref: A.DeclRefExpr) -> Any:
        return ref.decl.node_id if ref.decl is not None else f"name:{ref.name}"

    # -- runners ---------------------------------------------------------

    def _build_runner(self, ns: dict[str, Any]) -> Callable[[Any], bool]:
        heads = [ns[f"_kh{k}"] for k in range(len(self.pvars))]
        body = ns["_kbody"]
        headers = list(self.pvars)
        specs = self._specs
        nspecs = len(specs)
        scatter_slots = sorted(self._scatter_slots)
        stores_disjoint = self._stores_disjoint_fn()
        # Only two constructs can decline mid-launch — a mixed-type
        # conditional merge and a failed scatter commit; everything
        # else (plain masks, ragged loops) runs to completion, so it
        # skips the per-launch snapshot copies entirely.
        need_txn = bool(self._features & {"merge", "scatter"})
        arr_idx, cell_idx = self._snapshot_indices()
        launch_key = _launch_key_fn(specs)
        memo: dict[str, Any] = {}
        # One launch's derived state: [slots, key, los, trips, pc, lanes].
        # Bounds, trip counts, disjointness, the lane vectors and the
        # position cache depend only on slot identities plus scalar and
        # struct-member values, so a launch whose inputs are unchanged
        # reuses all of it.  (NaN values compare unequal to themselves —
        # conservatively recomputed every launch.)
        state: list[Any] = []

        def run(machine: Any) -> bool:
            slots = _preflight_memo(machine, specs, memo)
            if slots is None:
                return False
            key = launch_key(slots)
            if not (state and state[0] is slots and state[1] == key):
                los: list[int] = []
                trips: list[int] = []
                for head, header in zip(heads, headers):
                    lo, bound = head(slots)
                    t = _trip_count(lo, bound, header.op, header.step)
                    if t is None:
                        return False  # interpreted path would run away; let it
                    los.append(lo)
                    trips.append(t)
                if not stores_disjoint(slots, trips):
                    return False
                state[:] = [slots, key, los, trips, {}, None]
            trips, pc = state[3], state[4]
            charge = _charge_fn(machine, memo)
            # Snapshot before the first charge: a declined launch must
            # leave no trace, including the header ticks.
            saved = _checkpoint(machine, slots, arr_idx, cell_idx, need_txn)
            # Interpreted cost of the loop headers: each level's init
            # DeclStmt ticks once per enclosing iteration, plus its
            # trips+1 condition checks.  Charged before the index
            # vectors are allocated, so max_steps trips on runaway
            # bounds without a giant arange.
            charge(1 + trips[0] + 1)
            prefix = trips[0]
            for t in trips[1:]:
                charge(prefix)
                charge(prefix * (t + 1))
                prefix *= t
            if not prefix:
                return True
            if state[5] is None:
                state[5] = _lane_vectors(state[2], trips, headers)
            idx, pv = state[5]
            sc = rl = None
            if scatter_slots:
                sc, rl = [None] * nspecs, [None] * nspecs
                for i in scatter_slots:
                    sc[i], rl[i] = [], []
            try:
                body(slots, charge, prefix, idx, pv, pc, sc, rl)
                if scatter_slots:
                    _commit_scatter(sc, rl, scatter_slots, slots)
            except _RuntimeDecline:
                _rollback(machine, slots, saved)
                return False
            return True

        return run

    def _build_wavefront_runner(
        self, ns: dict[str, Any]
    ) -> Callable[[Any], bool]:
        head, body = ns["_kh0"], ns["_kbody"]
        specs = self._specs
        sv = self._slice_var
        obligations = self._obligations
        stores_disjoint = self._stores_disjoint_fn()
        arr_idx, cell_idx = self._snapshot_indices()
        # Only a mixed-type conditional merge can decline a wavefront
        # launch mid-flight (the dependence obligations run up front).
        need_txn = "merge" in self._features
        memo: dict[str, Any] = {}

        def run(machine: Any) -> bool:
            slots = _preflight_memo(machine, specs, memo)
            if slots is None:
                return False
            # Launch-time dependence classification: every store/load
            # pair on a written array must be free of intra-slice
            # dependences (analysis.depend); cross-slice flow/anti/
            # output dependences are honoured by slice order itself.
            for ob in obligations:
                if not ob.holds(slots[ob.slot][2], sv):
                    return False
            if not stores_disjoint(slots, [1]):
                return False
            lo, bound = head(slots)
            charge = _charge_fn(machine, memo)
            saved = _checkpoint(machine, slots, arr_idx, cell_idx, need_txn)
            try:
                body(slots, charge, lo, bound)
            except _RuntimeDecline:
                _rollback(machine, slots, saved)
                return False
            return True

        return run


class _Rescatter(Exception):
    """Internal: the analysis found deferred-store slots the emitted
    code was not written for; compile again knowing them."""

    def __init__(self, slots: frozenset[int]):
        super().__init__(sorted(slots))
        self.slots = slots


# ===========================================================================
# Runtime support called from generated kernels
# ===========================================================================

#: Marks a branch no lane takes (masked ternaries and ``&&``/``||``).
_SKIP = object()


def _ld(value: Any, act: Any) -> Any:
    """A local's value on the active lanes."""
    if act is not None and isinstance(value, np.ndarray):
        return value[act]
    return value


def _materialize(value: Any, lanes: int) -> np.ndarray:
    if (
        isinstance(value, int)
        and not isinstance(value, bool)
        and abs(value) > int(_INT_GUARD)
    ):
        return np.full(lanes, value, dtype=object)
    return np.full(lanes, value)


def _merge_lanes(old: Any, filler: Any, act: np.ndarray, lanes: int,
                 value: Any) -> np.ndarray:
    """``value`` on the active lanes of a full-lane copy of ``old``.

    Inactive lanes keep their previous value (or ``filler``) — they are
    only ever read under the same or a narrower mask, so the filler is
    unobservable.  Never mutates a shared vector in place."""
    if isinstance(old, np.ndarray) and old.shape[0] == lanes:
        full = old.copy()
    else:
        full = _materialize(
            old if not isinstance(old, np.ndarray) else filler, lanes
        )
    return _scatter_into(full, act, value)


def _asg(old: Any, act: Any, lanes: int, value: Any, name: str) -> Any:
    """Assignment to an existing local, mask-aware."""
    if act is None:
        return value
    if old is _UNSET:
        raise SimulationError(f"use of uninitialized variable {name!r}")
    return _merge_lanes(old, 0, act, lanes, value)


def _dset(old: Any, act: Any, lanes: int, value: Any, default: Any) -> Any:
    """Declaration binding, mask-aware."""
    if act is None:
        return value
    return _merge_lanes(
        default if old is _UNSET else old, default, act, lanes, value
    )


def _ragged_index(old: Any, lanes: int, sel: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    if isinstance(old, np.ndarray) and old.shape[0] == lanes:
        full = old.copy()
    else:
        full = np.zeros(lanes, dtype=np.int64)
    full[sel] = values
    return full


def _last(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value[-1].item() if value.ndim else value.item()
    return value


def _logpos(log: list, pos: Any) -> Any:
    """Record a deferred-store slot's load positions for the commit."""
    log.append(
        pos if isinstance(pos, np.ndarray) else np.array([pos], dtype=np.int64)
    )
    return pos


def _vnot(v: Any) -> Any:
    if isinstance(v, np.ndarray):
        return (v == 0).astype(np.int64)
    return int(not v)


def _vinv(v: Any) -> Any:
    if isinstance(v, np.ndarray):
        return ~_as_int(v)
    return ~int(v)


def _logic_join(out: Any, sel: Any, b: Any) -> Any:
    """Fold ``&&``/``||``'s right side into the short-circuit result."""
    if out is None:
        if isinstance(b, np.ndarray):
            return (b != 0).astype(np.int64)
        return int(bool(b))
    out[sel] = (b != 0).astype(np.int64) if isinstance(b, np.ndarray) else (
        1 if b else 0
    )
    return out


def _vcall(name: str, math_fn: Callable[..., Any], n: int, *vals: Any) -> Any:
    """A math call on lane vectors, behind the libm-parity gate."""
    if not any(isinstance(v, np.ndarray) for v in vals):
        return math_fn(*vals)
    arity, np_fn = _VEC_CALLS[name]
    if name in _FLOAT_ARG_CALLS:
        vals = tuple(
            (v.astype(np.float64) if v.dtype != np.float64 else v)
            if isinstance(v, np.ndarray) else float(v)
            for v in vals
        )
    if name in _UFUNC_EXACT or _parity_ok(name, np_fn, math_fn, arity):
        result = np_fn(*vals)
        if result is not None:
            return result
    # Per-lane libm loop: the same builtin the interpreter calls, so
    # rounding is identical by identity.
    cols = [
        _broadcast(v, n).tolist() if isinstance(v, np.ndarray) else [v] * n
        for v in vals
    ]
    out = [math_fn(*args) for args in zip(*cols)]
    if name in _INT_RESULT_CALLS:
        try:
            return np.array(out, dtype=np.int64)
        except OverflowError:
            return np.array(out, dtype=object)
    return np.array(out, dtype=np.float64)


#: The namespace every generated vector kernel executes in.
_RUNTIME: dict[str, Any] = {
    "np": np, "_UNSET": _UNSET, "_SKIP": _SKIP, "_chk": _chk,
    "_prod": _prod, "_ld": _ld, "_asg": _asg, "_dset": _dset,
    "_ragged_index": _ragged_index, "_last": _last, "_logpos": _logpos,
    "_vnot": _vnot, "_vinv": _vinv, "_logic_join": _logic_join,
    "_vcall": _vcall, "_as_int": _as_int, "_as_float": _as_float,
    "_widen": _widen, "_broadcast": _broadcast, "_seq_sum": _seq_sum,
    "_as_lane_vec": _as_lane_vec, "_as_value_vec": _as_value_vec,
    "_trip_count": _trip_count, "_trip_vec": _trip_vec,
    "_masked_merge": _masked_merge,
    **{name: _VEC_BINOPS[op] for op, name in _BINOP_NAMES.items()},
}


def _commit_scatter(
    bufs: list[Any], logs: list[Any], scatter_slots: list[int],
    slots: list[Any],
) -> None:
    """Apply deferred stores after proving order-independence.

    Buffered stores must target pairwise-distinct elements (duplicate
    targets make the result depend on lane vs statement order) and must
    not overlap any logged load of the same array (a load that observed
    the pre-launch state where the interpreter would have seen the
    store).  Either violation declines the launch before any deferred
    element is written.
    """
    staged: list[int] = []
    for sidx in scatter_slots:
        buf = bufs[sidx]
        if not buf:
            continue
        pos = np.concatenate([p for p, _ in buf])
        uniq = np.unique(pos)
        if uniq.size != pos.size:
            raise _RuntimeDecline(
                "colliding scatter stores (lane-order dependent)"
            )
        if logs[sidx]:
            reads = np.unique(np.concatenate(logs[sidx]))
            if np.intersect1d(uniq, reads, assume_unique=True).size:
                raise _RuntimeDecline(
                    "scatter store overlaps a load of the same array"
                )
        staged.append(sidx)
    for sidx in staged:
        storage = slots[sidx][0]
        for pos, val in bufs[sidx]:
            storage[pos] = val


# ===========================================================================
# Launch support shared by the runners
# ===========================================================================


def _preflight_memo(
    machine: Any, specs: list[dict[str, Any]], cache: dict[str, Any]
) -> list | None:
    """:func:`_preflight` with an identity fast path.

    When every binding (and the storage behind it) is the same object
    as on the previous launch, the alias analysis and slot rebuild are
    skipped.  The storage pool in :mod:`repro.runtime.device` keeps
    device arrays identity-stable across map cycles, so many-launch
    benchmarks hit this on every launch after the first.
    """
    probes = cache.get("probes")
    if probes is not None and all(probe(machine) for probe in probes):
        return cache["slots"]
    cache.pop("probes", None)
    slots = _preflight(machine, specs)
    if slots is None:
        return None
    probes = []
    for spec, slot in zip(specs, slots):
        getter = spec["getter"]
        binding = getter(machine)
        if spec["kind"] == "scalar":

            def probe(m: Any, g: Callable = getter, cell: Any = binding) -> bool:
                return g(m) is cell and isinstance(cell.value, _SCALAR_TYPES)

        elif spec["kind"] == "array" and isinstance(binding, Cell):

            def probe(m: Any, g: Callable = getter, cell: Any = binding,
                      ptr: Any = binding.value, storage: Any = slot[0]) -> bool:
                return (
                    g(m) is cell and cell.value is ptr
                    and m.storage_of(ptr.obj) is storage
                )

        elif spec["kind"] == "array":

            def probe(m: Any, g: Callable = getter, obj: Any = binding,
                      storage: Any = slot[0]) -> bool:
                return g(m) is obj and m.storage_of(obj) is storage

        else:

            def probe(m: Any, g: Callable = getter, obj: Any = binding,
                      members: tuple = tuple(spec["members"])) -> bool:
                return g(m) is obj and all(
                    isinstance(obj.fields.get(mem), _SCALAR_TYPES)
                    for mem in members
                )

        probes.append(probe)
    cache["probes"] = probes
    cache["slots"] = slots
    return slots


def _launch_key_fn(specs: list[dict[str, Any]]) -> Callable[[list], tuple]:
    """The scalar and struct-member values a launch's headers may read."""
    cells = [s["index"] for s in specs if s["kind"] == "scalar"]
    fields = [
        (s["index"], member)
        for s in specs if s["kind"] == "struct"
        for member in sorted(s["members"])
    ]

    def key(slots: list) -> tuple:
        return tuple(slots[i].value for i in cells) + tuple(
            slots[i].fields[m] for i, m in fields
        )

    return key


def _lane_vectors(
    los: list[int], trips: list[int], headers: list[_Header]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The lane index vector and each parallel level's index values
    over the combined (row-major) lane space."""
    prefix = 1
    for t in trips:
        prefix *= t
    idx = np.arange(prefix, dtype=np.int64)
    pv = []
    suffix = prefix
    for header, lo, t in zip(headers, los, trips):
        outer = suffix == prefix
        suffix //= t
        pos = idx if suffix == 1 else idx // suffix
        pv.append(lo + header.step * (pos if outer else pos % t))
    return idx, pv


def _make_charge(machine: Any) -> Callable[[int], None]:
    # Kernels run on-device; host loops (the same executor drives both)
    # tick the host ledger.
    profiler = machine.profiler
    tick = profiler.tick_device if machine.on_device else profiler.tick_host

    def charge(n: int) -> None:
        machine.steps += n
        if machine.steps > machine.max_steps:
            raise SimulationError(
                f"simulation exceeded {machine.max_steps} steps "
                f"(runaway loop?)"
            )
        tick(n)

    return charge


def _charge_fn(machine: Any, cache: dict[str, Any]) -> Callable[[int], None]:
    ch = cache.get("charge")
    if ch is None or ch[0] is not machine or ch[1] != machine.on_device:
        ch = cache["charge"] = (machine, machine.on_device, _make_charge(machine))
    return ch[2]


def _checkpoint(machine: Any, slots: list, arr_idx: list[int],
                cell_idx: list[int], need_txn: bool) -> tuple:
    profiler = machine.profiler
    return (
        machine.steps, profiler.device_work, profiler.host_work,
        [(i, slots[i][0].copy()) for i in arr_idx] if need_txn else (),
        [(i, slots[i].value) for i in cell_idx] if need_txn else (),
    )


def _rollback(machine: Any, slots: list, saved: tuple) -> None:
    profiler = machine.profiler
    machine.steps, profiler.device_work, profiler.host_work = saved[:3]
    for i, snap in saved[3]:
        np.copyto(slots[i][0], snap)
    for i, value in saved[4]:
        slots[i].value = value


# ===========================================================================
# Public entry points
# ===========================================================================


@dataclass
class VectorCandidate:
    """One compiled lowering of a kernel, tried in order at launch.

    ``declines`` counts launches the runner refused at runtime; the
    dispatcher sorts candidates by it (stable), so a shape that always
    fails its launch checks — e.g. hotspot's in-place stencil under the
    masked scatter checks — pays the failed attempt once and then runs
    its working strategy first.
    """

    runner: Callable[[Any], bool]
    strategy: str
    declines: int = 0


def run_candidates(candidates: list[VectorCandidate], machine: Any) -> str | None:
    """Run the first candidate that accepts the launch; returns its
    strategy, or None when every one declined (the caller then runs
    the interpreted body).  Candidates that declined before sort last."""
    if any(c.declines for c in candidates):
        candidates = sorted(candidates, key=lambda c: c.declines)
    for cand in candidates:
        if cand.runner(machine):
            return cand.strategy
        cand.declines += 1
    return None


def _compile_nest(
    interp: Any, stmt: Any, **mode: bool
) -> tuple[Callable[[Any], bool], _NestCompiler]:
    compiler = _NestCompiler(interp, stmt, **mode)
    try:
        return compiler.compile(), compiler
    except _Rescatter as again:
        compiler = _NestCompiler(interp, stmt, scatter=again.slots, **mode)
        return compiler.compile(), compiler


def compile_kernel_candidates(
    interp: Any, stmt: A.OMPExecutableDirective
) -> tuple[list[VectorCandidate], str | None]:
    """The applicable strategies for one kernel directive, in
    preference order.

    Returns ``(candidates, note)``, with ``note`` holding the static
    ineligibility reason when no candidate compiles.  The first
    candidate is compiled here; a later one compiles when a launch first
    reaches it, and declines every launch if that compile fails.  Every
    candidate is bit-identical to the interpreter when it accepts a
    launch, so order affects only speed.
    """
    nest: VectorCandidate | None = None
    features: set[str] = set()
    first_err: str | None = None
    try:
        for collapse in (True, False):
            try:
                runner, compiler = _compile_nest(interp, stmt, collapse=collapse)
            except _Ineligible as exc:
                first_err = str(exc)
                continue
            nest = VectorCandidate(runner, compiler.strategy_label())
            features = compiler._features
            break
    except Exception as exc:  # noqa: BLE001 - fallback is always correct
        first_err = f"vectorizer error: {exc!r}"

    def wavefront() -> Callable[[Any], bool]:
        return _compile_nest(interp, stmt, wavefront=True)[0]

    # Without a nest, or before a scattering one, the wavefront lowering
    # is the first candidate and compiles now; behind a ragged nest it
    # compiles when a launch first reaches it.
    wave: VectorCandidate | None = None
    if nest is None or "scatter" in features:
        try:
            wave = VectorCandidate(wavefront(), "wavefront")
        except Exception:  # noqa: BLE001 - fallback is always correct
            pass
    elif "ragged" in features:
        wave = VectorCandidate(_lazy(wavefront), "wavefront")

    if "scatter" in features:
        candidates = [c for c in (wave, nest) if c is not None]
    else:
        candidates = [c for c in (nest, wave) if c is not None]

    from .replay import compile_replay

    replay_err: str | None = None
    if candidates:
        # Another strategy exists, so the sequential replay is only the
        # launch-time safety net, compiled on the first launch the
        # preferred strategies decline.  Kernels that never decline
        # (the codegen/collapse majority) never pay for it.
        candidates.append(VectorCandidate(
            _lazy(lambda: compile_replay(interp, stmt)), "wavefront"
        ))
    else:
        try:
            candidates.append(
                VectorCandidate(compile_replay(interp, stmt), "wavefront")
            )
        except _Ineligible as exc:
            replay_err = str(exc)
        except Exception as exc:  # noqa: BLE001 - fallback is always correct
            replay_err = f"replay error: {exc!r}"
    note = None
    if not candidates:
        note = first_err or replay_err or "no vectorization strategy applies"
    return candidates, note


class _HostLoopShim:
    """Adapts a bare host ``for`` statement to the directive interface
    the nest/replay compilers consume (no clauses, no mappings).

    Since phase 2 the same executor also drives eligible *host* loops —
    after the kernels vectorized, the interpreted host code (init
    loops, checksum reductions) became the suite's dominant serial
    cost.  Host launches charge the host tick ledger and read host
    storage; they are deliberately invisible to the kernel coverage
    metrics (``vectorized_launches``/``strategy_launches``)."""

    __slots__ = ("associated_stmt", "node_id")

    def __init__(self, stmt: A.ForStmt):
        self.associated_stmt = stmt
        self.node_id = stmt.node_id

    @staticmethod
    def clauses_of(_cls: type) -> list:
        return []

    @staticmethod
    def map_clauses() -> list:
        return []


def compile_host_loop_candidates(
    interp: Any, stmt: A.ForStmt
) -> list[VectorCandidate]:
    """Compile vector candidates for a host-side ``for`` loop.

    Returns an empty list when nothing applies (the interpreted loop
    runs, as before) — host loops never record fallback notes."""
    candidates, _note = compile_kernel_candidates(interp, _HostLoopShim(stmt))
    return candidates


def _lazy(compile: Callable[[], Callable[[Any], bool]]) -> Callable[[Any], bool]:
    """A runner that compiles at the first launch reaching it.  A compile
    that fails declines that launch and every later one."""
    compiled: list[Callable[[Any], bool] | None] = []

    def runner(machine: Any) -> bool:
        if not compiled:
            try:
                compiled.append(compile())
            except Exception:  # noqa: BLE001 - fallback is always correct
                compiled.append(None)
        fn = compiled[0]
        return False if fn is None else fn(machine)

    return runner
