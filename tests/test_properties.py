"""Property-based tests (hypothesis) on core data structures/invariants."""

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AccessKind
from repro.analysis.validity import Space, VarState, transfer_masks
from repro.frontend.ctypes_ import DOUBLE
from repro.frontend.lexer import tokenize
from repro.frontend.source import SourceBuffer
from repro.frontend.tokens import TokenKind
from repro.rewrite.buffer import RewriteBuffer
from repro.runtime import DeviceDataEnvironment, Profiler
from repro.runtime.builtins import LCG
from repro.runtime.costmodel import CostModel
from repro.runtime.values import ArrayObject, Cell

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_ident = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,10}", fullmatch=True)


class TestLexerProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_int_literal_roundtrip(self, value):
        (tok,) = tokenize(str(value))[:-1]
        assert tok.kind is TokenKind.INT_LITERAL
        assert tok.value == value

    @given(st.floats(min_value=0.001, max_value=1e9,
                     allow_nan=False, allow_infinity=False))
    def test_float_literal_roundtrip(self, value):
        text = repr(float(value))
        if "e" in text or "E" in text:
            return  # repr may produce exponents with '-' sign: fine but
            # the leading sign lexes as a separate token; skip
        (tok,) = tokenize(text)[:-1]
        assert tok.kind is TokenKind.FLOAT_LITERAL
        assert math.isclose(tok.value, value, rel_tol=1e-12)

    @given(st.lists(_ident, min_size=1, max_size=8))
    def test_identifier_stream_preserved(self, names):
        text = " ".join(names)
        toks = tokenize(text)[:-1]
        assert [t.text for t in toks] == names

    @given(st.text(alphabet="+-*/%<>=!&|^~", min_size=1, max_size=4))
    def test_operator_maximal_munch_covers_input(self, ops):
        if "//" in ops or "/*" in ops:
            return  # comment introducers, not operators
        try:
            toks = tokenize(ops)[:-1]
        except Exception:
            return  # some sequences are genuinely invalid (e.g. lone '!')
        assert "".join(t.text for t in toks) == ops

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                   max_size=60))
    def test_offsets_monotonic(self, text):
        try:
            toks = tokenize(text)
        except Exception:
            return
        offsets = [t.offset for t in toks]
        assert offsets == sorted(offsets)

    @given(st.text(max_size=200))
    def test_source_buffer_line_col_consistent(self, text):
        buf = SourceBuffer(text)
        for offset in range(0, len(text) + 1, max(1, len(text) // 7 or 1)):
            line, col = buf.line_col(offset)
            assert 1 <= line <= buf.line_count
            assert col >= 1
            assert buf.line_start_offset(line) + col - 1 == offset


# ---------------------------------------------------------------------------
# Access-kind lattice
# ---------------------------------------------------------------------------

_kinds = st.sampled_from(list(AccessKind))


class TestAccessKindLattice:
    @given(_kinds, _kinds)
    def test_join_commutative(self, a, b):
        assert a.join(b) is b.join(a)

    @given(_kinds, _kinds, _kinds)
    def test_join_associative(self, a, b, c):
        assert a.join(b).join(c) is a.join(b.join(c))

    @given(_kinds)
    def test_join_idempotent(self, a):
        assert a.join(a) is a

    @given(_kinds, _kinds)
    def test_join_upper_bound(self, a, b):
        j = a.join(b)
        assert j.reads >= a.reads and j.reads >= b.reads or j is AccessKind.UNKNOWN
        assert (j.writes or not a.writes) and (j.writes or not b.writes)


# ---------------------------------------------------------------------------
# Validity lattice
# ---------------------------------------------------------------------------

_states = st.builds(VarState, st.booleans(), st.booleans())


class TestVarStateLattice:
    @given(_states, _states)
    def test_meet_commutative(self, a, b):
        assert a.meet(b) == b.meet(a)

    @given(_states, _states, _states)
    def test_meet_associative(self, a, b, c):
        assert a.meet(b).meet(c) == a.meet(b.meet(c))

    @given(_states)
    def test_meet_idempotent(self, a):
        assert a.meet(a) == a

    @given(_states, _states)
    def test_meet_is_lower_bound(self, a, b):
        m = a.meet(b)
        assert m.valid_host <= a.valid_host and m.valid_host <= b.valid_host
        assert m.valid_dev <= a.valid_dev and m.valid_dev <= b.valid_dev

    @given(_states, st.sampled_from(["host", "device"]))
    def test_write_makes_exactly_one_space_valid(self, s, space):
        from repro.analysis.validity import Space

        sp = Space.HOST if space == "host" else Space.DEVICE
        w = s.after_write(sp)
        assert w.valid_in(sp)
        assert not w.valid_in(Space.DEVICE if sp is Space.HOST else Space.HOST)

    @given(
        st.lists(_states, min_size=1, max_size=5),
        st.lists(st.tuples(
            st.sampled_from(list(Space)),
            st.lists(st.tuples(
                st.integers(0, 4), st.sampled_from(list(AccessKind)),
                st.booleans(),
            ), max_size=6),
        ), max_size=4),
    )
    def test_mask_transfer_matches_varstate_sequence(self, states, nodes):
        """Each node's (keep, set) masks == its accesses applied with
        VarState in order (a guarded write also counts as a read)."""
        full = (1 << len(states)) - 1
        host = sum(1 << i for i, s in enumerate(states) if s.valid_host)
        dev = sum(1 << i for i, s in enumerate(states) if s.valid_dev)
        for space, accesses in nodes:
            ops = [
                (v % len(states), kind.reads or (kind.writes and guarded),
                 kind.writes)
                for v, kind, guarded in accesses
            ]
            keep_h, set_h, keep_d, set_d = transfer_masks(
                space, [(1 << v, r, w) for v, r, w in ops], full
            )
            host, dev = (host & keep_h) | set_h, (dev & keep_d) | set_d
            for v, reads, writes in ops:
                if reads:
                    states[v] = states[v].with_valid(space, True)
                if writes:
                    states[v] = states[v].after_write(space)
        for i, s in enumerate(states):
            assert (bool(host >> i & 1), bool(dev >> i & 1)) == (
                s.valid_host, s.valid_dev
            )


# ---------------------------------------------------------------------------
# Device data environment refcounts
# ---------------------------------------------------------------------------

_map_types = st.sampled_from(["to", "from", "tofrom", "alloc"])


class TestDeviceRefcountProperties:
    @given(st.lists(st.tuples(st.booleans(), _map_types), max_size=24))
    def test_refcount_never_negative_and_balanced(self, ops):
        env = DeviceDataEnvironment(Profiler())
        obj = ArrayObject("a", 8, DOUBLE)
        depth = 0
        for entering, map_type in ops:
            if entering:
                env.map_enter(obj, map_type)
                depth += 1
            else:
                env.map_exit(obj, map_type)
                depth = max(depth - 1, 0)
            assert env.refcount(obj) == depth
            assert env.present(obj) == (depth > 0)

    @given(st.integers(min_value=1, max_value=10), _map_types)
    def test_nested_regions_copy_at_most_once_each_way(self, depth, map_type):
        env = DeviceDataEnvironment(Profiler())
        obj = ArrayObject("a", 8, DOUBLE)
        for _ in range(depth):
            env.map_enter(obj, map_type)
        for _ in range(depth):
            env.map_exit(obj, map_type)
        assert env.profiler.h2d_calls <= 1
        assert env.profiler.d2h_calls <= 1
        assert not env.present(obj)

    @given(st.integers(min_value=0, max_value=6))
    def test_update_counts_exactly(self, n):
        env = DeviceDataEnvironment(Profiler())
        cell = Cell("x", 1, 4)
        env.map_enter(cell, "alloc")
        for _ in range(n):
            env.update_to(cell)
        assert env.profiler.h2d_calls == n
        assert env.profiler.h2d_bytes == 4 * n


# ---------------------------------------------------------------------------
# Rewrite buffer
# ---------------------------------------------------------------------------


class TestRewriteBufferProperties:
    @given(
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=80),
        st.lists(st.tuples(st.integers(min_value=0, max_value=80),
                           st.text(alphabet="xyz\n", min_size=1, max_size=5)),
                 max_size=8),
    )
    def test_original_is_subsequence_of_result(self, original, inserts):
        buf = RewriteBuffer(original)
        total = 0
        for offset, text in inserts:
            if offset <= len(original):
                buf.insert(offset, text)
                total += len(text)
        result = buf.apply()
        assert len(result) == len(original) + total
        # every original character survives, in order
        it = iter(result)
        assert all(ch in it for ch in original)

    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
    def test_insertions_at_same_offset_keep_order(self, a, b):
        buf = RewriteBuffer("0123456789")
        off = min(a, 10)
        buf.insert(off, "A")
        buf.insert(off, "B")
        assert "AB" in buf.apply()


# ---------------------------------------------------------------------------
# Cost model & misc runtime
# ---------------------------------------------------------------------------


class TestCostModelProperties:
    @given(st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=0, max_value=10**12))
    def test_memcpy_time_monotonic_in_bytes(self, a, b):
        cm = CostModel()
        lo, hi = sorted((a, b))
        assert cm.memcpy_time(lo) <= cm.memcpy_time(hi)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_memcpy_has_latency_floor(self, nbytes):
        cm = CostModel()
        assert cm.memcpy_time(nbytes) > cm.memcpy_latency_s


class TestLCGProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_deterministic(self, seed):
        a, b = LCG(seed), LCG(seed)
        assert [a.rand() for _ in range(5)] == [b.rand() for _ in range(5)]

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_nonnegative(self, seed):
        gen = LCG(seed)
        assert all(gen.rand() >= 0 for _ in range(10))


# ---------------------------------------------------------------------------
# Expression evaluation vs Python semantics
# ---------------------------------------------------------------------------


class TestInterpreterArithmeticProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=-999, max_value=999),
           st.integers(min_value=-999, max_value=999))
    def test_add_mul_match_python(self, a, b):
        from repro.runtime import run_simulation

        src = f'int main() {{ printf("%d %d", {a} + {b}, {a} * {b}); return 0; }}'
        assert run_simulation(src).output == f"{a + b} {a * b}"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=-99, max_value=99),
           st.integers(min_value=1, max_value=99))
    def test_division_truncates_toward_zero(self, a, b):
        from repro.runtime import run_simulation

        src = (
            'int main() { printf("%d %d", '
            f"{a} / {b}, {a} % {b}); return 0; }}"
        )
        q = int(a / b)
        r = a - q * b
        assert run_simulation(src).output == f"{q} {r}"


# ---------------------------------------------------------------------------
# Vectorized kernel nests vs the reference interpreter
# ---------------------------------------------------------------------------

_LANES = 24


@st.composite
def _float_expr(draw, leaves, depth=2):
    """A double-valued expression over ``leaves`` in the kernel grammar:
    ``+ - *`` and the exactly-rounded math calls."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(leaves))
    kind = draw(st.sampled_from(["+", "-", "*", "fmin", "fmax", "sqrt"]))
    x = draw(_float_expr(leaves, depth - 1))
    if kind == "sqrt":
        return f"sqrt(fabs({x}))"
    y = draw(_float_expr(leaves, depth - 1))
    if kind in ("fmin", "fmax"):
        return f"{kind}({x}, {y})"
    return f"({x} {kind} {y})"


@st.composite
def _single_level_nest(draw):
    """Affine stores, read-only gathers, a local and a ``+`` reduction."""
    leaves = ["a[i]", "a[g[i]]", "(i * 0.25)", "1.5", "-0.75"]
    body = []
    if draw(st.booleans()):
        body.append(f"double t = {draw(_float_expr(leaves))};")
        leaves = leaves + ["t"]
    scale, offset = draw(st.sampled_from([1, 2])), draw(st.integers(0, 3))
    body.append(f"b[{scale} * i + {offset}] = {draw(_float_expr(leaves))};")
    reduce = draw(st.booleans())
    if reduce:
        body.append(f"total += {draw(_float_expr(leaves))};")
    clause = " reduction(+:total)" if reduce else ""
    n = _LANES
    return f"""
    double a[{n}]; int g[{n}]; double b[{2 * n + 4}];
    int main() {{
      for (int k = 0; k < {n}; k++) {{
        a[k] = (k % 7) * 0.625 - 1.5; g[k] = (k * 5 + 3) % {n};
      }}
      for (int k = 0; k < {2 * n + 4}; k++) {{ b[k] = 0.0; }}
      double total = 0.25;
      #pragma omp target teams distribute parallel for{clause}
      for (int i = 0; i < {n}; i++) {{
        {" ".join(body)}
      }}
      double s = 0.0;
      for (int k = 0; k < {2 * n + 4}; k++) {{ s += b[k] * (k % 5 + 1); }}
      printf("%.17g %.17g\\n", s, total);
      return 0;
    }}
    """


@st.composite
def _collapse_nest(draw):
    """A perfect two-level nest with an injective row-major store."""
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 6))
    leaves = ["a[i]", "a[j]", "a[i + j]", "(i * 0.5)", "(j - 1.0)", "2.0"]
    value = draw(_float_expr(leaves))
    target = draw(st.sampled_from([f"m[i * {cols} + j]", "m2[i][j]"]))
    return f"""
    double a[{rows + cols}]; double m[{rows * cols}]; double m2[{rows}][{cols}];
    int main() {{
      for (int k = 0; k < {rows + cols}; k++) {{ a[k] = (k % 4) * 0.375 + 0.5; }}
      for (int k = 0; k < {rows * cols}; k++) {{ m[k] = 0.0; }}
      for (int r = 0; r < {rows}; r++) {{
        for (int c = 0; c < {cols}; c++) {{ m2[r][c] = 0.0; }}
      }}
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < {rows}; i++) {{
        for (int j = 0; j < {cols}; j++) {{
          {target} = {value};
        }}
      }}
      double s = 0.0;
      for (int r = 0; r < {rows}; r++) {{
        for (int c = 0; c < {cols}; c++) {{
          s += (m[r * {cols} + c] + m2[r][c]) * (r + 2 * c + 1);
        }}
      }}
      printf("%.17g\\n", s);
      return 0;
    }}
    """


@st.composite
def _masked_nest(draw):
    """An ``if``/``else`` body whose guard protects an integer division,
    with a local updated on some lanes only."""
    guard = draw(st.sampled_from(
        ["d[i] != 0", "d[i] > 0", "d[i] < 0", "d[i] != 0 && n[i] / d[i] > 1"]))
    op = draw(st.sampled_from(["/", "%"]))
    num = draw(st.sampled_from(["n[i]", "(n[i] + i)", "(n[i] - 3 * i)"]))
    then = draw(st.sampled_from([
        f"int q = {num} {op} d[i]; out[i] = q * q - i;",
        f"out[i] = {num} {op} d[i];",
        f"acc += {num} {op} d[i];",
    ]))
    other = draw(st.sampled_from([
        "", "else { out[i] = -1; }", "else { out[i] = n[i] * 2 - i; }",
        "else { acc = d[i] > 0 ? n[i] / (d[i] + 1) : n[i] - d[i]; }",
    ]))
    period = draw(st.integers(2, 5))
    n = _LANES
    return f"""
    int n[{n}]; int d[{n}]; int out[{n}]; int out2[{n}];
    int main() {{
      for (int k = 0; k < {n}; k++) {{
        n[k] = (k * 7) % 23 - 5; d[k] = k % {period} - 1; out[k] = 7;
      }}
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < {n}; i++) {{
        int acc = i * 2;
        if ({guard}) {{ {then} }} {other}
        out2[i] = acc;
      }}
      int s = 0;
      for (int k = 0; k < {n}; k++) {{ s += (out[k] + 3 * out2[k]) * (k % 3 + 1); }}
      printf("%d\\n", s);
      return 0;
    }}
    """


@st.composite
def _wavefront_nest(draw):
    """nw's shape: an anti-diagonal recurrence under ``omp target``."""
    dim = draw(st.integers(5, 9))
    reads = draw(st.lists(
        st.sampled_from([
            f"g[(i - 1) * {dim} + (j - 1)]",
            f"g[i * {dim} + (j - 1)]",
            f"g[(i - 1) * {dim} + j]",
        ]),
        min_size=1, max_size=3, unique=True,
    ))
    body = [f"int v = {' + '.join(reads)} + r[i * {dim} + j];"]
    if draw(st.booleans()):
        penalty = draw(st.integers(1, 4))
        body.append(
            f"if (g[(i - 1) * {dim} + j] - {penalty} > v) "
            f"v = g[(i - 1) * {dim} + j] - {penalty};"
        )
    body.append(f"g[i * {dim} + j] = v % 1000;")
    size = dim * dim
    return f"""
    int g[{size}]; int r[{size}];
    int main() {{
      for (int k = 0; k < {size}; k++) {{ g[k] = k % 5; r[k] = (k * 3) % 7 - 2; }}
      #pragma omp target
      for (int t = 2; t < {dim}; t++) {{
        for (int i = 1; i < t; i++) {{
          int j = t - i;
          {" ".join(body)}
        }}
      }}
      int s = 0;
      for (int k = 0; k < {size}; k++) {{ s += g[k] * (k % 7); }}
      printf("%d\\n", s);
      return 0;
    }}
    """


_NEST_SHAPES = {
    "codegen": _single_level_nest,
    "collapse": _collapse_nest,
    "masked": _masked_nest,
    "wavefront": _wavefront_nest,
}


class TestVectorizedNestProperties:
    """Every lowering strategy is bit-identical to the interpreter."""

    @pytest.mark.parametrize("label", sorted(_NEST_SHAPES))
    def test_nest_matches_interpreter(self, label):
        from repro.runtime import run_simulation

        @settings(max_examples=12, deadline=None, derandomize=True)
        @given(_NEST_SHAPES[label]())
        def check(source):
            ref = run_simulation(source, "nest.c", vectorize=False)
            vec = run_simulation(source, "nest.c", vectorize=True)
            assert vec.output == ref.output
            assert vec.return_code == ref.return_code
            assert vec.stats == ref.stats
            assert vec.profiler.records == ref.profiler.records
            assert vec.profiler.device_work == ref.profiler.device_work
            assert vec.profiler.host_work == ref.profiler.host_work
            assert vec.vectorized_launches == vec.stats.kernel_launches == 1
            assert vec.vector_strategy == label

        check()
