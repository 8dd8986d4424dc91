"""Vectorizing kernel executor: equality, fallbacks, step accounting.

The contract under test is absolute: for every program the simulator
can run, ``vectorize=True`` and ``vectorize=False`` must produce
bit-identical output text, transfer stats (calls, bytes, modelled
times), and kernel-launch counts.  The vectorizer may *decline* any
kernel — but it may never change a result.
"""

import numpy as np
import pytest

from repro.frontend.parser import parse_source
from repro.runtime.interp import Interpreter, SimulationError, run_simulation
from repro.suite.registry import BENCHMARK_ORDER, get_benchmark


def both(source, name="<test>", **kwargs):
    interp = run_simulation(source, name, vectorize=False, **kwargs)
    vec = run_simulation(source, name, vectorize=True, **kwargs)
    return interp, vec


def assert_identical(a, b):
    assert a.output == b.output
    assert a.return_code == b.return_code
    assert a.stats == b.stats  # calls, bytes, times, launches — all of it
    assert a.profiler.records == b.profiler.records


# ---------------------------------------------------------------------------
# Property-style equality across the full nine-benchmark corpus
# ---------------------------------------------------------------------------

#: Expected lowering strategy per benchmark — since phase 2, *every*
#: corpus variant executes through a vectorized strategy (zero
#: interpreter fallbacks); single-level nests report ``codegen``.
STRATEGY = {
    "accuracy": "codegen",
    "ace": "codegen",
    "backprop": "collapse",
    "bfs": "masked",
    "clenergy": "codegen",
    "hotspot": "wavefront",
    "lulesh": "codegen",
    "nw": "wavefront",
    "xsbench": "codegen",
}


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
@pytest.mark.parametrize("variant", ["unoptimized", "expert"])
def test_corpus_equality(name, variant):
    bench = get_benchmark(name)
    source = (
        bench.unoptimized_source()
        if variant == "unoptimized"
        else bench.expert_source()
    )
    interp, vec = both(source, f"{name}_{variant}.c")
    assert_identical(interp, vec)
    assert interp.vectorized_launches == 0
    assert interp.vector_strategy == "interpreter"
    assert vec.vectorized_launches == vec.stats.kernel_launches > 0
    assert vec.fallback_reason is None
    assert vec.vector_strategy == STRATEGY[name]


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_transformed_variant_equality(name):
    """The tool's own output (with data directives) vectorizes too."""
    from repro.core.tool import OMPDart, ToolOptions

    bench = get_benchmark(name)
    transformed = OMPDart(ToolOptions()).run(
        bench.unoptimized_source(), f"{name}.c"
    ).output_source
    interp, vec = both(transformed, f"{name}_ompdart.c")
    assert_identical(interp, vec)
    assert vec.vectorized_launches == vec.stats.kernel_launches
    assert vec.vector_strategy == STRATEGY[name]


def test_corpus_fallback_reasons_recorded():
    """bfs's guarded kernels vectorize since phase 2; a genuinely
    inexpressible kernel (a while loop) still records its reason."""
    tu = parse_source(get_benchmark("bfs").unoptimized_source(), "bfs.c")
    interp = Interpreter(tu)
    interp.run()
    assert not interp.vector_notes  # every kernel vectorized

    src = fallback_case("int k = 0; while (k < i) { k++; } b[i] = k;")
    tu = parse_source(src, "while.c")
    interp = Interpreter(tu)
    interp.run()
    assert interp.vector_notes
    assert any("WhileStmt" in note for note in interp.vector_notes.values())


_WHILE_KERNEL = """
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < 32; i++) { int k = 0; while (k < i) { k++; } b[i] = k; }
"""
_DO_KERNEL = """
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < 32; i++) { int k = 0; do { k++; } while (k < i); b[i] = k; }
"""


@pytest.mark.parametrize(
    "src,launches,reason",
    [
        # The while kernel never launches: its note must not be reported.
        (
            f"int flag = 0; int b[32];\n"
            f"int main() {{ if (flag) {{ {_WHILE_KERNEL} }} {_DO_KERNEL}\n"
            f'printf("%d\\n", b[31]); return 0; }}',
            1,
            "unsupported kernel statement DoStmt",
        ),
        # Both run interpreted, the do kernel first; the while kernel
        # comes first in the source.
        (
            f"int b[32];\nvoid early() {{ {_WHILE_KERNEL} }}\n"
            f"int main() {{ {_DO_KERNEL} early();\n"
            f'printf("%d\\n", b[31]); return 0; }}',
            2,
            "unsupported kernel statement WhileStmt",
        ),
    ],
    ids=["never-launched", "launch-order"],
)
def test_fallback_reason_names_the_first_interpreted_kernel(src, launches, reason):
    """fallback_reason is the note of the first kernel in source order
    among those that ran interpreted."""
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.output == "31\n"
    assert vec.strategy_launches == {"interpreter": launches}
    assert vec.fallback_reason == reason


# ---------------------------------------------------------------------------
# Targeted eligible shapes
# ---------------------------------------------------------------------------


def test_reduction_clause_plus():
    src = """
    double data[200];
    int main() {
      for (int i = 0; i < 200; i++) { data[i] = (i % 17) * 0.3 - 1.0; }
      double total = 0.0;
      #pragma omp target teams distribute parallel for reduction(+:total)
      for (int i = 0; i < 200; i++) {
        total += data[i] * 1.5;
      }
      printf("total %.12f\\n", total);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


def test_reduction_minus_compound():
    src = """
    double data[64];
    int main() {
      for (int i = 0; i < 64; i++) { data[i] = i * 0.125; }
      double left = 1000.0;
      #pragma omp target teams distribute parallel for reduction(-:left)
      for (int i = 0; i < 64; i++) {
        left -= data[i];
      }
      printf("left %.12f\\n", left);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


def test_reduction_min_ternary_and_max_fmax():
    src = """
    double data[128];
    int main() {
      for (int i = 0; i < 128; i++) { data[i] = ((i * 29) % 53) * 0.7 - 9.0; }
      double lo = 1e30;
      double hi = -1e30;
      #pragma omp target teams distribute parallel for reduction(min:lo)
      for (int i = 0; i < 128; i++) {
        lo = (data[i] < lo) ? data[i] : lo;
      }
      #pragma omp target teams distribute parallel for reduction(max:hi)
      for (int i = 0; i < 128; i++) {
        hi = fmax(hi, data[i]);
      }
      printf("lo %.6f hi %.6f\\n", lo, hi);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 2


def test_implicitly_mapped_scalar_accumulation():
    """A mapped scalar (no reduction clause) accumulates sequentially."""
    src = """
    double data[100];
    double acc;
    int main() {
      acc = 0.25;
      for (int i = 0; i < 100; i++) { data[i] = i * 0.01; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 100; i++) {
        acc += data[i];
      }
      printf("acc %.12f\\n", acc);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


def test_multidim_subscripts_and_descending_loop():
    src = """
    double m[8][16];
    int main() {
      #pragma omp target teams distribute parallel for
      for (int i = 7; i >= 0; i--) {
        for (int j = 0; j < 16; j++) {
          m[i][j] = i * 100.0 + j;
        }
      }
      double sum = 0.0;
      for (int i = 0; i < 8; i++) {
        for (int j = 0; j < 16; j++) { sum += m[i][j]; }
      }
      printf("sum %.1f\\n", sum);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


def test_float32_arrays_widen_like_the_interpreter():
    """The interpreter loads float32 elements as Python floats (f64) and
    narrows only at the array store; the vectorized path must widen its
    loads and locals the same way or float32 kernels double-round."""
    src = """
    float a[64];
    float b[64];
    float c[64];
    int main() {
      for (int i = 0; i < 64; i++) {
        a[i] = (i * 37 % 19) * 0.0517 - 0.9;
        b[i] = (i * 53 % 23) * 0.0431 - 1.1;
        c[i] = 0.0;
      }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 64; i++) {
        float t = a[i];
        float u = b[i];
        float v = t * u + t;
        c[i] = v * 0.5 + c[i];
      }
      double s = 0.0;
      for (int i = 0; i < 64; i++) { s += c[i]; }
      printf("%.12f\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


def test_integer_c_division_and_modulo():
    """C truncating / and % over negative values, vector vs scalar."""
    src = """
    int out[61];
    int main() {
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 61; i++) {
        int v = i - 30;
        out[i] = v / 7 + (v % 7) * 100;
      }
      int check = 0;
      for (int i = 0; i < 61; i++) { check += out[i] * (i + 1); }
      printf("check %d\\n", check);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


def test_integer_overflow_matches_unbounded_interpreter_ints():
    """The interpreter computes lanes in unbounded Python ints; an
    int64 intermediate past 2**63 must not silently wrap."""
    src = """
    long a[4];
    long b[4];
    int main() {
      for (int i = 0; i < 4; i++) { a[i] = 4000000000 + i; b[i] = 0; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 4; i++) {
        b[i] = a[i] * a[i] / 1000000000;
      }
      for (int i = 0; i < 4; i++) { printf("%d ", b[i]); }
      printf("\\n");
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1
    assert "16000000000" in vec.output


def test_gather_read_with_data_dependent_index():
    src = """
    double table[50];
    double out[40];
    int main() {
      for (int i = 0; i < 50; i++) { table[i] = i * 1.5; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 40; i++) {
        int idx = (i * 13 + 7) % 50;
        out[i] = table[idx] + 0.5;
      }
      double s = 0.0;
      for (int i = 0; i < 40; i++) { s += out[i]; }
      printf("s %.6f\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


# ---------------------------------------------------------------------------
# Fallback shapes: must run interpreted, with identical results
# ---------------------------------------------------------------------------


def fallback_case(body, setup="", decls=""):
    return f"""
    double a[32];
    double b[32];
    {decls}
    int main() {{
      for (int i = 0; i < 32; i++) {{ a[i] = i * 0.5; b[i] = 0.0; }}
      {setup}
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 32; i++) {{
        {body}
      }}
      double s = 0.0;
      for (int i = 0; i < 32; i++) {{ s += b[i]; }}
      printf("s %.6f\\n", s);
      return 0;
    }}
    """


@pytest.mark.parametrize(
    "body,decls",
    [
        # printf inside the kernel
        ('b[i] = a[i]; printf("%d", i);', ""),
        # while loop in the body
        ("int k = 0; while (k < i) { k++; } b[i] = k;", ""),
    ],
    ids=["printf", "while"],
)
def test_ineligible_kernels_fall_back(body, decls):
    src = fallback_case(body, decls=decls)
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 0
    assert vec.vector_strategy == "interpreter"
    assert vec.fallback_reason is not None


@pytest.mark.parametrize(
    "body,decls,strategy",
    [
        # indirect store targets all collide on idx[i]==0: the masked
        # scatter commit declines at launch and the sequential replay
        # (unit-slice wavefront) picks it up.
        ("b[idx[i]] = a[i];", "int idx[32];", "wavefront"),
        # a (useless) if-statement makes the nest masked
        ("if (i == 7) {{ }} b[i] = a[i];".replace("{{ }}", "{ }"), "",
         "masked"),
        # cross-iteration stencil dependence (read != write subscript):
        # the scatter store overlaps the read of b, so masked declines
        # at commit and replay executes it in exact sequential order
        ("b[i] = a[i]; a[(i + 1) % 32] = b[i];", "", "wavefront"),
    ],
    ids=["indirect-store", "if-stmt", "stencil-rw"],
)
def test_formerly_ineligible_kernels_now_vectorize(body, decls, strategy):
    """Shapes PR 3 declined that phase 2 executes — still bit-identical."""
    src = fallback_case(body, decls=decls)
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == vec.stats.kernel_launches == 1
    assert vec.vector_strategy == strategy


def test_guarded_division_vectorizes_masked():
    """`b[i] != 0 ? a[i]/b[i] : -1` must not fault on the zero lanes the
    interpreter never divides — each ternary branch evaluates only on
    the (compressed) lanes that selected it."""
    src = """
    int a[16];
    int b[16];
    int out[16];
    int main() {
      for (int i = 0; i < 16; i++) { a[i] = i * 3; b[i] = i % 4; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 16; i++) {
        out[i] = (b[i] != 0) ? (a[i] / b[i]) : -1;
      }
      int s = 0;
      for (int i = 0; i < 16; i++) { s += out[i]; }
      printf("s %d\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


def test_short_circuit_guarded_division_vectorizes():
    """A lane-varying `&&` left side evaluates the right side only on
    the lanes that did not short-circuit — `12 / b[i]` never sees the
    zero divisors."""
    src = """
    int b[16];
    int out[16];
    int main() {
      for (int i = 0; i < 16; i++) { b[i] = i % 3; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 16; i++) {
        out[i] = (b[i] != 0 && 12 / b[i] > 3) ? 1 : 0;
      }
      int s = 0;
      for (int i = 0; i < 16; i++) { s += out[i]; }
      printf("s %d\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


def test_overlapping_scatter_store_replays_sequentially():
    """`a[i + j]` writes overlap across lanes (lane i, j=1 and lane
    i+1, j=0 hit the same element) and interpreted execution is
    lane-major while vectorized is inner-loop-major — the launch-time
    disjointness check declines the vector nest, and the sequential
    replay executes it in exact lane-major order instead."""
    src = """
    double a[8];
    int main() {
      for (int i = 0; i < 8; i++) { a[i] = 0.0; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 4; j++) {
          a[i + j] = 10.0 * i + j;
        }
      }
      for (int i = 0; i < 8; i++) { printf("%.0f ", a[i]); }
      printf("\\n");
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1
    assert vec.vector_strategy == "wavefront"


def test_blocked_store_with_tight_inner_range_stays_vectorized():
    """`a[i * 4 + j]` with j < 4 is lane-disjoint (backprop's shape):
    the non-parallel span (3) stays below the parallel stride (4)."""
    src = """
    double a[16];
    int main() {
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 4; j++) {
          a[i * 4 + j] = 10.0 * i + j;
        }
      }
      double s = 0.0;
      for (int i = 0; i < 16; i++) { s += a[i] * (i + 1); }
      printf("s %.1f\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


def test_loop_carried_taint_replays_sequentially():
    """A local that is lane-invariant when an inner bound is compiled
    but assigned a per-lane value later in the same loop body declines
    the vector nest (the second iteration would feed a vector into
    int()) — the sequential replay executes it instead."""
    src = """
    double a[8];
    double out[8];
    int main() {
      for (int i = 0; i < 8; i++) { a[i] = (i % 3) * 1.0; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 8; i++) {
        double n = 2.0;
        double acc = 0.0;
        for (int j = 0; j < 3; j++) {
          for (int k = 0; k < (int) n; k++) {
            acc += 1.0;
          }
          n = a[i];
        }
        out[i] = acc;
      }
      double s = 0.0;
      for (int i = 0; i < 8; i++) { s += out[i]; }
      printf("s %.1f\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1
    assert vec.vector_strategy == "wavefront"


def test_lane_invariant_guard_still_vectorizes():
    """A condition that does not vary across lanes keeps the lazy
    branch selection, so guarded division stays eligible."""
    src = """
    double a[16];
    double out[16];
    int n;
    int main() {
      n = 0;
      for (int i = 0; i < 16; i++) { a[i] = i * 0.5; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 16; i++) {
        out[i] = (n > 0) ? (a[i] / n) : a[i];
      }
      double s = 0.0;
      for (int i = 0; i < 16; i++) { s += out[i]; }
      printf("s %.3f\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


def test_float_division_by_zero_raises_like_interpreter():
    src = """
    double a[8];
    double b[8];
    double out[8];
    int main() {
      for (int i = 0; i < 8; i++) { a[i] = 1.0; b[i] = i * 1.0; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 8; i++) {
        out[i] = a[i] / b[i];
      }
      return 0;
    }
    """
    for vectorize in (False, True):
        with pytest.raises(ZeroDivisionError):
            run_simulation(src, "<t>", vectorize=vectorize)


def test_runtime_preflight_declines_struct_array():
    """Struct-element arrays pass static checks but decline at preflight."""
    src = """
    struct pt { double x; double y; };
    struct pt pts[16];
    double out[16];
    int main() {
      for (int i = 0; i < 16; i++) {
        pts[i].x = i * 1.0;
        out[i] = 0.0;
      }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 16; i++) {
        out[i] = out[i] + i;
      }
      double s = 0.0;
      for (int i = 0; i < 16; i++) { s += out[i]; }
      printf("s %.1f\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)


def test_no_vectorize_flag_forces_interpreter():
    src = get_benchmark("clenergy").unoptimized_source()
    vec = run_simulation(src, "clenergy.c", vectorize=True)
    off = run_simulation(src, "clenergy.c", vectorize=False)
    assert vec.vectorized_launches > 0
    assert off.vectorized_launches == 0
    assert vec.stats == off.stats


# ---------------------------------------------------------------------------
# Step accounting and the max_steps guard
# ---------------------------------------------------------------------------


def test_step_counts_match_interpreter_exactly():
    """device_work (hence kernel_time_s) is charged tick-for-tick."""
    src = get_benchmark("clenergy").unoptimized_source()
    interp, vec = both(src, "clenergy.c")
    assert interp.profiler.device_work == vec.profiler.device_work
    assert interp.profiler.host_work == vec.profiler.host_work
    assert interp.stats.kernel_time_s == vec.stats.kernel_time_s


def test_max_steps_guard_trips_under_vectorized_execution():
    src = """
    double a[16];
    int main() {
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 16; i++) {
        a[i] = i * 1.0;
      }
      return 0;
    }
    """
    # Interpreted and vectorized both run fine with generous budgets...
    for vectorize in (False, True):
        run_simulation(src, "<t>", max_steps=10_000, vectorize=vectorize)
    # ...and both trip the guard with a tiny one.
    for vectorize in (False, True):
        with pytest.raises(SimulationError, match="exceeded 5 steps"):
            run_simulation(src, "<t>", max_steps=5, vectorize=vectorize)


#: One kernel shape per lowering strategy; ``N`` is the runaway bound.
_RUNAWAY_SHAPES = {
    "codegen": """
    double a[64];
    int main() {
      #pragma omp target teams distribute parallel for
      for (long i = 0; i < N; i++) {
        a[i] = 1.0;
      }
      return 0;
    }
    """,
    "masked": """
    double a[64];
    int main() {
      #pragma omp target teams distribute parallel for
      for (long i = 0; i < N; i++) {
        if (i % 2 == 0) {
          a[i] = 1.0;
        }
      }
      return 0;
    }
    """,
    "collapse": """
    double a[64];
    int main() {
      #pragma omp target teams distribute parallel for
      for (long i = 0; i < N; i++) {
        for (long j = 0; j < 4; j++) {
          a[i * 4 + j] = 1.0;
        }
      }
      return 0;
    }
    """,
    "wavefront": """
    double a[64];
    int main() {
      #pragma omp target
      for (int t = 1; t < 3; t++) {
        for (long i = 0; i < N; i++) {
          a[i] = a[i] + t;
        }
      }
      return 0;
    }
    """,
}


@pytest.mark.parametrize("strategy", sorted(_RUNAWAY_SHAPES))
def test_max_steps_guard_charges_before_materializing_lanes(strategy):
    """A runaway trip count must raise before allocating the index
    vector — 2 billion lanes would be a 16 GB arange — in every
    lowering strategy."""
    src = _RUNAWAY_SHAPES[strategy]
    small = run_simulation(src.replace("N", "8"), "<t>", vectorize=True)
    assert small.vector_strategy == strategy
    assert small.vectorized_launches == 1
    with pytest.raises(SimulationError, match="exceeded"):
        run_simulation(
            src.replace("N", "2000000000"), "<t>",
            max_steps=1_000_000, vectorize=True,
        )


def test_sequential_reduction_rounding_is_exact():
    """cumsum replays loop-order rounding; pairwise np.sum would not."""
    rng = np.random.default_rng(7)
    values = rng.uniform(-1.0, 1.0, size=512)
    lines = "\n".join(
        f"      data[{i}] = {float(v)!r};" for i, v in enumerate(values)
    )
    src = f"""
    double data[512];
    int main() {{
{lines}
      double total = 0.0;
      #pragma omp target teams distribute parallel for reduction(+:total)
      for (int i = 0; i < 512; i++) {{
        total += data[i];
      }}
      printf("%.17f\\n", total);
      return 0;
    }}
    """
    interp, vec = both(src)
    assert interp.output == vec.output  # all 17 digits
