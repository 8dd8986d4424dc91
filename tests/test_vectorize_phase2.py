"""Phase-2 vectorizer: masked bodies, wavefront slices, nest collapse,
math ufuncs, the dependence classifier, and host-loop execution.

The contract is the same absolute one PR 3 established: for every
program the simulator can run, ``vectorize=True`` and
``vectorize=False`` must produce bit-identical output text, transfer
stats, step ledgers and kernel-launch counts — across every strategy,
including launches a strategy declines at runtime.
"""

import numpy as np
import pytest

from repro.analysis.depend import (
    WavefrontObligation,
    flatten_chain,
    intra_slice_dependence,
    uniform_distance,
)
from repro.runtime import vectorize as V
from repro.runtime.interp import run_simulation


def both(source, name="<test>", **kwargs):
    interp = run_simulation(source, name, vectorize=False, **kwargs)
    vec = run_simulation(source, name, vectorize=True, **kwargs)
    return interp, vec


def assert_identical(a, b):
    assert a.output == b.output
    assert a.return_code == b.return_code
    assert a.stats == b.stats  # calls, bytes, times, launches — all of it
    assert a.profiler.records == b.profiler.records
    assert a.profiler.device_work == b.profiler.device_work
    assert a.profiler.host_work == b.profiler.host_work


# ---------------------------------------------------------------------------
# Masked bodies
# ---------------------------------------------------------------------------


def test_masked_if_guarded_division_does_not_fault():
    """Division in an ``if`` body evaluates only on the guard's lanes —
    the zero divisors on the discarded lanes are never touched."""
    src = """
    int n[16];
    int d[16];
    int out[16];
    int main() {
      for (int i = 0; i < 16; i++) { n[i] = i * 7; d[i] = i % 4; out[i] = 0; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 16; i++) {
        if (d[i] != 0) {
          out[i] = n[i] / d[i];
        } else {
          out[i] = -1;
        }
      }
      int s = 0;
      for (int i = 0; i < 16; i++) { s += out[i] * (i + 1); }
      printf("s %d\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vector_strategy == "masked"
    assert vec.vectorized_launches == 1


def test_masked_int64_overflow_matches_interpreter():
    """Products that exceed int64 on the *active* lanes escalate to
    exact Python ints (the PR 3 grow-op, now under compression); values
    that would overflow only on masked-off lanes are never computed."""
    src = """
    long a[8];
    long out[8];
    int main() {
      for (int i = 0; i < 8; i++) { a[i] = 10000000000 * (i + 1); out[i] = 0; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 8; i++) {
        if (a[i] < 50000000000) {
          out[i] = a[i] * a[i] / (a[i] / 1000);
        }
      }
      long s = 0;
      for (int i = 0; i < 8; i++) { s += out[i] / 1000; }
      printf("s %ld\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vector_strategy == "masked"
    assert "100000000000" in vec.output


def test_masked_shared_scalar_assignment():
    """bfs's ``stop = 0`` shape: a shared scalar assigned under a
    lane-varying guard takes the last active lane's value (and stays
    untouched when no lane is active)."""
    src = """
    int flag[32];
    int found;
    int main() {
      found = 0;
      for (int i = 0; i < 32; i++) { flag[i] = (i == 13 || i == 27); }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 32; i++) {
        if (flag[i]) {
          found = 1;
        }
      }
      printf("found %d\\n", found);
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 32; i++) {
        if (flag[i] > 100) {
          found = 7;
        }
      }
      printf("still %d\\n", found);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vector_strategy == "masked"
    assert vec.vectorized_launches == 2
    assert "found 1" in vec.output and "still 1" in vec.output


def test_ragged_inner_loop_accumulates_in_lane_order():
    """Lane-varying trip counts (bfs's CSR walk): per-lane accumulation
    happens in each lane's own ascending order, so float rounding is
    exactly the interpreter's."""
    src = """
    int starts[9];
    double w[32];
    double out[8];
    int main() {
      for (int i = 0; i < 9; i++) { starts[i] = (i * 7) / 2; }
      for (int t = 0; t < 32; t++) { w[t] = t * 0.25 - 3.0; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 8; i++) {
        out[i] = 0.0;
        for (int t = starts[i]; t < starts[i + 1]; t++) {
          out[i] += w[t] * 1.5;
        }
      }
      double s = 0.0;
      for (int i = 0; i < 8; i++) { s += out[i] * (i + 1); }
      printf("s %.10f\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vector_strategy == "masked"
    assert vec.vectorized_launches == 1


def test_masked_scatter_with_unique_targets_commits():
    """Data-dependent stores commit through the deferred buffer when
    the launch-time checks prove the targets pairwise distinct."""
    src = """
    int idx[16];
    double a[16];
    double out[16];
    int main() {
      for (int i = 0; i < 16; i++) {
        idx[i] = (i * 5) % 16;
        a[i] = i * 0.5;
        out[i] = -1.0;
      }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 16; i++) {
        if (a[i] > 1.0) {
          out[idx[i]] = a[i] + 0.25;
        }
      }
      double s = 0.0;
      for (int i = 0; i < 16; i++) { s += out[i] * (i + 1); }
      printf("s %.6f\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vector_strategy == "masked"
    assert vec.vectorized_launches == 1


def test_masked_scatter_collision_declines_to_replay():
    """Duplicate scatter targets make the result lane-order dependent:
    the commit check declines and the sequential replay executes the
    launch — bit-identically, via the last-write-wins the interpreter
    produced."""
    src = """
    int idx[16];
    double out[4];
    int main() {
      for (int i = 0; i < 16; i++) { idx[i] = i % 4; }
      for (int i = 0; i < 4; i++) { out[i] = 0.0; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 16; i++) {
        out[idx[i]] = i * 1.5;
      }
      printf("%.1f %.1f %.1f %.1f\\n", out[0], out[1], out[2], out[3]);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vector_strategy == "wavefront"  # the replay engine
    assert vec.vectorized_launches == 1


# ---------------------------------------------------------------------------
# Wavefront slicing + the dependence classifier
# ---------------------------------------------------------------------------


def test_wavefront_anti_diagonal_dp():
    """nw's shape: slice-ordered replay of an anti-diagonal recurrence,
    with the ``int j = t - i`` local forwarded into the affine
    subscripts."""
    src = """
    int m[144];
    int main() {
      for (int k = 0; k < 144; k++) { m[k] = k % 5; }
      #pragma omp target
      for (int t = 2; t < 12; t++) {
        for (int i = 1; i < t; i++) {
          int j = t - i;
          m[i * 12 + j] = m[(i - 1) * 12 + (j - 1)] + m[i * 12 + (j - 1)];
        }
      }
      int s = 0;
      for (int k = 0; k < 144; k++) { s += m[k] * (k % 7); }
      printf("s %d\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vector_strategy == "wavefront"
    assert vec.vectorized_launches == 1


def test_wavefront_intra_slice_dependence_replays_sequentially():
    """A same-slice carried distance (read one lane over in the same
    diagonal) fails the launch-time classification; the sequential
    replay still executes the nest exactly."""
    src = """
    int m[144];
    int main() {
      for (int k = 0; k < 144; k++) { m[k] = (k * 3) % 11; }
      #pragma omp target
      for (int t = 1; t < 12; t++) {
        for (int i = 1; i < 12; i++) {
          m[i * 12 + t] = m[(i - 1) * 12 + t] + 1;
        }
      }
      int s = 0;
      for (int k = 0; k < 144; k++) { s += m[k] * (k % 5); }
      printf("s %d\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


def test_depend_flatten_and_uniform_distance():
    # m[i*12 + j] with j = t - i substituted: coeffs {i: 11, t: 1}
    write = flatten_chain([({"i": 11, "t": 1}, 0)], (144,))
    read = flatten_chain([({"i": 11, "t": 1}, -2)], (144,))
    assert write == ({"i": 11, "t": 1}, 0)
    assert uniform_distance(write, read) == -2
    # different coefficients: no uniform distance
    assert uniform_distance(({"i": 2}, 0), ({"i": 3}, 0)) is None
    # multi-dim flattening uses trailing-extent strides
    flat = flatten_chain([({"i": 1}, -1), ({"t": 1, "i": -1}, 0)], (12, 12))
    assert flat == ({"i": 11, "t": 1}, -12)


def test_depend_intra_slice_classification():
    # nw: delta -2, lane coeff 11 — 11 does not divide 2: safe
    assert intra_slice_dependence(
        ({"i": 11, "t": 1}, 0), ({"i": 11, "t": 1}, -2), "t"
    ) is False
    # same-cell (delta 0) is lane-local: safe
    assert intra_slice_dependence(
        ({"i": 11, "t": 1}, 0), ({"i": 11, "t": 1}, 0), "t"
    ) is False
    # divisible delta: a same-slice collision is possible
    assert intra_slice_dependence(
        ({"i": 12, "t": 1}, 0), ({"i": 12, "t": 1}, -12), "t"
    ) is True
    # non-uniform pair: unclassifiable
    assert intra_slice_dependence(
        ({"i": 12, "t": 1}, 0), ({"i": 6, "t": 1}, 0), "t"
    ) is None
    # no lane symbol: unclassifiable
    assert intra_slice_dependence(({"t": 1}, 0), ({"t": 1}, -1), "t") is None


def test_depend_obligation_round_trip():
    ob = WavefrontObligation.make(
        3, [({"i": 1}, 0), ({"t": 1, "i": -1}, 0)],
        [({"i": 1}, -1), ({"t": 1, "i": -1}, -1)],
    )
    assert ob.slot == 3
    assert ob.holds((12, 12), "t")  # delta -13, coeff 11: safe
    bad = WavefrontObligation.make(
        0, [({"i": 1}, 0)], [({"i": 1}, -3)],
    )
    assert not bad.holds((12,), "t")  # delta divisible by coeff 1


# ---------------------------------------------------------------------------
# Nest collapse
# ---------------------------------------------------------------------------


def test_collapse_perfect_nest():
    """backprop's shape: both loop levels become the lane space, the
    store stays injective via the mixed-radix dominance check."""
    src = """
    double a[64];
    double w[16];
    int main() {
      for (int k = 0; k < 16; k++) { w[k] = k * 0.125; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 16; j++) {
          a[i * 16 + j] = w[j] * (i + 1);
        }
      }
      double s = 0.0;
      for (int k = 0; k < 64; k++) { s += a[k] * (k % 3); }
      printf("s %.6f\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vector_strategy == "collapse"
    assert vec.vectorized_launches == 1


def test_collapse_reduction_accumulates_in_lex_order():
    """A shared float accumulation inside the collapsed level replays
    sequential rounding over the flattened (lexicographic) lane order —
    exactly the interpreter's iteration order."""
    src = """
    double a[48];
    int main() {
      for (int k = 0; k < 48; k++) { a[k] = (k % 7) * 0.3 - 0.9; }
      double total = 0.0;
      #pragma omp target teams distribute parallel for reduction(+:total)
      for (int i = 0; i < 6; i++) {
        for (int j = 0; j < 8; j++) {
          total += a[i * 8 + j] * 1.25;
        }
      }
      printf("%.17f\\n", total);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vector_strategy == "collapse"


def test_collapse_declines_to_sequential_inner_when_not_injective():
    """``a[i] = a[i] + j`` is not injective over the collapsed (i, j)
    space; the compiler retries with the inner loop sequential (the
    PR 3 lowering) instead of giving up."""
    src = """
    int a[4];
    int main() {
      for (int i = 0; i < 4; i++) { a[i] = 0; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 4; j++) {
          a[i] = a[i] + j;
        }
      }
      printf("%d %d %d %d\\n", a[0], a[1], a[2], a[3]);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vector_strategy == "codegen"
    assert vec.vectorized_launches == 1


# ---------------------------------------------------------------------------
# Math ufuncs + the libm-parity gate
# ---------------------------------------------------------------------------


UFUNC_SRC = """
double a[64];
double out[64];
int main() {
  for (int i = 0; i < 64; i++) { a[i] = (i - 20) * 0.37; }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 64; i++) {
    out[i] = sqrt(a[i]) + fabs(a[i]) * exp(a[i] * 0.01);
  }
  double s = 0.0;
  for (int i = 0; i < 64; i++) { s += out[i]; }
  printf("s %.17f\\n", s);
  return 0;
}
"""


def test_ufunc_calls_vectorize_bit_identically():
    interp, vec = both(UFUNC_SRC)
    assert_identical(interp, vec)
    # Math calls run in the single-level emitter like any other nest.
    assert vec.vector_strategy == "codegen"
    assert vec.vectorized_launches == 1


def test_ufunc_parity_gate_failure_uses_scalar_libm_path(monkeypatch):
    """A NumPy build whose exp rounds differently from libm must not
    change results: the gate drops exp to the per-lane libm loop while
    the nest stays vectorized."""
    monkeypatch.setitem(V._UFUNC_PARITY, "exp", False)
    interp, vec = both(UFUNC_SRC)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


def test_ufunc_parity_probe_runs_and_caches(monkeypatch):
    monkeypatch.delitem(V._UFUNC_PARITY, "exp", raising=False)
    spec = V._VEC_CALLS["exp"]
    import math

    verdict = V._parity_ok("exp", spec[1], lambda x: math.exp(min(x, 700.0)), 1)
    assert isinstance(verdict, bool)
    assert V._UFUNC_PARITY["exp"] is verdict
    # a deliberately wrong lowering fails the probe
    monkeypatch.delitem(V._UFUNC_PARITY, "exp", raising=False)
    assert V._parity_ok(
        "exp", lambda v: np.exp(v) + 1e-13, lambda x: math.exp(min(x, 700.0)), 1
    ) is False
    monkeypatch.delitem(V._UFUNC_PARITY, "exp", raising=False)


def test_log_domain_error_matches_interpreter():
    """log(-x) raises ValueError per-lane in the interpreter; the
    vector lowering guards the domain and falls to the scalar path,
    which raises identically."""
    src = """
    double a[8];
    double out[8];
    int main() {
      for (int i = 0; i < 8; i++) { a[i] = i - 3.0; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 8; i++) {
        out[i] = log(a[i]);
      }
      return 0;
    }
    """
    for vectorize in (False, True):
        with pytest.raises(ValueError):
            run_simulation(src, "<t>", vectorize=vectorize)


def test_fmin_nan_asymmetry_matches_python_min():
    """builtins fmin is Python's min (asymmetric under NaN); the vector
    lowering must replicate it, not np.minimum/np.fmin."""
    src = """
    double a[4];
    double out[4];
    int main() {
      a[0] = 0.0 / 1.0;
      for (int i = 1; i < 4; i++) { a[i] = i * 1.0; }
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 4; i++) {
        out[i] = fmin(a[i], 2.0) + fmax(a[i], 1.5);
      }
      double s = 0.0;
      for (int i = 0; i < 4; i++) { s += out[i]; }
      printf("s %.6f\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1


# ---------------------------------------------------------------------------
# Host-loop execution
# ---------------------------------------------------------------------------


def test_host_loops_vectorize_bit_identically():
    """Pure host code (no directives) routes through the same executor:
    identical output, host tick ledger and zero kernel launches."""
    src = """
    double a[256];
    double b[256];
    int main() {
      for (int i = 0; i < 256; i++) {
        a[i] = (i % 9) * 0.125;
        b[i] = 0.0;
      }
      for (int i = 0; i < 256; i++) {
        b[i] = a[i] * 2.0 + 1.0;
      }
      double s = 0.0;
      for (int i = 0; i < 256; i++) { s += b[i]; }
      printf("s %.10f\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.stats.kernel_launches == 0
    assert vec.vectorized_launches == 0
    assert vec.strategy_launches == {}


def test_host_loop_around_kernel_stays_interpreted_kernel_vectorizes():
    src = """
    double a[64];
    int main() {
      for (int i = 0; i < 64; i++) { a[i] = i * 0.5; }
      for (int t = 0; t < 3; t++) {
        #pragma omp target teams distribute parallel for
        for (int i = 0; i < 64; i++) {
          a[i] = a[i] * 1.5 + t;
        }
      }
      double s = 0.0;
      for (int i = 0; i < 64; i++) { s += a[i]; }
      printf("s %.8f\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == vec.stats.kernel_launches == 3
    assert vec.vector_strategy == "codegen"


# ---------------------------------------------------------------------------
# Strategy bookkeeping
# ---------------------------------------------------------------------------


def test_strategy_rank_covers_all_labels():
    assert set(V.STRATEGY_RANK) == {
        "interpreter", "wavefront", "masked", "collapse", "codegen",
    }
    assert V.STRATEGY_RANK["interpreter"] == 0
    assert (
        V.STRATEGY_RANK["wavefront"]
        < V.STRATEGY_RANK["masked"]
        < V.STRATEGY_RANK["collapse"]
        < V.STRATEGY_RANK["codegen"]
    )


def test_no_vectorize_reports_interpreter_strategy():
    src = """
    double a[8];
    int main() {
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 8; i++) { a[i] = i * 2.0; }
      printf("%.1f\\n", a[7]);
      return 0;
    }
    """
    off = run_simulation(src, "<t>", vectorize=False)
    assert off.vector_strategy == "interpreter"
    assert off.fallback_reason == "vectorization disabled (--no-vectorize)"
    on = run_simulation(src, "<t>", vectorize=True)
    assert on.vector_strategy == "codegen"
    assert on.fallback_reason is None


def test_wavefront_pairwise_write_obligations():
    """Every pair of distinct store chains gets its own intra-slice
    obligation: here the *second and third* stores collide across lanes
    (delta 2 against lane gap 2) while each passes against the first —
    the launch must decline to the sequential replay, bit-identically."""
    src = """
    int a[220];
    int main() {
      for (int k = 0; k < 220; k++) { a[k] = k % 7; }
      #pragma omp target
      for (int t = 1; t < 10; t++) {
        for (int i = 1; i < 8; i++) {
          a[t * 20 + 2 * i] = i;
          a[t * 20 + 2 * i + 1] = 100 + i;
          a[t * 20 + 2 * i + 3] = 200 + i;
        }
      }
      int s = 0;
      for (int k = 0; k < 220; k++) { s += a[k] * (k % 13); }
      printf("s %d\\n", s);
      return 0;
    }
    """
    interp, vec = both(src)
    assert_identical(interp, vec)
    assert vec.vectorized_launches == 1
