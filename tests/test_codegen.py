"""Source-level kernel codegen: bit-identity, artifact reuse, launch path.

Three contracts from the codegen tier:

* **Bit-identity** — for every corpus variant, the generated NumPy
  source (vector tier), the generated sequential-scalar source (replay
  tier) and the closure interpreter produce identical output, stats and
  memcpy records.
* **Artifact reuse** — codegen rows are pipeline artifacts: suite
  workers share compiled kernels through the cache directory.
* **Launch specialization** — the per-launch-signature fast path falls
  back (and re-records) safely when a kernel's bindings change mid-run.
"""

import pytest

import repro.runtime.vectorize as V
from repro.core.tool import OMPDart, ToolOptions
from repro.pipeline.manager import PassManager
from repro.runtime.interp import run_simulation
from repro.suite.registry import BENCHMARK_ORDER, get_benchmark


def assert_identical(a, b):
    assert a.output == b.output
    assert a.return_code == b.return_code
    assert a.stats == b.stats  # calls, bytes, times, launches — all of it
    assert a.profiler.records == b.profiler.records


@pytest.fixture
def replay_only(monkeypatch):
    """Route every kernel through the sequential replay tier only.

    ``compile_kernel_candidates`` always appends the (lazy) replay
    candidate last; keeping just that one forces each launch through
    the generated sequential-scalar source, with the interpreter as the
    safety net for kernels replay itself declines.
    """
    original = V.compile_kernel_candidates

    def only_replay(interp, stmt):
        candidates, note = original(interp, stmt)
        return candidates[-1:], note

    monkeypatch.setattr(V, "compile_kernel_candidates", only_replay)


# ---------------------------------------------------------------------------
# codegen <-> replay <-> interpreter identity across all 27 corpus variants
# ---------------------------------------------------------------------------

_TRANSFORMED: dict = {}


def _variant_source(name: str, variant: str) -> str:
    bench = get_benchmark(name)
    if variant == "unoptimized":
        return bench.unoptimized_source()
    if variant == "expert":
        return bench.expert_source()
    if name not in _TRANSFORMED:
        _TRANSFORMED[name] = OMPDart(ToolOptions()).run(
            bench.unoptimized_source(), f"{name}.c"
        ).output_source
    return _TRANSFORMED[name]


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
@pytest.mark.parametrize("variant", ["unoptimized", "ompdart", "expert"])
def test_corpus_tier_identity(name, variant, replay_only):
    """Replay-tier execution matches the closure interpreter exactly.

    (The vector-tier <-> interpreter half of the triangle is pinned by
    ``test_vectorize.test_corpus_equality`` over the same 27 variants;
    together the two files close codegen <-> replay <-> interpreter.)
    """
    source = _variant_source(name, variant)
    filename = f"{name}_{variant}.c"
    interp = run_simulation(source, filename, vectorize=False)
    replay = run_simulation(source, filename, vectorize=True)
    assert_identical(interp, replay)
    # The replay tier really ran: its launches count as vectorized.
    assert replay.vectorized_launches == replay.stats.kernel_launches > 0


def test_replay_row_rides_the_pipeline_artifact():
    """A precompiled codegen row (pipeline artifact) is what replay
    executes — no local re-emission when the interpreter carries rows."""
    src = """
    double a[32];
    double b[32];
    int main() {
      for (int i = 0; i < 32; i++) { a[i] = i * 0.5; b[i] = 0.0; }
      #pragma omp target teams distribute parallel for
      for (int i = 1; i < 32; i++) {
        b[i] = b[i - 1] + a[i];
      }
      double s = 0.0;
      for (int i = 0; i < 32; i++) { s += b[i]; }
      printf("s %.6f\\n", s);
      return 0;
    }
    """
    manager = PassManager()
    ctx = manager.run(src, "carried.c", until="codegen")
    rows = ctx.artifact("codegen")
    assert rows and all(r["reason"] is None for r in rows.values())
    interp = run_simulation(src, "carried.c", vectorize=False)
    vec = run_simulation(
        src,
        "carried.c",
        vectorize=True,
        tu=ctx.artifact("parse"),
        codegen_rows=rows,
    )
    # The loop-carried dependency forces the sequential replay tier,
    # which must execute the artifact's generated source bit-exactly.
    assert_identical(interp, vec)
    assert vec.vectorized_launches == vec.stats.kernel_launches > 0


def test_noncanonical_loop_declines_with_reason():
    """A non-canonical nest yields a row carrying the decline reason —
    the same message the closure fallback reports."""
    src = """
    double a[8];
    int main() {
      double x = 0.0;
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 8; i = i + 3) {
        a[i] = 1.0;
      }
      printf("%.1f\\n", a[0] + a[3]);
      return 0;
    }
    """
    manager = PassManager()
    rows = manager.run(src, "noncanon.c", until="codegen").artifact("codegen")
    interp = run_simulation(src, "noncanon.c", vectorize=False)
    vec = run_simulation(src, "noncanon.c", vectorize=True)
    assert_identical(interp, vec)
    assert len(rows) == 1
    (row,) = rows.values()
    if row["reason"] is not None:
        assert row["source"] is None and row["key"] is None


# ---------------------------------------------------------------------------
# Cross-process reuse of compiled rows through the artifact store
# ---------------------------------------------------------------------------


def test_codegen_rows_hit_cross_worker_store(tmp_path, monkeypatch):
    """Rows one pooled suite run's workers spill are what the next
    run's workers execute: a second ``run_sweep(..., jobs=2,
    cache_dir=D)`` builds no ``codegen`` row.  Its workers start with
    empty memory tiers, so every row comes off the records on disk."""
    from repro.pipeline.artifacts import decode_part, split_parts
    from repro.runtime import codegen
    from repro.runtime.platform import DEFAULT_PLATFORM
    from repro.suite.runner import run_sweep

    cache_dir = tmp_path / "cache"
    names = ["hotspot", "nw"]

    def sweep(jobs):
        result = run_sweep(
            [DEFAULT_PLATFORM], names=names, jobs=jobs,
            cache_dir=str(cache_dir),
        )
        return {
            name: (run.ompdart.stats, run.ompdart.output)
            for name, run in result[DEFAULT_PLATFORM].runs.items()
        }

    first = sweep(jobs=2)
    records = [
        decode_part(split_parts(p.read_bytes())[1])
        for p in cache_dir.glob("*.art")
    ]
    # Three variants per benchmark, each record holding its rows.
    assert len(records) == 3 * len(names)
    assert all(record["codegen"] for record in records)

    def rebuilt(tu):
        raise AssertionError("codegen row rebuilt instead of read")

    # Pool workers fork per run, so they inherit the patch.
    monkeypatch.setattr(codegen, "emit_rows", rebuilt)
    assert sweep(jobs=2) == first
    assert sweep(jobs=1) == first


# ---------------------------------------------------------------------------
# Launch-signature specialization
# ---------------------------------------------------------------------------


def test_signature_change_falls_back_and_rerecords():
    """A kernel in a function launched against different arrays: the
    recorded launch signature no longer holds on the second call, so
    the plan must re-record instead of replaying stale bindings."""
    src = """
    double a[64];
    double b[64];
    void scale(double *p) {
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 64; i++) { p[i] = p[i] * 2.0 + 1.0; }
    }
    int main() {
      for (int i = 0; i < 64; i++) { a[i] = i * 0.5; b[i] = i * 0.25; }
      scale(a);
      scale(b);
      scale(a);
      double s = 0.0;
      for (int i = 0; i < 64; i++) { s += a[i] + b[i]; }
      printf("s %.6f\\n", s);
      return 0;
    }
    """
    interp = run_simulation(src, "sig.c", vectorize=False)
    vec = run_simulation(src, "sig.c", vectorize=True)
    assert_identical(interp, vec)
    assert vec.vector_strategy == "codegen"
    assert vec.vectorized_launches == vec.stats.kernel_launches == 3


def test_scalar_bound_change_recomputes_lanes():
    """The launch-state cache keys on scalar values: a changed loop
    bound between launches must produce fresh lanes, not stale ones."""
    src = """
    double a[64];
    int n;
    int main() {
      for (int i = 0; i < 64; i++) { a[i] = 0.0; }
      n = 16;
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
      n = 48;
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
      double s = 0.0;
      for (int i = 0; i < 64; i++) { s += a[i]; }
      printf("s %.1f\\n", s);
      return 0;
    }
    """
    interp = run_simulation(src, "bound.c", vectorize=False)
    vec = run_simulation(src, "bound.c", vectorize=True)
    assert_identical(interp, vec)
    assert "s 64.0" in vec.output


def test_struct_member_bound_change_recomputes_lanes():
    """The launch-state cache keys on struct-member values too: a loop
    bound read from a device-resident struct that a ``target update``
    changed between launches must produce fresh lanes, not stale ones."""
    src = """
    struct P { int n; double w; };
    struct P p;
    double a[64];
    int main() {
      for (int i = 0; i < 64; i++) { a[i] = 0.0; }
      p.w = 1.0;
      p.n = 16;
      #pragma omp target data map(tofrom: a[0:64]) map(to: p)
      for (int r = 1; r < 4; r++) {
        p.n = 16 * r;
        #pragma omp target update to(p)
        #pragma omp target teams distribute parallel for
        for (int i = 0; i < p.n; i++) { a[i] = a[i] + p.w; }
      }
      double s = 0.0;
      for (int i = 0; i < 64; i++) { s += a[i]; }
      printf("s %.1f\\n", s);
      return 0;
    }
    """
    interp = run_simulation(src, "member.c", vectorize=False)
    vec = run_simulation(src, "member.c", vectorize=True)
    assert_identical(interp, vec)
    assert "s 96.0" in vec.output
    assert vec.vectorized_launches == vec.stats.kernel_launches == 3


def test_vector_code_cache_is_bounded_and_pins_no_tu(monkeypatch):
    """Compiled kernels are cached by generated source in a bounded LRU
    that holds no AST: simulating more distinct translation units than
    the bound keeps the cache within it and leaves none of them alive."""
    import gc

    from repro.frontend import ast_nodes as A
    from repro.runtime import codegen

    def live_tus():
        gc.collect()
        return sum(isinstance(o, A.TranslationUnit) for o in gc.get_objects())

    monkeypatch.setattr(codegen, "_SOURCE_CACHE_LIMIT", 4)
    src = """
    double a[32];
    int main() {
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 32; i++) { a[i] = i * %d.5; }
      printf("%%.1f\\n", a[3]);
      return 0;
    }
    """
    before = live_tus()
    for k in range(10):
        result = run_simulation(src % k, f"tu{k}.c")
        assert result.vector_strategy == "codegen"
        assert len(codegen._SOURCE_CACHE) <= 4
    assert live_tus() <= before
