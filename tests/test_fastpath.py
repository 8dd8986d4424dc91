"""Frontend fast path: profile artifact, synthetic corpus, batch dedup
attribution, and the lazy CLI cold start."""

import gc
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.artifact import write_artifact
from repro.report.profile import (
    SCHEMA as PROFILE_SCHEMA,
    PassProfiler,
    aggregate_profile,
    load_profile,
    profile_source,
    render_profile,
)
from repro.suite.registry import BENCHMARK_ORDER, get_benchmark
from repro.suite.synth import DUPLICATE_SHARE, generate_corpus, write_corpus

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC_DIR)
    return env


# ---------------------------------------------------------------------------
# ompdart-profile/1 artifact
# ---------------------------------------------------------------------------


SMALL_KERNEL = """
int main() {
  double a[64], b[64];
  for (int i = 0; i < 64; i++) a[i] = i;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 64; i++) b[i] = a[i] * 2.0;
  double sum = 0.0;
  for (int i = 0; i < 64; i++) sum += b[i];
  return sum > 0.0 ? 0 : 1;
}
"""


class TestProfileArtifact:
    def test_schema_round_trip(self, tmp_path):
        payload = profile_source(SMALL_KERNEL, "small.c")
        path = str(tmp_path / "profile.json")
        write_artifact(payload, path)
        loaded = load_profile(path)
        assert loaded == json.loads(json.dumps(payload))
        assert loaded["schema"] == PROFILE_SCHEMA
        assert loaded["kind"] == "single"
        assert loaded["count"] == 1
        assert loaded["error"] is None

    def test_pass_walls_sum_to_total_within_tolerance(self):
        payload = profile_source(SMALL_KERNEL, "small.c")
        wall = payload["wall_s"]
        pass_sum = sum(row["wall_s"] for row in payload["passes"])
        # Pass walls are measured inside the run wall: their sum can
        # never meaningfully exceed it, and the inter-pass overhead
        # (cache-key hashing, dict shuffling) should stay a small slice.
        assert pass_sum <= wall * 1.05
        assert pass_sum >= wall * 0.5, (pass_sum, wall)

    def test_phases_cover_the_same_time_as_passes(self):
        payload = profile_source(SMALL_KERNEL, "small.c")
        pass_sum = sum(row["wall_s"] for row in payload["passes"])
        phase_sum = sum(row["wall_s"] for row in payload["phases"])
        # lex+macro re-partition preprocess exactly; the other phases
        # are pass groupings, so the two decompositions must agree.
        assert phase_sum == pytest.approx(pass_sum, rel=0.05, abs=1e-3)
        names = [row["name"] for row in payload["phases"]]
        assert names[:2] == ["lex", "macro"]
        assert "plan" in names and "parse" in names

    def test_single_profile_records_allocations(self):
        payload = profile_source(SMALL_KERNEL, "small.c")
        parse = next(r for r in payload["passes"] if r["name"] == "parse")
        assert parse["alloc_kb"] is not None and parse["alloc_kb"] > 0
        assert parse["peak_kb"] >= parse["alloc_kb"]

    def test_single_profile_records_collector_pauses(self):
        payload = profile_source(SMALL_KERNEL, "small.c")
        for row in payload["passes"]:
            assert 0.0 <= row["gc_s"] <= row["wall_s"], row
            counts = row["gc_collections"]
            assert len(counts) == 3 and all(n >= 0 for n in counts), row

    def test_collector_pauses_are_charged_to_the_running_pass(self):
        with PassProfiler() as profiler:
            hook = profiler._on_gc
            assert hook in gc.callbacks
            profiler.begin_pass("full")
            gc.collect()
            profiler.end_pass("full", 1.0, "miss")
            profiler.begin_pass("none")
            profiler.end_pass("none", 1.0, "miss")
        assert hook not in gc.callbacks
        full, none = profiler.rows
        assert full["gc_collections"][2] >= 1 and full["gc_s"] > 0.0
        assert none["gc_collections"] == [0, 0, 0] and none["gc_s"] == 0.0
        # Outside the context the hook is off and the columns are null.
        profiler.begin_pass("unhooked")
        profiler.end_pass("unhooked", 1.0, "miss")
        assert profiler.rows[-1]["gc_s"] is None
        assert profiler.rows[-1]["gc_collections"] is None

    def test_error_input_still_profiles(self):
        # Parses fine, rejected by the constraints pass (user-written
        # data-management directives are OMPDart input violations).
        bad = textwrap.dedent(
            """
            int main() {
              int a[4];
              #pragma omp target data map(to: a)
              {
                a[0] = 1;
              }
              return 0;
            }
            """
        )
        payload = profile_source(bad, "bad.c")
        assert payload["error"]
        assert any(r["name"] == "parse" for r in payload["passes"])

    def test_aggregate_profile_folds_timings(self):
        payload = aggregate_profile(
            [{"preprocess": 0.1, "parse": 0.2}, {"preprocess": 0.3}],
            ["a.c", "b.c"],
            wall_s=0.7,
        )
        assert payload["kind"] == "aggregate"
        assert payload["count"] == 2
        assert payload["wall_s"] == 0.7
        by_name = {r["name"]: r for r in payload["passes"]}
        assert by_name["preprocess"]["wall_s"] == pytest.approx(0.4)
        assert by_name["preprocess"]["alloc_kb"] is None
        assert by_name["preprocess"]["gc_s"] is None
        frontend = next(
            r for r in payload["phases"] if r["name"] == "frontend"
        )
        assert frontend["wall_s"] == pytest.approx(0.6)

    def test_render_profile_mentions_every_pass(self):
        payload = profile_source(SMALL_KERNEL, "small.c")
        table = render_profile(payload)
        for row in payload["passes"]:
            assert row["name"] in table
        assert "gc ms" in table and "gc gen0/1/2" in table

    def test_load_profile_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "notprofile.json"
        path.write_text(json.dumps({"schema": "ompdart-suite-perf/1"}))
        with pytest.raises(ValueError):
            load_profile(str(path))


# ---------------------------------------------------------------------------
# Synthetic corpus generator
# ---------------------------------------------------------------------------


class TestSyntheticCorpus:
    def test_deterministic_across_calls(self):
        assert generate_corpus(40, seed=7) == generate_corpus(40, seed=7)

    def test_seeds_differ(self):
        assert generate_corpus(10, seed=1) != generate_corpus(10, seed=2)

    def test_duplicate_share_is_roughly_nominal(self):
        corpus = generate_corpus(400, seed=0)
        unique = len({source for _, source in corpus})
        duplicates = len(corpus) - unique
        share = duplicates / len(corpus)
        assert abs(share - DUPLICATE_SHARE) < 0.1, share

    def test_filenames_unique_and_cycle_benchmarks(self):
        corpus = generate_corpus(18, seed=0)
        names = [filename for filename, _ in corpus]
        assert len(set(names)) == 18
        for i, name in enumerate(names):
            assert BENCHMARK_ORDER[i % len(BENCHMARK_ORDER)] in name

    def test_variants_differ_from_base_but_transform(self):
        base = get_benchmark("bfs").unoptimized_source()
        corpus = generate_corpus(9, seed=3)
        bfs_files = [s for f, s in corpus if "bfs" in f]
        assert bfs_files and all(s != base for s in bfs_files)
        from repro.pipeline.batch import transform_batch

        outcomes = transform_batch([(bfs_files[0], "bfs_variant.c")])
        assert outcomes[0].ok, outcomes[0].error

    def test_write_corpus_round_trips(self, tmp_path):
        paths = write_corpus(tmp_path / "corpus", 6, seed=5)
        assert len(paths) == 6
        expected = dict(generate_corpus(6, seed=5))
        for path in paths:
            assert path.read_text() == expected[path.name]


# ---------------------------------------------------------------------------
# Batch dedup attribution in --report
# ---------------------------------------------------------------------------


def test_batch_report_attributes_shared_results(tmp_path, capsys):
    from repro.cli import main

    source = SMALL_KERNEL
    a = tmp_path / "a.c"
    b = tmp_path / "copy_of_a.c"
    a.write_text(source)
    b.write_text(source)
    out_dir = tmp_path / "out"
    rc = main(["batch", str(a), str(b), "-o", str(out_dir), "--report"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "deduplicated: identical content" in captured.out
    assert "1 unique input(s), 1 duplicate(s)" in captured.out


# ---------------------------------------------------------------------------
# CLI cold start (lazy imports)
# ---------------------------------------------------------------------------


_COLD_START_DRIVER = textwrap.dedent(
    """
    import sys, time

    start = time.perf_counter()
    from repro.cli import main

    try:
        main(["--version"])
    except SystemExit as exc:
        assert not exc.code, exc.code
    elapsed = time.perf_counter() - start

    heavy = [m for m in ("numpy", "repro.core.tool", "repro.runtime.interp",
                         "repro.service.core")
             if m in sys.modules]
    assert not heavy, f"cold start imported heavy modules: {heavy}"
    print(f"{elapsed:.4f}")
    """
)


def test_cli_cold_start_stays_light():
    """``ompdart --version`` must not pay for the simulator: no numpy,
    no tool facade, and a generous wall budget that still catches an
    accidental eager import of the heavy stack."""
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START_DRIVER],
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # stdout carries the version banner first, then the timing line.
    elapsed = float(proc.stdout.strip().splitlines()[-1])
    # ~45ms on the dev box; 5s is pure accident insurance (a numpy
    # import alone would not trip it, the module check above does).
    assert elapsed < 5.0, elapsed


def test_parse_only_run_avoids_simulator_imports(tmp_path):
    """``ompdart FILE --dump-ast`` stays on the frontend-only path."""
    src = tmp_path / "input.c"
    src.write_text("int main() { return 0; }\n")
    driver = textwrap.dedent(
        f"""
        import sys
        from repro.cli import main

        rc = main([{str(src)!r}, "--dump-ast"])
        assert rc == 0, rc
        assert "numpy" not in sys.modules
        assert "repro.core.tool" not in sys.modules
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", driver],
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
