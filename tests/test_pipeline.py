"""Tests for the staged pass-manager pipeline and the batch driver.

Covers the architectural contracts: per-pass artifact caching (hit,
miss, invalidation on source or macro change), equality of batch and
serial results, deterministic ordering under ``-j 4``, the tool facade
surfacing cache hits with measurably lower elapsed time, and the
``ompdart batch`` CLI mode.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.core import OMPDart, ToolOptions, transform_source
from repro.diagnostics import ToolError
from repro.pipeline import (
    ArtifactCache,
    BatchRunStats,
    DEFAULT_PASSES,
    Pass,
    PassManager,
    transform_batch,
)
from repro.pipeline.cache import MISS, fingerprint

#: The passes a transform runs: the paper's Fig. 1 chain, no codegen.
TRANSFORM_CHAIN = [
    "preprocess", "parse", "constraints", "effects", "cfg", "plan", "rewrite",
]

SRC = """
int a[16];
int main() {
  a[0] = 1;
  #pragma omp target
  for (int i = 0; i < 16; i++) a[i] += i;
  return a[0];
}
"""

SRC_CHANGED = SRC.replace("a[i] += i;", "a[i] += 2 * i;")

BAD_SRC = """
int a[4];
int main() {
  #pragma omp target
  for (int i = 0; i < 4; i++) a[i] = i;
  #pragma omp target update from(a)
  return 0;
}
"""

MACRO_SRC = """
int a[N];
int main() {
  a[0] = 1;
  #pragma omp target
  for (int i = 0; i < N; i++) a[i] += i;
  return a[0];
}
"""


class TestArtifactCache:
    def test_get_put_roundtrip(self):
        cache = ArtifactCache()
        key = fingerprint("source", "file.c")
        assert cache.get("parse", key) is MISS
        cache.put("parse", key, {"tu": 1})
        assert cache.get("parse", key) == {"tu": 1}
        assert cache.stats["parse"].hits == 1
        assert cache.stats["parse"].misses == 1

    def test_lru_eviction(self):
        cache = ArtifactCache(max_entries=2)
        for i in range(3):
            cache.put("p", str(i), i)
        assert cache.get("p", "0") is MISS  # evicted
        assert cache.get("p", "2") == 2

    def test_disk_spill_survives_new_cache(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.put("parse", "k", [1, 2, 3])
        cache.commit("k")
        fresh = ArtifactCache(disk_dir=tmp_path)
        assert fresh.get("parse", "k") == [1, 2, 3]

    def test_fingerprint_sensitivity(self):
        assert fingerprint("a", "b") != fingerprint("ab", "")
        assert fingerprint("a", {"N": 1}) != fingerprint("a", {"N": 2})


class TestPassManager:
    def test_default_chain_names(self):
        names = [p.name for p in DEFAULT_PASSES]
        assert names == [
            "preprocess", "parse", "codegen", "constraints", "effects",
            "cfg", "plan", "rewrite",
        ]

    def test_first_run_misses_second_hits(self):
        manager = PassManager()
        ctx1 = manager.run(SRC, "t.c")
        ctx2 = manager.run(SRC, "t.c")
        assert set(ctx1.cache_events.values()) == {"miss"}
        assert set(ctx2.cache_events.values()) == {"hit"}
        assert ctx1.artifact("rewrite") == ctx2.artifact("rewrite")

    def test_source_change_invalidates(self):
        manager = PassManager()
        manager.run(SRC, "t.c")
        ctx = manager.run(SRC_CHANGED, "t.c")
        assert set(ctx.cache_events.values()) == {"miss"}

    def test_macro_change_invalidates(self):
        manager = PassManager()
        manager.run(
            MACRO_SRC, "t.c", ToolOptions(predefined_macros={"N": 16})
        )
        ctx2 = manager.run(
            MACRO_SRC, "t.c", ToolOptions(predefined_macros={"N": 32})
        )
        assert set(ctx2.cache_events.values()) == {"miss"}
        assert "map(tofrom: a)" in ctx2.artifact("rewrite")
        ctx3 = manager.run(
            MACRO_SRC, "t.c", ToolOptions(predefined_macros={"N": 16})
        )
        assert set(ctx3.cache_events.values()) == {"hit"}

    def test_run_until_parse_only(self):
        manager = PassManager()
        tu = manager.parse(SRC, "t.c")
        assert tu.lookup_function("main") is not None
        # Only the prefix passes ran.
        assert "parse" in manager.cache.stats
        assert "plan" not in manager.cache.stats

    def test_parse_artifact_shared_with_full_run(self):
        manager = PassManager()
        tu = manager.parse(SRC, "t.c")
        ctx = manager.run(SRC, "t.c")
        assert ctx.artifact("parse") is tu

    def test_constraint_error_raised_on_hit_and_miss(self):
        manager = PassManager()
        with pytest.raises(ToolError):
            manager.run(BAD_SRC, "bad.c")
        with pytest.raises(ToolError):  # cached diagnostics still raise
            manager.run(BAD_SRC, "bad.c")

    def test_timings_recorded_per_pass(self):
        ctx = PassManager().run(SRC, "t.c")
        assert list(ctx.timings) == TRANSFORM_CHAIN
        assert all(t >= 0.0 for t in ctx.timings.values())

    @pytest.mark.parametrize(
        "until, chain",
        [
            (None, TRANSFORM_CHAIN),
            ("codegen", ["preprocess", "parse", "codegen"]),
            ("cfg", ["preprocess", "parse", "cfg"]),
            ("effects", ["preprocess", "parse", "constraints", "effects"]),
        ],
    )
    def test_run_builds_what_the_target_requires_in_chain_order(
        self, until, chain
    ):
        manager = PassManager()
        ctx = manager.run(SRC, "t.c", until=until)
        assert list(ctx.artifacts) == chain
        assert list(manager.cache.stats) == chain

    def test_until_unknown_pass_is_a_key_error(self):
        with pytest.raises(KeyError, match="no pass named 'lower'"):
            PassManager().run(SRC, "t.c", until="lower")

    @pytest.mark.parametrize(
        "requires, why",
        [
            (("lex",), "requires 'lex'"),
            (("rewrite",), "requires 'rewrite'"),
            (("twice",), "requires 'twice'"),
        ],
        ids=["unknown", "later", "itself"],
    )
    def test_bad_requires_fail_when_the_manager_is_built(self, requires, why):
        def noop(ctx):
            return None

        passes = list(DEFAULT_PASSES)
        passes.insert(2, Pass("twice", noop, requires=requires))
        with pytest.raises(ValueError, match=why):
            PassManager(passes=passes)

    def test_duplicate_pass_names_fail_when_the_manager_is_built(self):
        with pytest.raises(ValueError, match="duplicate pass names"):
            PassManager(passes=[*DEFAULT_PASSES, DEFAULT_PASSES[0]])


_TRANSFORM_IMPORT_PROBE = textwrap.dedent(
    """
    import sys
    from repro.core import OMPDart, ToolOptions
    from repro.pipeline.batch import transform_one
    from repro.service.core import dispatch_map

    SOURCE = sys.stdin.read()

    def transform(manager, i):
        outcome = transform_one(
            manager, SOURCE.replace("+= i", f"+= {i}"), f"v{i}.c",
            ToolOptions(),
        )
        assert outcome.ok, outcome.error
        return "numpy" in sys.modules

    assert OMPDart().run(SOURCE, "t.c").changed
    print("numpy" in sys.modules,
          sorted(set(dispatch_map(transform, range(4), jobs=2))))
    """
)


def test_transforms_never_import_numpy():
    """Only the simulator's codegen pass needs NumPy, and a transform
    does not run it: neither ``OMPDart.run`` in a fresh interpreter nor
    a pooled ``transform_one`` imports NumPy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )
    proc = subprocess.run(
        [sys.executable, "-c", _TRANSFORM_IMPORT_PROBE],
        input=SRC, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False [False]"


class TestToolFacadeCaching:
    def test_repeated_run_reports_cache_hit_and_is_faster(self):
        tool = OMPDart()
        first = tool.run(SRC, "t.c")
        second = tool.run(SRC, "t.c")
        assert first.cache_hits == 0
        assert second.cache_hits == len(TRANSFORM_CHAIN)
        assert second.output_source == first.output_source
        assert second.elapsed_seconds < first.elapsed_seconds

    def test_report_contains_overhead_breakdown(self):
        res = transform_source(SRC, "t.c")
        report = res.report()
        assert "pass overhead" in report
        for name in ("parse", "plan", "rewrite"):
            assert name in report

    def test_shared_pipeline_across_instances(self):
        manager = PassManager()
        OMPDart(pipeline=manager).run(SRC, "t.c")
        res = OMPDart(pipeline=manager).run(SRC, "t.c")
        assert res.cache_hits == len(TRANSFORM_CHAIN)
        assert list(res.pass_timings) == TRANSFORM_CHAIN


def _variant(i):
    """A distinct-but-valid translation unit per index."""
    return SRC.replace("a[i] += i;", f"a[i] += i + {i};"), f"v{i}.c"


class TestBatchDriver:
    def test_batch_matches_serial(self):
        items = [_variant(i) for i in range(6)]
        serial = transform_batch(items, jobs=1)
        parallel = transform_batch(items, jobs=4)
        assert [o.filename for o in parallel] == [f"v{i}.c" for i in range(6)]
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert s.output_source == p.output_source
            assert s.directive_count == p.directive_count

    def test_deterministic_ordering_under_j4(self):
        items = [_variant(i) for i in range(8)]
        runs = [transform_batch(items, jobs=4) for _ in range(2)]
        orders = [[o.filename for o in run] for run in runs]
        assert orders[0] == orders[1] == [f"v{i}.c" for i in range(8)]
        assert [o.output_source for o in runs[0]] == [
            o.output_source for o in runs[1]
        ]

    def test_serial_batch_dedups_identical_content(self):
        # Identical content dispatches once; the duplicates share the
        # representative's result instead of re-running the pipeline
        # (they used to re-run it per copy, cache hits or not).
        items = [(SRC, "same.c")] * 3
        outcomes = transform_batch(items, jobs=1)
        assert all(o.ok for o in outcomes)
        assert set(outcomes[0].cache_events.values()) == {"miss"}
        assert outcomes[1] is outcomes[0]
        assert outcomes[2] is outcomes[0]

    def test_serial_batch_dedups_across_filenames(self):
        items = [(SRC, "a.c"), (SRC, "b.c"), (SRC, "c.c")]
        stats = BatchRunStats()
        outcomes = transform_batch(items, jobs=1, run_stats=stats)
        assert all(o.ok for o in outcomes)
        assert stats.unique_inputs == 1
        assert stats.deduped_inputs == 2
        assert outcomes[0].deduped_from is None
        assert [o.filename for o in outcomes] == ["a.c", "b.c", "c.c"]
        assert outcomes[1].deduped_from == "a.c"
        assert outcomes[2].deduped_from == "a.c"
        assert outcomes[1].output_source == outcomes[0].output_source
        # Only the representative actually ran the pipeline.
        assert set(outcomes[0].cache_events.values()) == {"miss"}
        assert outcomes[1].cache_events == outcomes[0].cache_events

    def test_dedup_retags_diagnostics_with_duplicate_filename(self):
        items = [(BAD_SRC, "first.c"), (BAD_SRC, "second.c")]
        first, second = transform_batch(items, jobs=1)
        assert not first.ok and not second.ok
        assert second.deduped_from == "first.c"
        assert all(d.startswith("second.c:") for d in second.diagnostics)
        assert all(d.startswith("first.c:") for d in first.diagnostics)

    def test_unchanged_input_not_marked_changed(self):
        # No kernels -> rewrite equals input -> changed must be False.
        (outcome,) = transform_batch([("int main() { return 0; }\n", "p.c")])
        assert outcome.ok
        assert not outcome.changed
        assert outcome.directive_count == 0

    def test_error_input_reports_not_raises(self):
        items = [(SRC, "ok.c"), (BAD_SRC, "bad.c")]
        ok, bad = transform_batch(items, jobs=1)
        assert ok.ok
        assert not bad.ok
        assert "constraint" in (bad.error or "")

    def test_manager_is_rejected_with_pool_or_cache_dir(self, tmp_path):
        # Checked before dedup can leave one input to run in-process.
        items = [(SRC, "a.c"), (SRC, "b.c")]
        with pytest.raises(ValueError, match="worker processes"):
            transform_batch(items, jobs=2, manager=PassManager())
        with pytest.raises(ValueError, match="own cache"):
            transform_batch(
                items, manager=PassManager(), cache_dir=str(tmp_path)
            )

    def test_disk_cache_dir(self, tmp_path):
        items = [_variant(i) for i in range(2)]
        transform_batch(items, jobs=1, cache_dir=str(tmp_path))
        assert list(tmp_path.glob("*.art"))
        again = transform_batch(items, jobs=1, cache_dir=str(tmp_path))
        assert set(again[0].cache_events.values()) == {"hit"}


class TestRunAllBatch:
    def test_parallel_benchmarks_match_serial(self):
        from repro.runtime.platform import DEFAULT_PLATFORM
        from repro.suite.runner import run_benchmark, run_sweep

        names = ["accuracy", "nw"]
        serial = [run_benchmark(n) for n in names]
        sweep = run_sweep([DEFAULT_PLATFORM], names=names, jobs=2)
        parallel = list(sweep[DEFAULT_PLATFORM].runs.values())
        for s, p in zip(serial, parallel):
            assert s.benchmark.name == p.benchmark.name
            assert s.unoptimized.stats == p.unoptimized.stats
            assert s.ompdart.stats == p.ompdart.stats
            assert s.expert.stats == p.expert.stats
            assert s.transform.output_source == p.transform.output_source
            assert s.unoptimized.output == p.unoptimized.output


class TestBatchCLI:
    def test_batch_mode_transforms_in_order(self, tmp_path, capsys):
        from repro.cli import main

        paths = []
        for i in range(3):
            src, _ = _variant(i)
            path = tmp_path / f"in{i}.c"
            path.write_text(src)
            paths.append(str(path))
        outdir = tmp_path / "out"
        rc = main(["batch", *paths, "-j", "2", "-o", str(outdir)])
        assert rc == 0
        out = capsys.readouterr().out
        positions = [out.index(f"in{i}.c") for i in range(3)]
        assert positions == sorted(positions)
        for i in range(3):
            assert "map(tofrom: a)" in (outdir / f"in{i}.c").read_text()

    def test_batch_mode_failure_exit_code(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.c"
        bad.write_text(BAD_SRC)
        assert main(["batch", str(bad)]) == 1

    def test_batch_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["batch", str(tmp_path / "absent.c")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestCLIAdditions:
    def test_version_flag(self, capsys):
        from repro.cli import main
        from repro._version import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_dump_ast_parse_error_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "syntax.c"
        bad.write_text("int main( {\n")
        assert main([str(bad), "--dump-ast"]) == 3
        assert "parse error" in capsys.readouterr().err

    def test_dump_cfg_parse_error_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "syntax.c"
        bad.write_text("double f( {}\n")
        assert main([str(bad), "--dump-cfg"]) == 3
