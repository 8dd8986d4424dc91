"""Platform-registry invariants, cross-platform sweep, and concurrency.

The invariants the refactor must keep (ISSUE 2):

* every *discrete* platform preserves transfer-dominance — unoptimized
  transfer time >= compute time on transfer-bound benchmarks, the
  premise behind the paper's Fig. 5/6 wins;
* ``gh200-unified`` (coherent memory) yields speedup ~= 1.0 with no
  divide-by-zero anywhere in the metric chain;
* a multi-platform sweep parses/transforms each benchmark exactly once
  (observable via the shared cache's hit/miss counters).

Fast, transfer-dominant benchmarks (bfs, backprop, xsbench) keep the
suite quick; the full nine-benchmark behaviour is covered by
``test_suite.py`` on the default platform.
"""

import gc
import json

import pytest

from repro.pipeline.manager import PassManager
from repro.runtime import A100_PCIE4, CostModel
from repro.service.core import BatchWorkerError, dispatch_map
from repro.runtime.platform import (
    DEFAULT_PLATFORM,
    PLATFORMS,
    Platform,
    get_platform,
    list_platforms,
    platform_table,
    register_platform,
    resolve_platform,
)
from repro.suite import geometric_mean, run_benchmark, run_sweep

DISCRETE = [p.name for p in PLATFORMS.values() if not p.unified_memory]
UNIFIED = [p.name for p in PLATFORMS.values() if p.unified_memory]

# Cache one run per (benchmark, platform): the simulator dominates
# test wall time and every run is deterministic.
_runs = {}


def run_of(name, platform=DEFAULT_PLATFORM):
    key = (name, platform)
    if key not in _runs:
        _runs[key] = run_benchmark(name, platform=platform)
    return _runs[key]


class TestRegistry:
    def test_four_platforms_ship(self):
        for name in ("a100-pcie4", "h100-sxm5", "mi250-if", "gh200-unified"):
            assert name in PLATFORMS

    def test_default_is_ratio_identical_to_historical_constant(self):
        assert get_platform(DEFAULT_PLATFORM).effective_cost_model == A100_PCIE4

    def test_unknown_platform_names_alternatives(self):
        with pytest.raises(KeyError, match="a100-pcie4"):
            get_platform("tpu-v9")

    def test_resolve_accepts_name_descriptor_and_none(self):
        p = get_platform("mi250-if")
        assert resolve_platform("mi250-if") is p
        assert resolve_platform(p) is p
        assert resolve_platform(None).name == DEFAULT_PLATFORM

    def test_list_platforms_default_first(self):
        listed = list_platforms()
        assert listed[0].name == DEFAULT_PLATFORM
        assert {p.name for p in listed} == set(PLATFORMS)

    def test_platform_table_mentions_every_platform(self):
        text = platform_table()
        for name in PLATFORMS:
            assert name in text

    def test_register_rejects_duplicates_unless_override(self):
        custom = Platform(
            name="test-custom", device="d", interconnect="i",
            cost_model=CostModel(),
        )
        register_platform(custom)
        try:
            with pytest.raises(ValueError):
                register_platform(custom)
            register_platform(custom, override=True)  # explicit is fine
            assert get_platform("test-custom") is custom
        finally:
            del PLATFORMS["test-custom"]

    def test_unified_memory_zeroes_explicit_memcpy_cost(self):
        cm = get_platform("gh200-unified").effective_cost_model
        assert cm.memcpy_time(0) == 0.0
        assert cm.memcpy_time(1 << 30) == 0.0
        # compute is still charged
        assert cm.kernel_time(1000) > 0.0

    def test_discrete_platforms_keep_raw_cost_model(self):
        for name in DISCRETE:
            p = get_platform(name)
            assert p.effective_cost_model is p.cost_model

    def test_every_platform_premise_device_beats_host_per_op(self):
        for p in PLATFORMS.values():
            assert p.cost_model.device_op_s < p.cost_model.host_op_s, p.name


class TestPlatformInvariants:
    @pytest.mark.parametrize("platform", DISCRETE)
    @pytest.mark.parametrize("bench", ["bfs", "xsbench"])
    def test_transfer_dominates_unoptimized_on_discrete(self, platform, bench):
        stats = run_of(bench, platform).unoptimized.stats
        compute = stats.kernel_time_s + stats.host_time_s
        assert stats.transfer_time_s >= compute, (platform, bench)

    @pytest.mark.parametrize("platform", DISCRETE)
    def test_tool_still_wins_on_every_discrete_platform(self, platform):
        run = run_of("bfs", platform)
        assert run.outputs_match
        assert run.speedup_x > 1.0
        assert run.transfer_reduction_x > 1.0

    @pytest.mark.parametrize("platform", UNIFIED)
    @pytest.mark.parametrize("bench", ["bfs", "backprop"])
    def test_unified_memory_speedup_is_one(self, platform, bench):
        run = run_of(bench, platform)
        assert run.outputs_match
        # explicit staging is free: the mapping win collapses exactly
        assert run.speedup_x == pytest.approx(1.0)
        assert run.expert_speedup_x == pytest.approx(1.0)
        # 0/0 transfer-time guard: defined, not a ZeroDivisionError
        assert run.transfer_time_improvement_x == 1.0
        assert run.unoptimized.stats.transfer_time_s == 0.0
        # data still moves (semantics intact), it just costs nothing
        assert run.unoptimized.stats.total_bytes > 0

    def test_platform_recorded_on_run(self):
        assert run_of("bfs").platform.name == DEFAULT_PLATFORM

    def test_raw_cost_model_still_accepted(self):
        run = run_benchmark("bfs", cost_model=A100_PCIE4)
        assert run.platform is None
        assert run.ompdart.stats == run_of("bfs").ompdart.stats

    def test_platform_and_cost_model_are_exclusive(self):
        with pytest.raises(ValueError):
            run_benchmark("bfs", platform="a100-pcie4", cost_model=A100_PCIE4)


class TestSweep:
    def test_sweep_reuses_parse_and_transform_across_platforms(self):
        manager = PassManager()
        names = ["bfs", "backprop"]
        sweep = run_sweep(list(PLATFORMS), names=names, manager=manager)
        stats = manager.cache.stats
        # 3 sources per benchmark (unoptimized, ompdart output, expert),
        # each parsed exactly once no matter how many platforms ran.
        assert stats["parse"].misses == 3 * len(names)
        # The tool's rewrite ran once per benchmark, not once per platform.
        assert stats["rewrite"].misses == len(names)
        # Every later platform answered from cache.
        assert stats["parse"].hits >= 3 * len(names) * (len(PLATFORMS) - 1)
        assert set(sweep.summary()) == set(PLATFORMS)

    def test_sweep_default_platform_matches_standalone_run(self):
        sweep = run_sweep([DEFAULT_PLATFORM, "h100-sxm5"], names=["bfs"])
        assert (
            sweep[DEFAULT_PLATFORM].runs["bfs"].ompdart.stats
            == run_of("bfs").ompdart.stats
        )

    def test_sweep_parallel_identical_to_serial(self):
        names = ["bfs", "backprop"]
        platforms = [DEFAULT_PLATFORM, "gh200-unified"]
        serial = run_sweep(platforms, names=names)
        parallel = run_sweep(platforms, names=names, jobs=2)
        for pn in platforms:
            for name in names:
                a, b = serial[pn].runs[name], parallel[pn].runs[name]
                assert a.ompdart.stats == b.ompdart.stats
                assert a.unoptimized.stats == b.unoptimized.stats

    def test_pooled_sweep_uses_its_cache_dir(self, tmp_path):
        # Each worker's manager spills to the cache dir, so a pooled run
        # leaves the records a serial run does, and a second pooled run
        # reads every pass back.
        names = ["ace", "nw"]
        serial_dir, pooled_dir = tmp_path / "serial", tmp_path / "pooled"
        run_sweep([DEFAULT_PLATFORM], names=names, cache_dir=str(serial_dir))
        run_sweep(
            [DEFAULT_PLATFORM], names=names, jobs=2, cache_dir=str(pooled_dir)
        )
        records = sorted(p.name for p in pooled_dir.glob("*.art"))
        assert records
        assert records == sorted(p.name for p in serial_dir.glob("*.art"))
        again = run_sweep(
            [DEFAULT_PLATFORM], names=names, jobs=2, cache_dir=str(pooled_dir)
        )
        for run in again[DEFAULT_PLATFORM].runs.values():
            assert set(run.transform.cache_events.values()) == {"hit"}

    def test_sweep_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            run_sweep([])
        with pytest.raises(ValueError):
            run_sweep([DEFAULT_PLATFORM, DEFAULT_PLATFORM])


class TestGeometricMean:
    def test_value(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            geometric_mean([])

    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e-15])
    def test_non_positive_raises(self, bad):
        with pytest.raises(ValueError, match="positive"):
            geometric_mean([1.0, bad, 2.0])


def _freeze_count(manager, item):
    return gc.get_freeze_count()


def test_pool_workers_freeze_their_inherited_heap():
    # A serial run reads this process's count, which nothing froze, so
    # a pooled item's count comes from its worker's own gc.freeze().
    assert dispatch_map(_freeze_count, [0]) == [0]
    assert all(count > 0 for count in dispatch_map(_freeze_count, range(4), jobs=2))


def _explode(manager, item):
    if item == "bad":
        raise RuntimeError("kaboom")
    return item.upper()


def _label(item, cause):
    raise BatchWorkerError(f"input {item!r}", cause)


class TestWorkerErrorLabels:
    def test_serial_label(self):
        with pytest.raises(BatchWorkerError) as exc:
            dispatch_map(_explode, ["ok", "bad"], on_failure=_label)
        assert "input 'bad'" in str(exc.value)
        assert "kaboom" in str(exc.value)

    def test_process_pool_label(self):
        with pytest.raises(BatchWorkerError) as exc:
            dispatch_map(
                _explode,
                ["ok", "fine", "bad", "ok2"],
                jobs=2,
                on_failure=_label,
            )
        assert "input 'bad'" in str(exc.value)
        assert "kaboom" in str(exc.value)

    def test_chunked_pool_labels_the_item_that_raised(self):
        # One chunk holds all four items; the worker reports each
        # item's failure as its own, not as its chunk's first item.
        with pytest.raises(BatchWorkerError) as exc:
            dispatch_map(
                _explode,
                ["ok", "fine", "bad", "ok2"],
                jobs=2,
                chunksize=4,
                on_failure=_label,
            )
        assert "input 'bad'" in str(exc.value)
        assert "kaboom" in str(exc.value)

    def test_failure_hook_result_fills_the_slot(self):
        results = dispatch_map(
            _explode,
            ["ok", "bad", "ok2"],
            jobs=2,
            on_failure=lambda item, cause: cause,
        )
        assert results == ["OK", "RuntimeError: kaboom", "OK2"]

    def test_error_survives_pickling(self):
        import pickle

        err = BatchWorkerError("a.c", "RuntimeError: x")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.label == "a.c"
        assert "RuntimeError: x" in str(clone)

    def test_without_label_original_exception_propagates(self):
        with pytest.raises(RuntimeError, match="kaboom"):
            dispatch_map(_explode, ["bad"])

    def test_batch_outcome_reports_filename_for_internal_errors(self):
        from repro.pipeline.batch import transform_batch
        from repro.pipeline.passes import Pass

        def boom(ctx):
            raise RuntimeError("pass exploded")

        manager = PassManager(
            passes=[Pass(name="parse", build=boom)]
        )
        (outcome,) = transform_batch(
            [("int x;", "broken.c")], manager=manager
        )
        assert not outcome.ok
        assert outcome.filename == "broken.c"
        assert "internal error" in outcome.error
        assert "pass exploded" in outcome.error


class TestPerfArtifact:
    def test_json_roundtrip(self, tmp_path):
        from repro.artifact import write_artifact
        from repro.report.perf import SCHEMA, sweep_to_dict

        sweep = run_sweep(
            [DEFAULT_PLATFORM, "gh200-unified"], names=["bfs"]
        )
        path = tmp_path / "suite.json"
        write_artifact(sweep_to_dict(sweep), str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA
        assert [p["name"] for p in payload["platforms"]] == [
            DEFAULT_PLATFORM, "gh200-unified",
        ]
        bfs = payload["results"][DEFAULT_PLATFORM]["benchmarks"]["bfs"]
        assert bfs["outputs_match"] is True
        assert bfs["speedup_x"] > 1.0
        assert bfs["variants"]["unoptimized"]["h2d_bytes"] > 0
        assert bfs["tool"]["pass_timings"]
        geo = payload["results"]["gh200-unified"]["geomeans"]
        assert geo["speedup_x"] == pytest.approx(1.0)

    def test_cross_platform_figure(self):
        from repro.report import figure_cross_platform

        sweep = run_sweep(
            [DEFAULT_PLATFORM, "gh200-unified"], names=["bfs"]
        )
        series, text = figure_cross_platform(sweep)
        assert "bfs" in series
        assert DEFAULT_PLATFORM in text and "gh200-unified" in text
        assert "(geomean)" in text
        assert "unified-memory" in text


class TestCLI:
    def test_list_platforms_all_entry_points(self, capsys):
        from repro.cli import main

        for argv in (
            ["--list-platforms"],
            ["batch", "--list-platforms"],
            ["suite", "--list-platforms"],
        ):
            assert main(argv) == 0
            out = capsys.readouterr().out
            for name in PLATFORMS:
                assert name in out

    def test_missing_input_is_usage_error(self, capsys):
        from repro.cli import main

        assert main([]) == 2
        assert "input file is required" in capsys.readouterr().err

    def test_unknown_platform_is_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "x.c"
        src.write_text("int main() { return 0; }\n")
        assert main([str(src), "--platform", "nope"]) == 2
        assert "unknown platform" in capsys.readouterr().err

    def test_run_simulate(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "in.c"
        src.write_text(
            "int a[4];\nint main() {\n"
            "  a[0] = 1;\n"
            "  #pragma omp target\n"
            "  for (int i = 0; i < 4; i++) a[i] += i;\n"
            '  printf("%d\\n", a[0]);\n  return 0;\n}\n'
        )
        rc = main([str(src), "-o", str(tmp_path / "out.c"), "--simulate",
                   "--platform", "h100-sxm5"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "simulated on h100-sxm5" in captured.err

    def test_suite_json_and_sweep(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "suite.json"
        rc = main([
            "suite", "--benchmarks", "bfs",
            "--platform", "a100-pcie4", "--platform", "gh200-unified",
            "--json", str(path),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert path.exists()
        assert "Cross-platform sweep" in captured.out
        assert "geomean speedup" in captured.out

    def test_suite_unknown_benchmark(self, capsys):
        from repro.cli import main

        assert main(["suite", "--benchmarks", "nope"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_suite_repeated_platform_deduped(self, capsys):
        from repro.cli import main

        rc = main([
            "suite", "--benchmarks", "bfs",
            "--platform", "a100-pcie4", "--platform", "a100-pcie4",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        # deduped to a single-platform run: no cross-platform table
        assert "Cross-platform sweep" not in captured.out

    def test_suite_bad_json_dir_fails_before_sweep(self, tmp_path, capsys):
        from repro.cli import main

        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main([
            "suite", "--benchmarks", "bfs",
            "--json", str(blocker / "sub" / "out.json"),
        ])
        assert rc == 2
        assert "cannot create" in capsys.readouterr().err

    def test_suite_json_creates_parent_dir(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "artifacts" / "suite.json"
        assert main(["suite", "--benchmarks", "bfs", "--json", str(path)]) == 0
        assert path.exists()

    def test_suite_parallel_worker_failure_is_clean(self, capsys, monkeypatch):
        import repro.suite.runner as runner_mod
        from repro.cli import main

        def explode(manager, job):
            raise RuntimeError("worker blew up")

        monkeypatch.setattr(runner_mod, "_sweep_job", explode)
        rc = main(["suite", "--benchmarks", "bfs", "-j", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "benchmark 'bfs'" in captured.err
        assert "worker blew up" in captured.err
