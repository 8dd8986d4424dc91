"""Tests for the suite-diff regression gate, the compressed artifact
cache, and the process-based variant pool's wall-time stamping."""

import copy
import json
import pickle
import zlib

import pytest

from repro.pipeline.artifacts import record_filename
from repro.pipeline.cache import MISS, ArtifactCache
from repro.pipeline.store import spill_stats
from repro.report.diff import diff_payloads, render_diff
from repro.report.perf import sweep_to_dict
from repro.suite.runner import run_benchmark, run_sweep


@pytest.fixture(scope="module")
def baseline_payload():
    sweep = run_sweep(["a100-pcie4"], names=["accuracy", "xsbench"])
    return sweep_to_dict(sweep)


# ---------------------------------------------------------------------------
# diff_payloads
# ---------------------------------------------------------------------------


class TestSuiteDiff:
    def test_identical_artifacts_pass(self, baseline_payload):
        result = diff_payloads(baseline_payload, baseline_payload)
        assert result.ok
        assert result.compared > 0
        assert not result.regressions and not result.missing

    def test_byte_inflation_is_a_regression(self, baseline_payload):
        cand = copy.deepcopy(baseline_payload)
        variant = cand["results"]["a100-pcie4"]["benchmarks"]["accuracy"][
            "variants"
        ]["ompdart"]
        variant["h2d_bytes"] = variant["h2d_bytes"] * 3
        result = diff_payloads(baseline_payload, cand)
        assert not result.ok
        assert any(d.metric == "h2d_bytes" for d in result.regressions)

    def test_speedup_drop_is_a_regression(self, baseline_payload):
        cand = copy.deepcopy(baseline_payload)
        run = cand["results"]["a100-pcie4"]["benchmarks"]["xsbench"]
        run["speedup_x"] = run["speedup_x"] * 0.5
        result = diff_payloads(baseline_payload, cand)
        assert any(d.metric == "speedup_x" for d in result.regressions)

    def test_speedup_gain_is_an_improvement_not_failure(self, baseline_payload):
        cand = copy.deepcopy(baseline_payload)
        run = cand["results"]["a100-pcie4"]["benchmarks"]["xsbench"]
        run["speedup_x"] = run["speedup_x"] * 2.0
        result = diff_payloads(baseline_payload, cand)
        assert result.ok
        assert any(d.metric == "speedup_x" for d in result.improvements)

    def test_tolerance_suppresses_small_drift(self, baseline_payload):
        cand = copy.deepcopy(baseline_payload)
        variant = cand["results"]["a100-pcie4"]["benchmarks"]["accuracy"][
            "variants"
        ]["expert"]
        variant["transfer_time_s"] *= 1.005  # 0.5% worse
        assert diff_payloads(baseline_payload, cand, tolerance=0.01).ok
        assert not diff_payloads(baseline_payload, cand, tolerance=0.001).ok

    def test_missing_benchmark_is_a_regression(self, baseline_payload):
        cand = copy.deepcopy(baseline_payload)
        del cand["results"]["a100-pcie4"]["benchmarks"]["xsbench"]
        result = diff_payloads(baseline_payload, cand)
        assert not result.ok
        assert any("xsbench" in entry for entry in result.missing)

    def test_missing_platform_is_a_regression(self, baseline_payload):
        cand = copy.deepcopy(baseline_payload)
        cand["results"] = {}
        result = diff_payloads(baseline_payload, cand)
        assert any("a100-pcie4" in entry for entry in result.missing)

    def test_outputs_match_flip_is_a_regression(self, baseline_payload):
        cand = copy.deepcopy(baseline_payload)
        cand["results"]["a100-pcie4"]["benchmarks"]["accuracy"][
            "outputs_match"
        ] = False
        result = diff_payloads(baseline_payload, cand)
        assert any("outputs no longer match" in entry for entry in result.missing)

    def test_wall_time_noise_is_ignored(self, baseline_payload):
        cand = copy.deepcopy(baseline_payload)
        for run in cand["results"]["a100-pcie4"]["benchmarks"].values():
            for variant in run["variants"].values():
                variant["sim_wall_s"] = variant["sim_wall_s"] * 100 + 5.0
                variant["vectorized_launches"] = 0
        assert diff_payloads(baseline_payload, cand).ok

    def test_non_artifact_schema_rejected(self, baseline_payload):
        with pytest.raises(ValueError, match="schema"):
            diff_payloads({"schema": "something-else/9"}, baseline_payload)

    def test_ratio_reaching_infinity_is_an_improvement(self, baseline_payload):
        """perf._finite serializes inf as null; for lower-is-worse
        ratios that is the best possible value, not a lost metric."""
        cand = copy.deepcopy(baseline_payload)
        cand["results"]["a100-pcie4"]["benchmarks"]["accuracy"][
            "transfer_time_improvement_x"
        ] = None
        result = diff_payloads(baseline_payload, cand)
        assert result.ok
        assert any(
            d.metric == "transfer_time_improvement_x"
            for d in result.improvements
        )

    def test_ratio_leaving_infinity_is_a_regression(self, baseline_payload):
        base = copy.deepcopy(baseline_payload)
        base["results"]["a100-pcie4"]["benchmarks"]["accuracy"][
            "transfer_time_improvement_x"
        ] = None
        result = diff_payloads(base, baseline_payload)
        assert any(
            d.metric == "transfer_time_improvement_x"
            for d in result.regressions
        )

    def test_absent_ratio_key_is_a_regression_not_an_improvement(
        self, baseline_payload
    ):
        """A candidate that silently drops speedup_x must fail the gate
        — only an explicit null means 'improved to infinity'."""
        cand = copy.deepcopy(baseline_payload)
        del cand["results"]["a100-pcie4"]["benchmarks"]["xsbench"]["speedup_x"]
        result = diff_payloads(baseline_payload, cand)
        assert not result.ok
        assert any("speedup_x" in entry for entry in result.missing)

    def test_new_metric_in_candidate_does_not_fail_old_baseline(
        self, baseline_payload
    ):
        base = copy.deepcopy(baseline_payload)
        del base["results"]["a100-pcie4"]["benchmarks"]["xsbench"]["speedup_x"]
        assert diff_payloads(base, baseline_payload).ok

    def test_malformed_artifact_is_a_clean_error(self, baseline_payload):
        bad = {"schema": "ompdart-suite-perf/1", "results": []}
        with pytest.raises(ValueError, match="malformed"):
            diff_payloads(baseline_payload, bad)
        with pytest.raises(ValueError, match="malformed"):
            diff_payloads(bad, baseline_payload)

    def test_render_mentions_verdict(self, baseline_payload):
        text = render_diff(diff_payloads(baseline_payload, baseline_payload))
        assert "suite-diff: OK" in text


class TestSuiteDiffCLI:
    def test_exit_codes(self, baseline_payload, tmp_path, capsys):
        from repro.cli import main

        base = tmp_path / "base.json"
        base.write_text(json.dumps(baseline_payload))
        cand = copy.deepcopy(baseline_payload)
        cand["results"]["a100-pcie4"]["benchmarks"]["accuracy"]["variants"][
            "unoptimized"
        ]["total_time_s"] *= 10
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cand))

        assert main(["suite-diff", str(base), str(base)]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["suite-diff", str(base), str(bad)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert main(["suite-diff", str(base), str(tmp_path / "nope.json")]) == 2
        assert main(["suite-diff", str(base), str(base), "--tolerance", "-1"]) == 2

    def test_non_artifact_inputs_exit_2(self, baseline_payload, tmp_path, capsys):
        """Both sides go through ``read_artifact``: a file that is not
        JSON and a JSON object of another schema are rejected by name."""
        from repro.cli import main

        base = tmp_path / "base.json"
        base.write_text(json.dumps(baseline_payload))
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json {")
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"schema": "ompdart-profile/1"}))
        capsys.readouterr()
        assert main(["suite-diff", str(garbage), str(base)]) == 2
        assert f"{garbage}: not a JSON artifact" in capsys.readouterr().err
        assert main(["suite-diff", str(base), str(other)]) == 2
        assert (
            f"{other} is not an ompdart-suite-perf artifact"
            in capsys.readouterr().err
        )

    def test_committed_baseline_matches_a_fresh_run(self, tmp_path):
        """The CI gate: regenerating the artifact must not regress
        against the committed baseline."""
        import pathlib

        from repro.cli import main

        committed = (
            pathlib.Path(__file__).parent.parent
            / "benchmarks"
            / "suite_a100-pcie4.json"
        )
        fresh = tmp_path / "fresh.json"
        assert main(["suite", "--json", str(fresh)]) == 0
        assert main(["suite-diff", str(committed), str(fresh)]) == 0


# ---------------------------------------------------------------------------
# Compressed disk cache
# ---------------------------------------------------------------------------


class TestCompressedCache:
    def test_spills_are_compressed_and_counted(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        artifact = {"nodes": list(range(500)), "text": "x" * 4000}
        raw_len = len(pickle.dumps(artifact, protocol=5))
        cache.put("parse", "k1", artifact)
        cache.commit("k1")
        census = spill_stats(tmp_path)
        assert census["files"] == census["records"] == 1
        assert 0 < census["bytes"] < raw_len

        # A fresh cache (cold memory) reads it back through zlib.
        other = ArtifactCache(disk_dir=tmp_path)
        assert other.get("parse", "k1") == artifact

    def test_corrupt_spill_is_a_miss(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        path = tmp_path / record_filename("bad")
        path.write_bytes(zlib.compress(b"not a pickle"))
        assert cache.get("parse", "bad") is MISS

    def test_memory_only_cache_counts_no_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ArtifactCache()
        cache.put("parse", "k", 1)
        cache.commit("k")
        assert cache.get("parse", "k") == 1
        assert spill_stats(tmp_path)["bytes"] == 0
        assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# Per-variant wall-time stamping
# ---------------------------------------------------------------------------


class TestVariantPool:
    def test_wall_time_recorded_on_every_variant(self):
        run = run_benchmark("accuracy")
        for result in (run.unoptimized, run.ompdart, run.expert):
            assert result.wall_time_s > 0.0

    def test_artifact_carries_wall_time_and_vectorization(
        self, baseline_payload
    ):
        variants = baseline_payload["results"]["a100-pcie4"]["benchmarks"][
            "xsbench"
        ]["variants"]
        for profile in variants.values():
            assert profile["sim_wall_s"] > 0.0
            assert (
                profile["vectorized_launches"] == profile["kernel_launches"]
            )

    def test_no_vectorize_threads_through_run_all(self):
        for vectorize, jobs in ((False, 1), (True, 1), (False, 2)):
            sweep = run_sweep(
                ["a100-pcie4"], names=["xsbench", "bfs"],
                vectorize=vectorize, jobs=jobs,
            )
            for run in sweep["a100-pcie4"].runs.values():
                launches = run.ompdart.vectorized_launches
                assert (launches > 0) == vectorize, (vectorize, jobs)


# ---------------------------------------------------------------------------
# Vectorizer-coverage gate (phase 2)
# ---------------------------------------------------------------------------


class TestCoverageGate:
    def test_artifact_carries_strategy_fields(self, baseline_payload):
        variants = baseline_payload["results"]["a100-pcie4"]["benchmarks"][
            "xsbench"
        ]["variants"]
        for profile in variants.values():
            assert profile["vector_strategy"] == "codegen"
            assert profile["fallback_reason"] is None
            assert profile["strategy_launches"] == {
                "codegen": profile["kernel_launches"]
            }

    def test_regression_to_interpreter_fails(self, baseline_payload):
        cand = copy.deepcopy(baseline_payload)
        variant = cand["results"]["a100-pcie4"]["benchmarks"]["xsbench"][
            "variants"
        ]["ompdart"]
        variant["vector_strategy"] = "interpreter"
        result = diff_payloads(baseline_payload, cand)
        assert not result.ok
        assert any("strategy downgrade" in entry for entry in result.missing)

    def test_strategy_downgrade_fails(self, baseline_payload):
        cand = copy.deepcopy(baseline_payload)
        variant = cand["results"]["a100-pcie4"]["benchmarks"]["xsbench"][
            "variants"
        ]["ompdart"]
        variant["vector_strategy"] = "masked"  # straight -> masked
        result = diff_payloads(baseline_payload, cand)
        assert not result.ok
        assert any("strategy downgrade" in entry for entry in result.missing)

    def test_strategy_upgrade_is_an_improvement(self, baseline_payload):
        base = copy.deepcopy(baseline_payload)
        variant = base["results"]["a100-pcie4"]["benchmarks"]["xsbench"][
            "variants"
        ]["ompdart"]
        variant["vector_strategy"] = "masked"
        result = diff_payloads(base, baseline_payload)
        assert result.ok
        assert any(
            d.metric == "vector_strategy" for d in result.improvements
        )

    def test_missing_strategy_field_is_a_regression(self, baseline_payload):
        cand = copy.deepcopy(baseline_payload)
        variant = cand["results"]["a100-pcie4"]["benchmarks"]["xsbench"][
            "variants"
        ]["ompdart"]
        del variant["vector_strategy"]
        result = diff_payloads(baseline_payload, cand)
        assert not result.ok
        assert any("vector_strategy" in entry for entry in result.missing)

    def test_pre_phase2_baseline_offers_nothing_to_gate(
        self, baseline_payload
    ):
        base = copy.deepcopy(baseline_payload)
        base["schema"] = "ompdart-suite-perf/1"
        for run in base["results"]["a100-pcie4"]["benchmarks"].values():
            for profile in run["variants"].values():
                profile.pop("vector_strategy", None)
                profile.pop("fallback_reason", None)
                profile.pop("strategy_launches", None)
        result = diff_payloads(base, baseline_payload)
        assert result.ok

    def test_committed_baseline_has_full_coverage(self):
        with open("benchmarks/suite_a100-pcie4.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["schema"] == "ompdart-suite-perf/4"
        for sweep in payload["results"].values():
            for run in sweep["benchmarks"].values():
                for profile in run["variants"].values():
                    assert profile["fallback_reason"] is None
                    assert (
                        profile["vectorized_launches"]
                        == profile["kernel_launches"]
                    )
                    assert profile["vector_strategy"] != "interpreter"
