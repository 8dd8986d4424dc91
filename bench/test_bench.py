"""Self-test of the benchmark harness at tiny sizes (``run.py --smoke``).

Checks what the benchmark promises whoever runs it: every
workload prints exactly the metrics BENCHMARK.json declares, no
operation fails, counts repeat for a seed, the inputs are the pinned
ones, a wrong output fails the run, traces are valid trace-event JSON,
and a checkout without the program refuses to run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
#: Per-layer metrics that count work; a traced run's inputs are fixed,
#: so they repeat exactly for a seed.
EXACT_UNITS = ("count", "x")


def bench(*args: str, **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def by_workload(result: dict) -> dict[str, dict[str, dict]]:
    out: dict[str, dict[str, dict]] = {w: {} for w in WORKLOADS}
    for key, metric in result["metrics"].items():
        workload, name = key.split(".", 1)
        out[workload][name] = metric
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and two traced smoke runs of every workload, run
    side by side (the numbers are not looked at, only their shape)."""
    traces = {k: tmp_path_factory.mktemp(k) for k in ("traced", "again")}
    procs = {
        "untraced": bench("--smoke", "--seed", "3", "--seconds", "0.1"),
        **{
            key: bench("--smoke", "--seed", "3", "--trace", "1",
                       "--trace-dir", str(path))
            for key, path in traces.items()
        },
    }
    out = {}
    for key, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        out[key] = by_workload(last_json(stdout)), last_json(stdout)
    out["trace_dir"] = traces["traced"]
    return out


@pytest.mark.parametrize("mode,section", [
    ("untraced", "end_to_end"), ("traced", "per_layer"),
])
def test_each_workload_reports_exactly_the_declared_metrics(
        runs, mode, section):
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload, metrics in runs[mode][0].items():
        assert set(metrics) == set(declared), workload
        for name, metric in metrics.items():
            assert NAME.match(name)
            assert metric["unit"] == declared[name]


def test_no_operation_fails(runs):
    for mode in ("untraced", "traced", "again"):
        result = runs[mode][1]
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= len(WORKLOADS)


def test_counts_repeat_for_a_seed(runs):
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
    first, second = runs["traced"][0], runs["again"][0]
    for workload in WORKLOADS:
        for name in exact:
            assert first[workload][name] == second[workload][name], (
                workload, name)


def test_end_to_end_metrics_are_never_zero(runs):
    for workload, metrics in runs["untraced"][0].items():
        for name, metric in metrics.items():
            assert metric["value"] > 0, (workload, name)


def test_trace_files_are_trace_event_json_whose_parents_resolve(runs):
    for workload in WORKLOADS:
        path = runs["trace_dir"] / f"trace-{workload}-3.json"
        trace = json.loads(path.read_text())
        assert trace["otherData"]["schema"] == "ompdart-trace/1"
        events = {e["args"]["span_id"]: e for e in trace["traceEvents"]}
        assert len(events) == len(trace["traceEvents"]) > 0
        for event in events.values():
            assert event["ph"] == "X" and event["dur"] >= 0
            parent = event["args"]["parent_id"]
            if parent is not None:
                assert event["args"]["trace_id"] == (
                    events[parent]["args"]["trace_id"])
                assert events[parent]["ts"] <= event["ts"]


def test_seed0_corpus_digests_are_pinned():
    for workload in WORKLOADS:
        found = corpus.digest(
            corpus.generate(workloads.corpus_size(workload), 0))
        assert found == workloads.SEED0_DIGESTS[workload], workload


def test_corpus_is_prefix_stable_with_exact_duplicate_share():
    long = corpus.generate(200, 7)
    assert corpus.generate(60, 7) == long[:60]
    assert len(corpus.distinct(long)) == 200 - 70


def test_a_wrong_output_fails_the_run():
    code = (
        f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]\n"
        "import corpus, workloads\n"
        "workloads.expected_transforms = lambda: dict.fromkeys(\n"
        "    corpus.PROGRAMS, 'not the output')\n"
        "import run\n"
        "sys.exit(run.main(['--smoke', '--workload', 'transform-cold',\n"
        "                   '--seconds', '0.2']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert result["failed"] > 0


def test_no_process_outlives_a_run(tmp_path):
    # A cache dir starts shared memory and with it a resource tracker.
    proc = bench("--smoke", "--workload", "transform-warm", "--seconds",
                 "0.2", cwd=tmp_path)
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    left = []
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and (entry / "cwd").resolve() == tmp_path.resolve():
                left.append((entry / "cmdline").read_bytes())
        except OSError:
            continue
    assert left == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "transform-cold"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
