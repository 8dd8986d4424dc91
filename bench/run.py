#!/usr/bin/env python3
"""Run the OMPDart benchmark from the root of a checkout.

    python3 bench/run.py [--workload W]... [--seed N] [--seconds S]
                         [--trace 0|1] [--trace-dir DIR] [--repeat R]
                         [--baseline FILE] [--smoke]

One workload and one repeat run in this process.  It prints one
``workload metric value unit [n=samples]`` line per metric, then, as the
last line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics that
BENCHMARK.json declares; ``--trace 1`` reports its per-layer metrics and
writes the spans to ``DIR/trace-<workload>-<seed>.json``.

Several workloads or ``--repeat R`` run each (workload, seed) pair as a
fresh ``run.py`` process, for seeds N .. N+R-1, and print every metric's
median, quartiles, quartile spread and largest deviation from the
median.  ``--baseline FILE`` also writes them as a calibration record.

The exit code is 0 when every output checked out, 1 when any check
failed, and 2 when the benchmark could not run (no program source, a
changed input generator, a harness error).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", type=Path,
                        default=ROOT / ".bench_work",
                        help="where traced runs write their spans")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds N .. N+R-1")
    parser.add_argument("--baseline", type=Path,
                        help="write the repeated runs' spread here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the harness self-test")
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return args


def run_one(args: argparse.Namespace, spec: dict) -> int:
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import corpus
    import workloads

    workload = args.workload[0]
    if not args.smoke:
        pinned = workloads.SEED0_DIGESTS[workload]
        found = corpus.digest(
            corpus.generate(workloads.corpus_size(workload), 0))
        if found != pinned:
            print(f"bench: the seed-0 {workload} corpus hashes to {found}, "
                  f"not the pinned {pinned}", file=sys.stderr)
            return 2
    traced = bool(args.trace)
    trace_file = args.trace_dir / f"trace-{workload}-{args.seed}.json"
    workloads.adopt_orphans()
    try:
        result = workloads.run(workload, args.seed, args.seconds, traced,
                               args.smoke, trace_file if traced else None)
    except workloads.BenchError as exc:
        print(f"bench: {workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        # No process the run started may outlive it.
        workloads.reap_children()

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(result.metrics) - set(units))
    if unknown:
        print(f"bench: undeclared metrics {unknown}", file=sys.stderr)
        return 2
    metrics = {}
    for entry in spec["per_layer" if traced else "end_to_end"]:
        name = entry["name"]
        if name in result.metrics:
            value, samples = result.metrics[name]
        elif traced:
            value, samples = 0.0, 0  # a layer this workload bypasses
        else:
            print(f"bench: {workload} measured no {name}", file=sys.stderr)
            return 2
        print(f"{workload} {name} {value:.6g} {entry['unit']} [n={samples}]")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    for problem in result.problems:
        print(f"bench: {workload}: FAILED {problem}", file=sys.stderr)
    if traced:
        print(f"bench: spans written to {trace_file}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.failed == 0 else 1


def spread(values: list[float]) -> dict:
    """Median, quartiles, quartile spread and largest deviation."""
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4)
                 if len(values) > 1 else (median, median, median))
    scale = abs(median) or 1.0
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / scale,
        "max_dev": max(abs(v - median) for v in values) / scale,
        "values": values,
    }


def run_many(args: argparse.Namespace, spec: dict) -> int:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, dict[str, list[float]]] = {
        w: {} for w in args.workload
    }
    correct, attempted, failed, code = True, 0, 0, 0
    # Seed-major order spreads a slow spell of the host over every
    # workload instead of over one workload's runs.
    for seed in range(args.seed, args.seed + args.repeat):
        for workload in args.workload:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--trace-dir", str(args.trace_dir),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            code = max(code, proc.returncode)
            if proc.returncode == 2 or not lines:
                continue
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    summary = {
        workload: {name: spread(v) for name, v in metrics.items()}
        for workload, metrics in values.items()
    }
    if args.repeat > 1:
        for workload, metrics in summary.items():
            for name, s in metrics.items():
                print(f"{workload} {name} median {s['median']:.6g} "
                      f"{units[name]} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.4f} max_dev {s['max_dev']:.4f} "
                      f"[n={len(s['values'])}]")
    if args.baseline is not None:
        args.baseline.write_text(json.dumps({
            "repeat": args.repeat,
            "seeds": [args.seed, args.seed + args.repeat - 1],
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "workloads": summary,
        }, indent=1) + "\n")
    print(json.dumps({
        "correct": correct and code == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            f"{workload}.{name}": {"value": s["median"], "unit": units[name]}
            for workload, metrics in summary.items()
            for name, s in metrics.items()
        },
    }))
    return code


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if len(args.workload) == 1 and args.repeat == 1:
        return run_one(args, spec)
    return run_many(args, spec)


if __name__ == "__main__":
    sys.exit(main())
