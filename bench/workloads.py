"""The benchmark's four workloads.

Each workload drives the program only through public entry points
(``transform_batch``, ``OMPDart.run``, ``PassManager.run``,
``run_simulation``, and ``ompdart serve`` over HTTP with
``LoadClient``) and checks every output it gets back.

An untraced run measures the end-to-end metrics for ``seconds`` of
timed work.  A traced run measures the per-layer metrics instead.  It
processes a fixed input set untraced and then with spans (see
``spans.py``).  The difference between the two is the tracing
overhead, and the fixed inputs make every count repeat exactly for a
seed.
"""

from __future__ import annotations

import asyncio
import contextlib
import ctypes
import hashlib
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterator

import corpus
from spans import NullTracer, Tracer, traced_manager

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: cache directories and traces.
WORK = ROOT / ".bench_work"

PASSES = (
    "preprocess", "parse", "codegen", "constraints", "effects", "cfg",
    "plan", "rewrite",
)
STRATEGIES = ("codegen", "masked", "collapse", "wavefront")

#: What a fresh process imports before it can issue its first call.
TRANSFORM_IMPORTS = (
    "from repro.pipeline import ToolOptions; "
    "from repro.pipeline.batch import transform_batch"
)
SIMULATE_IMPORTS = (
    "from repro.core.tool import OMPDart; "
    "from repro.pipeline import PassManager, ToolOptions; "
    "from repro.runtime.interp import run_simulation"
)

#: Service load: connections held by the one client process.  A hot
#: request resends one of the last HOT_WINDOW cold bodies, well inside
#: the server's 256 retained jobs.
CONNECTIONS = 2
HOT_WINDOW = 64
#: Timed requests between two host-speed marks (about half a second),
#: four whole blocks of the plan.
CHUNK = 32
#: Every CHECK_EVERY-th cold request is re-derived with transform_one.
CHECK_EVERY = 50
#: simulate-verify reads peak memory once this many files are verified.
RSS_FILES = 117

#: The percentile latency_tail_ms reports.  It lies inside the slowest
#: program's share of the ops (lulesh: 1/9 of the files, 5/72 of the
#: requests): at the edge of that share a percentile jumps between two
#: programs' times.  A 20-second run leaves 7 to 14 samples beyond it
#: (170-270 files, 700-1100 requests, slow host to fast).  A transform
#: run makes 4-12 identical calls, too few for any tail, so it reports
#: their median.
TAIL = {
    "transform-cold": 50,
    "transform-warm": 50,
    "simulate-verify": 95,
    "serve-mixed": 99,
}


@dataclass(frozen=True)
class Sizes:
    setups: int            # fresh set-ups per run; setup_s is their median
    batch_files: int       # files per transform_batch call
    sim_files: int         # corpus files generated for simulate-verify
    trace_sim_files: int   # distinct files per traced-run phase
    serve_files: int       # corpus files available as cold requests
    trace_requests: int    # requests per traced-run phase


FULL = Sizes(5, 360, 2000, 117, 2000, 600)
#: Tiny inputs for the harness self-test; its numbers mean nothing.
SMOKE = Sizes(1, 9, 60, 2, 60, 8)

#: sha256 of each workload's seed-0 corpus at FULL size.
SEED0_DIGESTS = {
    "transform-cold": "6acbf6f89465b7a9862222c5156276545b222c22706c506d78b83204ef291ccc",
    "transform-warm": "6acbf6f89465b7a9862222c5156276545b222c22706c506d78b83204ef291ccc",
    "simulate-verify": "470d7a43359ee50140fac1f6118377c943d7fd9baa6dc22b9f0332dfcd97cf07",
    "serve-mixed": "470d7a43359ee50140fac1f6118377c943d7fd9baa6dc22b9f0332dfcd97cf07",
}


def corpus_size(workload: str) -> int:
    """Files in ``workload``'s corpus at FULL size."""
    if workload.startswith("transform"):
        return FULL.batch_files
    if workload == "simulate-verify":
        return FULL.sim_files
    return FULL.serve_files


class BenchError(RuntimeError):
    """The harness could not run the program at all."""


# -- host speed --------------------------------------------------------------

#: Iterations of the reference loop, about 4 ms of pure Python.
REFERENCE_ITERATIONS = 50_000
#: The reference loop's time on the host that every timing is scaled to
#: (its median on the 2-vCPU VM of bench/baseline.json).
REFERENCE_SECONDS = 0.004
#: Reference loops timed at each mark, per workload kind: a longer op
#: gets a longer mark (~5% of a transform call or a request chunk,
#: ~20% of a median simulated file).
TRANSFORM_REFERENCE = 40
SIMULATE_REFERENCE = 2
SERVE_REFERENCE = 4


def reference_seconds(repeats: int) -> float:
    """Mean time of ``repeats`` runs of the reference loop."""
    start = time.perf_counter()
    for _ in range(repeats):
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i * i % 7
    return (time.perf_counter() - start) / repeats


class HostSpeed:
    """Scales times measured on a host of varying speed to a fixed one.

    Each vCPU of a shared VM switches between a fast state and one about
    1.5x slower every few hundred milliseconds, and the share of slow
    time drifts over minutes.  Medians inside a run absorb the switching
    but not the drift.  So the reference loop is timed at a mark before
    each op and after the last, while the benchmark's processes do
    nothing else, and each op's time is scaled by ``REFERENCE_SECONDS``
    over the mean of the two marks around it.  Wall times are still
    what is measured; the scaling only removes the host's share.
    """

    def __init__(self, repeats: int):
        self.repeats = repeats
        self.marks: list[float] = []

    def mark(self) -> None:
        self.marks.append(reference_seconds(self.repeats))

    def factors(self) -> list[float]:
        """One factor per interval between consecutive marks."""
        return [2 * REFERENCE_SECONDS / (a + b)
                for a, b in zip(self.marks, self.marks[1:])]

    def rescale(self, seconds: list[float]) -> list[float]:
        """``seconds[i]`` was measured between marks ``i`` and ``i + 1``."""
        factors = self.factors()
        if len(factors) != len(seconds):
            raise BenchError("an op was timed without marks around it")
        return [s * f for s, f in zip(seconds, factors)]


class Run:
    """One workload run: its inputs, tracer, metrics and failures."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, sizes: Sizes, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.sizes = sizes
        self.scratch = scratch
        self.tracer: Tracer | NullTracer = Tracer() if traced else NullTracer()
        #: name -> (value, samples behind it)
        self.metrics: dict[str, tuple[float, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._dirs = 0

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (float(value), int(samples))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.scratch / f"d{self._dirs}"
        path.mkdir()
        return path

    def setups(self, start: Callable[[], float]) -> None:
        # Not scaled by HostSpeed: spawning and importing wait on the
        # kernel and the page cache more than on the interpreter, and
        # scaling made setup_s spread wider, not narrower.
        times = [start() for _ in range(self.sizes.setups)]
        self.put("setup_s", statistics.median(times), len(times))

    def latency(self, items_per_s: float, items: int,
                seconds: list[float]) -> None:
        """Throughput, and the median and tail of the ops' ``seconds``."""
        self.put("items_per_s", items_per_s, items)
        ms = [s * 1e3 for s in seconds]
        self.put("latency_p50_ms", percentile(ms, 50), len(ms))
        self.put("latency_tail_ms", percentile(ms, TAIL[self.workload]),
                 len(ms))

    def peak_rss(self, own: bool = True) -> None:
        """Peak RSS of this process (``own``) plus the largest reaped
        descendant's."""
        usage = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if own:
            usage += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.put("peak_rss_mb", usage / 1024)


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


#: prctl option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the parent of any descendant whose own parent exits first
    (Linux), such as the resource tracker of a stopped ``ompdart
    serve``, so that ``reap_children`` can wait for it."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return  # not Linux: orphans go to init
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, then ppid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def wait_children(skip: set, timeout: float) -> None:
    """Reap every child not in ``skip``; kill those still running after
    ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while pids := [p for p in children() if p not in skip]:
        late = time.monotonic() >= deadline
        for pid in pids:
            if late:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0 if late else os.WNOHANG)
        time.sleep(0.01)


def reap_children(timeout: float = 15.0) -> None:
    """Return only once every child of this process has exited.

    A cache directory makes the program create shared memory, which
    starts multiprocessing's resource tracker.  The tracker outlives
    its parent unless told to stop, so it is stopped here, after every
    other child (any of which may hold its pipe open) is gone.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    wait_children({getattr(tracker, "_pid", None)}, timeout)
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()
    wait_children(set(), timeout)


def import_setup(statement: str) -> float:
    """Seconds from spawning a fresh interpreter until its imports finish."""
    code = f"{statement}; print('ready', flush=True)"
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], env=child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"import probe failed: {statement}")
    return elapsed


# -- output oracles ----------------------------------------------------------

_SUFFIX = re.compile(r"_s[0-9a-f]{8}\b")
_CLAUSE_LIST = re.compile(r"\((\w+: )?([^()]*)\)")


def canonical(output: str, source: str) -> str:
    """``output`` with ``source``'s rename suffix removed.

    The planner sorts clause variables by name, and renaming can change
    that order, so each clause list on a pragma line is sorted too.
    """
    suffix = _SUFFIX.search(source)
    if suffix is not None:
        output = output.replace(suffix.group(0), "")
    lines = []
    for line in output.splitlines():
        if "#pragma omp" in line:
            line = _CLAUSE_LIST.sub(
                lambda m: "(%s%s)" % (
                    m.group(1) or "", ", ".join(sorted(m.group(2).split(", ")))
                ),
                line,
            )
        lines.append(line)
    return "\n".join(lines)


def expected_transforms() -> dict[str, str]:
    """Each program's transformed output, in canonical form."""
    from repro.pipeline.batch import transform_batch

    outcomes = transform_batch(
        [(corpus.program_source(p), f"{p}.c") for p in corpus.PROGRAMS]
    )
    return {
        p: canonical(o.output_source, "")
        for p, o in zip(corpus.PROGRAMS, outcomes)
    }


def check_transform_output(run: Run, expected: dict[str, str],
                           source: str, filename: str, output: str) -> None:
    if canonical(output, source) != expected[corpus.base_of(filename)]:
        run.fail(f"{filename}: output is not the renamed program's output")


def check_outcomes(run: Run, items: list[tuple[str, str]], outcomes: list,
                   expected: dict[str, str]) -> None:
    """Every file transformed, as its base program was; copies agree."""
    first: dict[str, str] = {}
    for (source, filename), outcome in zip(items, outcomes):
        if not outcome.ok:
            run.fail(f"{filename}: {outcome.error}")
            continue
        if first.setdefault(source, outcome.output_source) != (
            outcome.output_source
        ):
            run.fail(f"{filename}: differs from an identical input's output")
            continue
        check_transform_output(
            run, expected, source, filename, outcome.output_source
        )


def digests(outcomes: list) -> list[str]:
    return [
        hashlib.sha256((o.output_source or "").encode()).hexdigest()
        for o in outcomes
    ]


def compare(run: Run, items: list[tuple[str, str]], want: list[str],
            got: list[str], what: str) -> None:
    for (_, filename), a, b in zip(items, want, got):
        if a != b:
            run.fail(f"{filename}: output differs from {what}")


def count_cache(run: Run, events: list[str], origins: list[str]) -> None:
    """Cache counts from per-pass events ("hit"/"miss"/"uncached") and
    the tiers ("memory"/"disk"/"store") that served the hits."""
    lookups = sum(e in ("hit", "miss") for e in events)
    run.put("cache.lookups", lookups)
    run.put("cache.hit_ratio",
            events.count("hit") / lookups if lookups else 0.0, lookups)
    for tier in ("memory", "disk", "store"):
        run.put(f"cache.hits.{tier}", origins.count(tier))


def pipeline_layers(run: Run) -> None:
    """Pass self times, token rates and cache call times from spans."""
    tracer = run.tracer
    own = tracer.self_seconds()
    for name in PASSES:
        run.put(f"pass.{name}.s", own.get(f"pass.{name}", 0.0),
                len(tracer.named(f"pass.{name}")))
    run.put("pass.builds",
            sum(s.name.startswith("pass.") for s in tracer.spans))
    for metric, name in (("frontend.lex_tokens_per_s", "preprocess"),
                         ("frontend.parse_tokens_per_s", "parse")):
        spans = tracer.named(f"pass.{name}")
        seconds = sum(s.seconds for s in spans)
        tokens = sum(s.attrs["tokens"] for s in spans)
        run.put(metric, tokens / seconds if seconds else 0.0, len(spans))
    lookups = tracer.named("cache.lookup")
    hits = [s for s in lookups if s.attrs["origin"] is not None]
    misses = [s for s in lookups if s.attrs["origin"] is None]
    puts = tracer.named("cache.put")
    run.put("cache.read.s", sum(s.seconds for s in hits), len(hits))
    run.put("cache.miss.s", sum(s.seconds for s in misses), len(misses))
    run.put("cache.write.s", sum(s.seconds for s in puts), len(puts))


def spill_census(run: Run, cache_dir: str | None) -> None:
    if cache_dir is None:
        return
    from repro.pipeline.store import spill_stats

    stats = spill_stats(cache_dir)
    run.put("cache.spill_files", stats["files"])
    run.put("cache.spill_bytes", stats["bytes"])


# -- transform-cold / transform-warm -----------------------------------------


def transform(run: Run) -> None:
    """``ompdart batch -j 2``: one ``transform_batch`` call per op.

    Every call gets the same files in a fresh pool, so each is cold.
    On transform-warm each call also gets a fresh copy of a cache
    directory primed with the first half of the files.
    """
    from repro.pipeline.batch import transform_batch

    items = corpus.generate(run.sizes.batch_files, run.seed)
    primed: Path | None = None
    if run.workload == "transform-warm":
        primed = run.fresh_dir()
        start = time.perf_counter()
        transform_batch(items[: len(items) // 2], jobs=2, cache_dir=str(primed))
        run.put("cache.prime_s", time.perf_counter() - start)

    def cache_dir() -> str | None:
        if primed is None:
            return None
        path = run.fresh_dir()
        shutil.copytree(primed, path, dirs_exist_ok=True)
        return str(path)

    def timed(**kwargs: Any) -> tuple[list, float]:
        start = time.perf_counter()
        outcomes = transform_batch(items, **kwargs)
        return outcomes, time.perf_counter() - start

    # The parent process only dispatches: each call's pool pays the
    # workers' imports, as every `ompdart batch` run does.  Nothing
    # may run the pipeline in this process before the timed calls.
    if not run.traced:
        run.setups(lambda: import_setup(TRANSFORM_IMPORTS))
        speed = HostSpeed(TRANSFORM_REFERENCE)
        walls: list[float] = []
        first: list = []
        while sum(walls) < run.seconds:
            directory = cache_dir()
            speed.mark()
            outcomes, wall = timed(jobs=2, cache_dir=directory)
            walls.append(wall)
            run.attempted += len(items)
            if not first:
                first, first_digests = outcomes, digests(outcomes)
            else:
                compare(run, items, first_digests, digests(outcomes),
                        "the first call's")
        speed.mark()
        walls = speed.rescale(walls)
        # A median call resists the host's bursts of slowness.
        run.latency(len(items) / statistics.median(walls),
                    len(items) * len(walls), walls)
        run.peak_rss()  # before the checks below load this process
        checked = [first]
        expected = expected_transforms()
    else:
        # The measured configuration, untraced, gives the counts; a
        # serial call (spans need an in-process manager) then runs
        # untraced and traced, after expected_transforms() has warmed
        # this process up.
        directory = cache_dir()
        first, wall = timed(jobs=2, cache_dir=directory)
        reps = [o for o in first if o.deduped_from is None]
        run.put("batch.unique_inputs", len(reps))
        run.put("batch.deduped_inputs", len(first) - len(reps))
        run.put("batch.worker_busy_share",
                sum(o.elapsed_seconds for o in reps) / (wall * 2), len(reps))
        count_cache(run, [e for o in reps for e in o.cache_events.values()],
                    [t for o in reps for t in o.cache_origins.values()])
        spill_census(run, directory)
        expected = expected_transforms()
        serial, serial_wall = timed(jobs=1, cache_dir=cache_dir())
        manager = traced_manager(run.tracer, cache_dir())
        traced, traced_wall = timed(jobs=1, manager=manager)
        run.put("trace.overhead", 1 - serial_wall / traced_wall)
        pipeline_layers(run)
        run.attempted += 3 * len(items)
        checked = [first, serial, traced]
    for outcomes in checked:
        check_outcomes(run, items, outcomes, expected)
    if primed is not None:
        reference = digests(transform_batch(items, jobs=2))
        for outcomes in checked:
            compare(run, items, reference, digests(outcomes), "a no-cache run")


# -- simulate-verify ---------------------------------------------------------


def simulate(run: Run) -> None:
    """Transform each distinct file, simulate it before and after, and
    compare what the two print.  Serial, in one process."""
    from repro.core.tool import OMPDart
    from repro.pipeline import PassManager
    from repro.runtime.interp import run_simulation

    files = corpus.distinct(corpus.generate(run.sizes.sim_files, run.seed))

    def simulate_variant(manager, text: str, filename: str):
        ctx = manager.run(text, filename, until="codegen")
        return run_simulation(
            text, filename,
            tu=ctx.artifact("parse"), codegen_rows=ctx.artifact("codegen"),
        )

    # The nine programs, three variants each, untimed: the reference
    # stdout for every corpus file and the paper's modelled figures.
    stdout: dict[str, str] = {}
    ratios: dict[str, list[float]] = {"transfer": [], "speedup": [], "expert": []}
    for name in corpus.PROGRAMS:
        manager = PassManager()
        unoptimized = corpus.program_source(name)
        variants = {
            "unoptimized": unoptimized,
            "ompdart": OMPDart(pipeline=manager).run(
                unoptimized, f"{name}_unoptimized.c").output_source,
            "expert": corpus.program_source(name, "expert"),
        }
        results = {
            v: simulate_variant(manager, text, f"{name}_{v}.c")
            for v, text in variants.items()
        }
        run.attempted += 1
        if len({r.output for r in results.values()}) != 1:
            run.fail(f"{name}: the three variants print different output")
        stdout[name] = results["unoptimized"].output
        u, o, e = (results[v].stats for v in variants)
        ratios["transfer"].append(u.total_bytes / o.total_bytes)
        ratios["speedup"].append(u.total_time_s / o.total_time_s)
        ratios["expert"].append(e.total_time_s / o.total_time_s)
    run.put("sim.transfer_reduction_x", geomean(ratios["transfer"]), 9)
    run.put("sim.modelled_speedup_x", geomean(ratios["speedup"]), 9)
    run.put("sim.expert_ratio_x", geomean(ratios["expert"]), 9)

    def verify(manager, tracer, source: str, filename: str) -> None:
        run.attempted += 1
        try:
            with tracer.span("op.verify", trace=filename):
                with tracer.span("ompdart.run"):
                    output = OMPDart(pipeline=manager).run(
                        source, filename).output_source
                printed = []
                for variant, text, name in (
                    ("unoptimized", source, filename),
                    ("ompdart", output, f"ompdart_{filename}"),
                ):
                    with tracer.span("sim.prepare", variant=variant):
                        ctx = manager.run(text, name, until="codegen")
                    with tracer.span("sim.run", variant=variant) as span:
                        result = run_simulation(
                            text, name, tu=ctx.artifact("parse"),
                            codegen_rows=ctx.artifact("codegen"),
                        )
                    span.attrs.update(
                        strategy=result.vector_strategy,
                        launches=dict(result.strategy_launches),
                        memcpy_calls=result.stats.total_calls,
                        memcpy_bytes=result.stats.total_bytes,
                    )
                    printed.append(result.output)
        except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
            run.fail(f"{filename}: {type(exc).__name__}: {exc}")
            return
        if not printed[0] == printed[1] == stdout[corpus.base_of(filename)]:
            run.fail(f"{filename}: transformed program prints other output")

    if not run.traced:
        run.setups(lambda: import_setup(SIMULATE_IMPORTS))
        speed = HostSpeed(SIMULATE_REFERENCE)
        manager = PassManager()
        seconds: list[float] = []
        for source, filename in files:
            if sum(seconds) >= run.seconds:
                break
            speed.mark()
            start = time.perf_counter()
            verify(manager, run.tracer, source, filename)
            seconds.append(time.perf_counter() - start)
            if len(seconds) == RSS_FILES:
                # The program's caches grow with every file, so memory
                # is read after fixed work, not after however many
                # files the time allowed.
                run.peak_rss()
        if len(seconds) < RSS_FILES:
            run.peak_rss()
        speed.mark()
        seconds = speed.rescale(seconds)
        # Each file counts as its program's median time in this run, so
        # a burst of host slowness during a few files does not move it.
        by_program: dict[str, list[float]] = {}
        for (_, filename), s in zip(files, seconds):
            by_program.setdefault(corpus.base_of(filename), []).append(s)
        typical = sum(len(v) * statistics.median(v)
                      for v in by_program.values())
        run.latency(len(seconds) / typical, len(seconds), seconds)
        return

    count = run.sizes.trace_sim_files
    if len(files) < 2 * count:
        raise BenchError("simulate-verify corpus has too few distinct files")
    failed = run.failed
    start = time.perf_counter()
    manager = PassManager()
    for source, filename in files[:count]:
        verify(manager, NullTracer(), source, filename)
    untraced = time.perf_counter() - start
    start = time.perf_counter()
    manager = traced_manager(run.tracer)
    for source, filename in files[count: 2 * count]:
        verify(manager, run.tracer, source, filename)
    traced = time.perf_counter() - start
    run.put("trace.overhead", 1 - untraced / traced)
    run.put("sim.verify_mismatches", run.failed - failed, 2 * count)
    pipeline_layers(run)
    runtime_layers(run)


def runtime_layers(run: Run) -> None:
    """Simulator times, launches and transfers, and cache counts, from
    simulate-verify's spans."""
    tracer = run.tracer
    origins = [s.attrs["origin"] for s in tracer.named("cache.lookup")]
    count_cache(run, ["miss" if o is None else "hit" for o in origins],
                [o for o in origins if o is not None])
    sims = tracer.named("sim.run")
    sim_s = sum(s.seconds for s in sims)
    launches = sum(sum(s.attrs["launches"].values()) for s in sims)
    run.put("sim.s", sim_s, len(sims))
    run.put("sim.launches", launches)
    run.put("sim.us_per_launch", sim_s / launches * 1e6 if launches else 0.0,
            launches)
    for strategy in STRATEGIES + ("interpreter",):
        run.put(f"sim.{strategy}.launches",
                sum(s.attrs["launches"].get(strategy, 0) for s in sims))
    for strategy in STRATEGIES:
        mine = [s for s in sims if s.attrs["strategy"] == strategy]
        run.put(f"sim.{strategy}.s", sum(s.seconds for s in mine), len(mine))
    for variant in ("unoptimized", "ompdart"):
        mine = [s for s in sims if s.attrs["variant"] == variant]
        run.put(f"sim.memcpy_calls.{variant}",
                sum(s.attrs["memcpy_calls"] for s in mine))
        run.put(f"sim.memcpy_bytes.{variant}",
                sum(s.attrs["memcpy_bytes"] for s in mine))
    for metric, name in (("sim.prepare.s", "sim.prepare"),
                         ("sim.transform.s", "ompdart.run")):
        spans = tracer.named(name)
        run.put(metric, sum(s.seconds for s in spans), len(spans))


# -- serve-mixed -------------------------------------------------------------


class Server:
    """One ``ompdart serve`` child process with two pre-spawned workers."""

    def __init__(self, cache_dir: Path):
        self.ready_at: float | None = None
        self.port: int | None = None
        self.log: list[str] = []
        self._ready = threading.Event()
        self.started_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "-w", "2", "--cache-dir", str(cache_dir)],
            env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stderr:
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match and self.port is None:
                self.ready_at = time.perf_counter()
                self.port = int(match.group(1))
                self._ready.set()
            self.log.append(line)
        self._ready.set()

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until the server listened."""
        self._ready.wait(timeout)
        if self.port is None or self.ready_at is None:
            self.stop()
            raise BenchError("ompdart serve did not start: "
                             + "".join(self.log[-5:]))
        return self.ready_at - self.started_at

    def stop(self) -> None:
        """SIGINT (the operator's Ctrl-C), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)


@dataclass
class Request:
    index: int
    kind: str          # "cold", "hot" or "warm-up"
    file: int          # corpus index of the body sent
    start: float
    end: float
    status: int
    body: bytes

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @cached_property
    def result(self) -> dict | None:
        """The transform outcome, or None for any failed exchange.

        Parsed after the timed phase, so the client's JSON decoding is
        never inside a measured latency.
        """
        if self.status != 200:
            return None
        try:
            payload = json.loads(self.body)
        except ValueError:
            return None
        result = payload.get("result")
        if payload.get("state") != "done" or not result or not result.get("ok"):
            return None
        return result


def serve_plan(seed: int, files: int) -> list[tuple[str, int]]:
    """Seeded request order: each block of 8 holds 5 cold and 3 hot.

    A cold request sends the next unseen corpus file; a hot one resends
    one of the last HOT_WINDOW cold bodies exactly.  With half of each,
    the median would lie between the slowest hot and the fastest cold
    reply, two extremes; with 5 in 8 cold it is a typical cold one.
    """
    rng = random.Random(f"serve:{seed}")
    plan: list[tuple[str, int]] = []
    cold = 0
    while cold < files:
        block = ["cold"] * 5 + ["hot"] * 3
        rng.shuffle(block)
        for kind in block:
            if kind == "hot" and cold:
                plan.append(("hot", rng.randrange(max(0, cold - HOT_WINDOW), cold)))
            elif cold < files:
                plan.append(("cold", cold))
                cold += 1
    return plan


async def _drive(port: int, bodies: list[bytes], plan: list[tuple[str, int]],
                 indices: range, seconds: float | None,
                 tracer: Tracer | NullTracer,
                 speed: HostSpeed | None = None,
                 ) -> tuple[list[Request], list[float]]:
    """Closed loop: each connection sends the plan's next request only
    after its previous reply arrived.

    With ``speed``, the requests go in chunks of CHUNK with a mark
    between chunks, while the server is idle, and ``seconds`` of chunks
    are sent.  Returns the records and each chunk's wall time.
    """
    from repro.service.loadgen import LoadClient

    clients = [LoadClient("127.0.0.1", port) for _ in range(CONNECTIONS)]
    records: list[Request] = []
    walls: list[float] = []
    step = len(indices) if speed is None else CHUNK

    async def loop(client: LoadClient, cursor: Iterator[int]) -> None:
        for index in cursor:
            kind, file = plan[index]
            sent = time.perf_counter()
            try:
                response = await client.request("POST", "/run", bodies[file])
                status, body = response.status, response.body
            except (OSError, ValueError, asyncio.IncompleteReadError) as exc:
                status, body = 0, repr(exc).encode()
            done = time.perf_counter()
            tracer.record("http.request", f"request-{index}", sent, done,
                          kind=kind, status=status)
            records.append(Request(index, kind, file, sent, done, status, body))

    try:
        for low in range(0, len(indices), step):
            if seconds is not None and sum(walls) >= seconds:
                break
            if speed is not None:
                speed.mark()
            cursor = iter(indices[low: low + step])
            start = time.perf_counter()
            await asyncio.gather(*(loop(c, cursor) for c in clients))
            walls.append(time.perf_counter() - start)
        if speed is not None:
            speed.mark()
    finally:
        for client in clients:
            await client.aclose()
    return sorted(records, key=lambda r: r.index), walls


async def _get_stats(port: int) -> dict:
    from repro.service.loadgen import LoadClient

    client = LoadClient("127.0.0.1", port)
    try:
        return (await client.request("GET", "/stats")).json()
    finally:
        await client.aclose()


def warm_up(port: int) -> None:
    """Untimed: the nine programs once each, so both workers have done
    their lazy imports, as on a server that has been up a while."""
    bodies = [
        json.dumps({"kind": "transform", "source": corpus.program_source(p),
                    "filename": f"warmup_{p}.c"}).encode()
        for p in corpus.PROGRAMS
    ]
    plan = [("warm-up", i) for i in range(len(bodies))]
    records, _ = asyncio.run(_drive(
        port, bodies, plan, range(len(plan)), None, NullTracer()))
    if any(r.result is None for r in records):
        raise BenchError("warm-up requests failed")


def check_served(run: Run, records: list[Request],
                 files: list[tuple[str, str]]) -> None:
    """Replies ok; hot replies equal their cold one; every output is the
    renamed program's; every CHECK_EVERY-th cold file is re-derived
    in-process with ``transform_one``."""
    from repro.pipeline import PassManager, ToolOptions
    from repro.pipeline.batch import transform_one

    expected = expected_transforms()
    cold: dict[int, str] = {}
    for record in records:
        source, filename = files[record.file]
        result = record.result
        if result is None:
            run.fail(f"request {record.index}: status {record.status}")
            continue
        output = result["output_source"]
        if record.kind == "cold":
            cold[record.file] = output
            check_transform_output(run, expected, source, filename, output)
        elif cold.get(record.file, output) != output:
            run.fail(f"request {record.index}: hot reply differs from cold")
    manager = PassManager()
    for file, output in cold.items():
        if file % CHECK_EVERY == 0:
            source, filename = files[file]
            direct = transform_one(manager, source, filename, ToolOptions())
            if direct.output_source != output:
                run.fail(f"{filename}: served output differs from transform_one")


def serve(run: Run) -> None:
    """``ompdart serve`` under a closed loop of half cold, half hot
    ``POST /run`` transform requests from one client process."""
    files = corpus.generate(run.sizes.serve_files, run.seed)
    plan = serve_plan(run.seed, len(files))
    bodies = [
        json.dumps({"kind": "transform", "source": s, "filename": f}).encode()
        for s, f in files
    ]
    if not run.traced:
        servers: list[Server] = []  # the one running, once started

        def start() -> float:
            if servers:
                servers.pop().stop()
            servers.append(Server(run.fresh_dir()))
            return servers[-1].wait_ready()

        speed = HostSpeed(SERVE_REFERENCE)
        try:
            run.setups(start)
            warm_up(servers[0].port)
            records, walls = asyncio.run(_drive(
                servers[0].port, bodies, plan, range(len(plan)), run.seconds,
                run.tracer, speed,
            ))
        finally:
            for server in servers:
                server.stop()
        run.attempted += len(records)
        factors = speed.factors()
        run.latency(len(records) / sum(speed.rescale(walls)), len(records),
                    [r.seconds * factors[r.index // CHUNK] for r in records])
        # The server's process tree only: the client is the harness.
        run.peak_rss(own=False)
        check_served(run, records, files)
        return

    count = run.sizes.trace_requests
    cache_dir = run.fresh_dir()
    server = Server(cache_dir)
    server.wait_ready()
    try:
        warm_up(server.port)
        untraced, untraced_wall = asyncio.run(_drive(
            server.port, bodies, plan, range(count), None, NullTracer()))
        before = asyncio.run(_get_stats(server.port))
        traced, traced_wall = asyncio.run(_drive(
            server.port, bodies, plan, range(count, 2 * count), None,
            run.tracer))
        after = asyncio.run(_get_stats(server.port))
    finally:
        server.stop()
    run.attempted += len(untraced) + len(traced)
    run.put("trace.overhead", 1 - sum(untraced_wall) / sum(traced_wall))
    serve_layers(run, untraced, traced, before, after)
    spill_census(run, str(cache_dir))
    check_served(run, untraced + traced, files)


def serve_layers(run: Run, untraced: list[Request], traced: list[Request],
                 before: dict, after: dict) -> None:
    def results(records: list[Request], kind: str) -> list[tuple[Request, dict]]:
        return [(r, r.result) for r in records
                if r.kind == kind and r.result is not None]

    cold = results(untraced, "cold")
    hot = results(untraced, "hot")
    cold_ms = [r.seconds * 1e3 for r, _ in cold]
    run.put("serve.cold_p50_ms", percentile(cold_ms, 50), len(cold_ms))
    run.put("serve.cold_p95_ms", percentile(cold_ms, 95), len(cold_ms))
    hot_ms = [r.seconds * 1e3 for r, _ in hot]
    run.put("serve.hot_p50_ms", percentile(hot_ms, 50), len(hot_ms))
    run.put("serve.overhead_ms", statistics.median(
        (r.seconds - res["elapsed_seconds"]) * 1e3 for r, res in cold
    ), len(cold))

    executed = [res for _, res in results(traced, "cold")]
    for name in PASSES:
        run.put(f"pass.{name}.s",
                sum(res["timings"].get(name, 0.0) for res in executed),
                len(executed))
    run.put("pass.builds", sum(
        e == "miss" for res in executed for e in res["cache_events"].values()
    ))
    count_cache(run,
                [e for res in executed for e in res["cache_events"].values()],
                [t for res in executed for t in res["cache_origins"].values()])

    def delta(*path: str) -> float:
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    samples = delta("latency", "samples")

    def delta_mean_ms(key: str) -> float:
        total = (after["latency"][key] * after["latency"]["samples"]
                 - before["latency"][key] * before["latency"]["samples"])
        return total / samples * 1e3 if samples else 0.0

    run_ms = delta_mean_ms("run_mean_s")
    run.put("scheduler.queue_wait_ms", delta_mean_ms("queue_wait_mean_s"),
            samples)
    run.put("scheduler.run_ms", run_ms, samples)
    run.put("supervisor.ipc_ms", run_ms - statistics.mean(
        res["elapsed_seconds"] for res in executed) * 1e3, samples)
    for counter in ("executed", "deduplicated", "evicted", "rejected"):
        run.put(f"scheduler.{counter}", delta(counter))
    run.put("supervisor.restarts", delta("supervisor", "restarts"))
    memo_hits = delta("http", "result_cache_hits")
    memo_total = memo_hits + delta("http", "result_cache_misses")
    run.put("http.result_memo_ratio",
            memo_hits / memo_total if memo_total else 0.0, memo_total)


RUNNERS: dict[str, Callable[[Run], None]] = {
    "transform-cold": transform,
    "transform-warm": transform,
    "simulate-verify": simulate,
    "serve-mixed": serve,
}


def run(workload: str, seed: int, seconds: float, traced: bool,
        smoke: bool = False, trace_file: Path | None = None) -> Run:
    """Run one workload in this process and return its metrics."""
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    current = Run(workload, seed, seconds, traced, SMOKE if smoke else FULL,
                  scratch)
    try:
        RUNNERS[workload](current)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if traced:
        current.put("trace.spans", len(current.tracer.spans))
        if trace_file is not None:
            current.tracer.write(trace_file, workload=workload, seed=seed)
    return current
