"""``ompdart`` command-line interface.

Mirrors the workflow of the paper's tool: read a C file with OpenMP
offload kernels, emit the same file with data-mapping constructs
inserted.

Usage::

    ompdart input.c                 # transformed source on stdout
    ompdart input.c -o output.c     # write to a file
    ompdart input.c --report        # also print the per-function plan
    ompdart input.c --simulate      # modelled before/after speedup
    ompdart input.c --dump-ast      # Clang-style AST dump (Listing 5)
    ompdart input.c --dump-cfg      # DOT of each function's AST-CFG
    ompdart ace --dump-kernel       # generated NumPy kernel source
                                    # (file path or suite benchmark name)
    ompdart --list-platforms        # registered simulation platforms
    ompdart --version               # print the package version
    ompdart --help                  # flags, and the list of commands

Batch mode drives many translation units through the staged pipeline
concurrently (deterministic output ordering, shared artifact cache)::

    ompdart batch a.c b.c c.c            # summary per input
    ompdart batch src/*.c -j 8           # 8 worker processes
    ompdart batch a.c b.c -o outdir      # write <outdir>/<name>
    ompdart batch a.c --cache-dir .ompdart-cache   # on-disk artifacts
    ompdart batch src/*.c -j 4 --cache-dir C --report  # hits by cache tier
    ompdart batch a.c --simulate --platform h100-sxm5

Serve mode puts the asyncio job service in front of the shared
artifact store: submit/await transform and evaluation jobs over HTTP,
deduplicated by content hash, with bounded concurrency::

    ompdart serve --port 8571 --workers 4 --cache-dir .ompdart-cache
    ompdart serve --max-queue 32 --job-timeout 60 --max-finished 128
    curl -XPOST localhost:8571/run -d '{"kind": "suite"}'
    curl -XPOST localhost:8571/jobs -d '{"kind": "benchmark", "benchmark": "bfs"}'
    curl localhost:8571/jobs/<id>?wait=1
    curl localhost:8571/stats

Chaos mode serves one seeded job mix twice — under a deterministic
fault plan (worker kills, spill corruption) and fault-free — and
fails unless the served results match byte for byte, the server
survives every crash, and a DELETEd job dies within the kill grace::

    ompdart chaos --jobs 200 --seed 0 --json chaos.json
    ompdart chaos --plan 'kill-worker:p=0.1' --cancel-grace 0.5
    ompdart serve --fault-inject 'kill-worker:p=0.05' --fault-seed 1

Suite mode runs the paper's nine-benchmark evaluation, optionally as a
cross-platform sweep, and can emit a machine-readable perf artifact::

    ompdart suite                                   # default platform
    ompdart suite --platform gh200-unified          # one platform
    ompdart suite --platform a100-pcie4 --platform h100-sxm5
    ompdart suite --json benchmarks/suite_a100-pcie4.json
    ompdart suite -j 4 --report
    ompdart suite --no-vectorize                    # closure interpreter only

Suite-diff mode gates two perf artifacts against each other (CI runs
it against the committed baseline; vectorizer-coverage downgrades fail
regardless of tolerance)::

    ompdart suite-diff benchmarks/suite_a100-pcie4.json new.json
    ompdart suite-diff baseline.json candidate.json --tolerance 0.05 -v

Profile mode answers "where does the frontend spend its time?" with a
per-pass / per-phase self-time and allocation table and the
``ompdart-profile/1`` artifact; ``--profile OUT.json`` on the plain
run, on batch and on suite records the same breakdown for those
workloads (aggregate kind, per-pass walls from worker outcomes)::

    ompdart profile input.c
    ompdart profile input.c --json profile.json
    ompdart input.c --profile profile.json -o out.c
    ompdart batch src/*.c -j 4 --profile batch_profile.json --report
    ompdart suite --profile suite_profile.json

End-to-end speed is measured outside the CLI, by ``bench/run.py`` at
the root of a checkout over the workloads ``BENCHMARK.json`` declares.

Exit codes: 0 success, 1 tool/analysis error, 2 unreadable input or
bad usage, 3 parse error in ``--dump-ast``/``--dump-cfg``.  Bad usage
prints ``ompdart CMD: error: ...`` before any work: a count option below
1 (``batch -j 0``), a ``-D`` name that is not a C identifier, or an
output path (``-o``, ``--json``, ``--profile``) whose directory cannot
be created.  Batch mode exits 0 only when every input transformed
cleanly; suite mode exits 1 when any benchmark's variants diverge;
suite-diff exits 1 when the candidate regresses beyond the tolerance
and 2 on a non-artifact input; chaos mode exits 1 when any
fault-tolerance gate (divergence, server death, cancel overrun) trips.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from ._version import __version__
from .artifact import read_artifact, write_artifact

# NOTE: nothing heavier than the version string and stdlib is imported
# at module scope.  The pipeline (``.core.tool``), the simulator and
# numpy all load lazily inside the command that needs them, so
# ``ompdart --version`` / ``--help`` and parse-only runs stay fast —
# tests/test_report_and_cli.py pins this with a cold-start budget.
from .diagnostics import ToolError


def _add_defines(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-D",
        dest="defines",
        action="append",
        default=[],
        metavar="NAME[=VALUE]",
        help="predefine a macro (like the compiler's -D)",
    )


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1 = serial with a shared cache)",
    )


def _add_json(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--json", dest="json_path", metavar="PATH", help=help)


def _add_profile(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument(
        "--profile", dest="profile_path", metavar="PATH", help=help
    )


def _add_cache_dir(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--cache-dir", help=help)


def _add_platform_arguments(
    parser: argparse.ArgumentParser, *, repeatable: bool = False
) -> None:
    from .runtime.platform import DEFAULT_PLATFORM

    if repeatable:
        parser.add_argument(
            "--platform",
            dest="platforms",
            action="append",
            metavar="NAME",
            help=(
                "simulation platform (repeatable for a cross-platform "
                f"sweep; default {DEFAULT_PLATFORM})"
            ),
        )
    else:
        parser.add_argument(
            "--platform",
            default=DEFAULT_PLATFORM,
            metavar="NAME",
            help=f"simulation platform (default {DEFAULT_PLATFORM})",
        )
    parser.add_argument(
        "--list-platforms",
        action="store_true",
        help="list registered simulation platforms and exit",
    )
    parser.add_argument(
        "--no-vectorize",
        action="store_true",
        help=(
            "force the closure interpreter for every kernel instead of "
            "the NumPy vectorizing executor (results are identical; "
            "this is the escape hatch and equality-testing knob)"
        ),
    )


def _read_input(path: str, prog: str) -> str | None:
    """The text of ``path``, or None after reporting why it is unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"{prog}: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _print_tool_error(message: str, exc: ToolError) -> None:
    print(message, file=sys.stderr)
    for diag in exc.diagnostics:
        print(diag.render(), file=sys.stderr)


def _parse_defines(defines: list[str]) -> dict[str, object]:
    """``-D NAME`` defines NAME as 1 and ``-D NAME=`` as empty, as gcc does."""
    out: dict[str, object] = {}
    for item in defines:
        name, equals, value = item.partition("=")
        out[name] = value if equals else 1
    return out


def _resolve_platform_arg(name: str):
    """Look up a --platform value, printing a CLI-style error on failure."""
    from .runtime.platform import get_platform

    try:
        return get_platform(name)
    except KeyError as exc:
        print(f"ompdart: {exc.args[0]}", file=sys.stderr)
        return None


def _simulate_pair(
    original: str,
    transformed: str,
    filename: str,
    platform,
    macros: dict[str, object],
    *,
    vectorize: bool = True,
) -> str:
    """Modelled before/after comparison line for ``--simulate``."""
    from .runtime.interp import run_simulation

    try:
        before = run_simulation(
            original, filename, platform=platform, predefined_macros=macros,
            vectorize=vectorize,
        )
        after = run_simulation(
            transformed, filename, platform=platform, predefined_macros=macros,
            vectorize=vectorize,
        )
    except Exception as exc:  # noqa: BLE001 - advisory estimate only
        return f"simulation on {platform.name} failed: {exc}"
    speedup = after.stats.speedup_over(before.stats)
    return (
        f"simulated on {platform.name} ({platform.interconnect}): "
        f"{before.stats.total_time_s * 1e3:.3f}ms -> "
        f"{after.stats.total_time_s * 1e3:.3f}ms "
        f"({speedup:.2f}x, transfer "
        f"{before.stats.transfer_time_s * 1e3:.3f}ms -> "
        f"{after.stats.transfer_time_s * 1e3:.3f}ms, "
        f"{before.stats.total_bytes} -> {after.stats.total_bytes} bytes)"
    )


def _unique_basenames(paths: list[str]) -> dict[str, str]:
    """Map each input path to a collision-free output file name.

    Inputs from different directories may share a basename; later ones
    get a numeric suffix (``foo.c``, ``foo.1.c``, ...) instead of
    silently overwriting earlier results.
    """
    names: dict[str, str] = {}
    used: set[str] = set()
    for path in paths:
        if path in names:
            continue
        base = os.path.basename(path)
        candidate = base
        serial = 0
        while candidate in used:
            serial += 1
            stem, dot, ext = base.rpartition(".")
            candidate = f"{stem}.{serial}.{ext}" if dot else f"{base}.{serial}"
        names[path] = candidate
        used.add(candidate)
    return names


def _declare_transform(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "input",
        nargs="?",
        help="C source file with OpenMP offload kernels",
    )
    parser.add_argument("-o", "--output", help="write transformed source here")
    _add_defines(parser)
    parser.add_argument(
        "--report", action="store_true", help="print the per-function plan"
    )
    parser.add_argument(
        "--dump-ast", action="store_true", help="print the AST and exit"
    )
    parser.add_argument(
        "--dump-cfg", action="store_true", help="print AST-CFG DOT graphs and exit"
    )
    parser.add_argument(
        "--dump-kernel",
        action="store_true",
        help=(
            "print each offload nest's generated NumPy kernel source "
            "(with its content-hash key) and exit; the input may be a C "
            "file or, when no such file exists, a suite benchmark name"
        ),
    )
    _add_platform_arguments(parser)
    parser.add_argument(
        "--simulate",
        action="store_true",
        help=(
            "simulate the program before and after transformation on the "
            "selected --platform and report the modelled speedup"
        ),
    )
    _add_profile(
        parser,
        "also run one cold instrumented transform and write its "
        "per-pass/per-phase ompdart-profile/1 artifact here",
    )


def _run_transform(args: argparse.Namespace) -> int:
    if args.input is None:
        print(
            "ompdart: error: an input file is required\n"
            f"{build_parser().format_usage()}",
            file=sys.stderr,
        )
        return 2
    macros = _parse_defines(args.defines)
    if args.dump_kernel:
        # Resolves its own input (file or suite benchmark name) — the
        # generic "readable file" requirement below does not apply.
        return _run_dump_kernel(args.input, macros)
    source = _read_input(args.input, "ompdart")
    if source is None:
        return 2

    if args.dump_ast or args.dump_cfg:
        # Parse-only: never touches the planner or simulator modules
        # (and so never validates --platform, which it does not use).
        from .frontend import dump_ast, parse_source

        try:
            tu = parse_source(source, args.input, macros)
        except ToolError as exc:
            _print_tool_error(f"ompdart: {args.input}: parse error: {exc}", exc)
            return 3
        if args.dump_ast:
            print(dump_ast(tu))
        if args.dump_cfg:
            from .cfg import build_astcfgs, astcfg_to_dot

            for name, astcfg in build_astcfgs(tu).items():
                print(astcfg_to_dot(astcfg))
        return 0

    platform = _resolve_platform_arg(args.platform)
    if platform is None:
        return 2
    from .core.tool import OMPDart, ToolOptions

    if args.profile_path:
        from .report.profile import profile_source

        write_artifact(
            profile_source(
                source, args.input, ToolOptions(predefined_macros=macros)
            ),
            args.profile_path,
        )

    tool = OMPDart(ToolOptions(predefined_macros=macros))
    try:
        result = tool.run(source, args.input)
    except ToolError as exc:
        _print_tool_error(f"ompdart: error: {exc}", exc)
        return 1

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(result.output_source)
    else:
        sys.stdout.write(result.output_source)
    if args.report:
        print(result.report(), file=sys.stderr)
    if args.simulate:
        print(
            _simulate_pair(
                source, result.output_source, args.input, platform, macros,
                vectorize=not args.no_vectorize,
            ),
            file=sys.stderr,
        )
    return 0


def _run_dump_kernel(input_arg: str, macros: "dict[str, object]") -> int:
    """``--dump-kernel``: print each offload nest's generated source.

    The argument is a C file or — when no such file exists — a
    benchmark name from the evaluation suite, so miscompiles in a suite
    application can be inspected without locating its source on disk.
    """
    from .pipeline.context import ToolOptions
    from .pipeline.manager import PassManager

    filename = input_arg
    if os.path.exists(input_arg):
        source = _read_input(input_arg, "ompdart")
        if source is None:
            return 2
    else:
        from .suite.registry import BENCHMARK_ORDER, get_benchmark

        try:
            bench = get_benchmark(input_arg)
        except KeyError:
            print(
                f"ompdart: {input_arg!r} is neither a readable file nor a "
                f"suite benchmark (known: {', '.join(BENCHMARK_ORDER)})",
                file=sys.stderr,
            )
            return 2
        source = bench.unoptimized_source()
        filename = f"{bench.name}_unoptimized.c"

    manager = PassManager()
    try:
        ctx = manager.run(
            source,
            filename,
            ToolOptions(predefined_macros=macros),
            until="codegen",
        )
    except ToolError as exc:
        _print_tool_error(f"ompdart: {filename}: parse error: {exc}", exc)
        return 3
    rows = ctx.artifact("codegen")
    if not rows:
        print(f"// {filename}: no offload kernels")
        return 0
    for node_id in sorted(rows):
        row = rows[node_id]
        if row["reason"] is None:
            print(f"// {filename} kernel node {node_id} key={row['key']}")
            print(row["source"].rstrip("\n"))
        else:
            print(
                f"// {filename} kernel node {node_id} "
                f"declined: {row['reason']}"
            )
        print()
    return 0


def _declare_batch(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("inputs", nargs="*", help="C source files to transform")
    _add_jobs(parser)
    parser.add_argument(
        "-o",
        "--output-dir",
        help="write each transformed source to this directory",
    )
    _add_defines(parser)
    _add_cache_dir(
        parser, "persist pipeline artifacts here (shared across workers/runs)"
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help=(
            "print per-input pass timings and cache events, and per-pass "
            "cache hits by tier (memory/disk)"
        ),
    )
    _add_platform_arguments(parser)
    parser.add_argument(
        "--simulate",
        action="store_true",
        help=(
            "simulate each input before and after transformation on the "
            "selected --platform and append the modelled speedup"
        ),
    )
    _add_profile(
        parser,
        "write an aggregate ompdart-profile/1 artifact (per-pass "
        "wall totals over the inputs that ran) here",
    )


def _run_batch(args: argparse.Namespace) -> int:
    if not args.inputs:
        print("ompdart batch: error: no input files", file=sys.stderr)
        return 2
    platform = _resolve_platform_arg(args.platform)
    if platform is None:
        return 2
    from .pipeline.batch import transform_paths
    from .pipeline.context import ToolOptions

    macros = _parse_defines(args.defines)
    options = ToolOptions(predefined_macros=macros)
    import time

    batch_start = time.perf_counter()
    outcomes = transform_paths(
        args.inputs, options, jobs=args.jobs, cache_dir=args.cache_dir
    )
    batch_wall = time.perf_counter() - batch_start

    dest_names = _unique_basenames([o.filename for o in outcomes])
    failures = 0
    for outcome in outcomes:
        if not outcome.ok:
            failures += 1
            print(f"ompdart: {outcome.filename}: error: {outcome.error}",
                  file=sys.stderr)
            for diag in outcome.diagnostics:
                print(diag, file=sys.stderr)
            continue
        hits = sum(1 for e in outcome.cache_events.values() if e == "hit")
        print(
            f"ompdart: {outcome.filename}: {outcome.directive_count} "
            f"construct(s) in {outcome.elapsed_seconds * 1e3:.1f}ms "
            f"({hits}/{len(outcome.cache_events)} passes cached)"
        )
        if args.report:
            if outcome.deduped_from:
                print(
                    "  deduplicated: identical content, result shared "
                    f"from {outcome.deduped_from}"
                )
            for name, seconds in outcome.timings.items():
                event = outcome.cache_events[name]
                print(f"  {name:<11s} {seconds * 1e3:8.3f}ms  [{event}]")
        if args.simulate:
            # Re-read for the before/after comparison; the file may have
            # changed (or vanished) since the worker transformed it.
            try:
                with open(outcome.filename, "r", encoding="utf-8") as fh:
                    original = fh.read()
            except OSError as exc:
                print(f"  simulation skipped: cannot re-read input: {exc}")
            else:
                print(
                    "  "
                    + _simulate_pair(
                        original,
                        outcome.output_source or original,
                        outcome.filename,
                        platform,
                        macros,
                        vectorize=not args.no_vectorize,
                    )
                )
        if args.output_dir:
            dest = os.path.join(args.output_dir, dest_names[outcome.filename])
            with open(dest, "w", encoding="utf-8") as fh:
                fh.write(outcome.output_source or "")
    if args.report:
        _print_cache_report(outcomes)
        if args.cache_dir:
            from .pipeline.store import spill_stats

            print(
                f"ompdart: disk cache {args.cache_dir}: "
                f"{spill_stats(args.cache_dir)['bytes']} byte(s) in spill files"
            )
    deduped = sum(1 for o in outcomes if o.deduped_from)
    if args.report and deduped:
        print(
            f"ompdart: batch dedup: {len(outcomes) - deduped} unique "
            f"input(s), {deduped} duplicate(s) served from a "
            "representative's result"
        )
    if args.profile_path:
        from .report.profile import aggregate_profile, render_profile

        payload = aggregate_profile(
            (o.timings for o in outcomes if o.timings and not o.deduped_from),
            [o.filename for o in outcomes],
            wall_s=batch_wall,
        )
        write_artifact(payload, args.profile_path)
        if args.report:
            print(render_profile(payload))
    return 1 if failures else 0


def _print_cache_report(outcomes) -> None:
    """Per-pass cache hits by serving tier, and misses.

    Summed over the inputs that ran: a deduplicated input shares its
    representative's lookups instead of making its own (a repeated path
    shares the very outcome object).  Rows follow the pass chain: a run
    that hit its stored passes built no unstored one, so first-seen
    order would depend on which input came first.
    """
    from .pipeline.cache import ORIGIN_DISK, ORIGIN_MEMORY
    from .pipeline.passes import DEFAULT_PASSES

    tiers = (ORIGIN_MEMORY, ORIGIN_DISK)
    ran = {id(o): o for o in outcomes if not o.deduped_from}
    rows: dict[str, dict[str, int]] = {
        p.name: dict.fromkeys((*tiers, "miss"), 0) for p in DEFAULT_PASSES
    }
    for outcome in ran.values():
        for name, event in outcome.cache_events.items():
            row = rows.setdefault(name, dict.fromkeys((*tiers, "miss"), 0))
            if event == "hit":
                row[outcome.cache_origins[name]] += 1
            else:
                row["miss"] += 1
    for name, row in rows.items():
        if not any(row.values()):
            continue  # no input ran this pass
        by_tier = ", ".join(f"{tier} {row[tier]}" for tier in tiers)
        print(
            f"  cache {name:<11s} {sum(row[t] for t in tiers)} hit(s) "
            f"({by_tier}) / {row['miss']} miss(es)"
        )


def _declare_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="C source file to profile")
    _add_defines(parser)
    _add_json(parser, "write the ompdart-profile/1 artifact here")


def _run_profile(args: argparse.Namespace) -> int:
    source = _read_input(args.input, "ompdart profile")
    if source is None:
        return 2
    from .pipeline.context import ToolOptions
    from .report.profile import profile_source, render_profile

    options = ToolOptions(predefined_macros=_parse_defines(args.defines))
    payload = profile_source(source, args.input, options)
    print(render_profile(payload))
    if args.json_path:
        write_artifact(payload, args.json_path)
    return 1 if payload["error"] else 0


def _declare_suite(parser: argparse.ArgumentParser) -> None:
    _add_platform_arguments(parser, repeatable=True)
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        metavar="NAME",
        help="run only these benchmarks (default: all nine)",
    )
    _add_jobs(parser)
    _add_json(parser, "write the machine-readable perf artifact here")
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the three-variant output-equivalence check",
    )
    _add_cache_dir(
        parser,
        "persist pipeline artifacts here (shared across "
        "workers/runs, like ompdart batch)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print the full Figure 3-6 tables per platform",
    )
    _add_profile(
        parser,
        "write an aggregate ompdart-profile/1 artifact (per-pass "
        "transform wall totals over the benchmarks) here",
    )


def _run_suite(args: argparse.Namespace) -> int:
    from .runtime.platform import DEFAULT_PLATFORM
    from .suite.registry import BENCHMARK_ORDER, BENCHMARKS
    from .suite.runner import run_sweep

    platform_names = list(dict.fromkeys(args.platforms or [DEFAULT_PLATFORM]))
    platforms = []
    for name in platform_names:
        platform = _resolve_platform_arg(name)
        if platform is None:
            return 2
        platforms.append(platform)
    names = args.benchmarks or list(BENCHMARK_ORDER)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        print(
            f"ompdart suite: unknown benchmark(s): {', '.join(unknown)}; "
            f"available: {', '.join(BENCHMARK_ORDER)}",
            file=sys.stderr,
        )
        return 2

    from .pipeline.batch import BatchWorkerError

    try:
        sweep = run_sweep(
            platforms,
            verify=not args.no_verify,
            jobs=args.jobs,
            names=names,
            vectorize=not args.no_vectorize,
            cache_dir=args.cache_dir,
        )
    except BatchWorkerError as exc:
        # Serial or pooled, a benchmark's exception (a ToolError, a
        # verification failure) arrives labelled with its name.
        print(f"ompdart suite: error: {exc}", file=sys.stderr)
        return 1

    from .report.figures import (
        figure3,
        figure4,
        figure5,
        figure6,
        figure_coverage,
        figure_cross_platform,
    )

    for platform_sweep in sweep:
        p = platform_sweep.platform
        geo = platform_sweep.geomeans()
        variants = [
            result
            for run in platform_sweep.runs.values()
            for result in (run.unoptimized, run.ompdart, run.expert)
        ]
        covered = sum(
            1 for r in variants
            if r.vectorized_launches == r.stats.kernel_launches
        )
        print(
            f"{p.name}: geomean speedup {geo['speedup_x']:.2f}x, "
            f"transfer reduction {geo['transfer_reduction_x']:.1f}x, "
            f"transfer-time improvement "
            f"{geo['transfer_time_improvement_x']:.1f}x "
            f"over {len(platform_sweep.runs)} benchmark(s); "
            f"vectorizer coverage {covered}/{len(variants)} variant(s)"
        )
        if args.report:
            for figure in (figure3, figure4, figure5, figure6,
                           figure_coverage):
                print(figure(platform_sweep.runs)[1])
            print()
    if len(platforms) > 1:
        print(figure_cross_platform(sweep)[1])
    if args.json_path:
        from .report.perf import sweep_to_dict

        write_artifact(sweep_to_dict(sweep), args.json_path)
    if args.profile_path:
        from .report.profile import aggregate_profile

        # The transform is platform-independent; the first platform's
        # sweep carries every benchmark's per-pass transform walls.
        first = next(iter(sweep))
        write_artifact(
            aggregate_profile(
                (run.transform.pass_timings for run in first.runs.values()),
                list(first.runs),
            ),
            args.profile_path,
        )
    return 0


def _declare_suite_diff(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("baseline", help="baseline suite JSON artifact")
    parser.add_argument("candidate", help="candidate suite JSON artifact")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.01,
        metavar="FRAC",
        help=(
            "relative change tolerated before a metric counts as a "
            "regression (default 0.01 = 1%%)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also list improved metrics",
    )


def _run_suite_diff(args: argparse.Namespace) -> int:
    from .report.diff import diff_payloads, render_diff

    try:
        result = diff_payloads(
            read_artifact(args.baseline, "ompdart-suite-perf/"),
            read_artifact(args.candidate, "ompdart-suite-perf/"),
            tolerance=args.tolerance,
        )
    except (OSError, ValueError, TypeError, AttributeError, KeyError) as exc:
        # ValueError covers unreadable JSON and the schema/shape
        # problems diff_payloads detects itself; the rest guard against
        # artifacts malformed in ways it cannot anticipate — bad input
        # is exit 2, never a traceback.
        print(f"ompdart suite-diff: {exc}", file=sys.stderr)
        return 2
    print(render_diff(result, verbose=args.verbose))
    return 0 if result.ok else 1


def _declare_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8571,
        help="bind port (default 8571; 0 = ephemeral)",
    )
    parser.add_argument(
        "-w", "--workers", type=int, default=2, metavar="N",
        help="worker processes executing jobs (default 2)",
    )
    parser.add_argument(
        "--max-jobs", type=int, default=8, metavar="N",
        help="jobs in flight at once (default 8); excess queue",
    )
    _add_cache_dir(
        parser,
        "artifact cache directory (jobs then share pipeline "
        "artifacts across workers and runs)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help=(
            "admission bound: queued+running jobs a new submission may "
            "not exceed; past it the server answers 429 with "
            "Retry-After (default 64)"
        ),
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "per-job timeout, past which the job is hard-cancelled: "
            "SIGINT, then SIGKILL after --cancel-grace (default: none)"
        ),
    )
    parser.add_argument(
        "--job-retries", type=int, default=1, metavar="N",
        help=(
            "times a job that crashed its worker is re-dispatched "
            "before being quarantined as poison (default 1)"
        ),
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="SECONDS",
        help=(
            "base of the exponential backoff between crash retries "
            "(default 0.05)"
        ),
    )
    parser.add_argument(
        "--max-worker-restarts", type=int, default=16, metavar="N",
        help=(
            "worker respawns allowed over the server's lifetime; once "
            "spent and no worker remains, submissions answer 503 "
            "(default 16)"
        ),
    )
    parser.add_argument(
        "--cancel-grace", type=float, default=2.0, metavar="SECONDS",
        help=(
            "grace between a cancel's SIGINT and the SIGKILL "
            "escalation (default 2)"
        ),
    )
    parser.add_argument(
        "--retry-after-max", type=int, default=60, metavar="SECONDS",
        help="ceiling for the 429 Retry-After estimate (default 60)",
    )
    parser.add_argument(
        "--fault-inject", default=None, metavar="PLAN",
        help=(
            "deterministic fault plan for testing, e.g. "
            "'kill-worker:p=0.05,corrupt-spill:p=0.02' "
            "(kinds: kill-worker, corrupt-spill, wedge); unknown kinds "
            "are rejected"
        ),
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed for --fault-inject decisions (default 0)",
    )
    parser.add_argument(
        "--max-finished", type=int, default=256, metavar="N",
        help=(
            "finished jobs retained before LRU eviction; evicted ids "
            "answer 410 Gone (default 256)"
        ),
    )
    parser.add_argument(
        "--finished-ttl", type=float, default=None, metavar="SECONDS",
        help="also evict finished jobs older than this (default: none)",
    )
    parser.add_argument(
        "--read-timeout", type=float, default=30.0, metavar="SECONDS",
        help=(
            "per-read deadline inside a request; a stalled client gets "
            "408 and the connection closes (default 30)"
        ),
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=75.0, metavar="SECONDS",
        help="keep-alive idle deadline between requests (default 75)",
    )
    parser.add_argument(
        "--max-requests", type=int, default=1000, metavar="N",
        help="requests served per connection before close (default 1000)",
    )


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service.faults import parse_fault_plan
    from .service.scheduler import JobScheduler
    from .service.server import JobServer

    fault_plan = None
    if args.fault_inject:
        try:
            fault_plan = parse_fault_plan(
                args.fault_inject, seed=args.fault_seed
            )
        except ValueError as exc:
            print(
                f"ompdart serve: bad --fault-inject: {exc}", file=sys.stderr
            )
            return 2

    async def _serve() -> int:
        scheduler = JobScheduler(
            workers=args.workers,
            max_concurrency=args.max_jobs,
            cache_dir=args.cache_dir,
            max_queue=args.max_queue,
            job_timeout=args.job_timeout,
            max_finished=args.max_finished,
            finished_ttl=args.finished_ttl,
            job_retries=args.job_retries,
            retry_backoff=args.retry_backoff,
            max_worker_restarts=args.max_worker_restarts,
            cancel_grace=args.cancel_grace,
            retry_after_max=args.retry_after_max,
            fault_plan=fault_plan,
        )
        server = JobServer(
            scheduler,
            host=args.host,
            port=args.port,
            read_timeout=args.read_timeout,
            idle_timeout=args.idle_timeout,
            max_requests=args.max_requests,
        )
        try:
            host, port = await server.start()
        except OSError as exc:
            print(f"ompdart serve: cannot bind: {exc}", file=sys.stderr)
            await scheduler.aclose()
            return 2
        print(
            f"ompdart serve: listening on http://{host}:{port} "
            f"({args.workers} worker(s), "
            f"max {args.max_jobs} concurrent job(s)"
            + (f", store at {args.cache_dir}" if args.cache_dir else "")
            + ")",
            file=sys.stderr,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.aclose()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("ompdart serve: interrupted", file=sys.stderr)
        return 0


def _declare_chaos(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-n", "--jobs", type=int, default=200, metavar="N",
        help="jobs in the workload (default 200)",
    )
    parser.add_argument(
        "-w", "--workers", type=int, default=2, metavar="N",
        help="worker processes per server (default 2)",
    )
    parser.add_argument(
        "-c", "--clients", type=int, default=4, metavar="N",
        help="concurrent submitting clients (default 4)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="fault-plan seed; same seed, same kills (default 0)",
    )
    parser.add_argument(
        "--plan", default=None, metavar="PLAN",
        help=(
            "fault plan (default 'kill-worker:p=0.05,"
            "corrupt-spill:p=0.02')"
        ),
    )
    parser.add_argument(
        "--job-retries", type=int, default=2, metavar="N",
        help="crash retries per job before poison (default 2)",
    )
    parser.add_argument(
        "--cancel-grace", type=float, default=1.0, metavar="SECONDS",
        help="SIGINT-to-SIGKILL grace for the DELETE probe (default 1)",
    )
    parser.add_argument(
        "--no-cancel-probe", action="store_true",
        help="skip the DELETE-a-running-job probe",
    )
    _add_json(parser, "write the ompdart-chaos/1 artifact here")


def _run_chaos(args: argparse.Namespace) -> int:
    import asyncio

    from .service.chaos import (
        DEFAULT_PLAN,
        ChaosConfig,
        gate_chaos,
        render_chaos,
        run_chaos,
    )

    config = ChaosConfig(
        jobs=args.jobs,
        workers=args.workers,
        clients=args.clients,
        seed=args.seed,
        plan=args.plan if args.plan is not None else DEFAULT_PLAN,
        job_retries=args.job_retries,
        cancel_grace=args.cancel_grace,
        cancel_probe=not args.no_cancel_probe,
    )
    try:
        payload = asyncio.run(run_chaos(config))
    except ValueError as exc:
        print(f"ompdart chaos: {exc}", file=sys.stderr)
        return 2
    print(render_chaos(payload))
    if args.json_path:
        write_artifact(payload, args.json_path)
    problems = gate_chaos(payload)
    for problem in problems:
        print(f"CHAOS {problem}", file=sys.stderr)
    return 1 if problems else 0


def _declare_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "action", choices=("stats", "gc"),
        help="stats: spill census; gc: bounded eviction sweep",
    )
    parser.add_argument(
        "--cache-dir", required=True,
        help="artifact cache directory to inspect/sweep",
    )
    parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="gc: evict oldest spills until the directory fits under N",
    )
    parser.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="gc: evict spills not read or written in the last N seconds",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="gc: count what would be evicted without unlinking",
    )
    _add_json(parser, "write the census/report as JSON here")


def _run_store(args: argparse.Namespace) -> int:
    from .pipeline.store import gc_spills, spill_stats

    if not os.path.exists(args.cache_dir):
        # A regular file is the shared --cache-dir rule's; store, unlike
        # the commands that fill a cache, never creates the directory.
        print(
            f"ompdart store: error: --cache-dir {args.cache_dir}: "
            "no such directory",
            file=sys.stderr,
        )
        return 2
    if args.action == "stats":
        census = spill_stats(args.cache_dir)
        print(
            f"ompdart store: {census['directory']}: {census['files']} "
            f"spill(s) ({census['records']} current record(s)), "
            f"{census['bytes']} byte(s), "
            f"{census['quarantined']} quarantined, {census['tmp']} tmp"
        )
        payload = census
    else:
        if args.max_bytes is None and args.max_age is None:
            print(
                "ompdart store: gc needs --max-bytes and/or --max-age "
                "(otherwise only quarantine/.tmp orphans are swept)",
                file=sys.stderr,
            )
        report = gc_spills(
            args.cache_dir,
            max_bytes=args.max_bytes,
            max_age_s=args.max_age,
            dry_run=args.dry_run,
        )
        verb = "would evict" if args.dry_run else "evicted"
        print(
            f"ompdart store: {report.directory}: {verb} "
            f"{report.evicted_files} of {report.files_scanned} "
            f"spill(s) ({report.evicted_bytes} byte(s); "
            f"{report.ttl_evicted} by TTL, {report.size_evicted} by "
            f"size), swept {report.quarantine_swept} quarantine / "
            f"{report.tmp_swept} tmp file(s); "
            f"{report.remaining_files} file(s) / "
            f"{report.remaining_bytes} byte(s) remain"
        )
        payload = report.as_dict()
    if args.json_path:
        write_artifact(payload, args.json_path)
    return 0


#: Command name -> (description, declare_arguments, run).  The None
#: entry is the bare ``ompdart FILE`` transform.
COMMANDS = {
    None: (
        "OMPDart: static generation of efficient OpenMP offload data "
        "mappings (SC24 reproduction)",
        _declare_transform,
        _run_transform,
    ),
    "batch": (
        "Transform many C translation units through the staged "
        "pipeline with deterministic result ordering.",
        _declare_batch,
        _run_batch,
    ),
    "suite": (
        "Run the paper's nine-benchmark evaluation, optionally as a "
        "cross-platform sweep with a machine-readable JSON artifact.",
        _declare_suite,
        _run_suite,
    ),
    "profile": (
        "Run one cold, uncached, instrumented transform and print a "
        "per-pass / per-phase self-time and allocation breakdown "
        "(lex, macro, parse, analysis, plan, rewrite).",
        _declare_profile,
        _run_profile,
    ),
    "suite-diff": (
        "Compare two ompdart-suite-perf artifacts and fail on metric "
        "regressions beyond the tolerance (CI regression gate).",
        _declare_suite_diff,
        _run_suite_diff,
    ),
    "serve": (
        "Run the asyncio job service: submit/await transform and "
        "evaluation jobs over the shared artifact store, with "
        "dedup by content hash and bounded concurrency.",
        _declare_serve,
        _run_serve,
    ),
    "chaos": (
        "Fault-injection harness: serve one seeded job mix twice "
        "— under a deterministic fault plan and fault-free — and "
        "fail unless the served results are byte-identical, the "
        "server survives every worker crash, and a DELETEd job "
        "dies within the kill grace.",
        _declare_chaos,
        _run_chaos,
    ),
    "store": (
        "Inspect and garbage-collect an artifact cache directory: "
        "'stats' prints a spill census, 'gc' evicts "
        "spills least-recently-used-first to fit a size budget "
        "and/or TTL (quarantined .bad files and dead writers' "
        ".tmp orphans are always swept).",
        _declare_store,
        _run_store,
    ),
}

#: Count options that must be >= 1, by dest, in whichever command
#: declares them.
_COUNTS = ("jobs", "workers", "max_jobs", "clients")

#: Output options by dest: the flag, and whether the value names the
#: directory to write into rather than a file.
_OUTPUTS = {
    "output": ("--output", False),
    "output_dir": ("--output-dir", True),
    "json_path": ("--json", False),
    "profile_path": ("--profile", False),
}

#: A macro name as ``-D`` takes it: a C identifier.
_MACRO_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser of one :data:`COMMANDS` entry."""
    description, declare_arguments, _ = COMMANDS[command]
    parser = argparse.ArgumentParser(
        prog="ompdart" if command is None else f"ompdart {command}",
        description=description,
    )
    if command is None:
        # Raw, so no command name is wrapped at its hyphen.
        parser.formatter_class = argparse.RawDescriptionHelpFormatter
        parser.epilog = (
            "commands: " + ", ".join(name for name in COMMANDS if name)
            + "\nrun `ompdart COMMAND --help` for the options of one"
        )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    declare_arguments(parser)
    return parser


def _usage_error(args: argparse.Namespace) -> str | None:
    """The first usage rule shared by several commands that ``args`` break.

    The last rule creates the directory of every output path, so that a
    command fails on an unwritable output before it does any work.
    """
    cache_dir = existing = getattr(args, "cache_dir", None)
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        return f"--cache-dir {cache_dir}: {existing} is not a directory"
    for dest in _COUNTS:
        if getattr(args, dest, 1) < 1:
            return f"--{dest.replace('_', '-')} must be >= 1"
    if getattr(args, "tolerance", 0.0) < 0:
        return "--tolerance must be >= 0"
    for item in getattr(args, "defines", ()):
        if not _MACRO_NAME.fullmatch(item.partition("=")[0]):
            return f"-D {item}: macro names must be identifiers"
    for dest, (flag, is_dir) in _OUTPUTS.items():
        path = getattr(args, dest, None)
        directory = path if is_dir else os.path.dirname(path or "")
        if directory:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError as exc:
                return (
                    f"{flag} {path}: cannot create {directory}: "
                    f"{exc.strerror or exc}"
                )
    return None


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` names (``ompdart FILE`` when it names
    none) and return its exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv.pop(0) if argv and argv[0] in COMMANDS else None
    parser = build_parser(command)
    args = parser.parse_args(argv)
    if getattr(args, "list_platforms", False):
        from .runtime.platform import platform_table

        print(platform_table())
        return 0
    problem = _usage_error(args)
    if problem is not None:
        print(f"{parser.prog}: error: {problem}", file=sys.stderr)
        return 2
    _, _, run = COMMANDS[command]
    return run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
