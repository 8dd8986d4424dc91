"""Shared worker runtime + typed job specs for every concurrent driver.

One process-global :class:`~repro.pipeline.manager.PassManager` per
``(cache_dir)`` serves every job a worker process executes; sibling
workers share artifacts through that cache directory's spills (and,
with a store URL, through a remote store node).  The batch driver,
the evaluation suite's process pool and the asyncio scheduler all
dispatch through :func:`dispatch_map` / :func:`open_pool` and execute
via the same top-level entry points, so a transform is bit-identical
no matter which front submitted it.

Job specs are frozen, picklable and content-addressed:
:meth:`JobSpec.key` fingerprints the spec together with the package
version, which is what the scheduler dedups on and what the HTTP front
uses as the job id.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable

from .._version import __version__
from ..diagnostics import ToolError
from ..pipeline.cache import ArtifactCache, fingerprint
from ..pipeline.context import ToolOptions
from ..pipeline.manager import PassManager


class BatchWorkerError(RuntimeError):
    """A worker failure, labelled with the input that caused it.

    Process pools re-raise worker exceptions as bare pickled tracebacks
    with no hint of *which* submitted item failed; the dispatch layer
    wraps them so the failing source filename (or benchmark name) is in
    the message.  ``label`` and ``cause`` survive pickling.
    """

    def __init__(self, label: str, cause: str):
        super().__init__(f"{label}: {cause}")
        self.label = label
        self.cause = cause

    def __reduce__(self):
        return (BatchWorkerError, (self.label, self.cause))


def describe_exception(exc: BaseException) -> str:
    """Compact one-line rendering of a worker exception."""
    text = str(exc).strip()
    name = type(exc).__name__
    return f"{name}: {text}" if text else name


@dataclass(frozen=True)
class BatchOutcome:
    """Result of one translation unit's trip through the batch driver."""

    filename: str
    ok: bool
    output_source: str | None = None
    error: str | None = None
    diagnostics: tuple[str, ...] = ()
    directive_count: int = 0
    elapsed_seconds: float = 0.0
    timings: dict[str, float] = field(default_factory=dict)
    cache_events: dict[str, str] = field(default_factory=dict)
    #: Did the rewrite differ from the input source?  Mirrors
    #: ``TransformResult.changed``.
    changed: bool = False
    #: pass name -> "memory" | "disk" | "remote" for cache hits.
    cache_origins: dict[str, str] = field(default_factory=dict)
    #: Filename of the representative input whose pipeline run this
    #: outcome was fanned out from (batch content-hash pre-dedup);
    #: None when this input ran itself.
    deduped_from: str | None = None

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe rendering (the HTTP front returns this)."""
        return {
            "filename": self.filename,
            "ok": self.ok,
            "output_source": self.output_source,
            "error": self.error,
            "diagnostics": list(self.diagnostics),
            "directive_count": self.directive_count,
            "elapsed_seconds": self.elapsed_seconds,
            "timings": dict(self.timings),
            "cache_events": dict(self.cache_events),
            "cache_origins": dict(self.cache_origins),
            "changed": self.changed,
            "deduped_from": self.deduped_from,
        }


def _outcome_from_context(ctx: Any, elapsed: float) -> BatchOutcome:
    from ..core.directives import count_constructs

    plans, _, _ = ctx.artifact("plan")
    output = ctx.artifact("rewrite")
    return BatchOutcome(
        filename=ctx.filename,
        ok=True,
        output_source=output,
        diagnostics=tuple(d.render() for d in ctx.diagnostics),
        directive_count=count_constructs(plans),
        elapsed_seconds=elapsed,
        timings=dict(ctx.timings),
        cache_events=dict(ctx.cache_events),
        changed=output != ctx.source,
        cache_origins=dict(ctx.cache_origins),
    )


def transform_one(
    manager: PassManager, source: str, filename: str, options: ToolOptions
) -> BatchOutcome:
    """Run one translation unit through ``manager``; never raises."""
    start = time.perf_counter()
    try:
        ctx = manager.run(source, filename, options)
    except ToolError as exc:
        return BatchOutcome(
            filename=filename,
            ok=False,
            error=str(exc),
            diagnostics=tuple(d.render() for d in exc.diagnostics),
            elapsed_seconds=time.perf_counter() - start,
        )
    except Exception as exc:  # noqa: BLE001 - workers must not leak bare
        # tracebacks across the process boundary; report the input.
        return BatchOutcome(
            filename=filename,
            ok=False,
            error=f"internal error: {describe_exception(exc)}",
            elapsed_seconds=time.perf_counter() - start,
        )
    return _outcome_from_context(ctx, time.perf_counter() - start)


# ===========================================================================
# Worker-process runtime
# ===========================================================================

#: Per-process manager, keyed by cache directory (None = memory only).
_WORKER_MANAGERS: dict[str | None, PassManager] = {}

#: This worker's remote store client (if a --store-url was configured).
_WORKER_REMOTE: "Any | None" = None

#: The cache directory recorded by the pool initializer, so job entry
#: points find the runtime they were spawned with.
_WORKER_CACHE_DIR: str | None = None


def worker_manager(cache_dir: str | None) -> PassManager:
    """This process's shared pass manager for ``cache_dir``."""
    manager = _WORKER_MANAGERS.get(cache_dir)
    if manager is None:
        cache = ArtifactCache(disk_dir=cache_dir) if cache_dir else ArtifactCache()
        cache.remote = _WORKER_REMOTE
        manager = PassManager(cache=cache)
        _WORKER_MANAGERS[cache_dir] = manager
    return manager


def make_remote_client(
    store_url: str | None, counters: "Any | None" = None
) -> "Any | None":
    """Build one process's remote store client (None when unset).

    ``counters`` is the pool's
    :class:`~repro.pipeline.remote.RemoteCounters`: when given, every
    client event is added to it so remote traffic aggregates pool-wide;
    the client's own ``counters`` dict always holds this process's
    view.  Fail-soft: a malformed URL logs nothing and disables the
    tier — exactly the degraded mode a down store node produces.
    """
    if not store_url:
        return None
    from ..pipeline.remote import RemoteStoreClient

    on_event = counters.add if counters is not None else None
    try:
        return RemoteStoreClient(store_url, on_event=on_event)
    except ValueError:
        return None


def worker_init(
    cache_dir: str | None,
    store_url: str | None = None,
    remote_counters: "Any | None" = None,
) -> None:
    """Pool initializer: build the manager over ``cache_dir`` eagerly.

    Each worker's memory tier starts empty; an input's first lookup
    reads its record from ``cache_dir``.  With a ``store_url``, records
    that miss locally read through to the remote store node and spills
    publish back write-behind — the cross-machine tier — counting into
    the pool's ``remote_counters``.
    """
    global _WORKER_REMOTE, _WORKER_CACHE_DIR
    _WORKER_CACHE_DIR = cache_dir
    if _WORKER_REMOTE is not None:
        _WORKER_REMOTE.close()
    _WORKER_REMOTE = make_remote_client(store_url, remote_counters)
    manager = worker_manager(cache_dir)
    # The manager may predate this run (thread runtime reusing the
    # process, or a second scheduler binding the same cache_dir):
    # rebind it to *this* run's remote client.
    manager.cache.remote = _WORKER_REMOTE


def _runtime_manager() -> PassManager:
    return worker_manager(_WORKER_CACHE_DIR)


def _warmup() -> int:
    """No-op worker task; submitting it forces the process to spawn."""
    return os.getpid()


def open_pool(
    jobs: int,
    *,
    cache_dir: str | None = None,
    store_url: str | None = None,
    remote_counters: "Any | None" = None,
    prespawn: bool = False,
) -> ProcessPoolExecutor:
    """A worker pool wired to the shared runtime (cache dir + remote tier).

    ``prespawn`` forks every worker immediately (and surfaces sandbox
    failures as exceptions *now*).  Long-lived fronts like the serve
    scheduler need this: a worker forked lazily mid-request would
    inherit the open connection sockets and hold them past the
    parent's close.
    """
    pool = ProcessPoolExecutor(
        max_workers=jobs,
        initializer=worker_init,
        initargs=(cache_dir, store_url, remote_counters),
    )
    if prespawn:
        try:
            # One submit per worker: the executor spawns a process per
            # pending item while below max_workers.
            for future in [pool.submit(_warmup) for _ in range(jobs)]:
                future.result(timeout=60)
        except Exception:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    return pool


def dispatch_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: int = 1,
    label: Callable[[Any], str] | None = None,
    cache_dir: str | None = None,
    store_url: str | None = None,
    remote_counters: "Any | None" = None,
    chunksize: int = 1,
) -> list[Any]:
    """Order-preserving map — the dispatch seam every driver shares.

    ``fn`` must be a picklable top-level callable when ``jobs > 1``.
    Results always come back in input order (``ProcessPoolExecutor.map``
    preserves ordering by construction), so parallel runs are
    bit-identical to serial ones for deterministic workloads.

    ``label`` names each item for error reporting: when a worker
    raises, the exception is re-raised as :class:`BatchWorkerError`
    carrying ``label(item)`` — instead of a bare pickled traceback
    that never says which input failed.  The labelling happens on the
    driver side (result order identifies the faulty item), so ``label``
    need not be picklable.

    ``chunksize`` batches IPC: at 10k-item scale, per-item submission
    dominates supervisor overhead, so callers with many small jobs pass
    a larger chunk.  With chunks, a raised exception is attributed to
    the first unfilled slot — its chunk's first item — which is why
    job functions that can fail per-item (``transform_one``) report
    failure in-band instead of raising.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        results: list[Any] = []
        for item in items:
            try:
                results.append(fn(item))
            except Exception as exc:
                if label is None:
                    raise
                raise BatchWorkerError(
                    label(item), describe_exception(exc)
                ) from exc
        return results
    with open_pool(
        min(jobs, len(items)),
        cache_dir=cache_dir,
        store_url=store_url,
        remote_counters=remote_counters,
    ) as pool:
        results = []
        result_iter = pool.map(fn, items, chunksize=max(1, chunksize))
        while True:
            try:
                results.append(next(result_iter))
            except StopIteration:
                return results
            except Exception as exc:
                if label is None:
                    raise
                # pool.map yields in submission order, so the first
                # failure corresponds to the next unfilled slot.
                raise BatchWorkerError(
                    label(items[len(results)]), describe_exception(exc)
                ) from exc


# ===========================================================================
# Typed job specs (content-addressed)
# ===========================================================================


def _memoized_key(spec: Any, *parts: Any) -> str:
    """Fingerprint once per spec instance.

    Specs are frozen but hashing several KB of source per poll shows
    up in the serve hot path; the HTTP front reuses parsed spec
    instances across identical request bodies, so caching the digest
    on the instance makes repeat submissions O(1).
    """
    key = spec.__dict__.get("_key")
    if key is None:
        key = fingerprint(*parts)
        object.__setattr__(spec, "_key", key)
    return key


@dataclass(frozen=True)
class TransformJobSpec:
    """Transform one translation unit (the ``ompdart batch`` unit)."""

    source: str
    filename: str = "<input>"
    macros: tuple[tuple[str, Any], ...] = ()
    werror: bool = False

    kind = "transform"

    def key(self) -> str:
        return _memoized_key(
            self, __version__, self.kind, self.source, self.filename,
            self.macros, self.werror,
        )

    def options(self) -> ToolOptions:
        return ToolOptions(
            predefined_macros=dict(self.macros), werror=self.werror
        )


@dataclass(frozen=True)
class BenchmarkJobSpec:
    """Evaluate one benchmark's three variants on one platform."""

    benchmark: str
    platform: str = ""
    vectorize: bool = True
    verify: bool = True

    kind = "benchmark"

    def key(self) -> str:
        return _memoized_key(
            self, __version__, self.kind, self.benchmark, self.platform,
            self.vectorize, self.verify,
        )


@dataclass(frozen=True)
class SuiteJobSpec:
    """The nine-benchmark evaluation, optionally a platform sweep."""

    platforms: tuple[str, ...] = ()
    benchmarks: tuple[str, ...] = ()
    vectorize: bool = True
    verify: bool = True

    kind = "suite"

    def key(self) -> str:
        return _memoized_key(
            self, __version__, self.kind, self.platforms, self.benchmarks,
            self.vectorize, self.verify,
        )


@dataclass(frozen=True)
class PingJobSpec:
    """Transport-measurement no-op job.

    Executes in microseconds and returns a payload of a chosen size,
    so the load harness (``ompdart load``) can measure the HTTP front
    itself — connection reuse, parsing, scheduling, serialization —
    without pipeline cost drowning the signal.  Distinct ``token``
    values defeat dedup when independent jobs are wanted; identical
    tokens exercise the coalescing and memoized-result paths.

    ``sleep_s`` turns the ping into a deterministic long-running job —
    the cancellation tests and the chaos harness's DELETE probe need a
    job that is reliably *still executing* when the cancel arrives.
    """

    token: str = ""
    payload_bytes: int = 0
    sleep_s: float = 0.0

    kind = "ping"

    def key(self) -> str:
        return _memoized_key(
            self, __version__, self.kind, self.token, self.payload_bytes,
            self.sleep_s,
        )


JobSpec = TransformJobSpec | BenchmarkJobSpec | SuiteJobSpec | PingJobSpec

_SPEC_KINDS: dict[str, type] = {
    "transform": TransformJobSpec,
    "benchmark": BenchmarkJobSpec,
    "suite": SuiteJobSpec,
    "ping": PingJobSpec,
}


def spec_from_dict(payload: dict[str, Any]) -> JobSpec:
    """Build a job spec from an HTTP request body.

    Raises :class:`ValueError` on unknown kinds or malformed fields so
    the server can answer 400 instead of crashing a worker.
    """
    if not isinstance(payload, dict):
        raise ValueError("job spec must be a JSON object")
    kind = payload.get("kind")
    cls = _SPEC_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown job kind {kind!r}; expected one of "
            f"{sorted(_SPEC_KINDS)}"
        )
    fields = dict(payload)
    fields.pop("kind")
    try:
        if cls is TransformJobSpec:
            macros = fields.get("macros", {})
            if isinstance(macros, dict):
                fields["macros"] = tuple(sorted(macros.items()))
            else:
                fields["macros"] = tuple(tuple(m) for m in macros)
        else:
            for name in ("platforms", "benchmarks"):
                if name in fields:
                    fields[name] = tuple(fields[name] or ())
        return cls(**fields)
    except TypeError as exc:
        raise ValueError(f"bad {kind} spec: {exc}") from exc


def spec_to_dict(spec: JobSpec) -> dict[str, Any]:
    from dataclasses import asdict

    out = asdict(spec)
    out["kind"] = spec.kind
    if isinstance(spec, TransformJobSpec):
        out["macros"] = [list(m) for m in spec.macros]
    else:
        for name in ("platforms", "benchmarks"):
            if name in out:
                out[name] = list(out[name])
    return out


# ===========================================================================
# Job execution (top-level: pool-picklable)
# ===========================================================================


def execute_job(spec: JobSpec) -> dict[str, Any]:
    """Execute one spec on this process's runtime; JSON-safe result.

    This is the single execution path behind the asyncio scheduler —
    the results are produced by exactly the code ``ompdart batch`` and
    ``ompdart suite`` run, so a served job is bit-identical to its CLI
    counterpart.
    """
    if isinstance(spec, PingJobSpec):
        # No pipeline, no manager: the answer is the round trip.
        if spec.sleep_s > 0:
            time.sleep(spec.sleep_s)
        return {
            "pong": True,
            "token": spec.token,
            "payload": "x" * max(0, spec.payload_bytes),
        }
    manager = _runtime_manager()
    if isinstance(spec, TransformJobSpec):
        outcome = transform_one(
            manager, spec.source, spec.filename, spec.options()
        )
        return outcome.as_dict()
    if isinstance(spec, BenchmarkJobSpec):
        from ..report.perf import run_to_dict
        from ..runtime.platform import resolve_platform
        from ..suite.runner import run_benchmark

        platform = resolve_platform(spec.platform or None)
        run = run_benchmark(
            spec.benchmark,
            platform=platform,
            verify=spec.verify,
            manager=manager,
            concurrent_variants=False,
            vectorize=spec.vectorize,
        )
        return {"platform": platform.name, "run": run_to_dict(run)}
    if isinstance(spec, SuiteJobSpec):
        from ..report.perf import sweep_to_dict
        from ..runtime.platform import DEFAULT_PLATFORM
        from ..suite.runner import run_sweep

        sweep = run_sweep(
            list(spec.platforms or (DEFAULT_PLATFORM,)),
            verify=spec.verify,
            names=list(spec.benchmarks) or None,
            manager=manager,
            concurrent_variants=False,
            vectorize=spec.vectorize,
        )
        # No artifact_store block here: the worker runtime is long-lived
        # and its cumulative cache counters would make the same
        # content-addressed spec return different payloads depending on
        # how warm the server is.  The CLI's one-shot suite run (fresh
        # manager per invocation) does attach its stats.
        return sweep_to_dict(sweep)
    raise TypeError(f"unknown job spec {type(spec).__name__}")
