"""Shared worker runtime + typed job specs for every concurrent driver.

Each worker process holds one
:class:`~repro.pipeline.manager.PassManager`, built by
:func:`worker_init` over its pool's cache directory, and runs every
job it is sent on it; sibling workers share artifacts through that
directory's spills.  Batch and suite runs, serial or ``-j N``,
dispatch through :func:`dispatch_map`, which hands each item function
the pass manager it runs on: the caller's, one :func:`build_manager`
makes over the cache directory, or a pool worker's runtime manager,
built by the same function.  Pooled items travel as chunk jobs to a
:class:`~repro.service.supervisor.SupervisedPool`; the asyncio
scheduler submits its specs to a pool of its own.  Every process
worker runs one loop into :func:`execute_job`, so a transform is
bit-identical no matter which front submitted it.

Job specs are frozen, picklable and content-addressed:
:meth:`JobSpec.key` fingerprints the spec together with the package
version, which is what the scheduler dedups on and what the HTTP front
uses as the job id.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .._version import __version__
from ..diagnostics import ToolError
from ..pipeline.cache import ArtifactCache, fingerprint
from ..pipeline.context import ToolOptions
from ..pipeline.manager import PassManager


class BatchWorkerError(RuntimeError):
    """A worker failure, labelled with the input that caused it.

    :func:`dispatch_map` reports each failed item, serial or pooled, as
    a one-line cause; its failure hook wraps it so the failing input
    (the suite's benchmark name) is in the message.  ``label`` and
    ``cause`` survive pickling.
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
    #: pass name -> "memory" | "disk" for cache hits.
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

#: This process's runtime manager: built by :func:`worker_init` in a
#: pool worker, or memory-only on first use in a process no pool
#: started (a test calling :func:`execute_job` directly).
_WORKER_MANAGER: PassManager | None = None


def build_manager(cache_dir: str | None) -> PassManager:
    """A pass manager over ``cache_dir`` (None: memory only).

    Serial dispatch and every worker process build their manager here.
    """
    return PassManager(cache=ArtifactCache(disk_dir=cache_dir or None))


def worker_init(cache_dir: str | None) -> None:
    """Pool initializer: build this worker's manager over ``cache_dir``.

    Always a fresh manager, never the one a forked worker inherits from
    its parent.  Its memory tier starts empty; an input's first lookup
    reads its record from ``cache_dir``.
    """
    global _WORKER_MANAGER
    _WORKER_MANAGER = build_manager(cache_dir)


def dispatch_map(
    fn: Callable[[PassManager, Any], Any],
    items: Iterable[Any],
    *,
    jobs: int = 1,
    manager: PassManager | None = None,
    on_failure: Callable[[Any, str], Any] | None = None,
    cache_dir: str | None = None,
    chunksize: int = 1,
) -> list[Any]:
    """Order-preserving ``fn(manager, item)`` map — the one dispatch path
    batch and suite runs share, and the only place that chooses between
    in-process and pooled execution.

    ``jobs <= 1`` (or a single item) runs in this process on
    ``manager``, or on one :func:`build_manager` makes over
    ``cache_dir``.  ``jobs > 1`` runs ``fn`` on a
    :class:`~repro.service.supervisor.SupervisedPool` built for this
    call over ``cache_dir``; each worker passes its runtime manager,
    built by the same function, so ``fn`` must be a picklable top-level
    callable.  Items travel in :class:`ChunkJobSpec` jobs of up to
    ``chunksize`` items, which amortizes pipe IPC over long queues.
    Results always come back in input order, so parallel runs are
    bit-identical to serial ones for deterministic workloads.

    A caller's ``manager`` cannot cross the process boundary, so it is
    an error with ``jobs > 1`` (whatever the item count); it brings its
    own cache, so it is an error with ``cache_dir`` too.

    A dead worker costs one retried chunk.  A chunk that keeps killing
    workers is quarantined by the pool; its items then rerun one per
    job, so only an item quarantined in its own job fails.

    ``on_failure(item, cause)`` settles a failed item — one whose
    ``fn`` raised, or that was quarantined — where ``cause`` is a
    one-line description.  Its return value becomes the item's result,
    or it raises.  Without it, the serial path re-raises the original
    exception and the pooled path raises :class:`BatchWorkerError`
    labelled with the item's index.
    """
    if manager is not None and jobs > 1:
        raise ValueError(
            "a manager cannot be shared with worker processes; "
            "pass cache_dir for cross-process artifact sharing"
        )
    if manager is not None and cache_dir:
        raise ValueError(
            "a manager brings its own cache; pass either it or cache_dir"
        )
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        if manager is None:
            manager = build_manager(cache_dir)
        if on_failure is None:
            return [fn(manager, item) for item in items]
        settled = [_apply(fn, manager, item) for item in items]
    else:
        from .supervisor import SupervisedPool

        pool = SupervisedPool(min(jobs, len(items)), cache_dir=cache_dir)
        try:
            step = max(1, chunksize)
            submitted = [
                _submit_chunk(pool, fn, items[start:start + step])
                for start in range(0, len(items), step)
            ]
            settled = [
                pair for job in submitted for pair in _settle_chunk(pool, job)
            ]
        finally:
            pool.shutdown()
    results = []
    for index, (item, (ok, value)) in enumerate(zip(items, settled)):
        if ok:
            results.append(value)
        elif on_failure is not None:
            results.append(on_failure(item, value))
        else:
            raise BatchWorkerError(f"item {index}", value)
    return results


def _submit_chunk(
    pool: Any, fn: Callable[[PassManager, Any], Any], chunk: list
) -> Any:
    return pool.submit_spec(ChunkJobSpec(fn, tuple(chunk)))


def _settle_chunk(pool: Any, job: Any) -> list[tuple[bool, Any]]:
    """``(ok, result or cause)`` per item of a submitted chunk job."""
    from .supervisor import PoisonJobError, PoolExhausted

    chunk = job.spec.items
    try:
        return job.future.result()
    except PoisonJobError as exc:
        if len(chunk) == 1:
            return [(False, describe_exception(exc))]
    except Exception as exc:  # noqa: BLE001 - e.g. the pool is exhausted
        return [(False, describe_exception(exc))] * len(chunk)
    # One of the items keeps killing workers: rerun each alone, so that
    # only the culprit fails.
    try:
        singles = [_submit_chunk(pool, job.spec.fn, [item]) for item in chunk]
    except PoolExhausted as exc:
        return [(False, describe_exception(exc))] * len(chunk)
    return [pair for single in singles for pair in _settle_chunk(pool, single)]


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
    so a client can exercise the HTTP front itself — connection reuse,
    parsing, scheduling, serialization — without pipeline cost
    drowning the signal.  Distinct ``token``
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


@dataclass(frozen=True)
class ChunkJobSpec:
    """Apply ``fn(manager, item)`` to a chunk of items in one worker
    (batch, ``suite -j``), on that worker's runtime manager.

    :func:`dispatch_map` builds these; ``fn`` crosses the pipe by
    reference, so no HTTP body can name this kind (it stays out of
    ``_SPEC_KINDS``).
    """

    fn: Callable[[PassManager, Any], Any]
    items: tuple[Any, ...]

    kind = "chunk"

    def key(self) -> str:
        return _memoized_key(
            self, __version__, self.kind,
            f"{self.fn.__module__}.{self.fn.__qualname__}", self.items,
        )


JobSpec = (
    TransformJobSpec | BenchmarkJobSpec | SuiteJobSpec | PingJobSpec
    | ChunkJobSpec
)

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


def execute_job(spec: JobSpec) -> Any:
    """Execute one spec on this process's runtime.

    This is the single execution path behind every process worker: the
    asyncio scheduler's specs get a JSON-safe result, produced by
    exactly the code ``ompdart batch`` and ``ompdart suite`` run, so a
    served job is bit-identical to its CLI counterpart.  A chunk job
    returns ``(ok, result or cause)`` per item, so an item that raises
    is reported as itself, not as its chunk.
    """
    global _WORKER_MANAGER
    if isinstance(spec, PingJobSpec):
        # No pipeline, no manager: the answer is the round trip.
        if spec.sleep_s > 0:
            time.sleep(spec.sleep_s)
        return {
            "pong": True,
            "token": spec.token,
            "payload": "x" * max(0, spec.payload_bytes),
        }
    if _WORKER_MANAGER is None:
        _WORKER_MANAGER = build_manager(None)
    manager = _WORKER_MANAGER
    if isinstance(spec, ChunkJobSpec):
        return [_apply(spec.fn, manager, item) for item in spec.items]
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
            vectorize=spec.vectorize,
        )
        return sweep_to_dict(sweep)
    raise TypeError(f"unknown job spec {type(spec).__name__}")


def _apply(
    fn: Callable[[PassManager, Any], Any], manager: PassManager, item: Any
) -> tuple[bool, Any]:
    try:
        return True, fn(manager, item)
    except Exception as exc:  # noqa: BLE001 - reported per item
        return False, describe_exception(exc)
