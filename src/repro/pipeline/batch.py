"""Concurrent batch driver: many translation units through the pipeline.

``transform_batch`` fans a list of sources out over the shared worker
runtime of :mod:`repro.service.core` (or runs them serially through one
shared in-process cache when ``jobs <= 1``) and returns compact,
picklable :class:`BatchOutcome` records in **submission order** —
results are deterministic regardless of worker scheduling.

Content-identical inputs are deduplicated at submit, so each distinct
source runs once.  Worker processes keep a process-global
:class:`PassManager`; pass a ``cache_dir`` to share artifacts across
processes and across runs through its spill files.  Every outcome
records which cache tier (memory, disk, remote) served each pass, which
is what the CLI's ``--report`` sums.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Sequence

# Re-exported public surface: the worker runtime lives in the service
# layer now; callers keep importing it from here.
from ..service.core import (  # noqa: F401
    BatchOutcome,
    BatchWorkerError,
    describe_exception,
    dispatch_map,
    transform_one,
    worker_init,
    worker_manager,
    _WORKER_MANAGERS,
)
from .cache import ArtifactCache, fingerprint
from .context import ToolOptions
from .manager import PassManager

#: Backwards-compatible aliases (the worker runtime moved to the
#: service layer; the batch driver is a thin client of it).
_worker_init = worker_init
_worker_manager = worker_manager
_transform_one = transform_one


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: int = 1,
    label: Callable[[Any], str] | None = None,
) -> list[Any]:
    """Order-preserving map used by the evaluation harness.

    Thin alias of :func:`repro.service.core.dispatch_map` — kept here
    because the harness and tests import it from the pipeline package.
    """
    return dispatch_map(fn, items, jobs=jobs, label=label)


@dataclass
class BatchRunStats:
    """Run-wide observability a caller can opt into per batch run."""

    #: Remote-tier counters (:data:`repro.pipeline.remote.EVENTS`) of a
    #: run with a ``store_url``, summed over every worker.
    remote: dict[str, int] | None = None
    #: Content-hash pre-dedup accounting for the run: how many distinct
    #: sources actually dispatched, and how many inputs were fanned out
    #: from a representative's result instead of running themselves.
    unique_inputs: int = 0
    deduped_inputs: int = 0


def _worker_transform(job: tuple[str, str, ToolOptions]) -> BatchOutcome:
    source, filename, options = job
    from ..service.core import _runtime_manager

    return transform_one(_runtime_manager(), source, filename, options)


def _retag(text: str | None, old: str, new: str) -> str | None:
    """Swap a representative's filename prefix for the duplicate's."""
    if text is not None and text.startswith(old):
        return new + text[len(old):]
    return text


def _refit_outcome(rep: BatchOutcome, filename: str) -> BatchOutcome:
    """Attribute a representative's result to a duplicate input.

    Diagnostics and parse errors render as ``filename:line:col: ...``,
    so the representative's name is rewritten wherever it leads a
    message; everything else (output, plans, timings) is shared content
    and carries over as-is.  Mutable fields are copied so callers can
    annotate one outcome without aliasing its siblings.
    """
    old = rep.filename
    return replace(
        rep,
        filename=filename,
        error=_retag(rep.error, old, filename),
        diagnostics=tuple(_retag(d, old, filename) for d in rep.diagnostics),
        timings=dict(rep.timings),
        cache_events=dict(rep.cache_events),
        cache_origins=dict(rep.cache_origins),
        deduped_from=old,
    )


# -- public API --------------------------------------------------------------


def transform_batch(
    items: Sequence[tuple[str, str]],
    options: ToolOptions | None = None,
    *,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    cache_dir: str | None = None,
    manager: PassManager | None = None,
    run_stats: BatchRunStats | None = None,
    store_url: str | None = None,
) -> list[BatchOutcome]:
    """Transform ``(source, filename)`` pairs; results in input order.

    Content-identical inputs collapse at submit: one representative
    runs, its outcome fans out to the duplicates with ``deduped_from``
    set.

    ``jobs <= 1`` runs serially through one shared manager (and shared
    artifact cache); ``jobs > 1`` fans out over a process pool.  Either
    way the k-th outcome corresponds to the k-th input.

    In-process ``cache``/``manager`` objects cannot cross the process
    boundary, so combining them with ``jobs > 1`` is an error — use
    ``cache_dir`` to share artifacts between workers instead.

    ``store_url`` layers the remote tier on top: lookups that miss
    locally read through to a store node's ``/artifacts`` routes and
    fresh spills publish back write-behind.  Requires ``cache_dir``
    (remote payloads land as local spills); a down store node degrades
    to the local tiers, it never fails the batch.  ``run_stats``
    receives the run's remote counters.
    """
    options = options or ToolOptions()
    items = list(items)
    if jobs > 1 and (cache is not None or manager is not None):
        raise ValueError(
            "cache/manager cannot be shared with worker processes; "
            "pass cache_dir for cross-process artifact sharing"
        )
    if store_url is not None and cache_dir is None:
        raise ValueError("--store-url requires a cache directory")

    # Content-hash pre-dedup at submit: the pipeline's input key
    # includes the filename, so identical content under different names
    # never shares cache entries — each unique source dispatches once
    # and its result fans out to every duplicate.
    unique: list[tuple[str, str]] = []
    rep_of_hash: dict[str, int] = {}
    rep_index: list[int] = []
    for source, filename in items:
        content_key = fingerprint(source)
        idx = rep_of_hash.get(content_key)
        if idx is None:
            idx = rep_of_hash[content_key] = len(unique)
            unique.append((source, filename))
        rep_index.append(idx)
    if run_stats is not None:
        run_stats.unique_inputs = len(unique)
        run_stats.deduped_inputs = len(items) - len(unique)

    def _fan_out(rep_results: list[BatchOutcome]) -> list[BatchOutcome]:
        return [
            rep_results[idx]
            if rep_results[idx].filename == filename
            else _refit_outcome(rep_results[idx], filename)
            for (_, filename), idx in zip(items, rep_index)
        ]

    if jobs <= 1 or len(unique) <= 1:
        mgr = manager or PassManager(
            cache=cache
            if cache is not None
            else ArtifactCache(disk_dir=cache_dir)
        )
        remote = None
        if store_url is not None and mgr.cache.disk_dir is not None:
            from ..service.core import make_remote_client

            remote = make_remote_client(store_url)
            mgr.cache.remote = remote
        try:
            return _fan_out([
                transform_one(mgr, source, filename, options)
                for source, filename in unique
            ])
        finally:
            if remote is not None:
                remote.flush(timeout=5.0)
                if run_stats is not None:
                    run_stats.remote = dict(remote.counters)
                mgr.cache.remote = None
                remote.close()

    jobs = min(jobs, len(unique))
    payload = [(src, fname, options) for src, fname in unique]
    counters = None
    if store_url is not None:
        from .remote import RemoteCounters

        counters = RemoteCounters()
    results = dispatch_map(
        _worker_transform,
        payload,
        jobs=jobs,
        cache_dir=cache_dir,
        store_url=store_url,
        remote_counters=counters,
        # Amortize per-item IPC once the queue is long; one chunk per
        # worker per ~8 rounds keeps the pool load-balanced.
        chunksize=max(1, min(32, len(payload) // (jobs * 8))),
    )
    if counters is not None and run_stats is not None:
        run_stats.remote = counters.snapshot()
    return _fan_out(results)


def transform_paths(
    paths: Sequence[str],
    options: ToolOptions | None = None,
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    run_stats: BatchRunStats | None = None,
    store_url: str | None = None,
) -> list[BatchOutcome]:
    """Read files and transform them as one batch (CLI entry point)."""
    items: list[tuple[str, str]] = []
    outcomes_by_index: dict[int, BatchOutcome] = {}
    readable: list[int] = []
    for i, path in enumerate(paths):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                items.append((fh.read(), path))
            readable.append(i)
        except OSError as exc:
            outcomes_by_index[i] = BatchOutcome(
                filename=path, ok=False, error=f"cannot read {path}: {exc}"
            )
    results = transform_batch(
        items, options, jobs=jobs, cache_dir=cache_dir,
        run_stats=run_stats, store_url=store_url,
    )
    for i, outcome in zip(readable, results):
        outcomes_by_index[i] = outcome
    return [outcomes_by_index[i] for i in range(len(paths))]
