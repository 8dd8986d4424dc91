"""Concurrent batch driver: many translation units through the pipeline.

``transform_batch`` hands a list of sources to
:func:`repro.service.core.dispatch_map`, which runs them serially on one
in-process pass manager when ``jobs <= 1`` or fans them out over the
shared worker runtime otherwise, and returns compact, picklable
:class:`BatchOutcome` records in **submission order** — results are
deterministic regardless of worker scheduling.

Content-identical inputs are deduplicated at submit, so each distinct
source runs once.  Worker processes keep a process-global
:class:`PassManager`; pass a ``cache_dir`` to share artifacts across
processes and across runs through its spill files.  Every outcome
records which cache tier (memory or disk) served each pass, which
is what the CLI's ``--report`` sums.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

# Re-exported public surface: the worker runtime lives in the service
# layer; callers keep importing these from here.
from ..service.core import (  # noqa: F401
    BatchOutcome,
    BatchWorkerError,
    dispatch_map,
    transform_one,
)
from .cache import fingerprint
from .context import ToolOptions
from .manager import PassManager


@dataclass
class BatchRunStats:
    """Run-wide observability a caller can opt into per batch run."""

    #: Content-hash pre-dedup accounting for the run: how many distinct
    #: sources actually dispatched, and how many inputs were fanned out
    #: from a representative's result instead of running themselves.
    unique_inputs: int = 0
    deduped_inputs: int = 0


def _transform_item(
    manager: PassManager, job: tuple[str, str, ToolOptions]
) -> BatchOutcome:
    source, filename, options = job
    return transform_one(manager, source, filename, options)


def _failed_transform(
    job: tuple[str, str, ToolOptions], cause: str
) -> BatchOutcome:
    """The outcome of an input whose worker kept dying on it."""
    _, filename, _ = job
    return BatchOutcome(
        filename=filename, ok=False, error=f"{filename}: {cause}"
    )


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
    cache_dir: str | None = None,
    manager: PassManager | None = None,
    run_stats: BatchRunStats | None = None,
) -> list[BatchOutcome]:
    """Transform ``(source, filename)`` pairs; results in input order.

    Content-identical inputs collapse at submit: one representative
    runs, its outcome fans out to the duplicates with ``deduped_from``
    set.

    The representatives go through :func:`dispatch_map`: ``jobs <= 1``
    runs them in this process on ``manager``, or on one manager built
    over ``cache_dir``; ``jobs > 1`` fans out over a supervised process
    pool, where an input that keeps killing its worker comes back as
    an ``ok=False`` outcome naming it.  Either way the k-th outcome
    corresponds to the k-th input.

    An in-process ``manager`` cannot cross the process boundary, so
    combining it with ``jobs > 1`` is an error — use ``cache_dir`` to
    share artifacts between workers instead.  It brings its own cache,
    so combining it with ``cache_dir`` is an error too.  ``run_stats``
    receives the run's dedup counts.
    """
    options = options or ToolOptions()
    items = list(items)

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

    workers = max(1, min(jobs, len(unique)))
    results = dispatch_map(
        _transform_item,
        [(src, fname, options) for src, fname in unique],
        jobs=jobs,
        manager=manager,
        on_failure=_failed_transform,
        cache_dir=cache_dir,
        # Amortize per-item IPC once the queue is long; one chunk per
        # worker per ~8 rounds keeps the pool load-balanced.
        chunksize=max(1, min(32, len(unique) // (workers * 8))),
    )
    return [
        results[idx]
        if results[idx].filename == filename
        else _refit_outcome(results[idx], filename)
        for (_, filename), idx in zip(items, rep_index)
    ]


def transform_paths(
    paths: Sequence[str],
    options: ToolOptions | None = None,
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    run_stats: BatchRunStats | None = None,
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
        items, options, jobs=jobs, cache_dir=cache_dir, run_stats=run_stats
    )
    for i, outcome in zip(readable, results):
        outcomes_by_index[i] = outcome
    return [outcomes_by_index[i] for i in range(len(paths))]
