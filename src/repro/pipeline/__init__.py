"""Staged pass-manager pipeline (production-scale driver architecture).

The paper's tool is a fixed sequence of analyses — preprocess ->
parse -> input constraints -> interprocedural effects -> AST-CFG ->
plan -> rewrite.  This package makes that sequence explicit: each stage
is a named :class:`~repro.pipeline.passes.Pass` operating on a shared
:class:`~repro.pipeline.context.PipelineContext`, the
:class:`~repro.pipeline.manager.PassManager` runs them in order with
per-pass artifact caching (content hash + options fingerprint) and
wall-time/hit-rate instrumentation, and :mod:`repro.pipeline.batch`
drives many translation units concurrently with deterministic result
ordering.

:class:`repro.core.tool.OMPDart` is a thin facade over this pipeline;
the evaluation harness (:mod:`repro.suite.runner`) shares one manager
per batch so the simulator frontend reuses the parse artifact instead
of re-parsing every benchmark source.
"""

from .cache import ArtifactCache, CacheStats, fingerprint  # noqa: F401
from .context import PipelineContext, ToolOptions  # noqa: F401
from .manager import PassManager  # noqa: F401
from .passes import DEFAULT_PASSES, Pass  # noqa: F401

__all__ = [
    "ArtifactCache",
    "BatchOutcome",
    "CacheStats",
    "DEFAULT_PASSES",
    "Pass",
    "PassManager",
    "PipelineContext",
    "ToolOptions",
    "fingerprint",
    "transform_batch",
    "transform_paths",
]

#: Batch-driver symbols resolve lazily (PEP 562): the batch driver is a
#: thin client of :mod:`repro.service.core`, which itself builds on the
#: cache/manager modules above — an eager import here would be a cycle.
_BATCH_EXPORTS = {
    "BatchOutcome",
    "transform_batch",
    "transform_paths",
}


def __getattr__(name: str):
    if name in _BATCH_EXPORTS:
        from . import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
