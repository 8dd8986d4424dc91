"""The pass manager: runs the stage chain with caching + instrumentation."""

from __future__ import annotations

import time
from typing import Iterable

from .cache import MISS, ArtifactCache, fingerprint
from .context import HIT, PipelineContext
from .context import MISS as MISS_EVENT
from .context import ToolOptions
from .passes import DEFAULT_PASSES, Pass


def _schedules(passes: tuple[Pass, ...]) -> dict[str, tuple[Pass, ...]]:
    """Pass name -> the passes a run ending there executes: the pass and
    everything it transitively requires, in chain order."""
    needs: dict[str, frozenset[str]] = {}
    for p in passes:
        if p.name in needs:
            names = [q.name for q in passes]
            raise ValueError(f"duplicate pass names in pipeline: {names}")
        for dep in p.requires:
            if dep not in needs:
                raise ValueError(
                    f"pass {p.name!r} requires {dep!r}, which is not an "
                    "earlier pass of the pipeline"
                )
        needs[p.name] = frozenset((p.name,)).union(
            *(needs[dep] for dep in p.requires)
        )
    return {
        name: tuple(p for p in passes if p.name in closure)
        for name, closure in needs.items()
    }


class PassManager:
    """Runs the passes a target needs over a :class:`PipelineContext`.

    A run ends at a target pass (``until``, by default the chain's last
    pass, ``rewrite``) and executes that pass and the passes it
    transitively requires, in chain order; any other pass is skipped.
    Per-pass artifacts are cached under a fingerprint of ``(source,
    filename, options)`` and kept together as one record per input: a
    run looks the record up on its first pass and commits it once at
    the end, so a repeated run of the same translation unit answers
    from cache in microseconds.  Wall time and cache events are
    recorded per pass on the context, which the tool facade surfaces
    through ``TransformResult.report()``.
    """

    def __init__(
        self,
        passes: Iterable[Pass] | None = None,
        cache: ArtifactCache | None = None,
    ):
        self.passes: tuple[Pass, ...] = tuple(passes or DEFAULT_PASSES)
        self.cache = cache if cache is not None else ArtifactCache()
        #: Optional per-pass observer (see :mod:`repro.report.profile`).
        #: ``begin_pass(name)`` / ``end_pass(name, wall_s, event)`` are
        #: called around every pass execution when set; the hot path
        #: pays a single None check otherwise.
        self.profiler = None
        self._schedules = _schedules(self.passes)

    # -- keys ------------------------------------------------------------

    @staticmethod
    def input_key(source: str, filename: str, options: ToolOptions) -> str:
        # The package version is part of the key so a persistent disk
        # cache can never serve artifacts produced by older analysis
        # code after an upgrade.
        from .._version import __version__

        return fingerprint(
            __version__, source, filename, *options.fingerprint_parts()
        )

    # -- execution -------------------------------------------------------

    def run(
        self,
        source: str,
        filename: str = "<input>",
        options: ToolOptions | None = None,
        *,
        until: str | None = None,
    ) -> PipelineContext:
        """Run the passes ``until`` needs (every pass the chain's last
        one needs by default) and return the populated context.  Raises
        :class:`ToolError` exactly like the original monolithic
        driver."""
        target = self.passes[-1].name if until is None else until
        try:
            schedule = self._schedules[target]
        except KeyError:
            raise KeyError(f"no pass named {until!r} in the pipeline") from None
        ctx = PipelineContext(source, filename, options or ToolOptions())
        key = self.input_key(ctx.source, ctx.filename, ctx.options)
        try:
            for p in schedule:
                self._run_pass(p, ctx, key)
        finally:
            # One spill per run, also for partial runs and for runs a
            # ToolError stopped: whatever was built is kept.
            self.cache.commit(key)
        return ctx

    def _run_pass(self, p: Pass, ctx: PipelineContext, key: str) -> None:
        profiler = self.profiler
        if profiler is not None:
            profiler.begin_pass(p.name)
        start = time.perf_counter()
        value, origin = self.cache.lookup(p.name, key)
        if value is not MISS:
            event = HIT
        else:
            value = p.build(ctx)
            self.cache.put(p.name, key, value)
            event = MISS_EVENT
        ctx.artifacts[p.name] = value
        ctx.cache_events[p.name] = event
        if origin is not None:
            ctx.cache_origins[p.name] = origin
        wall = time.perf_counter() - start
        ctx.timings[p.name] = wall
        if profiler is not None:
            profiler.end_pass(p.name, wall, event)
        if p.finalize is not None:
            p.finalize(ctx, value)

    # -- conveniences ----------------------------------------------------

    def parse(
        self,
        source: str,
        filename: str = "<input>",
        options: ToolOptions | None = None,
    ):
        """Parse ``source`` through the cached pipeline and return
        the translation unit (the artifact the simulator frontend shares
        with the tool, killing the historical double parse)."""
        return self.run(source, filename, options, until="parse").artifact("parse")
