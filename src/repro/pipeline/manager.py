"""The pass manager: runs the stage chain with caching + instrumentation.

A run first looks up the stored passes of its schedule, which loads
the input's record once, then executes the schedule in chain order:
every stored pass as a hit or a build, and an unstored pass only when
the target or a pass being built transitively requires it.  A run whose
stored passes all hit therefore builds nothing, and a record that holds
``parse`` spares a later run the ``preprocess`` pass.
"""

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


#: Stored pass name -> (artifact or MISS, origin, lookup seconds).
_Found = dict[str, tuple[object, str | None, float]]

#: What an unstored pass starts from: no artifact, no lookup time.
_UNSTORED = (MISS, None, 0.0)


def _needed(schedule: tuple[Pass, ...], found: _Found) -> list[Pass]:
    """The passes of ``schedule`` a run executes, in chain order.

    Every stored pass runs, as a hit or a build.  An unstored pass runs
    when the target (the schedule's last pass) or a pass being built
    requires it, directly or through other unstored passes.
    """
    wanted = {schedule[-1].name}
    needed = []
    for p in reversed(schedule):
        builds = found[p.name][0] is MISS if p.stored else p.name in wanted
        if builds:
            wanted.update(p.requires)
        if builds or p.stored:
            needed.append(p)
    needed.reverse()
    return needed


class PassManager:
    """Runs the passes a target needs over a :class:`PipelineContext`.

    A run ends at a target pass (``until``, by default the chain's last
    pass, ``rewrite``).  Of that pass and the passes it transitively
    requires, it executes in chain order every stored pass and each
    unstored pass that a build needs; any other pass is skipped.
    Stored artifacts are cached under a fingerprint of ``(source,
    filename, options)`` and kept together as one record per input: a
    run looks the record up before its first pass and commits it once
    at the end, so a repeated run of the same translation unit answers
    from cache in microseconds.  Wall time and cache events are
    recorded on the context for each pass that ran (a built pass is a
    ``miss``, stored or not), which the tool facade surfaces through
    ``TransformResult.report()``.
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
            found = self._lookup(schedule, key)
            for p in _needed(schedule, found):
                self._run_pass(p, ctx, key, *found.get(p.name, _UNSTORED))
        finally:
            # One spill per run, also for partial runs and for runs a
            # ToolError stopped: whatever was built is kept.
            self.cache.commit(key)
        return ctx

    def _lookup(self, schedule: tuple[Pass, ...], key: str) -> _Found:
        """Look up every stored pass of ``schedule``.

        The first lookup loads the input's record, so it carries the
        load time into that pass's timing.
        """
        found = {}
        for p in schedule:
            if p.stored:
                start = time.perf_counter()
                value, origin = self.cache.lookup(p.name, key)
                found[p.name] = (value, origin, time.perf_counter() - start)
        return found

    def _run_pass(
        self,
        p: Pass,
        ctx: PipelineContext,
        key: str,
        value: object,
        origin: str | None,
        wall: float,
    ) -> None:
        """Record a hit, or build the pass (storing a stored artifact);
        ``wall`` starts at the pass's lookup time."""
        profiler = self.profiler
        if profiler is not None:
            profiler.begin_pass(p.name)
        if value is not MISS:
            event = HIT
            ctx.cache_origins[p.name] = origin
        else:
            start = time.perf_counter()
            value = p.build(ctx)
            if p.stored:
                self.cache.put(p.name, key, value)
            wall += time.perf_counter() - start
            event = MISS_EVENT
        ctx.artifacts[p.name] = value
        ctx.cache_events[p.name] = event
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
