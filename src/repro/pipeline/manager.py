"""The pass manager: runs the stage chain with caching + instrumentation.

A run first looks up the stored passes of its schedule, which loads
the input's record once, then executes the schedule in chain order:
every pass it looked up as a hit or a build, and an unstored pass only
when the target or a pass being built transitively requires it.  A run
whose stored passes all hit therefore builds nothing, and a record that
holds ``parse`` spares a later run the ``preprocess`` pass.

A run reads and writes its target's part of the record
(:mod:`repro.pipeline.artifacts`).  A run that targets ``summary``
looks that pass up alone first: a hit answers the run by itself, and
only a miss looks up the analysis part's passes, which the summary is
then built from.  Such a run stores only the summary, so its commit
spills only the summary part, and a batch or served transform neither
decodes nor re-encodes the translation unit.
"""

from __future__ import annotations

import time
from typing import Iterable

from ..diagnostics import ToolError
from .artifacts import part_of
from .cache import MISS, ArtifactCache, fingerprint
from .context import HIT, PipelineContext
from .context import MISS as MISS_EVENT
from .context import ToolOptions
from .passes import DEFAULT_PASSES, DEFAULT_TARGET, Pass


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


#: Looked-up pass name -> (artifact or MISS, origin, lookup seconds).
_Found = dict[str, tuple[object, str | None, float]]

#: What a pass not looked up starts from: no artifact, no lookup time.
_UNSTORED = (MISS, None, 0.0)


def _needed(schedule: tuple[Pass, ...], found: _Found) -> list[Pass]:
    """The passes of ``schedule`` a run executes, in chain order.

    Every pass the run looked up runs, as a hit or a build.  Any other
    pass runs when the target (the schedule's last pass) or a pass
    being built requires it, directly or through other such passes.
    """
    wanted = {schedule[-1].name}
    needed = []
    for p in reversed(schedule):
        looked_up = p.name in found
        builds = found[p.name][0] is MISS if looked_up else p.name in wanted
        if builds:
            wanted.update(p.requires)
        if builds or looked_up:
            needed.append(p)
    needed.reverse()
    return needed


class PassManager:
    """Runs the passes a target needs over a :class:`PipelineContext`.

    A run ends at a target pass (``until``, by default ``rewrite``).
    Of that pass and the passes it transitively requires, it executes
    in chain order every stored pass it looked up and each other pass
    that a build needs; any other pass is skipped.  Stored artifacts
    are cached under a fingerprint of ``(source, filename, options)``
    and kept together as one record per input: a run looks the record
    up before its first pass and commits it once at the end, so a
    repeated run of the same translation unit answers from cache in
    microseconds.  A run looks up and stores the stored passes of its
    target's record part; when one of them misses it also looks up,
    but never stores, those of the other part.  Wall time and cache
    events are recorded on the context for each pass that ran (a built
    pass is a ``miss``, stored or not), which the tool facade surfaces
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
        """Run the passes ``until`` needs (``rewrite``'s by default)
        and return the populated context.  Raises :class:`ToolError`
        exactly like the original monolithic driver; when it stops a
        run before a target with a ``reject`` hook, the hook's artifact
        is stored instead, so a hit replays the rejection."""
        target = DEFAULT_TARGET if until is None else until
        try:
            schedule = self._schedules[target]
        except KeyError:
            raise KeyError(f"no pass named {target!r} in the pipeline") from None
        ctx = PipelineContext(source, filename, options or ToolOptions())
        key = self.input_key(ctx.source, ctx.filename, ctx.options)
        part = part_of(target)
        try:
            found = self._lookup(schedule, key, part)
            for p in _needed(schedule, found):
                # A run stores only its target's part: the analysis
                # artifacts a summary run builds stay in its context.
                stores = p.stored and part_of(p.name) == part
                self._run_pass(
                    p, ctx, key, stores, *found.get(p.name, _UNSTORED)
                )
        except ToolError as error:
            last = schedule[-1]
            if last.reject is not None and found[last.name][0] is MISS:
                self.cache.put(last.name, key, last.reject(ctx, error))
            raise
        finally:
            # One spill per run, also for partial runs and for runs a
            # ToolError stopped: whatever was stored is kept.
            self.cache.commit(key)
        return ctx

    def _lookup(self, schedule: tuple[Pass, ...], key: str, part: int) -> _Found:
        """Look up the stored passes of ``schedule`` in record part
        ``part``, and when one of them misses, those of the other part.

        The first lookup loads the input's record, so it carries the
        load time into that pass's timing.
        """
        found: _Found = {}
        for own in (True, False):
            for p in schedule:
                if p.stored and (part_of(p.name) == part) == own:
                    start = time.perf_counter()
                    value, origin = self.cache.lookup(p.name, key)
                    found[p.name] = (value, origin, time.perf_counter() - start)
            if all(value is not MISS for value, _, _ in found.values()):
                break  # nothing to build: the other part is not read
        return found

    def _run_pass(
        self,
        p: Pass,
        ctx: PipelineContext,
        key: str,
        stores: bool,
        value: object,
        origin: str | None,
        wall: float,
    ) -> None:
        """Record a hit, or build the pass (putting the artifact in the
        record when ``stores``); ``wall`` starts at the pass's lookup
        time."""
        profiler = self.profiler
        if profiler is not None:
            profiler.begin_pass(p.name)
        if value is not MISS:
            event = HIT
            ctx.cache_origins[p.name] = origin
        else:
            start = time.perf_counter()
            value = p.build(ctx)
            if stores:
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
