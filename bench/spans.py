"""Spans recorded from the benchmark's side of the program's public calls.

The benchmark wraps the callables it hands to the program: each pass's
``build`` inside a :class:`PassManager`, ``lookup``/``put`` of an
:class:`ArtifactCache` subclass, and its own calls to ``OMPDart.run``,
``run_simulation`` and each HTTP request.  Nothing inside the program
changes.  Spans stay in memory and are written once, at exit, as Chrome
trace-event JSON (``ompdart-trace/1``) that Perfetto opens.  Every span
has a name, a start, an end, a parent span and the trace id of the op
(a file or a request) that caused it.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterator

TRACE_SCHEMA = "ompdart-trace/1"


class Span:
    __slots__ = ("id", "name", "parent", "trace", "start", "end", "attrs")

    def __init__(self, id: int, name: str, parent: int | None, trace: str,
                 start: float, attrs: dict[str, Any]):
        self.id = id
        self.name = name
        self.parent = parent
        self.trace = trace
        self.start = start
        self.end = start
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread of nested calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _new(self, name: str, trace: str | None, start: float,
             attrs: dict[str, Any], parent: Span | None) -> Span:
        span = Span(
            len(self.spans) + 1, name, parent.id if parent else None,
            parent.trace if parent else (trace or name), start, attrs,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, trace: str | None = None,
             **attrs: Any) -> Iterator[Span]:
        """Time the block as a child of the innermost open span.

        ``trace`` names a new op and is used only for a root span;
        children inherit their parent's trace id.
        """
        parent = self._stack[-1] if self._stack else None
        span = self._new(name, trace, time.perf_counter(), attrs, parent)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, trace: str, start: float, end: float,
               **attrs: Any) -> None:
        """Add a finished root span (for overlapping asyncio requests)."""
        span = self._new(name, trace, start, attrs, None)
        span.end = end

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[str, float]:
        """Span name -> total duration minus what its children cover."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = (
                    child_time.get(span.parent, 0.0) + span.seconds
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span.seconds - child_time.get(span.id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path: Path, **meta: Any) -> None:
        """Chrome trace-event JSON: one complete ("X") event per span."""
        origin = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": pid,
                "tid": 1,
                "args": {
                    "span_id": s.id,
                    "parent_id": s.parent,
                    "trace_id": s.trace,
                    **s.attrs,
                },
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_SCHEMA, **meta},
        }))


class _NullSpan:
    __slots__ = ("attrs",)

    def __init__(self) -> None:
        self.attrs: dict[str, Any] = {}


class NullTracer:
    """Stands in for :class:`Tracer` on untraced runs; records nothing."""

    @contextmanager
    def span(self, name: str, trace: str | None = None,
             **attrs: Any) -> Iterator[_NullSpan]:
        yield _NullSpan()

    def record(self, *args: Any, **attrs: Any) -> None:
        pass


def traced_manager(tracer: Tracer, cache_dir: str | None = None):
    """A ``PassManager`` whose passes and cache record spans.

    ``pipeline.run`` spans one ``PassManager.run`` call, ``pass.<name>``
    spans a pass's ``build`` (cache hits skip it) and ``cache.lookup`` /
    ``cache.put`` span the cache calls the manager makes around it.
    """
    from repro.pipeline import DEFAULT_PASSES, ArtifactCache, PassManager

    class TracedCache(ArtifactCache):
        def lookup(self, pass_name, key, deps=None):
            with tracer.span("cache.lookup", pass_name=pass_name) as span:
                value, origin = super().lookup(pass_name, key, deps)
                span.attrs["origin"] = origin
            return value, origin

        def put(self, pass_name, key, value):
            with tracer.span("cache.put", pass_name=pass_name):
                super().put(pass_name, key, value)

    class TracedManager(PassManager):
        def run(self, source, filename="<input>", options=None, *,
                until=None):
            with tracer.span("pipeline.run", trace=filename,
                             filename=filename, until=until):
                return super().run(source, filename, options, until=until)

    def wrap(p):
        def build(ctx):
            with tracer.span(f"pass.{p.name}") as span:
                artifact = p.build(ctx)
                if p.name == "preprocess":
                    span.attrs["tokens"] = len(artifact[0])
                elif p.name == "parse":
                    span.attrs["tokens"] = len(ctx.artifact("preprocess")[0])
            return artifact

        return replace(p, build=build)

    return TracedManager(
        passes=[wrap(p) for p in DEFAULT_PASSES],
        cache=TracedCache(disk_dir=cache_dir),
    )
