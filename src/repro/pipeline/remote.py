"""Remote artifact store backend: HTTP client built failure-first.

A cache directory shares artifacts across the worker processes of *one
machine*.  This module extends the tier one hop further: a
:class:`RemoteStoreClient` moves the spill records of
:mod:`repro.pipeline.artifacts` (one per input) over the
content-addressed ``/artifacts/<key>`` routes of ``ompdart serve``, so
a fleet of batch/serve nodes shares pipeline artifacts cross-machine.

The design is failure-first — a down or lying store node must never
fail a job, only slow its cache hits:

* **Per-request deadlines.**  Every HTTP exchange carries a socket
  timeout; a hung store node costs at most ``timeout`` seconds.
* **Bounded retries with backoff + jitter.**  Transient failures are
  retried a bounded number of times with exponential backoff; the
  jitter is *deterministic* (derived from the key and attempt), so
  chaos runs stay reproducible.
* **Circuit breaker.**  After ``breaker_threshold`` consecutive
  failed operations the breaker opens and every remote operation is
  skipped (counted as ``degraded``) until ``breaker_cooldown`` has
  passed, at which point a single half-open probe decides whether to
  close it again.  While open, lookups fall through to the local
  memory/disk tiers exactly as if no remote store were configured.
* **Write-behind publishing.**  ``offer`` enqueues spill uploads on a
  bounded queue drained by a daemon thread; under backpressure the
  queue sheds **oldest-first** (the newest artifact is the one a peer
  is most likely to want) and counts what it dropped.

Every client counts its traffic by event name (:data:`EVENTS`).  A
pool owner hands its workers one :class:`RemoteCounters` array, so
``batch --report`` and ``/stats`` read pool-wide totals in the same
shape a single in-process client reports.

Chaos seams: :data:`request_fault_hook` and :data:`payload_fault_hook`
are installed by :mod:`repro.service.faults` for the deterministic
network fault kinds (``drop-conn``, ``slow-peer``, ``corrupt-payload``,
``partition``); production never sets them.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import multiprocessing
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable
from urllib.parse import urlsplit

__all__ = [
    "EVENTS",
    "CircuitBreaker",
    "InjectedNetworkFault",
    "RemoteCounters",
    "RemoteStoreClient",
    "RemoteStoreConfig",
]

#: Counter events, by the names ``/stats`` and ``--report`` publish.
EVENTS: tuple[str, ...] = (
    "hits", "misses", "puts", "errors", "breaker_opens", "breaker_closes",
    "publish_shed", "publish_errors", "degraded",
)
_EVENT_INDEX = {name: i for i, name in enumerate(EVENTS)}

#: Chaos seams (installed by :mod:`repro.service.faults`; never set in
#: production).  The request hook runs once per attempt before the
#: HTTP exchange and may sleep (slow-peer) or raise
#: :class:`InjectedNetworkFault` (drop-conn, partition); the payload
#: hook may corrupt a fetched response body (corrupt-payload).
request_fault_hook: Callable[[str, str, int], None] | None = None
payload_fault_hook: Callable[[str, bytes], bytes] | None = None


class InjectedNetworkFault(ConnectionError):
    """A deterministic chaos-plan network failure."""


@dataclass(frozen=True)
class RemoteStoreConfig:
    """Tunables of one remote store client."""

    #: Per-request deadline (connect + exchange), seconds.
    timeout: float = 2.0
    #: Additional attempts after the first failed one.
    retries: int = 2
    #: Base backoff before the first retry; doubles per attempt.
    backoff: float = 0.05
    #: Ceiling on any single backoff sleep.
    backoff_cap: float = 1.0
    #: Consecutive failed operations that trip the breaker open.  An
    #: operation has already failed ``retries + 1`` attempts, and a
    #: pipeline run makes one record fetch, so one failed operation is
    #: enough: a dead store degrades the node within its first job.
    breaker_threshold: int = 1
    #: Seconds the breaker stays open before one half-open probe.
    breaker_cooldown: float = 5.0
    #: Bound on the write-behind publish queue (sheds oldest-first).
    publish_queue: int = 64


class CircuitBreaker:
    """Three-state (closed/open/half-open) breaker, thread-safe.

    ``allow()`` answers whether an operation may go remote *right
    now*; callers report the outcome via ``record_success`` /
    ``record_failure``.  While open, ``allow()`` returns False until
    the cooldown elapses, then admits exactly one half-open probe —
    its success closes the breaker, its failure re-opens it for
    another full cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        threshold: int = 3,
        cooldown: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        on_open: Callable[[], None] | None = None,
        on_close: Callable[[], None] | None = None,
    ):
        self.threshold = max(1, threshold)
        self.cooldown = cooldown
        self._clock = clock
        self._on_open = on_open
        self._on_close = on_close
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self.opens = 0
        self.closes = 0

    @property
    def state(self) -> str:
        with self._lock:
            if (
                self._state == self.OPEN
                and self._clock() - self._opened_at >= self.cooldown
            ):
                return self.HALF_OPEN
            return self._state

    def allow(self) -> bool:
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at < self.cooldown:
                    return False
                # Cooldown over: admit exactly one probe.
                self._state = self.HALF_OPEN
                return True
            return False  # half-open probe already in flight

    def record_success(self) -> None:
        notify = None
        with self._lock:
            self._failures = 0
            if self._state != self.CLOSED:
                self._state = self.CLOSED
                self.closes += 1
                notify = self._on_close
        if notify is not None:
            notify()

    def record_failure(self) -> None:
        notify = None
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN or (
                self._state == self.CLOSED
                and self._failures >= self.threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.opens += 1
                notify = self._on_open
        if notify is not None:
            notify()


def _jitter(key: str, attempt: int) -> float:
    """Deterministic jitter factor in [0.5, 1.0) for one (key, attempt).

    Randomized jitter would make chaos runs unreproducible; hashing
    the key and attempt spreads retry storms just as well.
    """
    raw = hashlib.blake2b(
        f"{key}\x1f{attempt}".encode(), digest_size=8
    ).digest()
    return 0.5 + int.from_bytes(raw, "little") / 2**65


_FAILED = object()  # internal sentinel: operation failed after retries


class RemoteStoreClient:
    """HTTP client for the ``/artifacts`` routes of ``ompdart serve``.

    One instance per process (workers build theirs post-fork in
    ``worker_init``).  Thread-safe: the publisher thread and the
    worker's lookup path share one persistent keep-alive connection
    behind a lock, reconnecting on error.

    ``on_event`` (when given) receives every counter event by name —
    the worker runtime binds it to the pool's :class:`RemoteCounters`
    so remote traffic aggregates pool-wide.
    """

    def __init__(
        self,
        url: str,
        *,
        config: RemoteStoreConfig | None = None,
        on_event: Callable[[str, int], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        parts = urlsplit(url if "//" in url else f"//{url}", scheme="http")
        if parts.scheme != "http":
            raise ValueError(f"unsupported store URL scheme {parts.scheme!r}")
        if not parts.hostname:
            raise ValueError(f"store URL {url!r} has no host")
        self.url = url
        self.host = parts.hostname
        self.port = parts.port or 80
        self.config = config or RemoteStoreConfig()
        self._on_event = on_event
        self._sleep = sleep
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
            clock=clock,
            on_open=lambda: self._event("breaker_opens"),
            on_close=lambda: self._event("breaker_closes"),
        )
        self._io_lock = threading.Lock()
        self._conn: http.client.HTTPConnection | None = None
        self._closed = False
        # local counters (pool-wide aggregation rides on_event)
        self.counters = {name: 0 for name in EVENTS}
        # write-behind publish queue
        self._pub_lock = threading.Lock()
        self._pub_queue: deque[tuple[str, Path]] = deque()
        self._pub_wake = threading.Event()
        self._pub_idle = threading.Event()
        self._pub_idle.set()
        self._pub_thread: threading.Thread | None = None

    # -- counters --------------------------------------------------------

    def _event(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta
        if self._on_event is not None:
            with contextlib.suppress(Exception):
                self._on_event(name, delta)

    def health(self) -> dict[str, Any]:
        """Client-local counters + breaker state (one process's view)."""
        with self._pub_lock:
            depth = len(self._pub_queue)
        return {
            "url": self.url,
            "breaker": self.breaker.state,
            "publish_queue_depth": depth,
            **dict(self.counters),
        }

    # -- transport -------------------------------------------------------

    def _exchange(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        """One HTTP exchange on the shared keep-alive connection."""
        with self._io_lock:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.config.timeout
                )
            try:
                headers = {"Connection": "keep-alive"}
                if body is not None:
                    headers["Content-Type"] = "application/octet-stream"
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                payload = response.read()
                return response.status, payload
            except BaseException:
                # Any failure poisons the connection state machine;
                # reconnect on the next call.
                with contextlib.suppress(OSError):
                    self._conn.close()
                self._conn = None
                raise

    def _with_retries(
        self, op: str, key: str, fn: Callable[[int], Any]
    ) -> Any:
        """Run ``fn(attempt)`` under the breaker + bounded retries.

        Returns ``fn``'s value, or the module sentinel ``_FAILED``
        after retry exhaustion / while the breaker is open — callers
        degrade to the local tier, never raise.
        """
        if not self.breaker.allow():
            self._event("degraded")
            return _FAILED
        attempt = 0
        while True:
            hook = request_fault_hook
            try:
                if hook is not None:
                    hook(op, key, attempt)
                result = fn(attempt)
            except (OSError, http.client.HTTPException, ValueError):
                self._event("errors")
                if attempt >= self.config.retries:
                    self.breaker.record_failure()
                    return _FAILED
                delay = min(
                    self.config.backoff_cap,
                    self.config.backoff * (2**attempt) * _jitter(key, attempt),
                )
                self._sleep(delay)
                attempt += 1
                continue
            self.breaker.record_success()
            return result

    # -- operations ------------------------------------------------------

    def fetch(self, key: str) -> bytes | None:
        """Spill record bytes for ``key``, or None (miss/degraded)."""

        def attempt(n: int) -> bytes | None:
            status, payload = self._exchange("GET", f"/artifacts/{key}")
            if status == 404:
                return None
            if status != 200:
                raise http.client.HTTPException(f"GET /artifacts {status}")
            hook = payload_fault_hook
            if hook is not None:
                payload = hook(key, payload)
            return payload

        result = self._with_retries("fetch", key, attempt)
        if result is _FAILED or result is None:
            if result is None:
                self._event("misses")
            return None
        self._event("hits")
        return result

    def push(self, key: str, payload: bytes) -> bool:
        """Synchronously PUT one spill; True on success."""

        def attempt(n: int) -> bool:
            status, _body = self._exchange(
                "PUT", f"/artifacts/{key}", body=payload
            )
            if status not in (200, 201):
                raise http.client.HTTPException(f"PUT /artifacts {status}")
            return True

        if self._with_retries("push", key, attempt) is _FAILED:
            return False
        self._event("puts")
        return True

    # -- write-behind publishing ----------------------------------------

    def offer(self, key: str, path: str | Path) -> None:
        """Enqueue a spill upload; never blocks the producing worker.

        Bounded queue, oldest-first shedding: when full, the stalest
        pending upload is dropped (and counted) to make room.  The
        payload is read from ``path`` at publish time, so a queue
        entry costs two pointers, not an artifact copy.
        """
        if self._closed:
            return
        with self._pub_lock:
            if len(self._pub_queue) >= self.config.publish_queue:
                self._pub_queue.popleft()
                self._event("publish_shed")
            self._pub_queue.append((key, Path(path)))
            self._pub_idle.clear()
            if self._pub_thread is None:
                self._pub_thread = threading.Thread(
                    target=self._publish_loop,
                    name="ompdart-store-publish",
                    daemon=True,
                )
                self._pub_thread.start()
        self._pub_wake.set()

    def _publish_loop(self) -> None:
        while True:
            with self._pub_lock:
                if not self._pub_queue:
                    self._pub_idle.set()
                    self._pub_wake.clear()
                    if self._closed:
                        return
                    item = None
                else:
                    item = self._pub_queue.popleft()
            if item is None:
                if not self._pub_wake.wait(timeout=0.5) and self._closed:
                    return
                continue
            key, path = item
            try:
                payload = path.read_bytes()
            except OSError:
                continue  # spill evicted/quarantined before publish: skip
            if not self.push(key, payload):
                self._event("publish_errors")

    def flush(self, timeout: float = 5.0) -> bool:
        """Wait for the publish queue to drain (tests, batch teardown)."""
        return self._pub_idle.wait(timeout=timeout)

    def close(self) -> None:
        self._closed = True
        self._pub_wake.set()
        thread = self._pub_thread
        if thread is not None:
            thread.join(timeout=2.0)
        with self._io_lock:
            if self._conn is not None:
                with contextlib.suppress(OSError):
                    self._conn.close()
                self._conn = None


class RemoteCounters:
    """Pool-wide remote counters, shared with the pool's workers.

    The pool owner creates one before its workers start and passes it
    to them; each worker's client adds its events here, and the owner
    reads the totals with :meth:`snapshot`.  Workers inherit the array
    across fork, so it needs no name, file or resource tracker.
    """

    def __init__(self) -> None:
        self._values = multiprocessing.Array("q", len(EVENTS))

    def add(self, name: str, delta: int = 1) -> None:
        with self._values.get_lock():
            self._values[_EVENT_INDEX[name]] += delta

    def snapshot(self) -> dict[str, int]:
        with self._values.get_lock():
            return dict(zip(EVENTS, self._values))
