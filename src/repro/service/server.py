"""HTTP/1.1 front over the job scheduler (``ompdart serve``).

Stdlib-only asyncio server, hardened for sustained traffic:

* **Persistent connections.**  Each accepted socket runs a
  per-connection request loop: HTTP/1.1 keep-alive by default (and
  HTTP/1.0 with ``Connection: keep-alive``), naturally serving
  pipelined requests back-to-back, bounded by ``max_requests`` per
  connection and an ``idle_timeout`` between requests.
* **Slowloris guard.**  Every read — request line, header lines, body
  — carries ``read_timeout``; a client that stalls mid-request gets
  ``408 Request Timeout`` and the connection is closed.  An idle
  keep-alive connection that never starts another request is closed
  quietly.
* **Streamed + memoized responses.**  Response bodies of
  :data:`STREAM_THRESHOLD` bytes or more go out with chunked transfer
  encoding (byte-identical payload, bounded write buffering).  A
  finished job's JSON result is encoded **once** and memoized on the
  job, so ``GET /jobs/<id>`` polls and duplicate ``POST /run``
  awaiters splice the cached bytes into a small fresh envelope instead
  of re-serializing hundreds of KB per request.
* **Admission control.**  When the scheduler's queue bound is hit, new
  work answers ``429 Too Many Requests`` with a ``Retry-After`` header
  instead of queueing unboundedly; evicted finished jobs answer ``410
  Gone``.
* **Metrics.**  ``GET /metrics`` renders Prometheus text (request
  counts by route/method/status, per-route latency histograms, queue
  depth, job latency, result-cache traffic); ``GET /stats`` carries
  the JSON counters.

Routes:

* ``GET  /healthz``      — liveness probe; reports ``degraded`` (with
  reasons: spent restart budget, open store/peer breakers) while still
  answering 200 — degraded is not down.
* ``GET  /stats``        — scheduler + remote-tier + HTTP counters.
* ``GET  /metrics``      — Prometheus text exposition.
* ``GET  /jobs``         — all retained jobs, submission order.
* ``POST /jobs``         — submit a job spec; answers immediately with
  the content-hash job id and whether the submission coalesced onto an
  existing job.
* ``GET  /jobs/<id>``    — job status; ``?wait=1`` blocks until done
  and includes the result, as does polling a finished job.
* ``DELETE /jobs/<id>``  — hard-cancel: the executing worker gets
  SIGINT, then SIGKILL after the configured grace period, and the job
  settles as ``cancelled`` (409 for a job that already settled, 410
  for an evicted one).
* ``POST /run``          — submit and await in one round trip.  With
  ``--peer`` routers configured, admitted jobs forward to the least-
  loaded healthy peer (``X-Ompdart-Forwarded`` marks hops; a forwarded
  request always executes locally, so routing cannot loop).
* ``GET  /artifacts/<key>``  — content-addressed spill record bytes
  from this node's cache directory (the remote store tier's read side).
* ``PUT  /artifacts/<key>``  — land one spill record (validated magic,
  atomic rename) in this node's cache directory.
* ``GET  /artifacts/stats``  — spill census of the cache directory.

When the supervised pool's restart budget is spent and no workers
remain, new submissions answer ``503 Service Unavailable`` — the HTTP
front itself keeps serving status, stats and retained results.

Job specs are the :mod:`repro.service.core` kinds::

    {"kind": "suite", "platforms": ["a100-pcie4"]}
    {"kind": "benchmark", "benchmark": "bfs"}
    {"kind": "transform", "source": "...", "filename": "x.c"}
    {"kind": "ping"}
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..pipeline.artifacts import is_record
from ..pipeline.cache import write_spill
from ..pipeline.store import spill_stats
from .core import spec_from_dict
from .metrics import MetricsRegistry
from .scheduler import (
    DONE,
    SETTLED,
    JobScheduler,
    PoolExhausted,
    QueueSaturated,
)

__all__ = ["JobServer"]

#: Request bodies above this are rejected (64 MiB: a whole TU corpus).
_MAX_BODY = 64 * 1024 * 1024

#: Chunk size for chunked transfer encoding writes.
_CHUNK = 64 * 1024

#: Bodies at or above this many bytes stream out chunked (HTTP/1.1 only).
STREAM_THRESHOLD = 64 * 1024

#: Parsed-spec memo: identical request bodies (polls, duplicate
#: submissions, the load harness's rotating mix) skip JSON parsing and
#: the content hash.  Both bounds keep worst-case memory small.
_SPEC_CACHE_ENTRIES = 256
_SPEC_CACHE_MAX_BODY = 16 * 1024

#: Valid artifact keys: ``{pass}-{skey}`` shapes only.  No slash, no
#: leading dot, bounded length — the key becomes a filename inside the
#: cache directory and must not traverse out of it.
_ARTIFACT_KEY = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,255}$")

#: Hop marker on forwarded requests: a request carrying it always
#: executes locally, so fleet routing terminates after one hop.
_FORWARDED_HEADER = "x-ompdart-forwarded"

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """A response-shaped failure.  ``close`` forces connection close
    (the request framing can no longer be trusted); ``headers`` ride
    on the response (e.g. ``Retry-After``)."""

    def __init__(self, status: int, message: str, *, close: bool = False,
                 headers: dict[str, str] | None = None):
        super().__init__(message)
        self.status = status
        self.close = close
        self.headers = headers or {}


@dataclass
class _Request:
    method: str
    path: str
    query: str
    body: bytes
    version: str
    keep_alive: bool
    #: The request arrived from a peer router (one hop max).
    forwarded: bool = False


@dataclass
class _Response:
    status: int
    body: bytes
    content_type: str = "application/json"
    headers: dict[str, str] | None = None


class JobServer:
    """Serves one :class:`JobScheduler` over HTTP."""

    def __init__(self, scheduler: JobScheduler, *, host: str = "127.0.0.1",
                 port: int = 0, read_timeout: float = 30.0,
                 idle_timeout: float = 75.0, max_requests: int = 1000,
                 router: Any = None):
        self.scheduler = scheduler
        #: Optional fleet router (``--peer``): admitted ``POST /run``
        #: jobs forward to the least-loaded healthy peer.
        self.router = router
        self.host = host
        self.port = port
        #: Per-read deadline while inside a request (slowloris guard).
        self.read_timeout = read_timeout
        #: Keep-alive deadline for the *next* request to begin.
        self.idle_timeout = idle_timeout
        #: Requests served per connection before a polite close.
        self.max_requests = max(1, max_requests)
        self._server: asyncio.AbstractServer | None = None
        self.metrics = scheduler.metrics or MetricsRegistry()
        if scheduler.metrics is None:
            scheduler.bind_metrics(self.metrics)
        self._requests_total = self.metrics.counter(
            "ompdart_http_requests_total",
            "HTTP requests by route, method and status.",
            ("route", "method", "status"),
        )
        self._request_latency = self.metrics.histogram(
            "ompdart_http_request_seconds",
            "HTTP request service latency by route.",
            ("route",),
        )
        self._connections_total = self.metrics.counter(
            "ompdart_http_connections_total",
            "Connections accepted.",
        )
        self._open_connections = 0
        self.metrics.gauge(
            "ompdart_http_open_connections",
            "Connections currently open.",
            lambda: self._open_connections,
        )
        self._result_cache = self.metrics.counter(
            "ompdart_result_cache_total",
            "Memoized result-body encodings served vs built.",
            ("event",),
        )
        self._streamed = self.metrics.counter(
            "ompdart_http_streamed_responses_total",
            "Responses sent with chunked transfer encoding.",
        )
        self._artifact_ops = self.metrics.counter(
            "ompdart_artifact_requests_total",
            "Artifact store requests by operation and outcome.",
            ("op", "outcome"),
        )
        self._spec_cache: dict[bytes, Any] = {}
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        if self.router is not None:
            await self.router.start()
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.router is not None:
            await self.router.aclose()
        await self.scheduler.aclose()

    async def kill(self) -> None:
        """Abrupt node death (chaos harness): stop accepting and abort
        every open connection mid-exchange, without draining anything.

        The scheduler is left running (and leaked until ``aclose``) on
        purpose — a killed node's workers don't get to finish cleanly
        either.  Clients see connection resets, exactly as if the
        process had been SIGKILLed.
        """
        if self._server is not None:
            self._server.close()
            self._server = None
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.transport.abort()

    # -- connection loop -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: serve requests until close/limits/timeouts.

        Responses to pipelined requests coalesce in ``pending`` and
        flush in one write when the reader has no further complete
        request buffered — one send syscall per pipeline batch instead
        of per response.
        """
        self._connections_total.inc()
        self._open_connections += 1
        self._writers.add(writer)
        try:
            served = 0
            pending = bytearray()
            while served < self.max_requests:
                if pending and not self._has_buffered_request(reader):
                    try:
                        await self._flush(writer, pending)
                    except (ConnectionError, OSError):
                        return
                try:
                    request = await self._read_request(
                        reader, first=(served == 0)
                    )
                except _IdleClose:
                    break  # quiet end of a keep-alive connection
                except _HttpError as exc:
                    await self._respond_error(writer, exc, pending)
                    break  # framing is unreliable after a read error
                except (ConnectionError, OSError):
                    return  # client reset the connection mid-read
                if request is None:
                    break  # clean EOF between requests
                served += 1
                keep_alive = (
                    request.keep_alive and served < self.max_requests
                )
                response, close_after = await self._serve_one(request)
                keep_alive = keep_alive and not close_after
                try:
                    await self._write_response(
                        writer, response, pending,
                        keep_alive=keep_alive,
                        chunked_ok=request.version == "HTTP/1.1",
                    )
                except (ConnectionError, OSError):
                    return  # client went away mid-response
                if not keep_alive:
                    break
            if pending:
                try:
                    await self._flush(writer, pending)
                except (ConnectionError, OSError):
                    pass
        finally:
            self._open_connections -= 1
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: loop teardown cancelled the courtesy
                # wait after close() — the transport is going away
                # regardless, so finish the handler quietly.
                pass

    async def _serve_one(self, request: _Request) -> tuple[_Response, bool]:
        """Route one request; returns (response, force_close)."""
        start = asyncio.get_running_loop().time()
        close_after = False
        try:
            response = await self._route(request)
            status = response.status
        except _HttpError as exc:
            response = _Response(
                exc.status,
                json.dumps({"error": str(exc)}).encode(),
                headers=exc.headers,
            )
            status = exc.status
            close_after = exc.close
        except Exception as exc:  # noqa: BLE001 - a request must never
            # take the server down; report and carry on.
            response = _Response(
                500,
                json.dumps(
                    {"error": f"{type(exc).__name__}: {exc}"}
                ).encode(),
            )
            status = 500
        route = self._route_label(request.path)
        self._requests_total.inc(
            route=route, method=request.method, status=str(status)
        )
        self._request_latency.observe(
            asyncio.get_running_loop().time() - start, route=route
        )
        return response, close_after

    @staticmethod
    def _route_label(path: str) -> str:
        """Collapse job ids so metric label cardinality stays bounded."""
        if path.startswith("/jobs/"):
            return "/jobs/{id}"
        if path == "/artifacts/stats":
            return path
        if path.startswith("/artifacts/"):
            return "/artifacts/{key}"
        if path in ("/healthz", "/stats", "/metrics", "/jobs", "/run"):
            return path
        return "(other)"

    # -- request reading -------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader, *, first: bool
    ) -> _Request | None:
        """Parse one request; None on clean EOF before a request starts.

        Raises :class:`_IdleClose` when a keep-alive connection stays
        idle past ``idle_timeout``, :class:`_HttpError` (408) when a
        client stalls mid-request, and 400/413 on framing errors —
        all of which end the connection.
        """
        # Between requests the client owes us nothing: wait up to
        # idle_timeout for the next request line.  On the first request
        # a silent peer is a slowloris, not an idle keep-alive.
        timeout = self.read_timeout if first else self.idle_timeout
        try:
            async with asyncio.timeout(timeout):
                raw = await reader.readline()
        except TimeoutError:
            if first:
                raise _HttpError(
                    408, "timed out waiting for request", close=True
                ) from None
            raise _IdleClose() from None
        if not raw:
            return None  # clean EOF
        request_line = raw.decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request line", close=True)
        parts = request_line.split()
        if len(parts) < 2:
            raise _HttpError(
                400, f"malformed request line {request_line!r}", close=True
            )
        method, target = parts[0].upper(), parts[1]
        version = parts[2].upper() if len(parts) > 2 else "HTTP/1.0"
        path, _, query = target.partition("?")
        content_length = 0
        connection = ""
        forwarded = False
        # One timer covers the rest of the request (headers + body):
        # a stalled client still 408s within read_timeout, but the hot
        # path pays a single timeout context instead of a wait_for
        # task per read.
        try:
            async with asyncio.timeout(self.read_timeout):
                while True:
                    line = (await reader.readline()).decode("latin-1")
                    if line in ("\r\n", "\n", ""):
                        break
                    name, _, value = line.partition(":")
                    name = name.strip().lower()
                    if name == "content-length":
                        try:
                            content_length = int(value.strip())
                        except ValueError:
                            raise _HttpError(
                                400, "bad Content-Length", close=True
                            ) from None
                    elif name == "connection":
                        connection = value.strip().lower()
                    elif name == _FORWARDED_HEADER:
                        forwarded = True
                if content_length < 0:
                    raise _HttpError(400, "bad Content-Length", close=True)
                if content_length > _MAX_BODY:
                    raise _HttpError(
                        413, "request body too large", close=True
                    )
                body = (
                    await reader.readexactly(content_length)
                    if content_length
                    else b""
                )
        except TimeoutError:
            raise _HttpError(
                408, "timed out reading request", close=True
            ) from None
        except asyncio.IncompleteReadError:
            raise _HttpError(
                400, "request body truncated", close=True
            ) from None
        if version == "HTTP/1.1":
            keep_alive = connection != "close"
        else:
            keep_alive = connection == "keep-alive"
        return _Request(
            method, path, query, body, version, keep_alive, forwarded
        )

    # -- response writing ------------------------------------------------

    @staticmethod
    def _has_buffered_request(reader: asyncio.StreamReader) -> bool:
        """True when a complete request head is already buffered.

        Peeks the stream buffer (no public API exists) so pipelined
        batches are served back-to-back before flushing responses; any
        uncertainty flushes — the safe direction.
        """
        buffer = getattr(reader, "_buffer", None)
        return buffer is not None and b"\r\n\r\n" in buffer

    @staticmethod
    async def _flush(
        writer: asyncio.StreamWriter, pending: bytearray
    ) -> None:
        writer.write(bytes(pending))
        pending.clear()
        await writer.drain()

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: _Response,
        pending: bytearray, *, keep_alive: bool, chunked_ok: bool,
    ) -> None:
        headers = {
            "Content-Type": response.content_type,
            "Connection": "keep-alive" if keep_alive else "close",
        }
        if response.headers:
            headers.update(response.headers)
        body = response.body
        chunked = chunked_ok and len(body) >= STREAM_THRESHOLD
        if chunked:
            headers["Transfer-Encoding"] = "chunked"
        else:
            headers["Content-Length"] = str(len(body))
        reason = _REASONS.get(response.status, "OK")
        head_lines = [f"HTTP/1.1 {response.status} {reason}"]
        head_lines.extend(f"{k}: {v}" for k, v in headers.items())
        head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
        if not chunked:
            pending += head + body  # coalesced; _handle flushes
            return
        # Chunked: identical payload bytes, bounded buffering — drain
        # between chunks so a slow reader applies backpressure here
        # instead of ballooning the transport buffer.  Earlier
        # responses flush first to keep the pipeline ordered.
        self._streamed.inc()
        pending += head
        await self._flush(writer, pending)
        for start in range(0, len(body), _CHUNK):
            chunk = body[start:start + _CHUNK]
            writer.write(
                f"{len(chunk):x}\r\n".encode("latin-1") + chunk + b"\r\n"
            )
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _respond_error(
        self, writer: asyncio.StreamWriter, exc: _HttpError,
        pending: bytearray,
    ) -> None:
        """Best-effort error response before closing the connection."""
        route = "(read)"
        self._requests_total.inc(
            route=route, method="-", status=str(exc.status)
        )
        try:
            await self._write_response(
                writer,
                _Response(
                    exc.status,
                    json.dumps({"error": str(exc)}).encode(),
                    headers=exc.headers,
                ),
                pending,
                keep_alive=False,
                chunked_ok=False,
            )
            await self._flush(writer, pending)
        except (ConnectionError, OSError):
            pass

    # -- result-body memoization -----------------------------------------

    def _encoded_result(self, job) -> bytes:
        """The job's result as JSON bytes, encoded at most once."""
        if job.encoded_result is None:
            job.encoded_result = json.dumps(job.future.result()).encode()
            self._result_cache.inc(event="miss")
        else:
            self._result_cache.inc(event="hit")
        return job.encoded_result

    def _job_payload_bytes(self, job, *, include_result: bool) -> bytes:
        """``describe()`` + memoized result bytes, spliced not re-dumped."""
        envelope = job.encoded_envelope()
        if not (include_result and job.state == DONE):
            return envelope
        return envelope[:-1] + b',"result":' + self._encoded_result(job) + b"}"

    # -- routes ----------------------------------------------------------

    async def _route(self, request: _Request) -> _Response:
        method, path, query = request.method, request.path, request.query
        if path == "/healthz" and method == "GET":
            reasons = self._degraded_reasons()
            if not reasons:
                return _Response(200, b'{"ok":true,"status":"ok"}')
            # Degraded is not down: jobs still serve, so the probe
            # stays 200 — orchestrators must not restart a node that
            # is merely running without its redundancy layer.
            return self._json(
                200, {"ok": True, "status": "degraded", "reasons": reasons}
            )
        if path == "/metrics" and method == "GET":
            return _Response(
                200,
                self.metrics.render().encode(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/stats" and method == "GET":
            return self._json(200, self._stats())
        if path == "/jobs" and method == "GET":
            return self._json(
                200, {"jobs": [j.describe() for j in self.scheduler.jobs()]}
            )
        if path == "/jobs" and method == "POST":
            job = await self._submit(request.body)
            payload = job.describe()
            payload["deduped"] = job.submissions > 1
            return self._json(202, payload)
        if path.startswith("/jobs/") and method == "GET":
            key = path[len("/jobs/"):]
            job = self._lookup_job(key)
            if "wait=1" in query.split("&") and job.state not in SETTLED:
                try:
                    await asyncio.shield(job.future)
                except Exception:  # noqa: BLE001 - state carries the error
                    pass
            return _Response(
                200, self._job_payload_bytes(job, include_result=True)
            )
        if path.startswith("/jobs/") and method == "DELETE":
            key = path[len("/jobs/"):]
            job = self._lookup_job(key)
            if job.state in SETTLED:
                raise _HttpError(
                    409, f"job {key!r} already settled ({job.state})"
                )
            # Queued jobs settle immediately; a running worker gets
            # SIGINT, then SIGKILL after the grace period.  cancel()
            # waits (bounded) for the settle so every DELETE — and
            # every coalesced waiter — sees the same final envelope.
            await self.scheduler.cancel(key)
            return _Response(
                200, self._job_payload_bytes(job, include_result=True)
            )
        if path == "/artifacts/stats" and method == "GET":
            return self._json(200, await self._artifact_stats())
        if path.startswith("/artifacts/") and method in ("GET", "PUT"):
            key = path[len("/artifacts/"):]
            if not _ARTIFACT_KEY.match(key):
                self._artifact_ops.inc(
                    op=method.lower(), outcome="rejected"
                )
                raise _HttpError(400, f"invalid artifact key {key!r}")
            if method == "GET":
                return await self._artifact_get(key)
            return await self._artifact_put(key, request.body)
        if path == "/run" and method == "POST":
            if self.router is not None and not request.forwarded:
                routed = await self.router.forward(request.body)
                if routed is not None:
                    status, body = routed
                    return _Response(status, body)
                # No healthy peer took the job: degraded local
                # execution (counted by the router) — fall through.
            job = await self._submit(request.body)
            if job.future.done():  # deduped onto a settled job: no
                exc = job.future.exception()  # shield wrapper needed
            else:
                try:
                    await asyncio.shield(job.future)
                    exc = None
                except Exception as e:  # noqa: BLE001 - job failure is
                    exc = e  # a response, not a server crash
            if exc is not None:
                if job.state == "cancelled":
                    # Every waiter — including duplicates coalesced
                    # onto the job — gets the same settled envelope.
                    return _Response(
                        200,
                        self._job_payload_bytes(job, include_result=True),
                    )
                return self._json(500, {
                    "job": job.key,
                    "state": job.state,
                    "error": job.error or str(exc),
                })
            return _Response(
                200, self._job_payload_bytes(job, include_result=True)
            )
        if path in ("/jobs", "/run", "/stats", "/healthz", "/metrics"):
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith(("/jobs/", "/artifacts/")):
            raise _HttpError(405, f"{method} not allowed on {path}")
        raise _HttpError(404, f"no route {path!r}")

    # -- artifact store routes -------------------------------------------

    def _artifact_dir(self) -> Path:
        cache_dir = self.scheduler.cache_dir
        if cache_dir is None:
            raise _HttpError(
                503, "artifact store disabled: node has no cache directory"
            )
        return Path(cache_dir)

    async def _artifact_get(self, key: str) -> _Response:
        path = self._artifact_dir() / f"{key}.art"

        def read() -> bytes | None:
            try:
                return path.read_bytes()
            except OSError:
                return None

        raw = await asyncio.get_running_loop().run_in_executor(None, read)
        if raw is None:
            self._artifact_ops.inc(op="get", outcome="miss")
            raise _HttpError(404, f"no artifact {key!r}")
        self._artifact_ops.inc(op="get", outcome="hit")
        return _Response(200, raw, content_type="application/octet-stream")

    async def _artifact_put(self, key: str, body: bytes) -> _Response:
        directory = self._artifact_dir()
        if not body or not is_record(body):
            # Never land bytes that are not a spill record: a corrupt
            # PUT would poison every future fetch of the key.
            self._artifact_ops.inc(op="put", outcome="rejected")
            raise _HttpError(400, "payload is not a spill record")
        stored = await asyncio.get_running_loop().run_in_executor(
            None, write_spill, directory / f"{key}.art", body
        )
        if not stored:
            self._artifact_ops.inc(op="put", outcome="error")
            raise _HttpError(500, f"could not store artifact {key!r}")
        self._artifact_ops.inc(op="put", outcome="stored")
        return _Response(201, b'{"stored":true}')

    async def _artifact_stats(self) -> dict[str, Any]:
        directory = self._artifact_dir()
        return await asyncio.get_running_loop().run_in_executor(
            None, spill_stats, directory
        )

    def _degraded_reasons(self) -> list[str]:
        reasons = list(self.scheduler.degraded_reasons())
        if self.router is not None:
            reasons.extend(self.router.degraded_reasons())
        return reasons

    def _lookup_job(self, key: str):
        job = self.scheduler.get(key)
        if job is None:
            if self.scheduler.was_evicted(key):
                raise _HttpError(
                    410, f"job {key!r} finished and was evicted"
                )
            raise _HttpError(404, f"no job {key!r}")
        return job

    async def _submit(self, body: bytes):
        """Parse + submit with admission control (429 when saturated)."""
        spec = self._spec_cache.get(body)
        if spec is None:
            spec = self._parse_spec(body)
            # Identical poll/duplicate bodies skip the parse + content
            # hash next time; bound both entry size and count.
            if len(body) <= _SPEC_CACHE_MAX_BODY:
                if len(self._spec_cache) >= _SPEC_CACHE_ENTRIES:
                    self._spec_cache.pop(next(iter(self._spec_cache)))
                self._spec_cache[body] = spec
        try:
            return await self.scheduler.submit(spec)
        except QueueSaturated as exc:
            raise _HttpError(
                429, str(exc),
                headers={"Retry-After": str(exc.retry_after)},
            ) from exc
        except PoolExhausted as exc:
            # Worker restart budget spent: degraded, not down — status
            # and retained results still serve, new work cannot run.
            raise _HttpError(503, str(exc)) from exc

    def _stats(self) -> dict[str, Any]:
        payload = self.scheduler.stats()
        if self.router is not None:
            payload["fleet"] = self.router.stats()
        reasons = self._degraded_reasons()
        if reasons:
            payload["degraded_reasons"] = reasons
        else:
            payload.pop("degraded_reasons", None)
        payload["http"] = {
            "connections": self._connections_total.value(),
            "open_connections": self._open_connections,
            "streamed_responses": self._streamed.value(),
            "result_cache_hits": self._result_cache.value(event="hit"),
            "result_cache_misses": self._result_cache.value(event="miss"),
        }
        return payload

    @staticmethod
    def _json(status: int, payload: Any) -> _Response:
        return _Response(status, json.dumps(payload).encode())

    @staticmethod
    def _parse_spec(body: bytes):
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") from exc
        try:
            return spec_from_dict(payload)
        except ValueError as exc:
            raise _HttpError(400, str(exc)) from exc


class _IdleClose(Exception):
    """A keep-alive connection idled out between requests."""
