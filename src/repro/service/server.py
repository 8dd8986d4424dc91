"""HTTP/1.1 front over the job scheduler (``ompdart serve``).

Stdlib-only asyncio server, hardened for sustained traffic:

* **Persistent connections.**  Each accepted socket runs a
  per-connection request loop: HTTP/1.1 keep-alive by default (and
  HTTP/1.0 with ``Connection: keep-alive``), answering pipelined
  requests in order, one write each, bounded by ``max_requests`` per
  connection and an ``idle_timeout`` between requests.
* **Slowloris guard.**  Every read — request line, header lines, body
  — carries ``read_timeout``; a client that stalls mid-request gets
  ``408 Request Timeout`` and the connection is closed.  An idle
  keep-alive connection that never starts another request is closed
  quietly.
* **One framing.**  Every response, HTTP/1.1 or 1.0, error or not,
  is one write of a head with ``Content-Length`` and the body.
* **Memoized responses.**  A finished job's JSON result is encoded
  **once** and memoized on the job, so ``GET /jobs/<id>`` polls and
  duplicate ``POST /run`` awaiters splice the cached bytes into a
  small fresh envelope instead of re-serializing the result per
  request.
* **Admission control.**  When the scheduler's queue bound is hit, new
  work answers ``429 Too Many Requests`` with a ``Retry-After`` header
  instead of queueing unboundedly; evicted finished jobs answer ``410
  Gone``.

Routes:

* ``GET  /healthz``      — liveness probe; reports ``degraded`` (with
  reasons: a spent restart budget) while still answering 200 —
  degraded is not down.
* ``GET  /stats``        — scheduler + HTTP counters.
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
* ``POST /run``          — submit and await in one round trip.

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
import json
from dataclasses import dataclass
from typing import Any

from .core import spec_from_dict
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

#: Parsed-spec memo: identical request bodies (polls, duplicate
#: submissions, a benchmark client's repeated bodies) skip JSON
#: parsing and the content hash.  Both bounds keep worst-case memory
#: small.
_SPEC_CACHE_ENTRIES = 256
_SPEC_CACHE_MAX_BODY = 16 * 1024

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

    def response(self) -> _Response:
        return _Response(
            self.status,
            json.dumps({"error": str(self)}).encode(),
            headers=self.headers,
        )


@dataclass
class _Request:
    method: str
    path: str
    query: str
    body: bytes
    keep_alive: bool


@dataclass
class _Response:
    status: int
    body: bytes
    headers: dict[str, str] | None = None


class JobServer:
    """Serves one :class:`JobScheduler` over HTTP."""

    def __init__(self, scheduler: JobScheduler, *, host: str = "127.0.0.1",
                 port: int = 0, read_timeout: float = 30.0,
                 idle_timeout: float = 75.0, max_requests: int = 1000):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        #: Per-read deadline while inside a request (slowloris guard).
        self.read_timeout = read_timeout
        #: Keep-alive deadline for the *next* request to begin.
        self.idle_timeout = idle_timeout
        #: Requests served per connection before a polite close.
        self.max_requests = max(1, max_requests)
        self._server: asyncio.AbstractServer | None = None
        #: The ``http`` block of ``GET /stats``.
        self._connections = 0
        self._open_connections = 0
        self._result_cache_hits = 0
        self._result_cache_misses = 0
        self._spec_cache: dict[bytes, Any] = {}

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
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
        await self.scheduler.aclose()

    # -- connection loop -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: serve requests until close/limits/timeouts."""
        self._connections += 1
        self._open_connections += 1
        try:
            served = 0
            while served < self.max_requests:
                try:
                    request = await self._read_request(
                        reader, first=(served == 0)
                    )
                except _IdleClose:
                    break  # quiet end of a keep-alive connection
                except _HttpError as exc:
                    # Framing is unreliable after a read error: answer
                    # and close.
                    response, keep_alive = exc.response(), False
                except (ConnectionError, OSError):
                    return  # client reset the connection mid-read
                else:
                    if request is None:
                        break  # clean EOF between requests
                    served += 1
                    response, close_after = await self._serve_one(request)
                    keep_alive = (
                        request.keep_alive
                        and served < self.max_requests
                        and not close_after
                    )
                try:
                    await self._write_response(
                        writer, response, keep_alive=keep_alive
                    )
                except (ConnectionError, OSError):
                    return  # client went away mid-response
                if not keep_alive:
                    break
        finally:
            self._open_connections -= 1
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
        try:
            return await self._route(request), False
        except _HttpError as exc:
            return exc.response(), exc.close
        except Exception as exc:  # noqa: BLE001 - a request must never
            # take the server down; report and carry on.
            error = f"{type(exc).__name__}: {exc}"
            return self._json(500, {"error": error}), False

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
        return _Request(method, path, query, body, keep_alive)

    # -- response writing ------------------------------------------------

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter, response: _Response, *,
        keep_alive: bool,
    ) -> None:
        headers = {
            "Content-Type": "application/json",
            "Connection": "keep-alive" if keep_alive else "close",
        }
        if response.headers:
            headers.update(response.headers)
        headers["Content-Length"] = str(len(response.body))
        reason = _REASONS.get(response.status, "OK")
        head_lines = [f"HTTP/1.1 {response.status} {reason}"]
        head_lines.extend(f"{k}: {v}" for k, v in headers.items())
        head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + response.body)
        await writer.drain()

    # -- result-body memoization -----------------------------------------

    def _encoded_result(self, job) -> bytes:
        """The job's result as JSON bytes, encoded at most once."""
        if job.encoded_result is None:
            job.encoded_result = json.dumps(job.future.result()).encode()
            self._result_cache_misses += 1
        else:
            self._result_cache_hits += 1
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
            reasons = self.scheduler.degraded_reasons()
            if not reasons:
                return _Response(200, b'{"ok":true,"status":"ok"}')
            # Degraded is not down: jobs still serve, so the probe
            # stays 200 — orchestrators must not restart a node that
            # is merely running without its redundancy layer.
            return self._json(
                200, {"ok": True, "status": "degraded", "reasons": reasons}
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
        if path == "/run" and method == "POST":
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
        if path in ("/jobs", "/run", "/stats", "/healthz"):
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/"):
            raise _HttpError(405, f"{method} not allowed on {path}")
        raise _HttpError(404, f"no route {path!r}")

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
        payload["http"] = {
            "connections": self._connections,
            "open_connections": self._open_connections,
            "result_cache_hits": self._result_cache_hits,
            "result_cache_misses": self._result_cache_misses,
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
