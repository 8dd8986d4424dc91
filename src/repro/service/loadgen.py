"""Asyncio load harness for the serve front (``ompdart load``).

Drives N concurrent clients against a running ``ompdart serve`` with a
mixed job workload and measures what the transport actually delivers:
request throughput and p50/p99 latency.  Three modes:

* ``keepalive`` — each client holds one persistent connection for its
  whole request stream (optionally pipelined ``--pipeline-depth`` deep);
* ``close``     — one short-lived connection per request, the serve
  front's pre-fast-path behavior, kept as the comparison baseline;
* ``both``      — run ``close`` then ``keepalive`` against the same
  server and record the speedup in one artifact.

The workload is deterministic (round-robin over the mix, fixed token
streams), so two runs against equal servers measure the same byte
traffic.  A warmup pass executes each distinct job once first: the
measured phase then exercises the *cached* path — dedup coalescing and
memoized result bodies — which is the regime a busy server lives in.

Results serialize as an ``ompdart-load-perf/1`` JSON artifact carrying
the workload methodology next to the numbers, so CI can gate p99 the
way ``suite-diff`` gates simulator perf and ``bench-history`` can fold
serve latency into the longitudinal table.

The module also exports :class:`LoadClient` — the minimal HTTP/1.1
client (keep-alive, pipelining, chunked decoding) the tests use to
talk to the server.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any

from .._version import __version__

__all__ = [
    "LOAD_SCHEMA",
    "HttpResponse",
    "LoadClient",
    "LoadConfig",
    "ModeResult",
    "run_load",
    "gate_load",
    "DEFAULT_MIX",
]

#: Load artifact schema identifier; bump on incompatible layout changes.
LOAD_SCHEMA = "ompdart-load-perf/1"

#: Default request mix (weights, applied round-robin deterministically).
DEFAULT_MIX = {"ping": 4, "transform": 4, "stats": 1, "jobs": 1}

#: Distinct tiny translation units for the transform slots — small
#: enough that transport dominates once cached, distinct enough that
#: the server holds several memoized results at once.
_TRANSFORM_SOURCES = [
    (
        f"load_{i}.c",
        "int a[64];\n"
        "int main() {\n"
        f"  a[0] = {i};\n"
        "  #pragma omp target teams distribute parallel for\n"
        "  for (int i = 0; i < 64; i++) a[i] = a[i] + %d;\n"
        "  return a[0];\n"
        "}\n" % (i + 1),
    )
    for i in range(4)
]


class HttpResponse:
    """Status, headers, body of one exchange."""

    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: dict[str, str], body: bytes):
        self.status = status
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        return json.loads(self.body)


class LoadClient:
    """Minimal HTTP/1.1 client: keep-alive, pipelining, chunked bodies.

    ``keep_alive=False`` reproduces the legacy one-connection-per-
    request behavior (and sends ``Connection: close``), which is the
    load harness's comparison baseline.
    """

    def __init__(self, host: str, port: int, *, keep_alive: bool = True,
                 timeout: float = 60.0):
        self.host = host
        self.port = port
        self.keep_alive = keep_alive
        self.timeout = timeout
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def aclose(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    def _encode(self, method: str, path: str, body: bytes) -> bytes:
        connection = "keep-alive" if self.keep_alive else "close"
        return (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        ).encode() + body

    @staticmethod
    def _body_bytes(payload: Any) -> bytes:
        """JSON-encode a payload; ``bytes`` pass through pre-encoded."""
        if payload is None:
            return b""
        if isinstance(payload, bytes):
            return payload
        return json.dumps(payload).encode()

    async def request(
        self, method: str, path: str, payload: Any = None
    ) -> HttpResponse:
        """One request/response exchange (reconnecting as needed).

        ``payload`` may be a JSON-encodable object or pre-encoded JSON
        ``bytes`` (the load harness caches encodings of its small
        distinct request set so client CPU doesn't cap the measurement).
        """
        body = self._body_bytes(payload)
        if self._writer is None:
            await self._connect()
        assert self._reader is not None and self._writer is not None
        try:
            async with asyncio.timeout(self.timeout):
                self._writer.write(self._encode(method, path, body))
                await self._writer.drain()
                response = await self._read_response()
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            # A keep-alive server may have closed between requests
            # (max-requests policy, idle timeout): retry once fresh.
            await self.aclose()
            await self._connect()
            async with asyncio.timeout(self.timeout):
                self._writer.write(self._encode(method, path, body))
                await self._writer.drain()
                response = await self._read_response()
        if not self.keep_alive or (
            response.headers.get("connection", "").lower() == "close"
        ):
            await self.aclose()
        return response

    async def pipeline(
        self, requests: list[tuple[str, str, Any]]
    ) -> list[HttpResponse]:
        """Write every request back-to-back, then read every response.

        True HTTP pipelining — only meaningful on a keep-alive
        connection; the server answers in order.  One timeout covers
        the whole batch.
        """
        if self._writer is None:
            await self._connect()
        assert self._reader is not None and self._writer is not None
        blob = b"".join(
            self._encode(method, path, self._body_bytes(payload))
            for method, path, payload in requests
        )
        responses = []
        async with asyncio.timeout(self.timeout):
            self._writer.write(blob)
            await self._writer.drain()
            for _ in requests:
                responses.append(await self._read_response())
        return responses

    async def _read_response(self) -> HttpResponse:
        assert self._reader is not None
        status_line = (await self._reader.readline()).decode("latin-1")
        parts = status_line.split()
        if len(parts) < 2:
            raise ConnectionError(f"bad status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = (await self._reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding", "").lower() == "chunked":
            body = await self._read_chunked()
        elif "content-length" in headers:
            body = await self._reader.readexactly(
                int(headers["content-length"])
            )
        else:
            body = await self._reader.read()
        return HttpResponse(status, headers, body)

    async def _read_chunked(self) -> bytes:
        assert self._reader is not None
        chunks: list[bytes] = []
        while True:
            size_line = (await self._reader.readline()).decode("latin-1")
            size = int(size_line.strip() or "0", 16)
            if size == 0:
                await self._reader.readline()  # trailing CRLF
                return b"".join(chunks)
            chunks.append(await self._reader.readexactly(size))
            await self._reader.readexactly(2)  # chunk CRLF


# ===========================================================================
# Workload
# ===========================================================================


def _mix_schedule(mix: dict[str, int]) -> list[str]:
    """Deterministic round-robin expansion of the weighted mix."""
    schedule: list[str] = []
    for name, weight in sorted(mix.items()):
        schedule.extend([name] * max(0, int(weight)))
    if not schedule:
        raise ValueError("empty workload mix")
    return schedule


def _request_for(slot: str, index: int, *, distinct_pings: int,
                 ping_payload: int) -> tuple[str, str, Any]:
    """The (method, path, payload) for one workload slot."""
    if slot == "ping":
        return ("POST", "/run", {
            "kind": "ping",
            "token": f"t{index % max(1, distinct_pings)}",
            "payload_bytes": ping_payload,
        })
    if slot == "transform":
        name, source = _TRANSFORM_SOURCES[index % len(_TRANSFORM_SOURCES)]
        return ("POST", "/run", {
            "kind": "transform", "source": source, "filename": name,
        })
    if slot == "stats":
        return ("GET", "/stats", None)
    if slot == "jobs":
        return ("GET", "/jobs", None)
    raise ValueError(f"unknown workload slot {slot!r}")


@dataclass
class LoadConfig:
    """One load run's shape (recorded verbatim in the artifact)."""

    host: str = "127.0.0.1"
    port: int = 8571
    clients: int = 8
    requests: int = 400
    mix: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_MIX))
    pipeline_depth: int = 1
    distinct_pings: int = 8
    ping_payload: int = 0
    timeout: float = 60.0
    warmup: bool = True


@dataclass
class ModeResult:
    """Measured numbers for one transport mode."""

    mode: str
    requests: int
    failed: int
    wall_s: float
    throughput_rps: float
    p50_s: float
    p99_s: float
    mean_s: float
    max_s: float
    #: ``failed`` split by failure class, so a gate can budget each
    #: separately (a chaos run tolerates dropped connections but not
    #: server errors, a clean run tolerates neither).
    connection_errors: int = 0
    timeouts: int = 0
    http_errors: int = 0
    other_errors: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "requests": self.requests,
            "failed": self.failed,
            "connection_errors": self.connection_errors,
            "timeouts": self.timeouts,
            "http_errors": self.http_errors,
            "other_errors": self.other_errors,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "mean_s": self.mean_s,
            "max_s": self.max_s,
        }


def _failure_category(exc: BaseException) -> str:
    """Which failure bucket one raised exception lands in.

    ``TimeoutError`` is checked first: since 3.11 ``asyncio.timeout``
    raises the builtin, which is *not* an ``OSError``, but a socket
    timeout surfacing as ``socket.timeout`` is both — deadline
    overruns should count as timeouts either way.
    """
    if isinstance(exc, TimeoutError):
        return "timeouts"
    if isinstance(exc, (ConnectionError, OSError, asyncio.IncompleteReadError)):
        return "connection_errors"
    return "other_errors"


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[idx]


async def _client_stream(
    config: LoadConfig, client_id: int, *, keep_alive: bool,
    latencies: list[float], failures: list[tuple[str, str]],
) -> None:
    """One client's request stream (its slice of the total load)."""
    schedule = _mix_schedule(config.mix)
    count = config.requests // config.clients + (
        1 if client_id < config.requests % config.clients else 0
    )
    client = LoadClient(
        config.host, config.port, keep_alive=keep_alive,
        timeout=config.timeout,
    )
    # The workload's distinct request set is small (mix slots x a few
    # rotating tokens): cache each one's encoded JSON body so client
    # CPU measures the server, not json.dumps.
    encoded: dict[tuple[str, int], tuple[str, str, bytes]] = {}

    def _cached_request(slot: str, index: int) -> tuple[str, str, bytes]:
        if slot == "ping":
            cache_key = (slot, index % max(1, config.distinct_pings))
        elif slot == "transform":
            cache_key = (slot, index % len(_TRANSFORM_SOURCES))
        else:
            cache_key = (slot, 0)
        entry = encoded.get(cache_key)
        if entry is None:
            method, path, payload = _request_for(
                slot, index,
                distinct_pings=config.distinct_pings,
                ping_payload=config.ping_payload,
            )
            entry = (method, path, LoadClient._body_bytes(payload))
            encoded[cache_key] = entry
        return entry

    try:
        sent = 0
        while sent < count:
            depth = (
                min(config.pipeline_depth, count - sent)
                if keep_alive else 1
            )
            batch = []
            for offset in range(depth):
                index = client_id * 100_003 + sent + offset
                batch.append(_cached_request(
                    schedule[index % len(schedule)], index,
                ))
            start = time.perf_counter()
            try:
                if depth > 1:
                    responses = await client.pipeline(batch)
                else:
                    responses = [await client.request(*batch[0])]
            except Exception as exc:  # noqa: BLE001 - a failed request is
                # data, not a harness crash
                failures.append(
                    (_failure_category(exc), f"{type(exc).__name__}: {exc}")
                )
                sent += depth
                await client.aclose()
                continue
            elapsed = time.perf_counter() - start
            for response in responses:
                # Pipelined requests share the batch's wall time: the
                # cost of request k includes waiting behind k-1, which
                # is what a pipelining client experiences.
                latencies.append(elapsed / len(responses))
                if response.status >= 400:
                    failures.append(
                        ("http_errors", f"HTTP {response.status}")
                    )
            sent += depth
    finally:
        await client.aclose()


async def _run_mode(config: LoadConfig, mode: str) -> ModeResult:
    keep_alive = mode == "keepalive"
    latencies: list[float] = []
    failures: list[tuple[str, str]] = []
    start = time.perf_counter()
    await asyncio.gather(*[
        _client_stream(
            config, i, keep_alive=keep_alive,
            latencies=latencies, failures=failures,
        )
        for i in range(config.clients)
    ])
    wall = time.perf_counter() - start
    ordered = sorted(latencies)
    done = len(latencies)
    by_category: dict[str, int] = {}
    for category, _detail in failures:
        by_category[category] = by_category.get(category, 0) + 1
    return ModeResult(
        mode=mode,
        requests=config.requests,
        failed=len(failures),
        connection_errors=by_category.get("connection_errors", 0),
        timeouts=by_category.get("timeouts", 0),
        http_errors=by_category.get("http_errors", 0),
        other_errors=by_category.get("other_errors", 0),
        wall_s=wall,
        throughput_rps=done / wall if wall > 0 else 0.0,
        p50_s=_percentile(ordered, 0.50),
        p99_s=_percentile(ordered, 0.99),
        mean_s=sum(ordered) / done if done else 0.0,
        max_s=ordered[-1] if ordered else 0.0,
    )


async def _warmup(config: LoadConfig) -> None:
    """Execute each distinct job once so the measured phase hits the
    dedup + memoized-result fast path (the steady-state regime)."""
    client = LoadClient(config.host, config.port, timeout=config.timeout)
    try:
        for name, source in _TRANSFORM_SOURCES:
            await client.request("POST", "/run", {
                "kind": "transform", "source": source, "filename": name,
            })
        for i in range(max(1, config.distinct_pings)):
            await client.request("POST", "/run", {
                "kind": "ping", "token": f"t{i}",
                "payload_bytes": config.ping_payload,
            })
    finally:
        await client.aclose()


async def run_load(
    config: LoadConfig, *, modes: tuple[str, ...] = ("keepalive",)
) -> dict[str, Any]:
    """Run the harness; returns the ``ompdart-load-perf/1`` payload."""
    for mode in modes:
        if mode not in ("keepalive", "close"):
            raise ValueError(f"unknown load mode {mode!r}")
    if config.warmup:
        await _warmup(config)
    results = {}
    for mode in modes:
        results[mode] = (await _run_mode(config, mode)).as_dict()
    payload: dict[str, Any] = {
        "schema": LOAD_SCHEMA,
        "tool_version": __version__,
        "workload": {
            "clients": config.clients,
            "requests": config.requests,
            "mix": dict(config.mix),
            "pipeline_depth": config.pipeline_depth,
            "distinct_pings": config.distinct_pings,
            "ping_payload_bytes": config.ping_payload,
            "warmup": config.warmup,
        },
        "methodology": (
            "N concurrent asyncio clients round-robin a deterministic "
            "weighted job mix against one ompdart serve process; a "
            "warmup pass primes every distinct job so the measured "
            "phase exercises the cached (dedup + memoized body) path. "
            "close = one connection per request with Connection: close; "
            "keepalive = one persistent pipelined connection per "
            "client. Latency is per request wall time (pipelined "
            "batches amortized); percentiles over all requests."
        ),
        "modes": results,
    }
    if "keepalive" in results and "close" in results:
        base = results["close"]["throughput_rps"]
        fast = results["keepalive"]["throughput_rps"]
        payload["speedup_x"] = fast / base if base > 0 else None
    return payload


# ===========================================================================
# Gating (suite-diff style)
# ===========================================================================


def gate_load(
    payload: dict[str, Any],
    *,
    max_p99: float | None = None,
    baseline: dict[str, Any] | None = None,
    tolerance: float = 0.25,
    max_connection_errors: int | None = None,
    max_timeouts: int | None = None,
    max_http_errors: int | None = None,
) -> list[str]:
    """Regression checks over one load artifact; returns failures.

    * any failed request fails the gate — unless its failure class has
      an explicit ``max_*`` budget, in which case that class is judged
      against its budget instead (a chaos-adjacent run can tolerate a
      few dropped connections while still failing on any 5xx);
    * ``max_p99`` is an absolute p99 budget (seconds) per mode;
    * against a ``baseline`` artifact, throughput may not drop and p99
      may not rise beyond ``tolerance`` (relative), mode by mode.
    """
    problems: list[str] = []
    modes = payload.get("modes", {})
    if not isinstance(modes, dict) or not modes:
        return [f"artifact has no modes block (schema={payload.get('schema')!r})"]
    budgets = {
        "connection_errors": max_connection_errors,
        "timeouts": max_timeouts,
        "http_errors": max_http_errors,
    }
    for mode, result in sorted(modes.items()):
        budgeted = 0
        for category, budget in sorted(budgets.items()):
            if budget is None:
                continue
            count = result.get(category, 0)
            budgeted += count
            if count > budget:
                problems.append(
                    f"{mode}: {count} {category.replace('_', ' ')} over "
                    f"budget {budget}"
                )
        residual = result.get("failed", 0) - budgeted
        if residual > 0:
            problems.append(f"{mode}: {residual} failed request(s)")
        if max_p99 is not None and result.get("p99_s", 0.0) > max_p99:
            problems.append(
                f"{mode}: p99 {result['p99_s']:.4f}s over budget "
                f"{max_p99:g}s"
            )
    if baseline is not None:
        base_modes = baseline.get("modes", {})
        for mode, result in sorted(modes.items()):
            base = base_modes.get(mode)
            if not isinstance(base, dict):
                continue
            base_tp = base.get("throughput_rps") or 0.0
            cand_tp = result.get("throughput_rps") or 0.0
            if base_tp > 0 and cand_tp < base_tp * (1.0 - tolerance):
                problems.append(
                    f"{mode}: throughput {cand_tp:.1f} rps fell more "
                    f"than {tolerance:.0%} below baseline {base_tp:.1f}"
                )
            base_p99 = base.get("p99_s") or 0.0
            cand_p99 = result.get("p99_s") or 0.0
            if base_p99 > 0 and cand_p99 > base_p99 * (1.0 + tolerance):
                problems.append(
                    f"{mode}: p99 {cand_p99:.4f}s rose more than "
                    f"{tolerance:.0%} above baseline {base_p99:.4f}s"
                )
    return problems


def render_load(payload: dict[str, Any]) -> str:
    """Human-readable summary of one load artifact."""
    lines = []
    workload = payload.get("workload", {})
    lines.append(
        f"load: {workload.get('clients')} client(s) x "
        f"{workload.get('requests')} request(s), mix "
        + ",".join(
            f"{k}={v}" for k, v in sorted(workload.get("mix", {}).items())
        )
        + f", pipeline depth {workload.get('pipeline_depth')}"
    )
    for mode, result in sorted(payload.get("modes", {}).items()):
        line = (
            f"  {mode:<9s} {result['throughput_rps']:8.1f} req/s  "
            f"p50 {result['p50_s'] * 1e3:7.2f}ms  "
            f"p99 {result['p99_s'] * 1e3:7.2f}ms  "
            f"failed {result['failed']}"
        )
        if result.get("failed"):
            line += (
                f" (conn {result.get('connection_errors', 0)}, "
                f"timeout {result.get('timeouts', 0)}, "
                f"http {result.get('http_errors', 0)}, "
                f"other {result.get('other_errors', 0)})"
            )
        lines.append(line)
    speedup = payload.get("speedup_x")
    if speedup:
        lines.append(f"  keep-alive speedup over close: {speedup:.2f}x")
    return "\n".join(lines)
