"""Minimal asyncio HTTP/1.1 client for the serve front.

:class:`LoadClient` speaks just enough HTTP/1.1 to drive ``ompdart
serve``: keep-alive connections and pipelined requests, with bodies
framed by ``Content-Length``.  ``bench/workloads.py`` (the serve-mixed
workload) and :mod:`repro.service.chaos` send their requests through
it, and the tests use it to talk to the server.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

__all__ = ["HttpResponse", "LoadClient"]


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
    """Minimal HTTP/1.1 client: keep-alive and pipelining.

    ``keep_alive=False`` opens one connection per request and sends
    ``Connection: close``, so the server's close path can be exercised.
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
        ``bytes`` (a benchmark client encodes its bodies once, so that
        client CPU does not cap the measurement).
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
        if "content-length" in headers:
            body = await self._reader.readexactly(
                int(headers["content-length"])
            )
        else:
            body = await self._reader.read()
        return HttpResponse(status, headers, body)
