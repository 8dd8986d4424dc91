"""Serve fast path: keep-alive + pipelined HTTP, read timeouts,
Content-Length framing, memoized bodies, admission control and
eviction."""

import asyncio
import json
import socket
import struct
import time

from repro.service.core import PingJobSpec, execute_job, spec_from_dict
from repro.service.loadgen import LoadClient


def _scheduler(**kw):
    from repro.service.scheduler import JobScheduler

    kw.setdefault("workers", 2)
    return JobScheduler(**kw)


def _server(scheduler=None, **kw):
    from repro.service.server import JobServer

    return JobServer(scheduler or _scheduler(), port=0, **kw)


async def _raw_exchange(host, port, blob, *, settle=0.0):
    """Write raw bytes, optionally wait, read until EOF."""
    reader, writer = await asyncio.open_connection(host, port)
    if blob:
        writer.write(blob)
        await writer.drain()
    if settle:
        await asyncio.sleep(settle)
    data = await asyncio.wait_for(reader.read(), 30)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return data


def _reset_after(host, port, blob, *, read_response=False):
    """Send ``blob`` (and read one response when asked), then close the
    socket with an RST instead of a FIN (``SO_LINGER`` 0)."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.sendall(blob)
        data = b""
        while read_response and not data.endswith(b"}"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk


class TestPingJobs:
    def test_spec_round_trip_and_key(self):
        spec = spec_from_dict(
            {"kind": "ping", "token": "x", "payload_bytes": 3}
        )
        assert spec == PingJobSpec(token="x", payload_bytes=3)
        assert spec.key() == PingJobSpec(token="x", payload_bytes=3).key()
        assert spec.key() != PingJobSpec(token="y", payload_bytes=3).key()

    def test_execute(self):
        result = execute_job(PingJobSpec(token="t", payload_bytes=4))
        assert result == {"pong": True, "token": "t", "payload": "xxxx"}


class TestKeepAlive:
    def test_sequential_requests_share_one_connection(self):
        async def run():
            server = _server()
            host, port = await server.start()
            client = LoadClient(host, port)
            try:
                for _ in range(3):
                    response = await client.request("GET", "/healthz")
                    assert response.status == 200
                    assert response.json() == {"ok": True, "status": "ok"}
                    assert (
                        response.headers.get("connection") == "keep-alive"
                    )
                stats = (await client.request("GET", "/stats")).json()
                assert stats["http"]["connections"] == 1
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(run())

    def test_pipelined_requests_answer_in_order(self):
        async def run():
            server = _server()
            host, port = await server.start()
            client = LoadClient(host, port)
            try:
                responses = await client.pipeline([
                    ("GET", "/healthz", None),
                    ("POST", "/run", {"kind": "ping", "token": "p"}),
                    ("GET", "/stats", None),
                ])
                assert [r.status for r in responses] == [200, 200, 200]
                assert responses[0].json() == {"ok": True, "status": "ok"}
                assert responses[1].json()["result"]["pong"] is True
                assert responses[2].json()["http"]["connections"] == 1
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(run())

    def test_max_requests_per_connection_closes_politely(self):
        async def run():
            server = _server(max_requests=2)
            host, port = await server.start()
            client = LoadClient(host, port)
            try:
                first = await client.request("GET", "/healthz")
                assert first.headers.get("connection") == "keep-alive"
                second = await client.request("GET", "/healthz")
                assert second.headers.get("connection") == "close"
                # The client reconnects transparently for the third.
                stats = (await client.request("GET", "/stats")).json()
                assert stats["http"]["connections"] == 2
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(run())

    def test_malformed_second_request_closes_cleanly(self):
        async def run():
            server = _server()
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                    b"NOT-HTTP\r\n\r\n"
                )
                await writer.drain()
                data = await asyncio.wait_for(reader.read(), 30)
                writer.close()
                # First response healthy, second is a 400, then EOF.
                assert data.count(b"HTTP/1.1 200") == 1
                assert data.count(b"HTTP/1.1 400") == 1
                assert b"malformed request line" in data
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_http10_defaults_to_close(self):
        async def run():
            server = _server()
            host, port = await server.start()
            try:
                data = await _raw_exchange(
                    host, port,
                    b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n",
                )
                head, _, body = data.partition(b"\r\n\r\n")
                assert b"200" in head.split(b"\r\n")[0]
                assert b"Connection: close" in head
                assert json.loads(body) == {"ok": True, "status": "ok"}
            finally:
                await server.aclose()

        asyncio.run(run())


class TestTimeouts:
    def test_stalled_first_request_gets_408(self):
        async def run():
            server = _server(read_timeout=0.2)
            host, port = await server.start()
            try:
                data = await _raw_exchange(host, port, b"")
                assert b"408" in data.split(b"\r\n")[0]
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_stalled_headers_get_408(self):
        async def run():
            server = _server(read_timeout=0.2)
            host, port = await server.start()
            try:
                # Request line + one header, never finished.
                data = await _raw_exchange(
                    host, port,
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n",
                )
                assert b"408" in data.split(b"\r\n")[0]
                assert b"timed out" in data
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_stalled_body_gets_408(self):
        async def run():
            server = _server(read_timeout=0.2)
            host, port = await server.start()
            try:
                data = await _raw_exchange(
                    host, port,
                    b"POST /run HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 100\r\n\r\nshort",
                )
                assert b"408" in data.split(b"\r\n")[0]
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_idle_keepalive_closes_quietly(self):
        async def run():
            server = _server(idle_timeout=0.2)
            host, port = await server.start()
            client = LoadClient(host, port)
            try:
                assert (await client.request("GET", "/healthz")).status == 200
                # Idle past the deadline: the server closes without a
                # 408 (nothing of a second request ever arrived).
                data = await asyncio.wait_for(client._reader.read(), 30)
                assert data == b""
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(run())


class TestConnectionResets:
    def test_client_resets_log_nothing(self):
        """A client that resets its connection mid-headers, mid-body or
        between keep-alive requests has gone away: nothing reaches the
        event loop's exception handler, and the server keeps serving."""
        cases = (
            (b"POST /run HTTP/1.1\r\nHost: t\r\n", False),
            (
                b"POST /run HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 100\r\n\r\n{",
                False,
            ),
            (b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", True),
        )

        async def run():
            handled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: handled.append(context)
            )
            server = _server()
            host, port = await server.start()
            client = LoadClient(host, port)
            try:
                for blob, read_response in cases:
                    await asyncio.to_thread(
                        _reset_after, host, port, blob,
                        read_response=read_response,
                    )
                # Every handler has seen its reset and finished.
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline and (
                    server._connections < len(cases)
                    or len(asyncio.all_tasks()) > 1
                ):
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.05)  # let done-callbacks run
                assert (await client.request("GET", "/healthz")).status == 200
            finally:
                await client.aclose()
                await server.aclose()
            return handled

        assert asyncio.run(run()) == []


class TestAdmissionControl:
    def test_429_when_saturated_and_dedup_still_admitted(self):
        # The first job sleeps in its worker long enough for the
        # requests below to find the one-job queue full.
        slow = {"kind": "ping", "token": "b1", "sleep_s": 1.0}

        async def run():
            server = _server(_scheduler(max_queue=1))
            host, port = await server.start()
            client = LoadClient(host, port)
            try:
                first = await client.request("POST", "/jobs", slow)
                assert first.status == 202
                key = first.json()["job"]
                # A distinct job is rejected while the queue is full...
                rejected = await client.request(
                    "POST", "/jobs", {"kind": "ping", "token": "b2"}
                )
                assert rejected.status == 429
                assert int(rejected.headers["retry-after"]) >= 1
                assert "saturated" in rejected.json()["error"]
                # ...but a duplicate coalesces (no new load) and is
                # always admitted.
                dedup = await client.request("POST", "/jobs", slow)
                assert dedup.status == 202
                assert dedup.json()["deduped"] is True
                done = await client.request("GET", f"/jobs/{key}?wait=1")
                assert done.json()["state"] == "done"
                stats = (await client.request("GET", "/stats")).json()
                assert stats["rejected"] == 1
                assert stats["max_queue"] == 1
                # Capacity freed: new work is admitted again.
                after = await client.request(
                    "POST", "/jobs", {"kind": "ping", "token": "b3"}
                )
                assert after.status == 202
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(run())

    def test_job_timeout_cancels_job_not_server(self):
        async def run():
            server = _server(_scheduler(job_timeout=0.1))
            host, port = await server.start()
            client = LoadClient(host, port)
            try:
                response = await client.request(
                    "POST", "/run",
                    {"kind": "ping", "token": "slow", "sleep_s": 30},
                )
                # Hard-cancelled, not failed: the waiter gets the
                # settled envelope.
                assert response.status == 200
                assert response.json()["state"] == "cancelled"
                assert "timed out" in response.json()["error"]
                stats = (await client.request("GET", "/stats")).json()
                assert stats["timed_out"] == 1
                # The server is still healthy.
                assert (await client.request("GET", "/healthz")).status == 200
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(run())


class TestEviction:
    def test_evicted_jobs_answer_410(self):
        async def run():
            server = _server(_scheduler(max_finished=0))
            host, port = await server.start()
            client = LoadClient(host, port)
            try:
                response = await client.request(
                    "POST", "/run", {"kind": "ping", "token": "e1"}
                )
                assert response.status == 200
                key = response.json()["job"]
                gone = await client.request("GET", f"/jobs/{key}")
                assert gone.status == 410
                assert "evicted" in gone.json()["error"]
                # Unknown keys are still a plain 404.
                missing = await client.request("GET", "/jobs/nope")
                assert missing.status == 404
                stats = (await client.request("GET", "/stats")).json()
                assert stats["evicted"] >= 1
                # Resubmitting the spec revives the key as a new job.
                again = await client.request(
                    "POST", "/run", {"kind": "ping", "token": "e1"}
                )
                assert again.status == 200
                assert again.json()["job"] == key
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(run())

    def test_lru_retention_bound(self):
        async def run():
            async with _scheduler(max_finished=2) as sched:
                keys = []
                for i in range(4):
                    job = await sched.submit(PingJobSpec(token=f"k{i}"))
                    await asyncio.shield(job.future)
                    keys.append(job.key)
                # Let the _run tasks record their finishes.
                await asyncio.sleep(0)
                assert sched.get(keys[0]) is None
                assert sched.was_evicted(keys[0])
                assert sched.get(keys[3]) is not None
                assert sched.stats()["evicted"] == 2
                assert len(sched.jobs()) == 2

        asyncio.run(run())

    def test_ttl_eviction(self):
        async def run():
            async with _scheduler(finished_ttl=0.0) as sched:
                job = await sched.submit(PingJobSpec(token="ttl"))
                await asyncio.shield(job.future)
                await asyncio.sleep(0.01)
                # The next finish sweep evicts expired entries.
                job2 = await sched.submit(PingJobSpec(token="ttl2"))
                await asyncio.shield(job2.future)
                await asyncio.sleep(0.01)
                assert sched.was_evicted(job.key)

        asyncio.run(run())


class TestStreamingAndMemoization:
    def test_large_body_reaches_both_http_versions(self):
        """A 1 MiB result goes out with a Content-Length, never chunked,
        and both protocol versions read the same bytes."""
        async def run():
            server = _server()
            host, port = await server.start()
            client = LoadClient(host, port)
            try:
                response = await client.request(
                    "POST", "/run",
                    {"kind": "ping", "token": "big", "payload_bytes": 1 << 20},
                )
                assert response.status == 200
                assert len(response.json()["result"]["payload"]) == 1 << 20
                key = response.json()["job"]
                http11 = await client.request("GET", f"/jobs/{key}")
                assert "transfer-encoding" not in http11.headers
                assert int(http11.headers["content-length"]) == len(
                    http11.body
                )
                data = await _raw_exchange(
                    host, port,
                    f"GET /jobs/{key} HTTP/1.0\r\nHost: t\r\n\r\n".encode(),
                )
                head, _, http10 = data.partition(b"\r\n\r\n")
                assert b"Transfer-Encoding" not in head
                assert f"Content-Length: {len(http10)}".encode() in head
                assert http10 == http11.body
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(run())

    def test_result_bodies_encode_once(self):
        async def run():
            server = _server()
            host, port = await server.start()
            client = LoadClient(host, port)
            try:
                spec = {"kind": "ping", "token": "memo", "payload_bytes": 64}
                bodies = []
                for _ in range(3):
                    response = await client.request("POST", "/run", spec)
                    assert response.status == 200
                    bodies.append(response.json()["result"])
                assert bodies[0] == bodies[1] == bodies[2]
                key = (await client.request("POST", "/run", spec)).json()["job"]
                await client.request("GET", f"/jobs/{key}")
                stats = (await client.request("GET", "/stats")).json()
                assert stats["http"]["result_cache_misses"] == 1
                assert stats["http"]["result_cache_hits"] >= 3
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(run())
