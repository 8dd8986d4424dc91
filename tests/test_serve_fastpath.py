"""Serve fast path: keep-alive + pipelined HTTP, read timeouts,
streamed/memoized bodies, admission control, eviction, metrics, and
the ``ompdart load`` harness."""

import asyncio
import json
import socket
import struct
import time

import pytest

from repro.service.core import PingJobSpec, execute_job, spec_from_dict
from repro.service.server import STREAM_THRESHOLD
from repro.service.loadgen import (
    LOAD_SCHEMA,
    LoadClient,
    LoadConfig,
    gate_load,
    render_load,
    run_load,
)


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
                    server._connections_total.value() < len(cases)
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
    def test_streamed_and_buffered_bodies_are_byte_identical(self):
        async def run():
            server = _server()
            host, port = await server.start()
            client = LoadClient(host, port)
            try:
                response = await client.request(
                    "POST", "/run",
                    {
                        "kind": "ping", "token": "big",
                        "payload_bytes": STREAM_THRESHOLD,
                    },
                )
                assert response.status == 200
                assert (
                    response.headers.get("transfer-encoding") == "chunked"
                )
                key = response.json()["job"]
                chunked = await client.request("GET", f"/jobs/{key}")
                assert (
                    chunked.headers.get("transfer-encoding") == "chunked"
                )
                # HTTP/1.0 cannot take chunked: same resource goes out
                # buffered with a Content-Length — byte-identical.
                data = await _raw_exchange(
                    host, port,
                    f"GET /jobs/{key} HTTP/1.0\r\nHost: t\r\n\r\n".encode(),
                )
                head, _, buffered = data.partition(b"\r\n\r\n")
                assert b"Content-Length" in head
                assert b"Transfer-Encoding" not in head
                assert buffered == chunked.body
                stats = (await client.request("GET", "/stats")).json()
                assert stats["http"]["streamed_responses"] >= 2
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


class TestMetricsEndpoint:
    def test_prometheus_text(self):
        async def run():
            server = _server()
            host, port = await server.start()
            client = LoadClient(host, port)
            try:
                await client.request("GET", "/healthz")
                await client.request(
                    "POST", "/run", {"kind": "ping", "token": "m"}
                )
                response = await client.request("GET", "/metrics")
                assert response.status == 200
                assert response.headers["content-type"].startswith(
                    "text/plain"
                )
                text = response.body.decode()
                assert "# TYPE ompdart_http_requests_total counter" in text
                assert (
                    'ompdart_http_requests_total{route="/healthz",'
                    'method="GET",status="200"} 1' in text
                )
                assert "ompdart_http_request_seconds_bucket" in text
                assert "ompdart_queue_depth 0" in text
                assert (
                    'ompdart_job_duration_seconds_count{kind="ping",'
                    'outcome="done"} 1' in text
                )
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(run())


class TestLoadHarness:
    def test_load_run_emits_artifact_with_speedup(self):
        async def run():
            server = _server()
            host, port = await server.start()
            try:
                config = LoadConfig(
                    host=host, port=port, clients=3, requests=30,
                    mix={"ping": 3, "stats": 1, "jobs": 1},
                    pipeline_depth=2,
                )
                return await run_load(config, modes=("close", "keepalive"))
            finally:
                await server.aclose()

        payload = asyncio.run(run())
        assert payload["schema"] == LOAD_SCHEMA
        assert set(payload["modes"]) == {"close", "keepalive"}
        for result in payload["modes"].values():
            assert result["failed"] == 0
            assert result["throughput_rps"] > 0
            assert 0 <= result["p50_s"] <= result["p99_s"] <= result["max_s"]
        assert payload["speedup_x"] is not None
        assert "methodology" in payload
        assert gate_load(payload) == []
        assert "keep-alive speedup" in render_load(payload)

    def test_gate_flags_failures_budget_and_regressions(self):
        good = {
            "schema": LOAD_SCHEMA,
            "modes": {
                "keepalive": {
                    "failed": 0, "throughput_rps": 100.0,
                    "p50_s": 0.01, "p99_s": 0.05,
                },
            },
        }
        assert gate_load(good) == []
        assert gate_load(good, max_p99=0.01) != []
        bad = {
            "schema": LOAD_SCHEMA,
            "modes": {
                "keepalive": {
                    "failed": 2, "throughput_rps": 10.0,
                    "p50_s": 0.02, "p99_s": 0.5,
                },
            },
        }
        problems = gate_load(bad, baseline=good, tolerance=0.25)
        assert any("failed request" in p for p in problems)
        assert any("throughput" in p for p in problems)
        assert any("p99" in p for p in problems)
        assert gate_load({"schema": LOAD_SCHEMA}) != []

    def test_cli_parser_and_validation(self, capsys):
        from repro.cli import build_parser, main

        args = build_parser("load").parse_args([])
        assert args.clients == 8
        assert args.mode == "both"
        assert main(["load", "--clients", "0"]) == 2
        assert "--clients" in capsys.readouterr().err
        assert main(["load", "--mix", "ping=x"]) == 2

    def test_cli_unreachable_server_exits_2(self, capsys):
        from repro.cli import main

        # Port 1 on localhost: connection refused, not a hang.
        assert main([
            "load", "--port", "1", "--clients", "1", "--requests", "1",
            "--mode", "keepalive",
        ]) == 2
        assert "cannot reach" in capsys.readouterr().err


class TestLoadHistory:
    @staticmethod
    def _load_artifact(tmp_path, name, p50, p99):
        payload = {
            "schema": LOAD_SCHEMA,
            "modes": {
                "keepalive": {
                    "failed": 0, "throughput_rps": 500.0,
                    "p50_s": p50, "p99_s": p99,
                },
                "close": {
                    "failed": 0, "throughput_rps": 100.0,
                    "p50_s": p50 * 3, "p99_s": p99 * 3,
                },
            },
        }
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_bench_history_folds_load_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        old = self._load_artifact(tmp_path, "old.json", 0.010, 0.080)
        new = self._load_artifact(tmp_path, "new.json", 0.002, 0.020)
        assert main(["bench-history", old, new]) == 0
        out = capsys.readouterr().out
        assert "serve" in out and "keepalive" in out and "close" in out
        assert "p50" in out and "p99" in out
        assert "80.0" in out and "20.0" in out  # p99 ms cells
        # Latency percentiles don't get a (total) row.
        assert "(total)" not in out

    def test_suite_and_load_artifacts_mix(self, tmp_path, capsys):
        from repro.cli import main

        suite = {
            "schema": "ompdart-suite-perf/4",
            "results": {
                "a100-pcie4": {
                    "benchmarks": {
                        "nw": {
                            "variants": {
                                "ompdart": {"sim_wall_s": 0.05},
                            }
                        }
                    }
                }
            },
        }
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(suite))
        load = self._load_artifact(tmp_path, "load.json", 0.010, 0.080)
        assert main(["bench-history", str(suite_path), load]) == 0
        out = capsys.readouterr().out
        assert "a100-pcie4" in out and "serve" in out

    def test_rejects_unknown_schema_still(self, tmp_path):
        from repro.report.history import load_artifact as load_fn

        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/1"}')
        with pytest.raises(ValueError):
            load_fn(str(bad))
