"""Remote artifact tier: circuit breaker, retry/backoff client, the
server's /artifacts routes, tiered read-through/write-behind caching,
and the degraded-health surfaces."""

import asyncio
import os
import threading
import zlib

import pytest

import repro.pipeline.remote as remote_module
from repro.pipeline.cache import MISS, ORIGIN_REMOTE, ArtifactCache
from repro.pipeline.remote import (
    EVENTS,
    CircuitBreaker,
    RemoteCounters,
    RemoteStoreClient,
    RemoteStoreConfig,
    _jitter,
)

#: A localhost port nothing listens on (reserved, never assigned).
DEAD_URL = "http://127.0.0.1:1"

#: Client tuned for tests: no real sleeps, instant cooldowns.
FAST = RemoteStoreConfig(
    timeout=0.5, retries=1, backoff=0.0, breaker_threshold=3,
    breaker_cooldown=0.05, publish_queue=4,
)


def _scheduler(**kw):
    from repro.service.scheduler import JobScheduler

    kw.setdefault("workers", 1)
    kw.setdefault("use_processes", False)
    return JobScheduler(**kw)


async def _request(host, port, method, path, payload=None):
    from repro.service.loadgen import LoadClient

    client = LoadClient(host, port, keep_alive=False)
    try:
        response = await client.request(method, path, payload)
    finally:
        await client.aclose()
    return response


class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers_half_open(self):
        now = [0.0]
        breaker = CircuitBreaker(
            threshold=3, cooldown=10.0, clock=lambda: now[0]
        )
        assert breaker.state == CircuitBreaker.CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1
        assert not breaker.allow()  # cooldown not elapsed

        now[0] = 10.0
        assert breaker.allow() is True  # exactly one half-open probe
        assert not breaker.allow()      # second probe refused
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.closes == 1
        assert breaker.allow()

    def test_half_open_failure_reopens_for_full_cooldown(self):
        now = [0.0]
        breaker = CircuitBreaker(
            threshold=1, cooldown=5.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        now[0] = 5.0
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.opens == 2
        assert not breaker.allow()
        now[0] = 9.0
        assert not breaker.allow()  # new cooldown runs from the reopen

    def test_success_resets_consecutive_failure_count(self):
        breaker = CircuitBreaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED


class TestRetryMachinery:
    def test_jitter_is_deterministic_and_bounded(self):
        values = [_jitter(f"key-{i}", a) for i in range(50) for a in range(3)]
        assert all(0.5 <= v < 1.0 for v in values)
        assert len(set(values)) > 100  # actually spreads
        assert _jitter("k", 0) == _jitter("k", 0)
        assert _jitter("k", 0) != _jitter("k", 1)

    def test_fetch_degrades_to_none_and_trips_breaker(self):
        sleeps = []
        client = RemoteStoreClient(
            DEAD_URL, config=FAST, sleep=sleeps.append,
            clock=lambda: 0.0,
        )
        try:
            for _ in range(FAST.breaker_threshold):
                assert client.fetch("parse-k") is None
            # Every attempt (1 + retries) hit the dead port.
            assert client.counters["errors"] == 3 * (1 + FAST.retries)
            assert client.breaker.state == CircuitBreaker.OPEN
            assert client.counters["breaker_opens"] == 1
            # While open: no network, counted as degraded.
            assert client.fetch("parse-k") is None
            assert client.counters["degraded"] == 1
            assert client.counters["errors"] == 3 * (1 + FAST.retries)
            # One backoff sleep per failed first attempt.
            assert len(sleeps) == 3 * FAST.retries
        finally:
            client.close()

    def test_push_failure_returns_false_never_raises(self):
        client = RemoteStoreClient(
            DEAD_URL, config=FAST, sleep=lambda s: None
        )
        try:
            assert client.push("parse-k", b"payload") is False
            assert client.counters["puts"] == 0
            assert client.counters["errors"] > 0
        finally:
            client.close()

    def test_rejects_non_http_and_hostless_urls(self):
        with pytest.raises(ValueError):
            RemoteStoreClient("https://secure.example")
        with pytest.raises(ValueError):
            RemoteStoreClient("http://")

    def test_offer_sheds_oldest_when_queue_is_full(self, tmp_path):
        config = RemoteStoreConfig(retries=0, publish_queue=2)
        client = RemoteStoreClient(DEAD_URL, config=config)
        started = threading.Event()
        gate = threading.Event()
        pushed = []

        def slow_push(key, payload):
            started.set()
            gate.wait(timeout=5.0)
            pushed.append(key)
            return True

        client.push = slow_push
        paths = []
        for i in range(4):
            path = tmp_path / f"parse-k{i}.art"
            path.write_bytes(b"x")
            paths.append(path)
        try:
            client.offer("parse-k0", paths[0])
            assert started.wait(timeout=5.0)  # k0 in flight, queue empty
            client.offer("parse-k1", paths[1])
            client.offer("parse-k2", paths[2])
            client.offer("parse-k3", paths[3])  # overflows: k1 shed
            assert client.counters["publish_shed"] == 1
            gate.set()
            assert client.flush(timeout=5.0)
            assert pushed == ["parse-k0", "parse-k2", "parse-k3"]
        finally:
            client.close()


class TestRemoteCounters:
    def test_client_events_land_in_the_pool_array(self):
        counters = RemoteCounters()
        client = RemoteStoreClient(
            DEAD_URL, config=FAST, sleep=lambda s: None,
            on_event=counters.add,
        )
        try:
            assert client.fetch("parse-k") is None
        finally:
            client.close()
        # The pool-wide array and the client's own view share one shape.
        assert counters.snapshot() == client.counters
        assert counters.snapshot()["errors"] == 1 + FAST.retries
        assert set(counters.snapshot()) == set(EVENTS)

    def test_forked_workers_add_to_the_owner_array(self):
        """More workers than cores, each adding many times: a lost
        read-modify-write would leave the total short."""
        import multiprocessing

        counters = RemoteCounters()
        ctx = multiprocessing.get_context("fork")
        workers = (os.cpu_count() or 1) + 2
        procs = [
            ctx.Process(target=_add_many, args=(counters, 20000))
            for _ in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert not proc.is_alive() and proc.exitcode == 0
        assert counters.snapshot()["hits"] == 20000 * workers


def _add_many(counters, times):
    for _ in range(times):
        counters.add("hits")


def _spill_payload(tmp_path, value=(1, 2, 3)):
    """A valid spill record, via a real cache spill."""
    cache = ArtifactCache(disk_dir=tmp_path / "seed")
    cache.put("parse", "seed-key", list(value))
    cache.put("rewrite", "seed-key", "text")
    cache.commit("seed-key")
    (path,) = (tmp_path / "seed").glob("*.art")
    return path.name[: -len(".art")], path.read_bytes()


class TestArtifactRoutes:
    def test_put_get_roundtrip_and_miss(self, tmp_path):
        key, payload = _spill_payload(tmp_path)

        async def run():
            from repro.service.server import JobServer

            server = JobServer(
                _scheduler(cache_dir=str(tmp_path / "node")), port=0
            )
            host, port = await server.start()
            try:
                response = await _request(
                    host, port, "GET", f"/artifacts/{key}"
                )
                assert response.status == 404

                response = await _request(
                    host, port, "PUT", f"/artifacts/{key}", payload
                )
                assert response.status == 201
                assert response.json()["stored"] is True

                response = await _request(
                    host, port, "GET", f"/artifacts/{key}"
                )
                assert response.status == 200
                assert response.body == payload

                response = await _request(
                    host, port, "GET", "/artifacts/stats"
                )
                assert response.status == 200
                census = response.json()
                assert census["files"] == 1
                assert census["records"] == 1
            finally:
                await server.aclose()

        asyncio.run(run())
        assert (tmp_path / "node" / f"{key}.art").exists()

    def test_rejects_bad_keys_and_bad_payloads(self, tmp_path):
        async def run():
            from repro.service.server import JobServer

            server = JobServer(
                _scheduler(cache_dir=str(tmp_path / "node")), port=0
            )
            host, port = await server.start()
            try:
                for bad in ("..%2Fevil", ".hidden", "a%2Fb"):
                    response = await _request(
                        host, port, "GET", f"/artifacts/{bad}"
                    )
                    assert response.status == 400, bad
                # Not a spill record: rejected, not stored.
                response = await _request(
                    host, port, "PUT", "/artifacts/parse-k", b"garbage"
                )
                assert response.status == 400
                # Nor is a per-pass spill of the retired format.
                response = await _request(
                    host, port, "PUT", "/artifacts/parse-k",
                    b"OART1\n" + zlib.compress(b"payload"),
                )
                assert response.status == 400
                response = await _request(
                    host, port, "POST", "/artifacts/parse-k"
                )
                assert response.status == 405
            finally:
                await server.aclose()

        asyncio.run(run())
        assert not list((tmp_path / "node").glob("*.art"))

    def test_artifact_routes_need_a_cache_dir(self):
        async def run():
            from repro.service.server import JobServer

            server = JobServer(_scheduler(), port=0)
            host, port = await server.start()
            try:
                response = await _request(
                    host, port, "GET", "/artifacts/parse-k"
                )
                assert response.status == 503
            finally:
                await server.aclose()

        asyncio.run(run())


class TestTieredCache:
    def _serve(self, cache_dir):
        from repro.service.server import JobServer

        return JobServer(_scheduler(cache_dir=str(cache_dir)), port=0)

    def test_read_through_lands_local_spill(self, tmp_path):
        async def run():
            server = self._serve(tmp_path / "node")
            host, port = await server.start()
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    None, self._exercise_read_through, tmp_path, host, port
                )
            finally:
                await server.aclose()

        asyncio.run(run())

    def _exercise_read_through(self, tmp_path, host, port):
        publisher = ArtifactCache(disk_dir=tmp_path / "a")
        client_a = RemoteStoreClient(f"http://{host}:{port}", config=FAST)
        publisher.remote = client_a
        publisher.put("parse", "shared", [4, 5, 6])
        publisher.put("rewrite", "shared", "out")
        publisher.commit("shared")
        assert client_a.flush(timeout=5.0)
        assert client_a.counters["puts"] == 1  # one record, one key
        client_a.close()

        reader = ArtifactCache(disk_dir=tmp_path / "b")
        client_b = RemoteStoreClient(f"http://{host}:{port}", config=FAST)
        reader.remote = client_b
        try:
            value, origin = reader.lookup("parse", "shared")
            assert value == [4, 5, 6]
            assert origin == ORIGIN_REMOTE
            # The record's other passes came with it: no second fetch.
            assert reader.lookup("rewrite", "shared") == ("out", ORIGIN_REMOTE)
            assert client_b.counters["hits"] == 1
            assert len(list((tmp_path / "b").glob("*.art"))) == 1
            # Second lookup is local: the payload landed as a spill.
            fresh = ArtifactCache(disk_dir=tmp_path / "b")
            assert fresh.get("parse", "shared") == [4, 5, 6]
        finally:
            client_b.close()

    def test_corrupt_remote_payload_quarantines_as_miss(self, tmp_path):
        async def run():
            server = self._serve(tmp_path / "node")
            host, port = await server.start()
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    None, self._exercise_corruption, tmp_path, host, port
                )
            finally:
                await server.aclose()

        asyncio.run(run())

    def _exercise_corruption(self, tmp_path, host, port):
        publisher = ArtifactCache(disk_dir=tmp_path / "a")
        client_a = RemoteStoreClient(f"http://{host}:{port}", config=FAST)
        publisher.remote = client_a
        publisher.put("parse", "shared", [4, 5, 6])
        publisher.commit("shared")
        assert client_a.flush(timeout=5.0)
        client_a.close()

        reader = ArtifactCache(disk_dir=tmp_path / "b")
        client_b = RemoteStoreClient(f"http://{host}:{port}", config=FAST)
        reader.remote = client_b
        remote_module.payload_fault_hook = (
            lambda key, payload: payload[: len(payload) // 2]
        )
        try:
            assert reader.get("parse", "shared") is MISS
            assert reader.stats["parse"].corrupt_spills == 1
            assert list((tmp_path / "b").glob("*.art.bad"))
        finally:
            remote_module.payload_fault_hook = None
            client_b.close()

    def test_down_store_degrades_without_failing(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        client = RemoteStoreClient(
            DEAD_URL, config=FAST, sleep=lambda s: None
        )
        cache.remote = client
        try:
            assert cache.get("parse", "k") is MISS
            cache.put("parse", "k", [1])
            cache.commit("k")
            assert cache.get("parse", "k") == [1]  # local tiers still work
            client.flush(timeout=5.0)
            health = client.health()
            assert health["errors"] > 0 or health["publish_errors"] > 0
        finally:
            client.close()


class TestDegradedHealth:
    def test_scheduler_reports_open_breaker_and_healthz_degrades(
        self, tmp_path
    ):
        from repro.service.core import worker_init
        from repro.service.server import JobServer

        src = (
            "int a[8];\nint main() {\n"
            "  #pragma omp target teams distribute parallel for\n"
            "  for (int i = 0; i < 8; i++) a[i] = i;\n"
            "  return 0;\n}\n"
        )

        async def run():
            server = JobServer(
                _scheduler(cache_dir=str(tmp_path), store_url=DEAD_URL),
                port=0,
            )
            host, port = await server.start()
            try:
                response = await _request(
                    host, port, "POST", "/run",
                    {"kind": "transform", "source": src, "filename": "a.c"},
                )
                assert response.status == 200
                assert response.json()["state"] == "done"
                health = await _request(host, port, "GET", "/healthz")
                stats = await _request(host, port, "GET", "/stats")
                return health.status, health.json(), stats.json()
            finally:
                await server.aclose()

        try:
            status, health, stats = asyncio.run(run())
        finally:
            worker_init(None)  # reset the thread runtime's remote tier
        # Degraded is a *warning* state: still 200, never 503.
        assert status == 200
        assert health["ok"] is True
        assert health["status"] == "degraded"
        assert any("circuit breaker" in r for r in health["reasons"])
        assert stats["remote"]["breaker_opens"] >= 1
        assert stats["remote"]["errors"] >= 1
        assert any(
            "circuit breaker" in r for r in stats["degraded_reasons"]
        )


class TestPoolWideCounters:
    SRC = (
        "int b[8];\nint main() {\n"
        "  #pragma omp target teams distribute parallel for\n"
        "  for (int i = 0; i < 8; i++) b[i] = 2 * i;\n"
        "  return 0;\n}\n"
    )

    def test_supervised_workers_aggregate_hits_and_breaker_opens(
        self, tmp_path
    ):
        """Remote traffic of worker processes reaches the owner's /stats
        through the pool's counter array."""
        from repro.pipeline.batch import transform_batch
        from repro.service.core import TransformJobSpec
        from repro.service.server import JobServer

        spec = TransformJobSpec(source=self.SRC, filename="b.c")

        async def run():
            node = JobServer(
                _scheduler(cache_dir=str(tmp_path / "node")), port=0
            )
            host, port = await node.start()
            url = f"http://{host}:{port}"
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, lambda: transform_batch(
                        [(self.SRC, "b.c")],
                        cache_dir=str(tmp_path / "pub"), store_url=url,
                    ),
                )
                stats = []
                for name, store_url in (("live", url), ("dead", DEAD_URL)):
                    sched = _scheduler(
                        workers=2, use_processes=True,
                        cache_dir=str(tmp_path / name), store_url=store_url,
                    )
                    try:
                        if sched.executor_kind != "supervised":
                            pytest.skip("process workers unavailable")
                        await sched.run(spec)
                        stats.append(sched.stats())
                    finally:
                        await sched.aclose()
                return stats
            finally:
                await node.aclose()

        live, dead = asyncio.run(run())
        # The publishing batch left one record for its one input.
        assert len(list((tmp_path / "pub").glob("*.art"))) == 1
        assert live["remote"]["hits"] == 1
        assert live["remote"]["errors"] == 0
        assert dead["remote"]["breaker_opens"] >= 1
        assert dead["remote"]["errors"] >= 1
        assert dead["remote"]["hits"] == 0
