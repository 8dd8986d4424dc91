"""Fleet routing (``ompdart serve --peer``) and the load generator's
failure taxonomy: least-loaded peer choice, loop-free forwarding,
poison passthrough, local fallback, and per-category gate budgets."""

import asyncio
import json

import pytest

from repro.pipeline.remote import CircuitBreaker
from repro.service.fleet import FORWARDED_HEADER, PeerRouter
from repro.service.loadgen import _failure_category, gate_load

SRC = """
int a[16];
int main() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 16; i++) a[i] = i;
  return 0;
}
"""


def _scheduler(**kw):
    from repro.service.scheduler import JobScheduler

    kw.setdefault("workers", 1)
    return JobScheduler(**kw)


def _server(port=0, **kw):
    from repro.service.server import JobServer

    return JobServer(_scheduler(), port=port, **kw)


async def _request(host, port, method, path, payload=None, headers=None):
    from repro.service.loadgen import LoadClient

    client = LoadClient(host, port, keep_alive=False, headers=headers)
    try:
        response = await client.request(method, path, payload)
    finally:
        await client.aclose()
    return response


class TestPeerSelection:
    def test_requires_at_least_one_peer(self):
        with pytest.raises(ValueError):
            PeerRouter([])
        with pytest.raises(ValueError):
            PeerRouter(["ftp://nope"])

    def test_picks_least_loaded_healthy_closed_peer(self):
        router = PeerRouter(["http://a:1", "http://b:1", "http://c:1"])
        a, b, c = router.peers
        a.healthy = True
        a.queue_depth = 5
        b.healthy = True
        b.queue_depth = 1
        b.inflight = 1
        c.healthy = True
        c.queue_depth = 0
        c.inflight = 6
        assert router._pick(set()) is b  # 2 beats 5 and 6
        assert router._pick({b.url}) is a

    def test_unhealthy_and_open_breaker_peers_are_excluded(self):
        router = PeerRouter(["http://a:1", "http://b:1"])
        a, b = router.peers
        a.healthy = False
        b.healthy = True
        for _ in range(3):
            b.breaker.record_failure()
        assert b.breaker.state == CircuitBreaker.OPEN
        assert router._pick(set()) is None

    def test_degraded_reasons_name_open_breakers_and_dead_fleet(self):
        router = PeerRouter(["http://a:1", "http://b:1"])
        _a, b = router.peers
        for _ in range(3):
            b.breaker.record_failure()
        reasons = router.degraded_reasons()
        assert any("http://b:1" in r for r in reasons)
        assert any("no healthy peers" in r for r in reasons)


class TestForwarding:
    def test_forwards_to_peer_and_counts(self):
        async def run():
            peer_server = _server()
            peer_host, peer_port = await peer_server.start()
            router = PeerRouter(
                [f"http://{peer_host}:{peer_port}"], probe_interval=30.0
            )
            try:
                await router.start()
                assert router.peers[0].healthy
                body = json.dumps(
                    {"kind": "ping", "token": "fleet"}
                ).encode()
                routed = await router.forward(body)
                assert routed is not None
                status, payload = routed
                assert status == 200
                assert json.loads(payload)["state"] == "done"
                stats = router.stats()
                assert stats["forwarded"] == 1
                assert stats["rerouted"] == 0
                assert stats["local_fallbacks"] == 0
                return peer_server.scheduler.stats()
            finally:
                await router.aclose()
                await peer_server.aclose()

        peer_stats = asyncio.run(run())
        assert peer_stats["executed"] == 1

    def test_http_errors_pass_through_verbatim_without_reroute(self):
        async def run():
            peer_server = _server()
            peer_host, peer_port = await peer_server.start()
            router = PeerRouter(
                [f"http://{peer_host}:{peer_port}"], probe_interval=30.0
            )
            try:
                await router.start()
                routed = await router.forward(
                    json.dumps({"kind": "nope"}).encode()
                )
                assert routed is not None
                status, payload = routed
                # The peer *answered*: its verdict travels back
                # untouched, and the job is not re-run anywhere.
                assert status == 400
                assert "unknown job kind" in json.loads(payload)["error"]
                assert router.stats()["forwarded"] == 1
                assert router.stats()["local_fallbacks"] == 0
            finally:
                await router.aclose()
                await peer_server.aclose()

        asyncio.run(run())

    def test_dead_peer_falls_back_to_local(self):
        async def run():
            router = PeerRouter(
                ["http://127.0.0.1:1"], probe_interval=30.0,
                probe_timeout=0.5,
            )
            try:
                await router.start()
                assert not router.peers[0].healthy
                routed = await router.forward(b'{"kind":"ping"}')
                assert routed is None
                assert router.stats()["local_fallbacks"] == 1
                assert router.degraded_reasons()
            finally:
                await router.aclose()

        asyncio.run(run())

    def test_transport_death_mid_forward_reroutes_once(self):
        async def run():
            live = _server()
            live_host, live_port = await live.start()
            dying = _server()
            dying_host, dying_port = await dying.start()
            router = PeerRouter(
                [
                    f"http://{dying_host}:{dying_port}",
                    f"http://{live_host}:{live_port}",
                ],
                probe_interval=30.0,
            )
            try:
                await router.start()
                # Make the dying peer the preferred target, then kill
                # it so the forward dies at the transport level.
                router.peers[0].queue_depth = 0
                router.peers[1].queue_depth = 5
                await dying.kill()
                routed = await router.forward(
                    json.dumps({"kind": "ping", "token": "x"}).encode()
                )
                assert routed is not None
                status, payload = routed
                assert status == 200
                assert json.loads(payload)["state"] == "done"
                stats = router.stats()
                assert stats["forwarded"] == 1
                assert stats["rerouted"] == 1
                assert not router.peers[0].healthy
                return live.scheduler.stats()
            finally:
                await router.aclose()
                await live.aclose()
                await dying.aclose()

        live_stats = asyncio.run(run())
        assert live_stats["executed"] == 1


class TestServedRouting:
    def test_ring_of_two_terminates_after_one_hop(self, unused_tcp_port=None):
        """A↔B peer rings must not bounce jobs forever: the forwarded
        marker makes the second hop execute locally."""

        async def run():
            from repro.service.server import JobServer

            server_b = JobServer(_scheduler(), port=0)
            host_b, port_b = await server_b.start()
            router_a = PeerRouter(
                [f"http://{host_b}:{port_b}"], probe_interval=30.0
            )
            server_a = JobServer(_scheduler(), port=0, router=router_a)
            host_a, port_a = await server_a.start()
            # B routes back to A: a real (misconfigured) ring.
            router_b = PeerRouter(
                [f"http://{host_a}:{port_a}"], probe_interval=30.0
            )
            server_b.router = router_b
            await router_b.start()
            try:
                response = await _request(
                    host_a, port_a, "POST", "/run",
                    {"kind": "transform", "source": SRC, "filename": "a.c"},
                )
                assert response.status == 200
                assert response.json()["state"] == "done"
                stats_a = (
                    await _request(host_a, port_a, "GET", "/stats")
                ).json()
                stats_b = (
                    await _request(host_b, port_b, "GET", "/stats")
                ).json()
                return stats_a, stats_b
            finally:
                await server_a.aclose()
                await server_b.aclose()

        stats_a, stats_b = asyncio.run(run())
        # A forwarded to B; B executed locally (no second hop).
        assert stats_a["fleet"]["forwarded"] == 1
        assert stats_b["executed"] == 1
        assert stats_a["executed"] == 0
        assert stats_b["fleet"]["forwarded"] == 0

    def test_forwarded_marker_is_honored_directly(self):
        async def run():
            peer = _server()
            peer_host, peer_port = await peer.start()
            router = PeerRouter(
                [f"http://{peer_host}:{peer_port}"], probe_interval=30.0
            )
            front = _server(router=router)
            host, port = await front.start()
            try:
                # A pre-marked request must execute on the front node.
                response = await _request(
                    host, port, "POST", "/run",
                    {"kind": "ping", "token": "marked"},
                    headers={FORWARDED_HEADER: "1"},
                )
                assert response.status == 200
                assert front.scheduler.stats()["executed"] == 1
                assert peer.scheduler.stats()["executed"] == 0
            finally:
                await front.aclose()
                await peer.aclose()

        asyncio.run(run())


class TestLoadFailureTaxonomy:
    def test_failure_category_mapping(self):
        assert _failure_category(TimeoutError()) == "timeouts"
        assert _failure_category(asyncio.TimeoutError()) == "timeouts"
        assert (
            _failure_category(ConnectionResetError())
            == "connection_errors"
        )
        assert _failure_category(OSError()) == "connection_errors"
        assert (
            _failure_category(
                asyncio.IncompleteReadError(b"", expected=10)
            )
            == "connection_errors"
        )
        assert _failure_category(ValueError("bad json")) == "other_errors"

    def _payload(self, **mode):
        base = {
            "requests": 100, "failed": 0, "connection_errors": 0,
            "timeouts": 0, "http_errors": 0, "other_errors": 0,
            "p99_s": 0.01, "throughput_rps": 1000.0,
        }
        base.update(mode)
        return {"schema": "ompdart-load-perf/1", "modes": {"keepalive": base}}

    def test_any_failure_fails_without_budgets(self):
        payload = self._payload(failed=2, connection_errors=2)
        assert gate_load(payload)
        assert not gate_load(self._payload())

    def test_budgeted_category_tolerates_up_to_budget(self):
        payload = self._payload(failed=2, connection_errors=2)
        assert not gate_load(payload, max_connection_errors=2)
        problems = gate_load(payload, max_connection_errors=1)
        assert any("connection errors" in p for p in problems)

    def test_unbudgeted_residual_still_fails(self):
        payload = self._payload(
            failed=3, connection_errors=2, http_errors=1
        )
        problems = gate_load(payload, max_connection_errors=5)
        assert any("failed request" in p for p in problems)
        assert not gate_load(
            payload, max_connection_errors=5, max_http_errors=1
        )

    def test_old_artifacts_without_categories_still_gate(self):
        payload = {
            "schema": "ompdart-load-perf/1",
            "modes": {"close": {"requests": 10, "failed": 1, "p99_s": 0.1}},
        }
        assert gate_load(payload)
        # A budget cannot excuse failures an old artifact can't attribute.
        assert gate_load(payload, max_connection_errors=5)
