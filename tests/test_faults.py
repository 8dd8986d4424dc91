"""Fault tolerance: deterministic fault plans, the supervised pool's
crash/retry/poison/cancel machinery, the dead-writer spill sweep, the
corrupt-spill quarantine, and the chaos harness's zero-divergence
contract."""

import asyncio
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.pipeline.cache import MISS, ArtifactCache
from repro.pipeline.store import sweep_dead_tmp
from repro.service.core import PingJobSpec, TransformJobSpec
from repro.service.faults import (
    CORRUPT_SPILL,
    KILL_WORKER,
    WEDGE,
    FaultPlan,
    FaultRule,
    parse_fault_plan,
)
from repro.service.supervisor import (
    JobCancelled,
    PoisonJobError,
    PoolExhausted,
    SupervisedPool,
)

SRC = """
int a[32];
int main() {
  a[0] = 1;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 32; i++) a[i] = a[i] + 1;
  return a[0];
}
"""

#: Result fields that legitimately vary run to run.
_VARYING = ("elapsed_seconds", "timings", "cache_events", "cache_origins")


def _scrub(payload):
    if isinstance(payload, dict):
        return {
            k: _scrub(v) for k, v in payload.items() if k not in _VARYING
        }
    if isinstance(payload, list):
        return [_scrub(v) for v in payload]
    return payload


def _pool(workers=1, **kw):
    return SupervisedPool(workers, **kw)


def _dead_pid():
    """A pid guaranteed dead: fork a child that exits, reap it."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return pid


class TestFaultPlan:
    def test_parse_plan(self):
        plan = parse_fault_plan(
            "kill-worker:p=0.05, corrupt-spill:p=0.02", seed=7
        )
        assert plan.seed == 7
        assert plan.rule(KILL_WORKER).probability == 0.05
        assert plan.rule(CORRUPT_SPILL).probability == 0.02
        assert plan.rule(WEDGE) is None

    def test_parse_always_and_seconds(self):
        plan = parse_fault_plan("wedge:p=1:always:s=5")
        rule = plan.rule(WEDGE)
        assert rule.always is True
        assert rule.seconds == 5.0

    def test_parse_rejects_garbage(self):
        for bad in (
            "explode:p=1",        # unknown kind
            "kill-worker",        # missing probability
            "kill-worker:p=2",    # out of [0, 1]
            "kill-worker:p=x",    # not a float
            "kill-worker:p=1:bogus=3",
            "",                   # empty plan
        ):
            with pytest.raises(ValueError):
                parse_fault_plan(bad)

    def test_decisions_are_deterministic_and_seeded(self):
        plan = FaultPlan(seed=1, rules=(FaultRule(KILL_WORKER, 0.5),))
        keys = [f"job-{i}" for i in range(200)]
        first = [plan.should_fire(KILL_WORKER, k) for k in keys]
        second = [plan.should_fire(KILL_WORKER, k) for k in keys]
        assert first == second
        assert any(first) and not all(first)  # p=0.5 actually splits
        other = FaultPlan(seed=2, rules=(FaultRule(KILL_WORKER, 0.5),))
        assert first != [other.should_fire(KILL_WORKER, k) for k in keys]

    def test_retries_survive_unless_always(self):
        transient = FaultPlan(rules=(FaultRule(KILL_WORKER, 1.0),))
        assert transient.should_fire(KILL_WORKER, "k", attempt=0)
        assert not transient.should_fire(KILL_WORKER, "k", attempt=1)
        poison = FaultPlan(
            rules=(FaultRule(KILL_WORKER, 1.0, always=True),)
        )
        assert poison.should_fire(KILL_WORKER, "k", attempt=3)


class TestSupervisedPool:
    def test_killed_worker_respawns_and_job_retries(self):
        pool = _pool(
            fault_plan=parse_fault_plan("kill-worker:p=1"),
            job_retries=1,
            retry_backoff=0.01,
        )
        try:
            result = pool.submit_spec(
                PingJobSpec(token="killed")
            ).future.result(30)
            assert result["pong"] is True
            stats = pool.stats()
            assert stats["crashes"] == 1
            assert stats["retries"] == 1
            assert stats["restarts"] == 1
            assert stats["alive"] == 1  # respawned, still serving
        finally:
            pool.shutdown()

    def test_double_killer_is_quarantined_as_poison(self):
        pool = _pool(
            fault_plan=parse_fault_plan("kill-worker:p=1:always"),
            job_retries=1,
            retry_backoff=0.01,
        )
        try:
            with pytest.raises(PoisonJobError, match="quarantined"):
                pool.submit_spec(
                    PingJobSpec(token="poison")
                ).future.result(30)
            assert pool.stats()["poisoned"] == 1
            # The pool survives its poison job: the worker respawns
            # and the restart budget is nowhere near spent.
            deadline = time.monotonic() + 10
            while pool.stats()["alive"] < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.stats()["alive"] == 1
            assert not pool.exhausted
        finally:
            pool.shutdown()

    def test_cooperative_cancel_interrupts_sleeping_worker(self):
        pool = _pool()
        try:
            job = pool.submit_spec(PingJobSpec(token="slow", sleep_s=30))
            time.sleep(0.3)  # let the worker start sleeping
            start = time.monotonic()
            job.cancel(2.0)
            with pytest.raises(JobCancelled):
                job.future.result(10)
            assert time.monotonic() - start < 2.0  # SIGINT, not grace
            stats = pool.stats()
            assert stats["cancelled"] == 1
            assert stats["cancel_kills"] == 0  # worker survived
            assert stats["alive"] == 1
        finally:
            pool.shutdown()

    def test_wedged_worker_is_killed_after_grace(self):
        pool = _pool(
            fault_plan=parse_fault_plan("wedge:p=1:s=60"),
            cancel_grace=0.3,
        )
        try:
            job = pool.submit_spec(PingJobSpec(token="wedged"))
            time.sleep(0.3)
            job.cancel(0.3)
            start = time.monotonic()
            with pytest.raises(JobCancelled):
                job.future.result(15)
            assert time.monotonic() - start < 10.0  # not the 60s wedge
            assert pool.stats()["cancel_kills"] == 1
        finally:
            pool.shutdown()

    def test_restart_budget_exhaustion_fails_fast(self):
        pool = _pool(
            fault_plan=parse_fault_plan("kill-worker:p=1:always"),
            job_retries=0,
            max_restarts=0,
        )
        try:
            with pytest.raises((PoisonJobError, PoolExhausted)):
                pool.submit_spec(PingJobSpec(token="boom")).future.result(30)
            deadline = time.monotonic() + 10
            while not pool.exhausted and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.exhausted
            with pytest.raises(PoolExhausted):
                pool.submit_spec(PingJobSpec(token="next"))
        finally:
            pool.shutdown()

    def test_shutdown_without_wait_still_stops_workers_cleanly(self):
        """The supervisor thread, not the caller, stops the workers: an
        idle worker gets ``stop`` and exits 0 rather than a SIGKILL."""
        pool = _pool(workers=2)
        procs = [w.proc for w in pool._workers]
        pool.shutdown(wait=False)
        pool._thread.join(timeout=10)
        assert not pool._thread.is_alive()
        for proc in procs:
            proc.join(timeout=5)
        assert [proc.exitcode for proc in procs] == [0, 0]


class TestSchedulerFaults:
    def test_aclose_stops_idle_workers_cleanly(self):
        from repro.service.scheduler import JobScheduler

        async def run():
            sched = JobScheduler(workers=2)
            procs = [w.proc for w in sched._pool._workers]
            await sched.aclose()
            return procs

        procs = asyncio.run(run())
        for proc in procs:
            proc.join(timeout=5)
        assert [proc.exitcode for proc in procs] == [0, 0]

    def test_kill_recovery_is_bit_identical(self, tmp_path):
        """A transform whose worker dies mid-job retries to the same
        bytes a fault-free run produces."""
        from repro.service.scheduler import JobScheduler

        spec = TransformJobSpec(source=SRC, filename="a.c")

        async def run():
            async with JobScheduler(
                workers=1,
                cache_dir=str(tmp_path / "faulted"),
                fault_plan=parse_fault_plan("kill-worker:p=1"),
                retry_backoff=0.01,
            ) as sched:
                faulted = await sched.run(spec)
                supervisor = sched.stats()["supervisor"]
            async with JobScheduler(workers=1) as clean_sched:
                clean = await clean_sched.run(spec)
            return faulted, clean, supervisor

        faulted, clean, supervisor = asyncio.run(run())
        assert supervisor["crashes"] == 1
        assert _scrub(faulted) == _scrub(clean)

    def test_poison_job_fails_with_quarantine_error(self):
        from repro.service.scheduler import JobScheduler

        async def run():
            async with JobScheduler(
                workers=1,
                fault_plan=parse_fault_plan("kill-worker:p=1:always"),
                job_retries=1,
                retry_backoff=0.01,
            ) as sched:
                job = await sched.submit(PingJobSpec(token="poison"))
                with pytest.raises(Exception):
                    await asyncio.shield(job.future)
                assert job.state == "failed"
                assert job.error.startswith("poison:")
                assert sched.stats()["poisoned"] == 1

        asyncio.run(run())

    def test_timeout_hard_cancels_on_supervised_runtime(self):
        from repro.service.scheduler import JobScheduler

        async def run():
            async with JobScheduler(
                workers=1,
                job_timeout=0.3,
                cancel_grace=0.3,
            ) as sched:
                job = await sched.submit(
                    PingJobSpec(token="timeout", sleep_s=30)
                )
                with pytest.raises(Exception):
                    await asyncio.shield(job.future)
                assert job.state == "cancelled"
                assert "timed out" in job.error
                assert sched.stats()["timed_out"] == 1
                assert sched.stats()["cancelled"] == 1

        asyncio.run(run())

    def test_retry_after_default_and_ceiling(self):
        from repro.service.scheduler import RETRY_AFTER_DEFAULT, JobScheduler

        sched = JobScheduler(workers=1, retry_after_max=7)
        try:
            # No samples yet: the default, within the ceiling.
            assert sched._retry_after() == RETRY_AFTER_DEFAULT <= 7
            sched._run_seconds, sched._run_samples = 100.0, 1
            assert sched._retry_after() == 7  # clamped to the ceiling
            sched._run_seconds, sched._run_samples = 3.0, 1
            assert sched._retry_after() == 3
        finally:
            sched._pool.shutdown()


class TestServerFaultRoutes:
    @staticmethod
    async def _request(host, port, method, path, payload=None):
        from repro.service.loadgen import LoadClient

        client = LoadClient(host, port, keep_alive=False)
        try:
            response = await client.request(method, path, payload)
        finally:
            await client.aclose()
        return response.status, response.json()

    def test_delete_cancels_running_job_within_grace(self):
        from repro.service.scheduler import JobScheduler
        from repro.service.server import JobServer

        async def run():
            sched = JobScheduler(workers=1, cancel_grace=1.0)
            server = JobServer(sched, port=0)
            host, port = await server.start()
            try:
                status, body = await self._request(
                    host, port, "POST", "/jobs",
                    {"kind": "ping", "token": "del", "sleep_s": 30},
                )
                assert status == 202
                key = body["job"]
                await asyncio.sleep(0.3)  # job is executing now
                start = time.monotonic()
                status, body = await self._request(
                    host, port, "DELETE", f"/jobs/{key}"
                )
                elapsed = time.monotonic() - start
                assert status == 200
                assert body["state"] == "cancelled"
                assert elapsed < 4.0  # grace + bounded settle, not 30s
                # Second DELETE: already settled.
                status, _ = await self._request(
                    host, port, "DELETE", f"/jobs/{key}"
                )
                assert status == 409
                status, _ = await self._request(
                    host, port, "DELETE", "/jobs/unknown"
                )
                assert status == 404
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_run_returns_cancelled_envelope_to_waiters(self):
        from repro.service.scheduler import JobScheduler
        from repro.service.server import JobServer

        async def run():
            sched = JobScheduler(workers=1, cancel_grace=1.0)
            server = JobServer(sched, port=0)
            host, port = await server.start()
            try:
                spec = {"kind": "ping", "token": "waiter", "sleep_s": 30}
                waiter = asyncio.create_task(
                    self._request(host, port, "POST", "/run", spec)
                )
                await asyncio.sleep(0.4)
                key = PingJobSpec(token="waiter", sleep_s=30).key()
                status, _ = await self._request(
                    host, port, "DELETE", f"/jobs/{key}"
                )
                assert status == 200
                status, body = await waiter
                # Cancellation is an outcome, not a server error: the
                # coalesced waiter gets the settled envelope.
                assert status == 200
                assert body["state"] == "cancelled"
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_exhausted_pool_answers_503(self):
        from repro.service.scheduler import JobScheduler
        from repro.service.server import JobServer

        async def run():
            sched = JobScheduler(
                workers=1,
                fault_plan=parse_fault_plan("kill-worker:p=1:always"),
                job_retries=0,
                max_worker_restarts=0,
            )
            server = JobServer(sched, port=0)
            host, port = await server.start()
            try:
                status, body = await self._request(
                    host, port, "POST", "/run",
                    {"kind": "ping", "token": "first"},
                )
                assert status in (500, 503)  # poison or raced exhaustion
                deadline = time.monotonic() + 10
                while (
                    not sched._pool.exhausted
                    and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.05)
                status, body = await self._request(
                    host, port, "POST", "/run",
                    {"kind": "ping", "token": "second"},
                )
                assert status == 503
                assert "restart budget" in body["error"]
                # The HTTP front itself is still healthy.
                status, _ = await self._request(host, port, "GET", "/healthz")
                assert status == 200
            finally:
                await server.aclose()

        asyncio.run(run())


def _batch_fields(outcome):
    """What a retried chunk must reproduce (cache events and timings
    may differ: the dead worker can have committed records)."""
    return (
        outcome.filename, outcome.ok, outcome.output_source, outcome.error,
        outcome.diagnostics, outcome.directive_count,
    )


class TestBatchWorkerDeath:
    """``transform_batch(jobs=2)`` over a supervised pool: a worker
    that dies on an input costs a retried chunk, and an input that
    kills every worker fails alone."""

    @pytest.fixture
    def corpus(self):
        from repro.suite.synth import generate_corpus

        items = [(s, f) for f, s in generate_corpus(60, seed=0)]
        counts = {}
        for source, _ in items:
            counts[source] = counts.get(source, 0) + 1
        # A victim with no duplicate, so no other input shares its fate.
        victim = next(f for s, f in items[5:] if counts[s] == 1)
        return items, victim

    @staticmethod
    def _kill_on(monkeypatch, victim, marker, always):
        from repro.pipeline import batch

        real = batch.transform_one

        def dying(manager, source, filename, options):
            if filename == victim and (always or not marker.exists()):
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return real(manager, source, filename, options)

        # Workers fork from this process, so they inherit the patch.
        monkeypatch.setattr(batch, "transform_one", dying)

    def test_a_worker_killed_once_costs_one_retried_chunk(
        self, corpus, monkeypatch, tmp_path
    ):
        from repro.pipeline.batch import transform_batch

        items, victim = corpus
        clean = transform_batch(items, jobs=2)
        marker = tmp_path / "killed-once"
        self._kill_on(monkeypatch, victim, marker, always=False)
        faulted = transform_batch(items, jobs=2)
        assert marker.exists()  # the fault really fired
        assert [_batch_fields(o) for o in faulted] == [
            _batch_fields(o) for o in clean
        ]

    def test_an_input_that_always_kills_fails_alone(
        self, corpus, monkeypatch, tmp_path
    ):
        from repro.pipeline.batch import transform_batch

        items, victim = corpus
        clean = transform_batch(items, jobs=2)
        self._kill_on(monkeypatch, victim, tmp_path / "m", always=True)
        faulted = transform_batch(items, jobs=2)
        for before, after in zip(clean, faulted):
            if after.filename == victim:
                assert not after.ok
                assert victim in after.error
                assert "quarantined" in after.error
            else:
                assert _batch_fields(after) == _batch_fields(before)


_WORKER_IMPORT_PROBE = textwrap.dedent(
    """
    import sys
    from repro.pipeline import ToolOptions
    from repro.pipeline.batch import transform_batch
    from repro.service.core import dispatch_map

    HEAVY = ("http.client", "repro.pipeline.remote")

    def loaded(manager, _):
        return [name for name in HEAVY if name in sys.modules]

    assert not loaded(None, None), loaded(None, None)
    print(sorted({n for seen in dispatch_map(loaded, range(8), jobs=2)
                  for n in seen}))
    """
)


def test_pool_workers_of_a_transform_process_skip_the_http_stack():
    """Starting a worker must not import the remote-store client: a
    process that made only the transform imports never needs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER_IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestStoreCrashSafety:
    def test_sweep_removes_only_dead_writers_tmp(self, tmp_path):
        dead = _dead_pid()
        orphan = tmp_path / f"parse-abc.{dead}-123.tmp"
        orphan.write_bytes(b"torn")
        live = tmp_path / f"parse-def.{os.getpid()}-123.tmp"
        live.write_bytes(b"in progress")
        assert sweep_dead_tmp(tmp_path) == 1
        assert not orphan.exists() and live.exists()

    def test_worker_kill_sweeps_its_tmp_spill(self, tmp_path):
        """A worker killed mid-spill leaves ``{pass}-{key}.{pid}-{tid}
        .tmp`` behind; the supervisor's death hook removes it."""
        pool = _pool(1, cache_dir=str(tmp_path))
        try:
            victim = pool._workers[0].proc.pid
            orphan = tmp_path / f"parse-abc.{victim}-1.tmp"
            orphan.write_bytes(b"torn")
            os.kill(victim, 9)
            deadline = time.monotonic() + 10
            while orphan.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not orphan.exists()
            # The respawned worker still serves jobs.
            job = pool.submit_spec(PingJobSpec(token="after-kill"))
            assert job.future.result(timeout=30)["pong"] is True
        finally:
            pool.shutdown()


class TestCacheQuarantine:
    def test_corrupt_spill_reads_as_miss_and_is_quarantined(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.put("parse", "k", [1, 2, 3])
        cache.commit("k")
        (spill,) = tmp_path.glob("*.art")
        spill.write_bytes(spill.read_bytes()[: spill.stat().st_size // 2])

        fresh = ArtifactCache(disk_dir=tmp_path)
        assert fresh.get("parse", "k") is MISS
        assert fresh.stats["parse"].corrupt_spills == 1
        bad = list(tmp_path.glob("*.art.bad"))
        assert len(bad) == 1  # quarantined, not deleted: evidence
        assert not list(tmp_path.glob("*.art"))

        # Re-derive + re-spill at the original path heals the cache.
        fresh.put("parse", "k", [1, 2, 3])
        fresh.commit("k")
        healed = ArtifactCache(disk_dir=tmp_path)
        assert healed.get("parse", "k") == [1, 2, 3]
        assert healed.stats["parse"].corrupt_spills == 0


class TestChaosHarness:
    def test_small_chaos_run_has_zero_divergence(self):
        from repro.service.chaos import ChaosConfig, gate_chaos, run_chaos

        config = ChaosConfig(
            jobs=8,
            workers=2,
            clients=2,
            seed=0,
            plan="kill-worker:p=0.5,corrupt-spill:p=0.5",
            distinct_transforms=4,
            cancel_grace=0.5,
        )
        payload = asyncio.run(run_chaos(config))
        problems = gate_chaos(payload)
        assert problems == []
        assert payload["divergence_count"] == 0
        assert payload["chaos"]["states"] == {"done": 8}
        probe = payload["chaos"]["cancel_probe"]
        assert probe["state"] == "cancelled"
        assert probe["cancel_s"] < probe["grace_s"] + 3.0

    def test_gate_flags_missing_faults_and_divergence(self):
        from repro.service.chaos import gate_chaos

        payload = {
            "config": {"plan": "kill-worker:p=0.05", "jobs": 200},
            "divergence_count": 1,
            "divergences": [{"label": "transform[3]", "kind": "result"}],
            "chaos": {
                "server_survived": True,
                "states": {"done": 199, "failed": 1},
                "supervisor": {"crashes": 0, "restarts": 0,
                               "max_restarts": 16},
            },
            "reference": {
                "server_survived": True,
                "states": {"done": 200},
            },
        }
        problems = gate_chaos(payload)
        assert any("diverged" in p for p in problems)
        assert any("not done" in p for p in problems)
        assert any("injected no worker crashes" in p for p in problems)

    def test_chaos_cli_rejects_bad_plan(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--plan", "explode:p=1"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err


class TestServeFaultFlags:
    def test_serve_parser_fault_defaults(self):
        from repro.cli import build_parser

        args = build_parser("serve").parse_args([])
        assert args.job_retries == 1
        assert args.max_worker_restarts == 16
        assert args.cancel_grace == 2.0
        assert args.retry_after_max == 60
        assert args.fault_inject is None

    def test_serve_rejects_bad_fault_plan(self, capsys):
        from repro.cli import main

        assert main(["serve", "--fault-inject", "explode:p=1"]) == 2
        assert "--fault-inject" in capsys.readouterr().err
