"""Asyncio job service: scheduler dedup, the HTTP front, and
bit-identity between served suite jobs and ``ompdart suite``."""

import asyncio
import json
import os
import subprocess
import sys

import pytest

from repro.service.core import (
    BenchmarkJobSpec,
    SuiteJobSpec,
    TransformJobSpec,
    execute_job,
    spec_from_dict,
    spec_to_dict,
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


def _scheduler(**kw):
    from repro.service.scheduler import JobScheduler

    kw.setdefault("workers", 2)
    return JobScheduler(**kw)


async def _request(host, port, method, path, payload=None):
    from repro.service.loadgen import LoadClient

    client = LoadClient(host, port, keep_alive=False)
    try:
        response = await client.request(method, path, payload)
    finally:
        await client.aclose()
    return response.status, response.json()


class TestSpecs:
    def test_keys_are_stable_and_content_addressed(self):
        a = TransformJobSpec(source=SRC, filename="a.c")
        b = TransformJobSpec(source=SRC, filename="a.c")
        c = TransformJobSpec(source=SRC, filename="b.c")
        assert a.key() == b.key()
        assert a.key() != c.key()
        assert SuiteJobSpec().key() != SuiteJobSpec(vectorize=False).key()

    def test_spec_round_trip_through_dict(self):
        for spec in (
            TransformJobSpec(source=SRC, filename="a.c", macros=(("N", 4),)),
            BenchmarkJobSpec(benchmark="bfs", platform="h100-sxm5"),
            SuiteJobSpec(platforms=("a100-pcie4",), benchmarks=("nw",)),
        ):
            again = spec_from_dict(spec_to_dict(spec))
            assert again == spec
            assert again.key() == spec.key()

    def test_spec_from_dict_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spec_from_dict({"kind": "nope"})
        with pytest.raises(ValueError):
            spec_from_dict({"kind": "transform", "bogus": 1})
        with pytest.raises(ValueError):
            spec_from_dict(["not", "a", "dict"])

    def test_execute_transform_job(self):
        result = execute_job(TransformJobSpec(source=SRC, filename="a.c"))
        assert result["ok"] is True
        assert result["directive_count"] >= 1
        assert "map(" in result["output_source"]


class TestScheduler:
    def test_duplicate_submissions_coalesce(self):
        async def run():
            async with _scheduler() as sched:
                spec = TransformJobSpec(source=SRC, filename="a.c")
                jobs = await asyncio.gather(
                    *[sched.submit(spec) for _ in range(5)]
                )
                assert len({j.key for j in jobs}) == 1
                results = await asyncio.gather(
                    *[asyncio.shield(j.future) for j in jobs]
                )
                assert all(r == results[0] for r in results)
                stats = sched.stats()
                assert stats["submitted"] == 5
                assert stats["deduplicated"] == 4
                assert stats["executed"] == 1
                return jobs[0]

        job = asyncio.run(run())
        assert job.submissions == 5

    def test_distinct_specs_run_separately(self):
        async def run():
            async with _scheduler() as sched:
                r1 = await sched.run(TransformJobSpec(source=SRC, filename="a.c"))
                r2 = await sched.run(TransformJobSpec(source=SRC, filename="b.c"))
                assert sched.stats()["executed"] == 2
                return r1, r2

        r1, r2 = asyncio.run(run())
        assert r1["filename"] == "a.c" and r2["filename"] == "b.c"

    def test_failed_job_surfaces_error(self):
        async def run():
            async with _scheduler() as sched:
                spec = BenchmarkJobSpec(benchmark="no-such-benchmark")
                job = await sched.submit(spec)
                with pytest.raises(Exception):
                    await asyncio.shield(job.future)
                assert job.state == "failed"
                assert job.error
                assert sched.stats()["failed"] == 1

        asyncio.run(run())

    def test_stats_carry_fault_tolerance_counters(self):
        async def run():
            async with _scheduler() as sched:
                stats = sched.stats()
                for key in ("cancelled", "poisoned", "unavailable",
                            "timed_out"):
                    assert stats[key] == 0
                # The worker pool reports its supervision counters too.
                supervisor = stats["supervisor"]
                assert supervisor["workers"] == supervisor["alive"] == 2
                for key in ("restarts", "crashes", "retries", "poisoned"):
                    assert supervisor[key] == 0
                await sched.run(TransformJobSpec(source=SRC, filename="a.c"))
                assert sched.stats()["executed"] == 1

        asyncio.run(run())

    def test_two_schedulers_spill_into_their_own_cache_dirs(self, tmp_path):
        first_dir, second_dir = tmp_path / "first", tmp_path / "second"

        def records():
            return [len(list(d.glob("*.art"))) for d in (first_dir, second_dir)]

        async def run():
            async with (
                _scheduler(cache_dir=str(first_dir)) as first,
                _scheduler(cache_dir=str(second_dir)) as second,
            ):
                await first.run(TransformJobSpec(source=SRC, filename="a.c"))
                after_first = records()
                await second.run(TransformJobSpec(source=SRC, filename="b.c"))
            return after_first

        assert asyncio.run(run()) == [1, 0]
        assert records() == [1, 1]

    def test_scheduler_raises_when_its_pool_cannot_spawn(self, monkeypatch):
        from repro.service import scheduler as scheduler_module

        def unspawnable(*args, **kwargs):
            raise OSError("fork blocked")

        monkeypatch.setattr(scheduler_module, "SupervisedPool", unspawnable)
        with pytest.raises(OSError, match="fork blocked"):
            scheduler_module.JobScheduler(workers=1)

    def test_jobs_share_the_artifact_store(self, tmp_path):
        async def run():
            async with _scheduler(cache_dir=str(tmp_path)) as sched:
                await sched.run(TransformJobSpec(source=SRC, filename="a.c"))
                return sched.stats()

        stats = asyncio.run(run())
        assert stats["cache_dir"] == str(tmp_path)
        assert list(tmp_path.glob("*.art"))

    def test_each_cold_request_spills_one_record(self, tmp_path):
        async def run():
            async with _scheduler(cache_dir=str(tmp_path)) as sched:
                for name in ("a.c", "b.c"):
                    await sched.run(TransformJobSpec(source=SRC, filename=name))

        asyncio.run(run())
        assert len(list(tmp_path.glob("*.art"))) == 2


class TestServer:
    def test_routes(self):
        async def run():
            from repro.service.server import JobServer

            server = JobServer(_scheduler(), port=0)
            host, port = await server.start()
            try:
                status, body = await _request(host, port, "GET", "/healthz")
                assert status == 200
                assert body["ok"] is True
                assert body["status"] == "ok"

                status, body = await _request(
                    host, port, "POST", "/jobs",
                    {"kind": "transform", "source": SRC, "filename": "a.c"},
                )
                assert status == 202
                assert body["deduped"] is False
                key = body["job"]

                status, body = await _request(
                    host, port, "GET", f"/jobs/{key}?wait=1"
                )
                assert status == 200
                assert body["state"] == "done"
                assert body["result"]["ok"] is True

                # Duplicate submission coalesces.
                status, body = await _request(
                    host, port, "POST", "/jobs",
                    {"kind": "transform", "source": SRC, "filename": "a.c"},
                )
                assert status == 202 and body["deduped"] is True

                status, body = await _request(host, port, "GET", "/stats")
                assert status == 200
                assert body["submitted"] == 2 and body["deduplicated"] == 1
                # Every key the serve-mixed bench and the chaos harness
                # read: one job ran, its result was encoded once.
                assert body["executed"] == 1
                for key in ("evicted", "rejected", "failed", "cancelled",
                            "poisoned", "timed_out", "unavailable"):
                    assert body[key] == 0, key
                latency = body["latency"]
                assert latency["samples"] == 1
                assert latency["run_mean_s"] > 0
                assert latency["queue_wait_mean_s"] >= 0
                assert body["supervisor"]["restarts"] == 0
                http = body["http"]
                assert set(http) == {
                    "connections", "open_connections",
                    "result_cache_hits", "result_cache_misses",
                }
                assert http["connections"] == 5
                assert http["open_connections"] >= 1
                assert http["result_cache_hits"] == 0
                assert http["result_cache_misses"] == 1

                status, body = await _request(host, port, "GET", "/jobs")
                assert status == 200 and len(body["jobs"]) == 1

                status, _ = await _request(host, port, "GET", "/jobs/unknown")
                assert status == 404
                status, _ = await _request(host, port, "DELETE", "/stats")
                assert status == 405
                for path in ("/nowhere", "/metrics"):
                    status, _ = await _request(host, port, "GET", path)
                    assert status == 404, path
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_malformed_specs_answer_400(self):
        async def run():
            from repro.service.server import JobServer

            server = JobServer(_scheduler(), port=0)
            host, port = await server.start()
            try:
                status, body = await _request(
                    host, port, "POST", "/jobs", {"kind": "nope"}
                )
                assert status == 400 and "unknown job kind" in body["error"]

                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"POST /run HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n"
                    b"Content-Length: 7\r\n\r\nnotjson"
                )
                await writer.drain()
                data = await reader.read()
                writer.close()
                assert b"400" in data.split(b"\r\n")[0]
            finally:
                await server.aclose()

        asyncio.run(run())


def _strip_observability(payload):
    """Drop machine-dependent fields (what suite-diff ignores too)."""
    if isinstance(payload, dict):
        return {
            k: _strip_observability(v)
            for k, v in payload.items()
            if k not in ("sim_wall_s", "tool")
        }
    if isinstance(payload, list):
        return [_strip_observability(v) for v in payload]
    return payload


class TestServedSuite:
    """The acceptance path: concurrent served suites == ``ompdart suite``."""

    def test_eight_concurrent_suite_submissions(self, tmp_path):
        from repro.report.perf import sweep_to_dict
        from repro.suite.runner import run_sweep

        async def run():
            from repro.service.server import JobServer

            server = JobServer(
                _scheduler(max_concurrency=8, cache_dir=str(tmp_path)),
                port=0,
            )
            host, port = await server.start()
            try:
                responses = await asyncio.gather(
                    *[
                        _request(host, port, "POST", "/run", {"kind": "suite"})
                        for _ in range(8)
                    ]
                )
                stats = (await _request(host, port, "GET", "/stats"))[1]
            finally:
                await server.aclose()
            return responses, stats

        responses, stats = asyncio.run(run())
        assert {status for status, _ in responses} == {200}
        payloads = [body["result"] for _, body in responses]
        rendered = {json.dumps(p, sort_keys=True) for p in payloads}
        assert len(rendered) == 1  # duplicates coalesced onto one job
        assert stats["submitted"] == 8
        assert stats["deduplicated"] == 7
        assert stats["executed"] == 1
        assert stats["failed"] == 0

        # Bit-identical to the CLI path (modulo wall-clock fields the
        # suite-diff comparator ignores as well).
        direct = sweep_to_dict(run_sweep(["a100-pcie4"]))
        assert _strip_observability(payloads[0]) == _strip_observability(direct)

    def test_served_benchmark_matches_direct_run(self):
        from repro.report.perf import run_to_dict
        from repro.suite.runner import run_benchmark

        async def run():
            async with _scheduler() as sched:
                return await sched.run(BenchmarkJobSpec(benchmark="nw"))

        served = asyncio.run(run())
        direct = run_to_dict(run_benchmark("nw"))
        assert served["platform"] == "a100-pcie4"
        assert _strip_observability(served["run"]) == _strip_observability(direct)


class TestServeCLI:
    def test_arg_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser("serve").parse_args([])
        assert args.port == 8571
        assert args.workers == 2
        assert args.max_jobs == 8

    def test_rejects_bad_worker_counts(self, capsys):
        from repro.cli import main

        assert main(["serve", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_imports_load_no_http_client(self):
        """A serve process speaks HTTP through asyncio streams alone;
        nothing it imports pulls in the stdlib HTTP client."""
        probe = (
            "import sys, repro.cli, repro.service.server; "
            "print('http.client' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
