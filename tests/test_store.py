"""The cache directory as the artifact store: batch runs sharing it,
the ``--report`` tier counts, and spill GC behind ``ompdart store``."""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from repro.pipeline.artifacts import record_filename
from repro.pipeline.store import gc_spills, spill_stats

BENCH_SRC = """
int data[128];
int main() {
  data[1] = 2;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 128; i++) data[i] = data[i] + %d;
  return data[1];
}
"""

_POOL_RUN = textwrap.dedent(
    """
    import sys
    from multiprocessing import resource_tracker
    from repro.pipeline.batch import transform_batch

    source = sys.stdin.read()
    items = [(source % i, f"input_{i}.c") for i in range(4)]
    outcomes = transform_batch(items, jobs=2, cache_dir=sys.argv[1])
    assert all(o.ok for o in outcomes)
    print(resource_tracker._resource_tracker._pid)
    """
)


def _shm_segments():
    return set(Path("/dev/shm").glob("ompdart-*"))


class TestBatchRunsShareTheCacheDir:
    def test_pool_run_leaves_no_shared_memory_or_tracker(self, tmp_path):
        """A ``-j 2 --cache-dir`` run needs no shared-memory segment, so
        the parent never starts multiprocessing's resource tracker."""
        before = _shm_segments()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", _POOL_RUN, str(tmp_path / "cache")],
            input=BENCH_SRC, capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "None"
        assert _shm_segments() <= before
        assert list((tmp_path / "cache").glob("*.art"))

    def _inputs(self, tmp_path, count):
        paths = []
        for i in range(count):
            p = tmp_path / f"input_{i}.c"
            p.write_text(BENCH_SRC % i)
            paths.append(str(p))
        return paths

    def test_report_counts_hits_by_tier_under_jobs(self, tmp_path, capsys):
        from repro.cli import main

        paths = self._inputs(tmp_path, 3)
        argv = ["batch", *paths, *paths, "-j", "2",
                "--cache-dir", str(tmp_path / "cache"), "--report"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        # Repeated paths ran once: 3 lookups per pass, all missing.
        assert "  cache parse       0 hit(s) (memory 0, disk 0) " \
            "/ 3 miss(es)" in cold
        assert main(argv) == 0
        warm = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  cache ")
        ]
        # A warm batch input runs its summary pass alone.
        assert [line.split()[1] for line in warm] == ["summary"]
        for line in warm:
            assert " 3 hit(s) " in line and line.endswith("/ 0 miss(es)")

    def test_serial_report_reads_the_disk_tier(self, tmp_path, capsys):
        from repro.cli import main

        (path,) = self._inputs(tmp_path, 1)
        argv = ["batch", path, "--cache-dir", str(tmp_path / "c"), "--report"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "  cache summary     1 hit(s) (memory 0, disk 1) " \
            "/ 0 miss(es)" in out
        assert "byte(s) in spill files" in out

    def test_report_rows_follow_the_chain_when_hits_and_misses_mix(
        self, tmp_path, capsys
    ):
        """A warm input listed first runs only its summary pass; the
        cold one after it adds the rest, which still print in chain
        order."""
        from repro.cli import main

        warm, cold = self._inputs(tmp_path, 2)
        cache = str(tmp_path / "c")
        assert main(["batch", warm, "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["batch", warm, cold, "--cache-dir", cache,
                     "--report"]) == 0
        rows = [
            line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("  cache ")
        ]
        assert [row[1] for row in rows] == [
            "preprocess", "parse", "constraints", "effects", "cfg", "plan",
            "rewrite", "summary",
        ]
        for row in rows:
            assert row[2] == ("1" if row[1] == "summary" else "0"), row

    def test_store_stats_counts_one_record_per_input(self, tmp_path, capsys):
        from repro.cli import main

        paths = self._inputs(tmp_path, 3)
        cache = str(tmp_path / "cache")
        assert main(["batch", *paths, "-j", "2", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert ": 3 spill(s) (3 current record(s))" in out

    def test_store_on_a_missing_directory_is_a_usage_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        missing = str(tmp_path / "nonexist")
        for action in ("stats", "gc"):
            assert main(["store", action, "--cache-dir", missing]) == 2
            assert capsys.readouterr().err == (
                f"ompdart store: error: --cache-dir {missing}: "
                "no such directory\n"
            )
        assert not os.path.exists(missing)

    def test_store_gc_dry_run_then_evicts_under_the_bound(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        paths = self._inputs(tmp_path, 3)
        cache = str(tmp_path / "cache")
        assert main(["batch", *paths, "--cache-dir", cache]) == 0
        before = spill_stats(cache)
        bound = before["bytes"] - 1  # at least one record must go
        capsys.readouterr()
        gc = ["store", "gc", "--cache-dir", cache, "--max-bytes", str(bound)]
        assert main([*gc, "--dry-run"]) == 0
        assert "would evict 1 of 3 spill(s)" in capsys.readouterr().out
        assert spill_stats(cache) == before
        assert main(gc) == 0
        assert "evicted 1 of 3 spill(s)" in capsys.readouterr().out
        after = spill_stats(cache)
        assert after["files"] == 2 and after["bytes"] <= bound


class TestSpillGC:
    """Disk-tier GC: size/TTL LRU eviction behind ``ompdart store gc``."""

    @staticmethod
    def _spill(directory, name, size, age_s, *, now=1_000_000.0):
        path = directory / name
        path.write_bytes(b"x" * size)
        os.utime(path, (now - age_s, now - age_s))
        return path

    def test_ttl_evicts_only_spills_past_max_age(self, tmp_path):
        now = 1_000_000.0
        old = self._spill(tmp_path, "parse-old.art", 10, 200, now=now)
        young = self._spill(tmp_path, "parse-new.art", 10, 100, now=now)
        report = gc_spills(tmp_path, max_age_s=150, now=now)
        assert report.ttl_evicted == 1
        assert report.size_evicted == 0
        assert report.evicted_bytes == 10
        assert not old.exists() and young.exists()
        assert report.remaining_files == 1
        assert report.remaining_bytes == 10

    def test_size_bound_evicts_oldest_first(self, tmp_path):
        now = 1_000_000.0
        oldest = self._spill(tmp_path, "parse-a.art", 10, 300, now=now)
        middle = self._spill(tmp_path, "plan-b.art", 10, 200, now=now)
        newest = self._spill(tmp_path, "parse-c.art", 10, 100, now=now)
        report = gc_spills(tmp_path, max_bytes=15, now=now)
        assert report.size_evicted == 2
        assert report.evicted_bytes == 20
        assert not oldest.exists() and not middle.exists()
        assert newest.exists()
        assert report.remaining_bytes == 10

    def test_size_bound_evicts_the_least_recently_read_first(self, tmp_path):
        """A disk hit makes its spill recent: the spill written first
        but read since outlives one written later and never read."""
        from repro.pipeline.batch import transform_batch

        cache = tmp_path / "cache"
        hot, cold = (BENCH_SRC % 1, "hot.c"), (BENCH_SRC % 2, "cold.c")
        spills = {}
        for item in (hot, cold):
            transform_batch([item], cache_dir=str(cache))
            (spills[item[1]],) = set(cache.glob("*.art")) - set(spills.values())
        now = time.time()
        for age, path in ((200, spills["hot.c"]), (100, spills["cold.c"])):
            os.utime(path, (now - age, now - age))
        for _ in range(3):
            (outcome,) = transform_batch([hot], cache_dir=str(cache))
            assert set(outcome.cache_origins.values()) == {"disk"}
        bound = max(path.stat().st_size for path in spills.values())
        report = gc_spills(cache, max_bytes=bound)
        assert report.size_evicted == 1
        assert spills["hot.c"].exists() and not spills["cold.c"].exists()

    def test_dry_run_counts_without_unlinking(self, tmp_path):
        now = 1_000_000.0
        spill = self._spill(tmp_path, "parse-a.art", 10, 300, now=now)
        report = gc_spills(tmp_path, max_age_s=150, now=now, dry_run=True)
        assert report.ttl_evicted == 1
        assert report.dry_run
        assert spill.exists()  # nothing actually removed
        assert report.as_dict()["evicted_files"] == 1

    def test_quarantine_and_dead_tmp_always_swept(self, tmp_path):
        bad = tmp_path / "parse-k.art.bad"
        bad.write_bytes(b"corrupt")
        # A spill of the retired whole-object format is garbage too.
        retired = tmp_path / "plan-k.pkl"
        retired.write_bytes(b"whole-object pickle")
        # A dead writer's orphaned tmp, and our own in-progress one.
        dead_tmp = tmp_path / "parse-k.99999999-1.tmp"
        dead_tmp.write_bytes(b"torn")
        live_tmp = tmp_path / f"plan-k.{os.getpid()}-1.tmp"
        live_tmp.write_bytes(b"in progress")
        keeper = self._spill(tmp_path, "parse-keep.art", 10, 0)
        report = gc_spills(tmp_path)  # no bounds: sweep-only
        assert report.quarantine_swept == 2
        assert report.tmp_swept == 1
        assert not bad.exists() and not retired.exists()
        assert not dead_tmp.exists()
        assert live_tmp.exists() and keeper.exists()
        assert report.ttl_evicted == 0 and report.size_evicted == 0

    def test_spill_stats_counts_current_records(self, tmp_path):
        self._spill(tmp_path, record_filename("a"), 10, 0)
        self._spill(tmp_path, record_filename("b"), 20, 0)
        # A per-pass spill of an older format: a file, not a record.
        self._spill(tmp_path, "plan-c-s3.art", 5, 0)
        (tmp_path / "d-r1.art.bad").write_bytes(b"x")
        (tmp_path / "notes.txt").write_text("ignored")
        census = spill_stats(tmp_path)
        assert census["files"] == 3
        assert census["bytes"] == 35
        assert census["records"] == 2
        assert census["quarantined"] == 1

