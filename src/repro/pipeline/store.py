"""Disk spill maintenance for a cache directory (``ompdart store``).

The artifact cache (:mod:`repro.pipeline.cache`) spills one ``.art``
record per input and never removes one.  This module keeps
such a directory bounded and clean:

* :func:`gc_spills` evicts spills least-recently-used first to a size
  bound and/or past a TTL, and always sweeps garbage: quarantined ``.bad``
  files, ``.pkl`` spills of the retired whole-object format (never
  read), and ``.tmp`` files whose writer died mid-spill.
* :func:`sweep_dead_tmp` is that last sweep on its own; the worker
  pool supervisor runs it after every worker death.
* :func:`spill_stats` is the census behind ``store stats``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from .artifacts import record_filename

__all__ = [
    "SpillGCReport",
    "gc_spills",
    "spill_stats",
    "sweep_dead_tmp",
]

#: Suffixes of files that are garbage on sight: quarantined corrupt
#: spills and spills of the retired whole-object format.
_GARBAGE_SUFFIXES = (".bad", ".pkl")


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness: only a definite ESRCH counts as dead."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # EPERM etc.: it exists, just isn't ours
    return True


def _tmp_writer_pid(name: str) -> int | None:
    """Writer pid embedded in a cache spill tmp filename.

    :func:`repro.pipeline.cache.write_spill` writes
    ``{skey}.{pid}-{tid}.tmp`` and atomically renames on completion, so
    any ``.tmp`` left by a dead pid is a half-written orphan.
    """
    parts = name.rsplit(".", 2)
    if len(parts) != 3 or parts[2] != "tmp":
        return None
    try:
        return int(parts[1].split("-", 1)[0])
    except ValueError:
        return None


def _unlink(path: Path, dry_run: bool) -> bool:
    """Remove ``path`` (or pretend to); False when a racer got there."""
    if dry_run:
        return True
    try:
        path.unlink()
    except OSError:
        return False
    return True


def sweep_dead_tmp(directory: str | Path, *, dry_run: bool = False) -> int:
    """Unlink ``.tmp`` spills whose writer is dead; returns the count.

    Completed spills were atomically renamed, so a ``.tmp`` left by a
    dead pid is a half-written orphan.  Fail-soft per file.
    """
    try:
        candidates = list(Path(directory).glob("*.tmp"))
    except OSError:
        return 0
    count = 0
    for path in candidates:
        pid = _tmp_writer_pid(path.name)
        if pid is not None and not _pid_alive(pid) and _unlink(path, dry_run):
            count += 1
    return count


@dataclass
class SpillGCReport:
    """What one :func:`gc_spills` sweep saw and removed."""

    directory: str = ""
    files_scanned: int = 0
    bytes_scanned: int = 0
    #: Spills removed because they exceeded ``max_age_s``.
    ttl_evicted: int = 0
    #: Spills removed (oldest-first) to fit under ``max_bytes``.
    size_evicted: int = 0
    evicted_bytes: int = 0
    #: ``.bad`` quarantine and retired ``.pkl`` files swept (always
    #: removed).
    quarantine_swept: int = 0
    #: Orphaned ``.tmp`` files of dead writers swept (always removed).
    tmp_swept: int = 0
    remaining_files: int = 0
    remaining_bytes: int = 0
    dry_run: bool = False

    @property
    def evicted_files(self) -> int:
        return self.ttl_evicted + self.size_evicted

    def as_dict(self) -> dict[str, object]:
        return {
            "directory": self.directory,
            "files_scanned": self.files_scanned,
            "bytes_scanned": self.bytes_scanned,
            "evicted_files": self.evicted_files,
            "ttl_evicted": self.ttl_evicted,
            "size_evicted": self.size_evicted,
            "evicted_bytes": self.evicted_bytes,
            "quarantine_swept": self.quarantine_swept,
            "tmp_swept": self.tmp_swept,
            "remaining_files": self.remaining_files,
            "remaining_bytes": self.remaining_bytes,
            "dry_run": self.dry_run,
        }


def gc_spills(
    directory: str | Path,
    *,
    max_bytes: int | None = None,
    max_age_s: float | None = None,
    now: float | None = None,
    dry_run: bool = False,
) -> SpillGCReport:
    """Size- and TTL-bounded LRU eviction of a cache directory's spills.

    The disk tier of the artifact store grows forever without this:
    every new input spills its record and nothing ever removes it.
    The sweep unlinks, in order:

    1. ``.bad`` quarantine files (already written off as corrupt),
       retired ``.pkl`` spills, and ``.tmp`` orphans whose embedded
       writer pid is dead — always;
    2. spills older than ``max_age_s`` (mtime-based TTL);
    3. then the oldest remaining spills until the directory fits under
       ``max_bytes``.

    Recency is mtime: the cache rewrites a record when a run adds
    artifacts to it and refreshes its mtime whenever a run loads it,
    so a record's age is the time since a run last read or wrote it.
    ``dry_run`` counts without unlinking.  Fail-soft per file — a racing writer or
    cleaner never aborts the sweep.
    """
    directory = Path(directory)
    report = SpillGCReport(directory=str(directory), dry_run=dry_run)
    now = time.time() if now is None else now
    try:
        entries = list(directory.iterdir())
    except OSError:
        return report
    report.tmp_swept = sweep_dead_tmp(directory, dry_run=dry_run)
    spills: list[tuple[float, int, Path]] = []
    for path in entries:
        if path.name.endswith(_GARBAGE_SUFFIXES):
            if _unlink(path, dry_run):
                report.quarantine_swept += 1
            continue
        if path.suffix != ".art":
            continue
        try:
            stat = path.stat()
        except OSError:
            continue
        spills.append((stat.st_mtime, stat.st_size, path))
    report.files_scanned = len(spills)
    report.bytes_scanned = sum(size for _mtime, size, _path in spills)

    spills.sort()  # oldest first: TTL and LRU walk the same order
    survivors: list[tuple[float, int, Path]] = []
    for mtime, size, path in spills:
        if max_age_s is not None and now - mtime > max_age_s:
            if _unlink(path, dry_run):
                report.ttl_evicted += 1
                report.evicted_bytes += size
                continue
        survivors.append((mtime, size, path))
    if max_bytes is not None:
        total = sum(size for _mtime, size, _path in survivors)
        kept: list[tuple[float, int, Path]] = []
        for mtime, size, path in survivors:
            if total > max_bytes and _unlink(path, dry_run):
                report.size_evicted += 1
                report.evicted_bytes += size
                total -= size
                continue
            kept.append((mtime, size, path))
        survivors = kept
    report.remaining_files = len(survivors)
    report.remaining_bytes = sum(s for _m, s, _p in survivors)
    return report


def spill_stats(directory: str | Path) -> dict[str, object]:
    """Census of a cache directory (``store stats``).

    ``files``/``bytes`` cover every ``.art`` spill; ``records`` counts
    those this revision reads (its record version), so spills left by
    an older format show as the difference.
    """
    directory = Path(directory)
    current = record_filename("")  # "-r<version>.art"
    files = bytes_total = records = quarantined = tmp = 0
    try:
        entries = list(directory.iterdir())
    except OSError:
        entries = []
    for path in entries:
        name = path.name
        if name.endswith(_GARBAGE_SUFFIXES):
            quarantined += 1
            continue
        if name.endswith(".tmp"):
            tmp += 1
            continue
        if path.suffix != ".art":
            continue
        try:
            size = path.stat().st_size
        except OSError:
            continue
        files += 1
        bytes_total += size
        records += name.endswith(current)
    return {
        "directory": str(directory),
        "files": files,
        "bytes": bytes_total,
        "records": records,
        "quarantined": quarantined,
        "tmp": tmp,
    }
