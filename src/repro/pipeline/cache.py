"""Per-input artifact records: content-hash keys, LRU memory, one spill.

Every pipeline pass is a deterministic function of ``(source, filename,
options)``, so one fingerprint of those inputs keys every artifact the
pass chain produces.  The cache groups an input's artifacts into one
**record** (:mod:`repro.pipeline.artifacts`), keeps a bounded
in-memory LRU of records (the hot path for repeated ``OMPDart.run``
calls and for the evaluation harness, which historically parsed every
benchmark source twice) and can spill records to a directory so
separate worker processes of the batch driver share work across runs.

A pipeline run looks its input's record up once, on its first pass
lookup: memory, then the directory's spill, then an optional remote
store node (:mod:`repro.pipeline.remote`).  The pass manager looks up
only the *stored* passes (:attr:`repro.pipeline.passes.Pass.stored`),
so a record, in memory or spilled, holds only the artifacts a hit
reads.  Every stored pass the record holds is a hit reported with the
tier the record came from; the rest are built and
:meth:`ArtifactCache.put` into the record.  The pass manager then
:meth:`~ArtifactCache.commit`\\ s the record once, which spills it
whole when the run added anything.  The record version is folded into
the storage key, so records of an incompatible revision are never
looked up.
"""

from __future__ import annotations

import hashlib
import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from .artifacts import (
    ArtifactDecodeError,
    decode_record,
    encode_record,
    storage_key,
)

_LOG = logging.getLogger(__name__)

#: Sentinel distinguishing "not cached" from a cached None.
_MISS = object()

#: Fault-injection seam: called with the final spill path after every
#: successful disk write (None = disabled).  The chaos harness installs
#: a deterministic truncator here to exercise the corrupt-spill-as-miss
#: recovery path; production never sets it.
spill_fault_hook: Callable[[Path], None] | None = None

#: Lookup-origin labels recorded by the pass manager.
ORIGIN_MEMORY = "memory"
ORIGIN_DISK = "disk"
#: Served by a remote store node (cross-machine artifact hit).
ORIGIN_REMOTE = "remote"


def fingerprint(*parts: Any) -> str:
    """Stable hex digest of arbitrary repr()-able inputs."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, str):
            h.update(part.encode("utf-8", "surrogatepass"))
        elif isinstance(part, dict):
            h.update(repr(sorted(part.items())).encode())
        else:
            h.update(repr(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters for one pass name."""

    hits: int = 0
    misses: int = 0
    #: Lookups of this pass that found a record which failed to decode
    #: (truncated, corrupt, or from an incompatible revision) and
    #: quarantined it as a miss.
    corrupt_spills: int = 0


class _Record:
    """One input's artifacts plus where they came from."""

    __slots__ = ("artifacts", "origin", "dirty")

    def __init__(self, artifacts: dict[str, Any], origin: str):
        self.artifacts = artifacts
        #: Tier the record was loaded from; ``"memory"`` once the run
        #: that loaded it has committed.
        self.origin = origin
        #: Holds artifacts its spill does not have yet.
        self.dirty = False


@dataclass
class ArtifactCache:
    """Bounded LRU of per-input records, optionally backed by a directory.

    ``lookup``/``put`` address one artifact as ``(pass_name,
    input_fingerprint)``; ``commit`` spills the input's whole record.
    Thread-safe: the serial batch path may be driven from multiple
    threads, and the evaluation harness shares one cache across all
    nine benchmarks.
    """

    #: Records (inputs) kept in memory.
    max_entries: int = 32
    disk_dir: str | Path | None = None
    stats: dict[str, CacheStats] = field(default_factory=dict)
    #: Optional remote tier (:class:`~repro.pipeline.remote
    #: .RemoteStoreClient`): read-through on local disk misses,
    #: write-behind on spills.  Any object with ``fetch``/``offer`` —
    #: typed loosely so the pipeline never imports HTTP machinery
    #: unless a store URL is actually configured.
    remote: Any = None

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, _Record] = OrderedDict()
        #: Compressed record bytes read on loads and written on spills.
        self.disk_bytes_read = 0
        self.disk_bytes_written = 0
        if self.disk_dir is not None:
            self.disk_dir = Path(self.disk_dir)
            self.disk_dir.mkdir(parents=True, exist_ok=True)

    # -- accounting ------------------------------------------------------

    def _stat(self, pass_name: str) -> CacheStats:
        return self.stats.setdefault(pass_name, CacheStats())

    def disk_usage(self) -> int:
        """Total bytes of spill files on disk (0 for a memory-only cache)."""
        if self.disk_dir is None:
            return 0
        total = 0
        for path in Path(self.disk_dir).glob("*.art"):
            try:
                total += path.stat().st_size
            except OSError:
                continue  # racing writer/cleaner; size is best-effort
        return total

    # -- lookup ----------------------------------------------------------

    def lookup(
        self,
        pass_name: str,
        key: str,
        deps: Mapping[str, Any] | None = None,
    ) -> tuple[Any, str | None]:
        """(artifact or MISS, origin).

        The first lookup of an input loads its record (memory, then
        disk, then remote); later lookups answer from the loaded
        record.  Origin is the tier the record came from —
        ``"memory"``, ``"disk"`` or ``"remote"`` — or ``None`` on a
        miss.  ``deps`` is accepted and ignored: a record decodes
        without outside artifacts.
        """
        record = self._open(pass_name, storage_key(key))
        with self._lock:
            stat = self._stat(pass_name)
            if pass_name in record.artifacts:
                stat.hits += 1
                return record.artifacts[pass_name], record.origin
            stat.misses += 1
        return _MISS, None

    def get(self, pass_name: str, key: str) -> Any:
        """Return the cached artifact or the module-level ``MISS``."""
        return self.lookup(pass_name, key)[0]

    def put(self, pass_name: str, key: str, value: Any) -> None:
        """Add an artifact to the input's in-memory record.

        Nothing is spilled until :meth:`commit`.
        """
        skey = storage_key(key)
        with self._lock:
            record = self._memory.get(skey)
            if record is None:
                record = _Record({}, ORIGIN_MEMORY)
                self._remember(skey, record)
            else:
                self._memory.move_to_end(skey)
            record.artifacts[pass_name] = value
            record.dirty = True

    def commit(self, key: str) -> None:
        """End a run over ``key``: spill its record if the run added to it.

        Later lookups of the record report the memory tier.  An empty
        record (the run built nothing) leaves memory, so the next run
        looks for a spill again.
        """
        skey = storage_key(key)
        with self._lock:
            record = self._memory.get(skey)
            if record is None:
                return
            record.origin = ORIGIN_MEMORY
            if not record.artifacts:
                del self._memory[skey]
                return
            if not record.dirty or self.disk_dir is None:
                return
            record.dirty = False
            artifacts = dict(record.artifacts)
        nbytes = self._disk_put(skey, artifacts)
        if not nbytes:
            return
        with self._lock:
            self.disk_bytes_written += nbytes
        if self.remote is not None:
            # Write-behind: the publisher thread reads the spill file
            # at upload time; a down store node costs nothing here
            # beyond a queue entry.
            self.remote.offer(skey, self._record_path(skey))

    def _remember(self, skey: str, record: _Record) -> None:
        self._memory[skey] = record
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def _open(self, pass_name: str, skey: str) -> _Record:
        """The input's record, loaded into memory on first use.

        Inputs with no record anywhere get an empty one, so the rest of
        the run does not look for a spill again.
        """
        with self._lock:
            record = self._memory.get(skey)
            if record is not None:
                self._memory.move_to_end(skey)
                return record
        artifacts, nbytes, origin = self._load(pass_name, skey)
        with self._lock:
            record = self._memory.get(skey)
            if record is None:  # no racing thread loaded it meanwhile
                record = _Record(artifacts, origin)
                self._remember(skey, record)
                self.disk_bytes_read += nbytes
            return record

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
            self.stats.clear()

    def __len__(self) -> int:
        return len(self._memory)

    # -- disk spill ------------------------------------------------------

    def _record_path(self, skey: str) -> Path:
        assert self.disk_dir is not None
        return Path(self.disk_dir) / f"{skey}.art"

    def _load(self, pass_name: str, skey: str) -> tuple[dict, int, str]:
        """(artifacts, bytes read, origin) of the spilled record.

        No record (or an undecodable one) loads as empty.
        """
        raw: bytes | None = None
        src: Path | None = None
        origin = ORIGIN_DISK
        if self.disk_dir is not None:
            src = self._record_path(skey)
            try:
                raw = src.read_bytes()
            except OSError:
                raw = None
        if raw is None and self.remote is not None:
            raw = self.remote.fetch(skey)
            origin = ORIGIN_REMOTE
            if raw is not None and src is not None:
                # Land the payload locally before decoding: future
                # lookups stay local, and a corrupt payload rides the
                # same quarantine path as a torn local spill.
                write_spill(src, raw)
        if raw is None:
            return {}, 0, ORIGIN_MEMORY
        try:
            return decode_record(raw), len(raw), origin
        except ArtifactDecodeError:
            # Unreadable or version-skewed records are misses, not
            # crashes (e.g. a cached class moved between releases, or a
            # writer was killed mid-spill).  Quarantine so the broken
            # file never costs a second decode attempt and the run's
            # re-derived record can re-spill at the original path.
            with self._lock:
                self._stat(pass_name).corrupt_spills += 1
            if src is not None:
                self._quarantine(src)
            return {}, 0, ORIGIN_MEMORY

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt spill aside — never raise."""
        bad = path.with_suffix(path.suffix + ".bad")
        try:
            path.replace(bad)
        except OSError:
            return  # racing reader already moved/removed it
        _LOG.warning(
            "quarantined corrupt artifact spill %s (re-deriving)", path.name
        )

    def _disk_put(self, skey: str, artifacts: dict[str, Any]) -> int:
        """Spill one record; returns compressed bytes written (0 = none)."""
        path = self._record_path(skey)
        try:
            raw = encode_record(artifacts)
        except Exception:  # noqa: BLE001 - unspillable records stay in memory
            return 0
        if not write_spill(path, raw):
            return 0
        hook = spill_fault_hook
        if hook is not None:
            hook(path)
        return len(raw)


def write_spill(path: Path, raw: bytes) -> bool:
    """Atomically land spill bytes at ``path`` (tmp + rename).

    The one spill writer: the cache's spills, the remote payloads it
    lands, and the store node's ``PUT /artifacts``.  The tmp name is
    unique per writer (``{key}.{pid}-{tid}.tmp``), so concurrent
    writers missing on the same key never truncate each other's
    half-written spill, and :func:`repro.pipeline.store.sweep_dead_tmp`
    finds a dead writer's leftovers by its pid.
    """
    tmp = path.with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(raw)
        tmp.replace(path)
        return True
    except OSError:
        tmp.unlink(missing_ok=True)
        return False


#: Public miss sentinel (also importable for tests).
MISS = _MISS

