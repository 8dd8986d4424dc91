"""Per-input artifact records: content-hash keys, LRU memory, one spill.

Every pipeline pass is a deterministic function of ``(source, filename,
options)``, so one fingerprint of those inputs keys every artifact the
pass chain produces.  The cache groups an input's artifacts into one
**record** (:mod:`repro.pipeline.artifacts`), keeps a bounded
in-memory LRU of records (the hot path for repeated ``OMPDart.run``
calls and for the evaluation harness, which historically parsed every
benchmark source twice) and can spill records to a directory so
separate worker processes of the batch driver share work across runs.

A pipeline run loads its input's record once, on its first pass
lookup: memory, then the directory's spill.  A spill is read whole but
decoded by part: a lookup decodes the part that holds its pass (the
``summary`` part or the analysis part) the first time that part is
asked for, so a summary hit never unpickles the translation unit.  The
pass manager looks up only the *stored* passes
(:attr:`repro.pipeline.passes.Pass.stored`), so a record, in memory or
spilled, holds only the artifacts a hit reads.  Every stored pass the
record holds is a hit reported with the tier the record came from; the
rest are built and :meth:`ArtifactCache.put` into the record.  The pass
manager then :meth:`~ArtifactCache.commit`\\ s the record once, which
re-encodes the parts the run added to and spills them together with
the other part's bytes as they were read.  Loading a spill refreshes
its mtime, so ``ompdart store gc`` evicts the least recently used
records first.  The record version is folded into the storage key, so
records of an incompatible revision are never looked up.
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
    decode_part,
    encode_part,
    join_parts,
    part_of,
    split_parts,
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
    #: Lookups of this pass that found a record, or the record part
    #: holding this pass, which failed to decode (truncated, corrupt,
    #: or from an incompatible revision) and quarantined it as a miss.
    corrupt_spills: int = 0


class _Record:
    """One input's artifacts, its spill's parts, and where they came from."""

    __slots__ = ("artifacts", "parts", "undecoded", "dirty", "origin")

    def __init__(self, parts: tuple[bytes, bytes], origin: str):
        #: Pass name -> artifact, for the parts decoded or put so far.
        self.artifacts: dict[str, Any] = {}
        #: Each part's encoded bytes as last spilled (b"": none).
        self.parts = list(parts)
        #: Parts whose spilled bytes are not decoded yet.
        self.undecoded = {i for i, blob in enumerate(parts) if blob}
        #: Parts holding artifacts their spill does not have yet.
        self.dirty: set[int] = set()
        #: Tier the record was loaded from; ``"memory"`` once the run
        #: that loaded it has committed.
        self.origin = origin


#: The parts of an input that has no spill.
_NO_PARTS = (b"", b"")


@dataclass
class ArtifactCache:
    """Bounded LRU of per-input records, optionally backed by a directory.

    ``lookup``/``put`` address one artifact as ``(pass_name,
    input_fingerprint)``; ``commit`` spills the parts of the input's
    record that the run added to.  Thread-safe: the serial batch path
    may be driven from multiple threads, and the evaluation harness
    shares one cache across all nine benchmarks.
    """

    #: Records (inputs) kept in memory.
    max_entries: int = 32
    disk_dir: str | Path | None = None
    stats: dict[str, CacheStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, _Record] = OrderedDict()
        if self.disk_dir is not None:
            self.disk_dir = Path(self.disk_dir)
            self.disk_dir.mkdir(parents=True, exist_ok=True)

    def _stat(self, pass_name: str) -> CacheStats:
        return self.stats.setdefault(pass_name, CacheStats())

    # -- lookup ----------------------------------------------------------

    def lookup(
        self,
        pass_name: str,
        key: str,
        deps: Mapping[str, Any] | None = None,
    ) -> tuple[Any, str | None]:
        """(artifact or MISS, origin).

        The first lookup of an input loads its record (memory, then
        disk), and the first lookup of a pass in a part decodes that
        part; later lookups answer from the loaded record.  Origin is
        the tier the record came from — ``"memory"`` or ``"disk"`` — or
        ``None`` on a miss.  ``deps`` is accepted and ignored: a record
        decodes without outside artifacts.
        """
        skey = storage_key(key)
        record = self._open(pass_name, skey)
        part = part_of(pass_name)
        if part in record.undecoded:
            self._decode(record, part, pass_name, skey)
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
                record = _Record(_NO_PARTS, ORIGIN_MEMORY)
                self._remember(skey, record)
            else:
                self._memory.move_to_end(skey)
            record.artifacts[pass_name] = value
            record.dirty.add(part_of(pass_name))

    def commit(self, key: str) -> None:
        """End a run over ``key``: spill the parts the run added to.

        A part the run did not touch is spilled as the bytes it was
        read as.  Later lookups of the record report the memory tier.
        An empty record (no spill and the run built nothing) leaves
        memory, so the next run looks for a spill again.
        """
        skey = storage_key(key)
        with self._lock:
            record = self._memory.get(skey)
            if record is None:
                return
            record.origin = ORIGIN_MEMORY
            if not record.artifacts and not any(record.parts):
                del self._memory[skey]
                return
            if not record.dirty or self.disk_dir is None:
                return
            dirty, record.dirty = record.dirty, set()
        for part in dirty & record.undecoded:  # put with no lookup first
            self._decode(record, part, None, skey)
        with self._lock:
            artifacts = dict(record.artifacts)
        parts = list(record.parts)
        try:
            for part in dirty:
                parts[part] = encode_part(
                    {n: v for n, v in artifacts.items() if part_of(n) == part}
                )
        except Exception:  # noqa: BLE001 - unspillable records stay in memory
            return
        if self._disk_put(skey, parts):
            record.parts = parts

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
        parts = self._load(pass_name, skey)
        origin = ORIGIN_DISK if any(parts) else ORIGIN_MEMORY
        with self._lock:
            record = self._memory.get(skey)
            if record is None:  # no racing thread loaded it meanwhile
                record = _Record(parts, origin)
                self._remember(skey, record)
            return record

    def _decode(
        self, record: _Record, part: int, pass_name: str | None, skey: str
    ) -> None:
        """Decode one spilled part into the record's artifacts.

        A part that fails to decode is charged to ``pass_name`` and
        quarantines the spill; the record keeps the other part's bytes,
        so the run's commit re-spills them at the original path.
        """
        try:
            artifacts = decode_part(record.parts[part])
        except ArtifactDecodeError:
            artifacts = {}
            with self._lock:
                if pass_name is not None:
                    self._stat(pass_name).corrupt_spills += 1
                record.parts[part] = b""
            self._quarantine(self._record_path(skey))
        with self._lock:
            if part in record.undecoded:  # no racing thread decoded it
                record.undecoded.discard(part)
                for name, value in artifacts.items():
                    record.artifacts.setdefault(name, value)

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

    def _load(self, pass_name: str, skey: str) -> tuple[bytes, bytes]:
        """The spilled record's two parts, still encoded.

        No record (or one whose header is broken) loads as two empty
        parts.  A load refreshes the spill's mtime, the recency
        :func:`repro.pipeline.store.gc_spills` evicts by.
        """
        if self.disk_dir is None:
            return _NO_PARTS
        src = self._record_path(skey)
        try:
            raw = src.read_bytes()
        except OSError:
            return _NO_PARTS
        try:
            parts = split_parts(raw)
        except ArtifactDecodeError:
            # Unreadable or version-skewed records are misses, not
            # crashes (e.g. a writer was killed mid-spill).  Quarantine
            # so the broken file never costs a second decode attempt
            # and the run's re-derived record can re-spill at the
            # original path.
            with self._lock:
                self._stat(pass_name).corrupt_spills += 1
            self._quarantine(src)
            return _NO_PARTS
        try:
            os.utime(src)
        except OSError:
            pass  # racing cleaner; recency is best-effort
        return parts

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

    def _disk_put(self, skey: str, parts: list[bytes]) -> bool:
        """Spill one record's parts; False when the write failed."""
        path = self._record_path(skey)
        if not write_spill(path, join_parts(*parts)):
            return False
        hook = spill_fault_hook
        if hook is not None:
            hook(path)
        return True


def write_spill(path: Path, raw: bytes) -> bool:
    """Atomically land spill bytes at ``path`` (tmp + rename).

    The one spill writer.  The tmp name is unique per writer
    (``{key}.{pid}-{tid}.tmp``), so concurrent writers missing on the
    same key never truncate each other's half-written spill, and
    :func:`repro.pipeline.store.sweep_dead_tmp` finds a dead writer's
    leftovers by its pid.
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

