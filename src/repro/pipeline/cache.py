"""Per-pass artifact cache: content-hash keys, LRU memory, typed spills.

Every pipeline pass is a deterministic function of ``(source, filename,
options)``, so one fingerprint of those inputs keys every artifact the
pass chain produces.  The cache keeps a bounded in-memory LRU (the hot
path for repeated ``OMPDart.run`` calls and for the evaluation harness,
which historically parsed every benchmark source twice) and can spill
artifacts to a directory so separate worker processes of the batch
driver share work across runs.

Disk spills use the **typed per-pass schemas** of
:mod:`repro.pipeline.artifacts`: each pass's payload is encoded by its
registered schema (analysis artifacts store AST references instead of
AST copies), and each pass's schema *version* is folded into the
storage key, so spills from an incompatible revision are never looked
up — stale caches self-invalidate instead of unpickling to wrong
shapes.

Lookups walk three tiers — memory, then the disk spills, then an
optional remote store node (:mod:`repro.pipeline.remote`) — and report
which one served each hit.  Worker processes share artifacts through
the disk tier: whatever one worker spills, its siblings and later runs
read back.
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

from . import artifacts as artifact_schemas
from .artifacts import ArtifactDecodeError
from .store import gc_spills

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

#: Disk puts between opportunistic GC sweeps when a bound is set.
_GC_EVERY = 32


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
    """Hit/miss and disk-byte counters for one pass name."""

    hits: int = 0
    misses: int = 0
    #: Compressed bytes read from disk spills on hits.
    disk_bytes_read: int = 0
    #: Compressed bytes written to disk spills on misses.
    disk_bytes_written: int = 0
    #: Spill files that failed to decode (truncated, corrupt, or from
    #: an incompatible revision) and were quarantined as misses.
    corrupt_spills: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class ArtifactCache:
    """Bounded LRU of pipeline artifacts, optionally backed by a directory.

    Keys are ``(pass_name, input_fingerprint)``; on disk the pass's
    schema version is folded into the fingerprint.  Thread-safe: the
    serial batch path may be driven from multiple threads, and the
    evaluation harness shares one cache across all nine benchmarks.
    """

    max_entries: int = 256
    disk_dir: str | Path | None = None
    stats: dict[str, CacheStats] = field(default_factory=dict)
    #: Optional remote tier (:class:`~repro.pipeline.remote
    #: .RemoteStoreClient`): read-through on local disk misses,
    #: write-behind on spills.  Any object with ``fetch``/``offer`` —
    #: typed loosely so the pipeline never imports HTTP machinery
    #: unless a store URL is actually configured.
    remote: Any = None
    #: Size/TTL bounds for the disk spill tier (None = unbounded, the
    #: historical behavior).  Enforced opportunistically every
    #: ``_GC_EVERY`` disk puts via :func:`repro.pipeline.store.gc_spills`.
    max_disk_bytes: int | None = None
    spill_ttl_s: float | None = None

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._memory: OrderedDict[tuple[str, str], Any] = OrderedDict()
        self._puts_since_gc = 0
        self.evicted_spills = 0
        self.evicted_spill_bytes = 0
        if self.disk_dir is not None:
            self.disk_dir = Path(self.disk_dir)
            self.disk_dir.mkdir(parents=True, exist_ok=True)

    # -- accounting ------------------------------------------------------

    def _stat(self, pass_name: str) -> CacheStats:
        return self.stats.setdefault(pass_name, CacheStats())

    def hit_rates(self) -> dict[str, float]:
        return {name: s.hit_rate for name, s in sorted(self.stats.items())}

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

        ``deps`` supplies earlier in-context artifacts for reference
        decoding (the pass manager passes ``ctx.artifacts``); without
        it, spills that need the parse artifact decode as misses.
        Origin is ``"memory"``, ``"disk"``, ``"remote"`` (fetched from
        a remote store node) or ``None`` on a miss.
        """
        skey = artifact_schemas.storage_key(pass_name, key)
        with self._lock:
            memory_key = (pass_name, skey)
            if memory_key in self._memory:
                self._memory.move_to_end(memory_key)
                self._stat(pass_name).hits += 1
                return self._memory[memory_key], ORIGIN_MEMORY
        value, nbytes, origin = self._disk_get(pass_name, skey, deps)
        with self._lock:
            stat = self._stat(pass_name)
            if value is not _MISS:
                stat.hits += 1
                stat.disk_bytes_read += nbytes
                self._remember(pass_name, skey, value)
            else:
                stat.misses += 1
        if value is _MISS:
            return _MISS, None
        return value, origin

    def get(
        self,
        pass_name: str,
        key: str,
        deps: Mapping[str, Any] | None = None,
    ) -> Any:
        """Return the cached artifact or the module-level ``MISS``."""
        return self.lookup(pass_name, key, deps)[0]

    def put(self, pass_name: str, key: str, value: Any) -> None:
        skey = artifact_schemas.storage_key(pass_name, key)
        with self._lock:
            self._remember(pass_name, skey, value)
        nbytes = self._disk_put(pass_name, skey, value)
        if nbytes:
            with self._lock:
                self._stat(pass_name).disk_bytes_written += nbytes
            if self.remote is not None and self.disk_dir is not None:
                # Write-behind: the publisher thread reads the spill
                # file at upload time; a down store node costs nothing
                # here beyond a queue entry.
                self.remote.offer(
                    f"{pass_name}-{skey}", self._compact_path(pass_name, skey)
                )
            self._maybe_gc()

    def _remember(self, pass_name: str, skey: str, value: Any) -> None:
        memory_key = (pass_name, skey)
        self._memory[memory_key] = value
        self._memory.move_to_end(memory_key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def prewarm(self, limit: int | None = None) -> int:
        """Load the newest disk spills into the in-memory LRU.

        Batch worker processes each keep a private in-memory cache, so
        before this existed every forked worker started cold and
        re-parsed inputs whose artifacts were already sitting in
        ``--cache-dir``.  Called from the pool initializer, this primes
        each worker with up to ``limit`` (default: ``max_entries``)
        most-recently-written spills — duplicate inputs then hit memory
        immediately instead of racing the disk per lookup.

        Reference-encoded spills decode against the ``parse`` artifact
        of their own input group (same fingerprint), which is loaded
        first; groups whose parse spill is unavailable are skipped like
        ``get`` misses, as are unreadable or version-skewed files.

        Returns the number of artifacts loaded.  Hit/miss counters are
        untouched (pre-warming is not a lookup).
        """
        if self.disk_dir is None:
            return 0
        budget = self.max_entries if limit is None else limit
        try:
            paths = sorted(
                Path(self.disk_dir).glob("*.art"),
                key=lambda p: p.stat().st_mtime,
                reverse=True,
            )
        except OSError:
            return 0
        # Oldest-first so LRU recency matches on-disk recency — the
        # newest artifacts must be the last the LRU would evict.
        selected = list(reversed(paths[:budget]))
        loaded = 0
        deferred: list[tuple[str, str, str, bytes]] = []
        parse_by_group: dict[str, Any] = {}
        for path in selected:
            stem = path.stem
            pass_name, sep, skey = stem.partition("-")
            if not sep:
                continue
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            if artifact_schemas.schema_for(pass_name).depends:
                deferred.append((pass_name, skey, _group_of(skey), raw))
                continue
            try:
                value = artifact_schemas.decode_spill(raw, pass_name)
            except ArtifactDecodeError:
                self._quarantine(pass_name, path)
                continue
            if pass_name == "parse":
                parse_by_group[_group_of(skey)] = value
            with self._lock:
                self._remember(pass_name, skey, value)
            loaded += 1
        for pass_name, skey, group, raw in deferred:
            parse = parse_by_group.get(group)
            if parse is None:
                parse = self._load_group_parse(group)
                if parse is None:
                    continue
                parse_by_group[group] = parse
            try:
                value = artifact_schemas.decode_spill(
                    raw, pass_name, {"parse": parse}
                )
            except ArtifactDecodeError:
                self._quarantine(
                    pass_name, self._compact_path(pass_name, skey)
                )
                continue
            with self._lock:
                self._remember(pass_name, skey, value)
            loaded += 1
        return loaded

    def _load_group_parse(self, group: str) -> Any:
        """Decode the parse spill anchoring one input group, if present."""
        assert self.disk_dir is not None
        path = Path(self.disk_dir) / artifact_schemas.spill_filename(
            "parse", group
        )
        try:
            return artifact_schemas.decode_spill(path.read_bytes(), "parse")
        except (OSError, ArtifactDecodeError):
            return None

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
            self.stats.clear()

    def __len__(self) -> int:
        return len(self._memory)

    # -- disk spill ------------------------------------------------------

    def _compact_path(self, pass_name: str, skey: str) -> Path:
        assert self.disk_dir is not None
        return Path(self.disk_dir) / f"{pass_name}-{skey}.art"

    def _disk_get(
        self,
        pass_name: str,
        skey: str,
        deps: Mapping[str, Any] | None,
    ) -> tuple[Any, int, str | None]:
        """(artifact, bytes read, origin) — or (MISS, 0, None)."""
        if self.disk_dir is None and self.remote is None:
            return _MISS, 0, None
        raw: bytes | None = None
        src: Path | None = None
        remote_hit = False
        if self.disk_dir is not None:
            src = self._compact_path(pass_name, skey)
            try:
                raw = src.read_bytes()
            except OSError:
                raw = None
        if raw is None and self.remote is not None:
            raw = self.remote.fetch(f"{pass_name}-{skey}")
            if raw is None:
                return _MISS, 0, None
            remote_hit = True
            if self.disk_dir is not None:
                # Land the payload locally before decoding: future
                # lookups stay local, and a corrupt payload rides the
                # same quarantine path as a torn local spill.
                src = self._compact_path(pass_name, skey)
                self._write_spill(src, raw)
        if raw is None:
            return _MISS, 0, None
        try:
            value = artifact_schemas.decode_spill(raw, pass_name, deps)
        except ArtifactDecodeError:
            # Unreadable or version-skewed spill files are misses, not
            # crashes (e.g. a cached class moved between releases, or a
            # writer was killed mid-spill).  Quarantine so the broken
            # file never costs a second decode attempt and the pass's
            # re-derived artifact can re-spill at the original path.
            if src is not None:
                self._quarantine(pass_name, src)
            else:
                with self._lock:
                    self._stat(pass_name).corrupt_spills += 1
            return _MISS, 0, None
        return value, len(raw), ORIGIN_REMOTE if remote_hit else ORIGIN_DISK

    def _quarantine(self, pass_name: str, path: Path) -> None:
        """Move a corrupt spill aside and count it — never raise."""
        with self._lock:
            self._stat(pass_name).corrupt_spills += 1
        bad = path.with_suffix(path.suffix + ".bad")
        try:
            path.replace(bad)
        except OSError:
            return  # racing reader already moved/removed it
        _LOG.warning(
            "quarantined corrupt artifact spill %s (re-deriving)", path.name
        )

    def _disk_put(self, pass_name: str, skey: str, value: Any) -> int:
        """Spill the artifact; returns compressed bytes written (0 = none)."""
        if self.disk_dir is None:
            return 0
        path = self._compact_path(pass_name, skey)
        try:
            raw = artifact_schemas.encode_spill(pass_name, value)
        except Exception:  # noqa: BLE001 - unspillable artifacts stay in memory
            return 0
        if not self._write_spill(path, raw):
            return 0
        hook = spill_fault_hook
        if hook is not None:
            hook(path)
        return len(raw)

    def _write_spill(self, path: Path, raw: bytes) -> bool:
        """Atomically land spill bytes at ``path`` (tmp + rename)."""
        # Unique tmp name per writer: concurrent batch workers missing on
        # the same key must not truncate each other's half-written spill.
        tmp = path.with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(raw)
            tmp.replace(path)
            return True
        except OSError:
            tmp.unlink(missing_ok=True)
            return False

    def _maybe_gc(self) -> None:
        """Opportunistic spill eviction once a size/TTL bound is set."""
        if self.disk_dir is None or (
            self.max_disk_bytes is None and self.spill_ttl_s is None
        ):
            return
        with self._lock:
            self._puts_since_gc += 1
            if self._puts_since_gc < _GC_EVERY:
                return
            self._puts_since_gc = 0
        report = gc_spills(
            self.disk_dir,
            max_bytes=self.max_disk_bytes,
            max_age_s=self.spill_ttl_s,
        )
        with self._lock:
            self.evicted_spills += report.evicted_files
            self.evicted_spill_bytes += report.evicted_bytes


def _group_of(skey: str) -> str:
    """The raw input fingerprint shared by one input's spill group."""
    return skey.rsplit("-s", 1)[0]


#: Public miss sentinel (also importable for tests).
MISS = _MISS
