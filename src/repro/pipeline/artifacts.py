"""The spill record: every stored artifact of one input in one file.

The record keeps only what a hit reads, the artifacts of the *stored*
passes (:attr:`repro.pipeline.passes.Pass.stored`), in two parts:

* the **summary** part holds the ``summary`` pass's artifact: the
  output text, diagnostics, directive count and ``changed`` flag that a
  batch or served transform returns (or the rejection it replays);
* the **analysis** part holds the other stored passes' artifacts: a
  transform's ``parse``, ``constraints``, ``plan`` and ``rewrite``,
  and the simulator's ``codegen`` rows.

The token list of ``preprocess`` and the ``effects`` and ``cfg``
analyses stay in the run that built them.  Each part is one pickle of
a ``{pass name: artifact}`` dict, so within the analysis part pickle's
memo shares what the artifacts have in common: ``plan`` holds
references into the translation unit ``parse`` produced, so the part
stores that AST once, and the decoded plans point into the decoded TU
exactly as freshly built ones point into the parsed TU.  Each part is
encoded and decoded on its own: a summary hit never unpickles the
analysis part, and a spill that adds one part copies the other part's
bytes as they are.

A record file is a magic prefix, a header of ``RECORD_VERSION`` and
the two parts' lengths, then the summary part and the analysis part,
each a zlib-compressed pickle (empty when the record lacks that part).
The version is also folded into the storage key (:func:`storage_key`),
so records written by an incompatible revision are never looked up;
one that turns up under a current key anyway (a hand-copied file, say)
fails to decode and reads as a miss.
"""

from __future__ import annotations

import gc
import pickle
import struct
import zlib
from typing import Any, Mapping

#: Magic prefix of spill records.
MAGIC = b"OREC1\n"

#: Layout version of the record and of every artifact class it pickles.
RECORD_VERSION = 5

#: The pass whose artifact the summary part holds.
SUMMARY = "summary"

#: Indices of the two parts, in file order.
SUMMARY_PART, ANALYSIS_PART = 0, 1

#: Record version, then the byte lengths of the summary and analysis
#: parts.
_HEADER = struct.Struct("<HII")

#: zlib level: a part is rewritten whenever a run adds artifacts to it,
#: and level 1 costs a fraction of level 6 for a few percent more bytes.
_COMPRESS_LEVEL = 1


class ArtifactDecodeError(Exception):
    """A spill record could not be decoded (treated as a cache miss)."""


def part_of(pass_name: str) -> int:
    """The record part that holds ``pass_name``'s artifact."""
    return SUMMARY_PART if pass_name == SUMMARY else ANALYSIS_PART


def encode_part(artifacts: Mapping[str, Any]) -> bytes:
    """Serialize one part's ``{pass: artifact}`` dict (empty: b"")."""
    if not artifacts:
        return b""
    body = pickle.dumps(dict(artifacts), protocol=5)
    return zlib.compress(body, _COMPRESS_LEVEL)


def decode_part(blob: bytes) -> dict[str, Any]:
    """Decode one part's bytes back into its ``{pass: artifact}`` dict.

    Raises :class:`ArtifactDecodeError` on any corruption; callers
    treat that as a cache miss.  The cyclic GC is paused for the
    unpickle: the analysis part is one large object graph (AST nodes
    with parent links), and collections triggered part-way through it
    only re-scan the nodes already built.
    """
    if not blob:
        return {}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        artifacts = pickle.loads(zlib.decompress(blob))
    except Exception as exc:  # noqa: BLE001 - any corruption is a miss
        raise ArtifactDecodeError(str(exc)) from exc
    finally:
        if was_enabled:
            gc.enable()
    if not isinstance(artifacts, dict):
        raise ArtifactDecodeError("record part is not a dict")
    return artifacts


def join_parts(summary: bytes, analysis: bytes) -> bytes:
    """A record file's bytes from its two encoded parts."""
    header = _HEADER.pack(RECORD_VERSION, len(summary), len(analysis))
    return MAGIC + header + summary + analysis


def split_parts(raw: bytes) -> tuple[bytes, bytes]:
    """A record file's (summary, analysis) part bytes, still encoded.

    Raises :class:`ArtifactDecodeError` on a missing magic prefix, a
    version skew or lengths that do not add up to the file (a
    truncated write).
    """
    start = len(MAGIC) + _HEADER.size
    if raw[: len(MAGIC)] != MAGIC or len(raw) < start:
        raise ArtifactDecodeError("not a spill record")
    version, summary, analysis = _HEADER.unpack_from(raw, len(MAGIC))
    if version != RECORD_VERSION:
        raise ArtifactDecodeError(
            f"record is v{version}, expected v{RECORD_VERSION}"
        )
    if len(raw) != start + summary + analysis:
        raise ArtifactDecodeError("record is truncated")
    return raw[start : start + summary], raw[start + summary :]


def storage_key(key: str) -> str:
    """The input fingerprint with the record version folded in."""
    return f"{key}-r{RECORD_VERSION}"


def record_filename(key: str) -> str:
    return f"{storage_key(key)}.art"
