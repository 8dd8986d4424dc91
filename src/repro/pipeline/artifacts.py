"""The spill record: every stored artifact of one input in one file.

The record keeps only what a hit reads, the artifacts of the *stored*
passes (:attr:`repro.pipeline.passes.Pass.stored`): a transform's
``parse``, ``constraints``, ``plan`` and ``rewrite``, and the
simulator's ``codegen`` rows, five at most.  The token list of
``preprocess`` and the ``effects`` and ``cfg`` analyses stay in the run
that built them.  The cache keeps an input's artifacts together as a
**record**, a ``{pass name: artifact}`` dict, and spills that record as
one file.

A single pickle of the whole dict lets pickle's memo share what the
artifacts have in common: ``plan`` holds references into the
translation unit ``parse`` produced, so the record stores that AST
once, and the decoded plans point into the decoded TU exactly as
freshly built ones point into the parsed TU.

A record file is a magic prefix followed by a zlib-compressed pickle of
``(RECORD_VERSION, record)``.  The version is also folded into the
storage key (:func:`storage_key`), so records written by an
incompatible revision are never looked up; one that turns up under a
current key anyway (a remote payload, a hand-copied file) fails to
decode and reads as a miss.
"""

from __future__ import annotations

import gc
import pickle
import zlib
from typing import Any, Mapping

#: Magic prefix of spill records.
MAGIC = b"OREC1\n"

#: Layout version of the record and of every artifact class it pickles.
RECORD_VERSION = 4

#: zlib level: the record is rewritten whenever a run adds artifacts,
#: and level 1 costs a fraction of level 6 for a few percent more bytes.
_COMPRESS_LEVEL = 1


class ArtifactDecodeError(Exception):
    """A spill record could not be decoded (treated as a cache miss)."""


def encode_record(record: Mapping[str, Any]) -> bytes:
    """Serialize one input's ``{pass: artifact}`` record."""
    body = pickle.dumps((RECORD_VERSION, dict(record)), protocol=5)
    return MAGIC + zlib.compress(body, _COMPRESS_LEVEL)


def is_record(raw: bytes) -> bool:
    return raw[: len(MAGIC)] == MAGIC


def decode_record(raw: bytes) -> dict[str, Any]:
    """Decode a spill record.

    Raises :class:`ArtifactDecodeError` on any corruption or version
    skew; callers treat that as a cache miss.  The cyclic GC is paused
    for the unpickle: a record is one large object graph (AST nodes
    with parent links), and collections triggered part-way through it
    only re-scan the nodes already built.
    """
    if not is_record(raw):
        raise ArtifactDecodeError("not a spill record")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        version, record = pickle.loads(zlib.decompress(raw[len(MAGIC):]))
    except Exception as exc:  # noqa: BLE001 - any corruption is a miss
        raise ArtifactDecodeError(str(exc)) from exc
    finally:
        if was_enabled:
            gc.enable()
    if version != RECORD_VERSION or not isinstance(record, dict):
        raise ArtifactDecodeError(
            f"record is v{version}, expected v{RECORD_VERSION}"
        )
    return record


def storage_key(key: str) -> str:
    """The input fingerprint with the record version folded in."""
    return f"{key}-r{RECORD_VERSION}"


def record_filename(key: str) -> str:
    return f"{storage_key(key)}.art"
