"""Typed per-pass artifact schemas and their compact serializers.

Every pipeline pass now declares an :class:`ArtifactSchema`: a schema
**version** (folded into the cache's content keys, so artifacts spilled
by an incompatible revision are simply never looked up again) and a
compact encode/decode pair for its disk representation.

The historical spill format pickled each pass's artifact wholesale.
Because the analysis artifacts (``effects``, ``cfg``, ``plan``) all
hold references into the AST — and AST nodes carry parent links — each
of those pickles dragged a complete copy of the translation unit with
it: one input spilled the same AST four times over.  The compact
schemas fix that structurally:

* ``refs`` artifacts (effects/cfg/plan) are pickled with a persistent-id
  hook that replaces every AST node belonging to the translation unit
  with its **pre-order walk index**.  The payload holds only the pass's
  own delta; at load time the indices are resolved against the ``parse``
  artifact of the same input key (walk order is structural, so indices
  agree across processes and across pickle round-trips).  Decoded
  artifacts share node identity with the in-context AST — strictly
  better than the old per-artifact AST clones.
* ``tokens`` (preprocess) stores flat positional rows instead of Token
  objects; the source buffer's line table is recomputed on load.
* ``diags`` (constraints) and ``text`` (rewrite) are plain rows/UTF-8.
* ``pickle`` (parse) stays a whole-object pickle: the translation unit
  *is* that pass's payload.

Spill files use a small magic-prefixed container (zlib-compressed
pickle of ``(pass, version, fmt, payload)``); anything without the
magic does not decode.
"""

from __future__ import annotations

import io
import pickle
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping

#: Magic prefix of compact spill containers.
MAGIC = b"OART1\n"

#: zlib level: spills are written once and read by many workers.
_COMPRESS_LEVEL = 6


class ArtifactDecodeError(Exception):
    """A spill payload could not be decoded (treated as a cache miss)."""


# ===========================================================================
# Reference pickling against the translation unit
# ===========================================================================


class _FoundTU(Exception):
    def __init__(self, tu: Any):
        self.tu = tu


class _TUProbe(pickle.Pickler):
    """Aborts with :class:`_FoundTU` at the first TranslationUnit seen."""

    def persistent_id(self, obj: Any):
        from ..frontend.ast_nodes import TranslationUnit

        if isinstance(obj, TranslationUnit):
            raise _FoundTU(obj)
        return None


def _probe_translation_unit(artifact: Any) -> tuple[Any | None, bytes | None]:
    """(reachable TU, completed plain pickle when there is no TU).

    Analysis artifacts keep AST references (and nodes keep parent
    links), so an exploratory pickle reaches the TU almost immediately
    and the probe aborts the dump the moment it does.  When no TU is
    reachable the probe runs to completion — its buffer is then a
    valid plain pickle of the artifact, which :func:`_encode_refs`
    reuses instead of serializing a second time.
    """
    from ..frontend.ast_nodes import TranslationUnit

    if isinstance(artifact, TranslationUnit):
        return artifact, None
    buf = io.BytesIO()
    try:
        _TUProbe(buf, protocol=5).dump(artifact)
    except _FoundTU as found:
        return found.tu, None
    except Exception:  # noqa: BLE001 - unpicklable artifact: no refs
        return None, None
    return None, buf.getvalue()


def find_translation_unit(artifact: Any) -> Any | None:
    """The translation unit reachable from ``artifact``, if any."""
    return _probe_translation_unit(artifact)[0]


class _RefPickler(pickle.Pickler):
    """Replaces AST nodes of one TU with their pre-order walk index."""

    def __init__(self, file: io.BytesIO, table: dict[int, int]):
        super().__init__(file, protocol=5)
        self._table = table

    def persistent_id(self, obj: Any):
        idx = self._table.get(id(obj))
        return idx if idx is not None else None


class _RefUnpickler(pickle.Unpickler):
    def __init__(self, file: io.BytesIO, nodes: list[Any]):
        super().__init__(file)
        self._nodes = nodes

    def persistent_load(self, pid: Any):
        try:
            return self._nodes[pid]
        except (IndexError, TypeError) as exc:
            raise ArtifactDecodeError(f"dangling AST reference {pid!r}") from exc


def _encode_refs(artifact: Any) -> bytes:
    tu, plain = _probe_translation_unit(artifact)
    if tu is None:
        # No AST in sight (synthetic test artifacts): plain pickle,
        # flagged so decode skips reference resolution.  The probe's
        # completed dump doubles as the payload.
        if plain is None:
            plain = pickle.dumps(artifact, protocol=5)
        return b"P" + plain
    # The TU's cached pre-order index replaces the historical re-walk;
    # the cached node list keeps every node alive while its id() is in
    # the map.
    table = tu.preorder_index()
    buf = io.BytesIO()
    _RefPickler(buf, table).dump(artifact)
    return b"R" + buf.getvalue()


def _decode_refs(payload: bytes, deps: Mapping[str, Any] | None) -> Any:
    if payload[:1] == b"P":
        return pickle.loads(payload[1:])
    if deps is None or "parse" not in deps:
        raise ArtifactDecodeError(
            "reference payload needs the parse artifact of the same input"
        )
    nodes = deps["parse"].preorder()
    return _RefUnpickler(io.BytesIO(payload[1:]), nodes).load()


# ===========================================================================
# Token rows (preprocess)
# ===========================================================================


def _encode_tokens(artifact: Any) -> bytes:
    from ..frontend.tokens import TokenKind

    tokens, buffer = artifact
    kind_index = {kind: i for i, kind in enumerate(TokenKind)}
    filenames: list[str] = []
    file_index: dict[str, int] = {}
    rows = []
    for tok in tokens:
        loc = tok.location
        fi = file_index.get(loc.filename)
        if fi is None:
            fi = file_index[loc.filename] = len(filenames)
            filenames.append(loc.filename)
        rows.append((
            kind_index[tok.kind], tok.text, loc.offset, loc.line,
            loc.column, fi, tok.value, tok.expanded_from,
        ))
    return pickle.dumps(
        (buffer.text, buffer.filename, filenames, rows), protocol=5
    )


def _decode_tokens(payload: bytes, deps: Mapping[str, Any] | None) -> Any:
    from ..frontend.source import SourceBuffer, SourceLocation
    from ..frontend.tokens import Token, TokenKind

    text, buf_filename, filenames, rows = pickle.loads(payload)
    kinds = list(TokenKind)
    buffer = SourceBuffer(text, buf_filename)
    tokens = [
        Token(
            kinds[kind_i], tok_text,
            SourceLocation(offset, line, column, filenames[fi]),
            value, expanded_from,
        )
        for kind_i, tok_text, offset, line, column, fi, value, expanded_from
        in rows
    ]
    return tokens, buffer


# ===========================================================================
# Diagnostic rows (constraints)
# ===========================================================================


def _encode_diags(artifact: Any) -> bytes:
    rows = [
        (int(d.severity), d.message, d.filename, d.line, d.column)
        for d in artifact
    ]
    return pickle.dumps(rows, protocol=5)


def _decode_diags(payload: bytes, deps: Mapping[str, Any] | None) -> Any:
    from ..diagnostics import Diagnostic, Severity

    return [
        Diagnostic(Severity(sev), message, filename, line, column)
        for sev, message, filename, line, column in pickle.loads(payload)
    ]


# ===========================================================================
# Schema registry
# ===========================================================================


@dataclass(frozen=True)
class ArtifactSchema:
    """One pass's spill contract: version + compact codec."""

    pass_name: str
    version: int
    fmt: str
    encode: Callable[[Any], bytes]
    decode: Callable[[bytes, Mapping[str, Any] | None], Any]
    #: Passes whose in-context artifacts the decoder needs.
    depends: tuple[str, ...] = ()


def _encode_pickle(artifact: Any) -> bytes:
    return pickle.dumps(artifact, protocol=5)


def _decode_pickle(payload: bytes, deps: Mapping[str, Any] | None) -> Any:
    return pickle.loads(payload)


def _encode_text(artifact: Any) -> bytes:
    return artifact.encode("utf-8", "surrogatepass")


def _decode_text(payload: bytes, deps: Mapping[str, Any] | None) -> Any:
    return payload.decode("utf-8", "surrogatepass")


def _refs_schema(pass_name: str) -> ArtifactSchema:
    # v3: AST nodes carry pre-order walk indices in their pickled slots,
    # so v2 spills (parse and everything resolved against it) are
    # incompatible and must never be looked up.
    return ArtifactSchema(
        pass_name, 3, "refs", _encode_refs, _decode_refs, depends=("parse",)
    )


#: The registered spill schema of every cacheable pass.
SCHEMAS: dict[str, ArtifactSchema] = {
    s.pass_name: s
    for s in (
        ArtifactSchema("preprocess", 2, "tokens", _encode_tokens, _decode_tokens),
        ArtifactSchema("parse", 3, "pickle", _encode_pickle, _decode_pickle),
        # Codegen rows are pure data (source text + symbolic binding
        # descriptors) — a plain pickle round-trips them exactly.
        ArtifactSchema("codegen", 2, "pickle", _encode_pickle, _decode_pickle),
        ArtifactSchema("constraints", 2, "diags", _encode_diags, _decode_diags),
        _refs_schema("effects"),
        _refs_schema("cfg"),
        _refs_schema("plan"),
        ArtifactSchema("rewrite", 2, "text", _encode_text, _decode_text),
    )
}

#: Fallback for unregistered pass names (tests, custom pipelines).
DEFAULT_SCHEMA = ArtifactSchema(
    "<default>", 1, "pickle", _encode_pickle, _decode_pickle
)


def schema_for(pass_name: str) -> ArtifactSchema:
    return SCHEMAS.get(pass_name, DEFAULT_SCHEMA)


def schema_version(pass_name: str) -> int:
    return schema_for(pass_name).version


# ===========================================================================
# Container format
# ===========================================================================


def encode_spill(pass_name: str, artifact: Any) -> bytes:
    """Serialize ``artifact`` into the compact magic-prefixed container."""
    schema = schema_for(pass_name)
    payload = schema.encode(artifact)
    body = pickle.dumps(
        (pass_name, schema.version, schema.fmt, payload), protocol=5
    )
    return MAGIC + zlib.compress(body, _COMPRESS_LEVEL)


def is_compact_spill(raw: bytes) -> bool:
    return raw[: len(MAGIC)] == MAGIC


def decode_spill(
    raw: bytes,
    pass_name: str,
    deps: Mapping[str, Any] | None = None,
) -> Any:
    """Decode a compact spill container.

    Raises :class:`ArtifactDecodeError` on any mismatch or corruption;
    callers treat that as a cache miss.
    """
    if not is_compact_spill(raw):
        raise ArtifactDecodeError("not a spill container")
    try:
        body = zlib.decompress(raw[len(MAGIC):])
        spilled_name, version, fmt, payload = pickle.loads(body)
        schema = schema_for(pass_name)
        if spilled_name != pass_name or version != schema.version:
            raise ArtifactDecodeError(
                f"spill is {spilled_name}/v{version}, "
                f"expected {pass_name}/v{schema.version}"
            )
        return schema.decode(payload, deps)
    except ArtifactDecodeError:
        raise
    except Exception as exc:  # noqa: BLE001 - any corruption is a miss
        raise ArtifactDecodeError(str(exc)) from exc


def storage_key(pass_name: str, key: str) -> str:
    """The input fingerprint with the pass's schema version folded in.

    Incompatible spills from older schema revisions live under a
    different key, so they are never even looked up — stale caches
    self-invalidate instead of unpickling to wrong shapes.
    """
    return f"{key}-s{schema_version(pass_name)}"


def spill_filename(pass_name: str, key: str) -> str:
    return f"{pass_name}-{storage_key(pass_name, key)}.art"
