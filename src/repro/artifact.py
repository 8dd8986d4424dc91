"""The one reader and the one writer of the CLI's JSON artifacts.

Every ``--json``/``--profile`` file a command writes goes through
:func:`write_artifact`, and every artifact a command reads back (a
``--baseline``, a ``suite-diff`` side, a ``bench-history`` point, a
profile) goes through :func:`read_artifact`, which checks the
``schema`` field's family prefix (``ompdart-suite-perf/`` and so on).
These are the ``ompdart-*/N`` report files, not the pipeline's
per-pass artifacts.  The module imports only the standard library, so
``store``, ``load`` and ``chaos`` can write JSON without loading the
``report`` package and NumPy with it.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Mapping

__all__ = ["read_artifact", "write_artifact"]


def write_artifact(payload: Mapping[str, Any], path: str) -> None:
    """Write ``payload`` to ``path`` as indented JSON; report it on stderr."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def read_artifact(path: str, *schema_prefixes: str) -> dict[str, Any]:
    """Parse the artifact at ``path`` and check its schema prefix.

    Raises ``ValueError`` naming ``path`` unless the file holds a JSON
    object whose ``schema`` starts with one of ``schema_prefixes``; an
    unreadable file raises ``OSError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON artifact ({exc})") from exc
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if not (isinstance(schema, str) and schema.startswith(schema_prefixes)):
        kinds = " or ".join(p.rstrip("/") for p in schema_prefixes)
        raise ValueError(f"{path} is not an {kinds} artifact (schema={schema!r})")
    return payload
