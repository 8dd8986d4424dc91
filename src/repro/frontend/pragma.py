"""OpenMP pragma parsing.

Turns the body of a ``#pragma omp ...`` logical line into a directive
kind plus structured clauses.  Expression parsing inside clause
arguments (``num_teams(n*2)``, ``map(to: a[0:N])``) is delegated to a
callback supplied by the main parser, keeping this module free of a
circular import.  Clauses and list items are placed at the pragma's
offset in the translation unit's buffer.

The directive table covers all of paper Table I, the data-management
directives OMPDart inserts (``target data``, ``target update``,
``target enter/exit data``) and the host-side directives that must parse
cleanly but are treated as ordinary host code by the analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..diagnostics import ParseError
from .ast_nodes import (
    Expr,
    OMPClause,
    OMPExprClause,
    OMPFirstprivateClause,
    OMPFromClause,
    OMPMapClause,
    OMPPrivateClause,
    OMPReductionClause,
    OMPSectionItem,
    OMPSimpleClause,
    OMPToClause,
)
from .source import SourceBuffer

#: Directive spellings, longest-first so maximal munch works.
#: Value is (canonical kind, category) where category is one of
#: "kernel", "data", "standalone-data", "host", "host-standalone".
DIRECTIVE_TABLE: list[tuple[str, tuple[str, str]]] = [
    ("target teams distribute parallel for simd",
     ("target teams distribute parallel for simd", "kernel")),
    ("target teams distribute parallel for",
     ("target teams distribute parallel for", "kernel")),
    ("target teams distribute simd", ("target teams distribute simd", "kernel")),
    ("target teams distribute", ("target teams distribute", "kernel")),
    ("target teams loop", ("target teams loop", "kernel")),
    ("target teams", ("target teams", "kernel")),
    ("target parallel for simd", ("target parallel for simd", "kernel")),
    ("target parallel for", ("target parallel for", "kernel")),
    ("target parallel loop", ("target parallel loop", "kernel")),
    ("target parallel", ("target parallel", "kernel")),
    ("target simd", ("target simd", "kernel")),
    ("target enter data", ("target enter data", "standalone-data")),
    ("target exit data", ("target exit data", "standalone-data")),
    ("target update", ("target update", "standalone-data")),
    ("target data", ("target data", "data")),
    ("target", ("target", "kernel")),
    ("teams distribute parallel for simd",
     ("teams distribute parallel for simd", "host")),
    ("teams distribute parallel for", ("teams distribute parallel for", "host")),
    ("teams distribute", ("teams distribute", "host")),
    ("parallel for simd", ("parallel for simd", "host")),
    ("parallel for", ("parallel for", "host")),
    ("parallel", ("parallel", "host")),
    ("for simd", ("for simd", "host")),
    ("for", ("for", "host")),
    ("simd", ("simd", "host")),
    ("loop", ("loop", "host")),
    ("critical", ("critical", "host")),
    ("single", ("single", "host")),
    ("master", ("master", "host")),
    ("atomic", ("atomic", "host")),
    ("barrier", ("barrier", "host-standalone")),
    ("taskwait", ("taskwait", "host-standalone")),
    ("flush", ("flush", "host-standalone")),
]

#: Clauses whose argument is a single expression.
_EXPR_CLAUSES = frozenset(
    {"num_teams", "num_threads", "thread_limit", "collapse", "device",
     "if", "safelen", "simdlen", "priority"}
)

#: Clauses carrying variable/section lists.
_VARLIST_CLAUSES = frozenset(
    {"map", "to", "from", "firstprivate", "private", "shared",
     "lastprivate", "is_device_ptr", "use_device_ptr"}
)

#: Clauses taken verbatim (argument kept as raw text) or argument-less.
_SIMPLE_CLAUSES = frozenset(
    {"nowait", "default", "schedule", "dist_schedule", "proc_bind",
     "defaultmap", "order", "untied", "always"}
)


@dataclass
class ParsedPragma:
    """Result of :func:`parse_omp_pragma`."""

    directive_kind: str
    category: str  # kernel | data | standalone-data | host | host-standalone
    clauses: list[OMPClause]
    raw_text: str


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split ``text`` on ``sep`` at paren/bracket depth zero."""
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def split_clauses(text: str) -> list[tuple[str, str | None]]:
    """Split a clause region into (name, argument-text-or-None) pairs.

    Clauses may be separated by spaces or commas; arguments are balanced
    parenthesized groups.
    """
    out: list[tuple[str, str | None]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t,":
            i += 1
            continue
        if not (ch.isalpha() or ch == "_"):
            raise ParseError(f"malformed OpenMP clause text at {text[i:]!r}")
        start = i
        while i < n and (text[i].isalnum() or text[i] == "_"):
            i += 1
        name = text[start:i]
        while i < n and text[i] in " \t":
            i += 1
        arg: str | None = None
        if i < n and text[i] == "(":
            depth = 0
            arg_start = i + 1
            while i < n:
                if text[i] == "(":
                    depth += 1
                elif text[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            if depth != 0:
                raise ParseError(f"unbalanced parentheses in clause {name!r}")
            arg = text[arg_start:i]
            i += 1
        out.append((name, arg))
    return out


class PragmaParser:
    """Parses ``#pragma omp`` bodies into directives + clauses."""

    def __init__(
        self, parse_expr: Callable[[str, int], Expr], buffer: SourceBuffer
    ):
        #: callback: (expression text, pragma offset) -> Expr
        self._parse_expr = parse_expr
        #: the buffer pragma offsets index
        self._buffer = buffer

    def parse(self, body: str, offset: int) -> ParsedPragma:
        """Parse a pragma body (with or without the leading ``#``) found
        at ``offset`` of the buffer."""
        # Collapse whitespace runs left behind by backslash-newline
        # splices so directive spellings match.
        text = " ".join(body.split()).lstrip("#").strip()
        if text.startswith("pragma"):
            text = text[len("pragma"):].strip()
        if not text.startswith("omp"):
            raise self._error(offset, f"not an OpenMP pragma: {body!r}")
        text = text[len("omp"):].strip()

        for spelling, (kind, category) in DIRECTIVE_TABLE:
            if text == spelling or text.startswith(spelling + " ") or (
                text.startswith(spelling)
                and len(text) > len(spelling)
                and not text[len(spelling)].isalnum()
                and text[len(spelling)] != "_"
            ):
                clause_text = text[len(spelling):].strip()
                clauses = self._parse_clauses(clause_text, offset)
                return ParsedPragma(kind, category, clauses, body)
        raise self._error(offset, f"unrecognized OpenMP directive: {text!r}")

    def _error(self, at: int, message: str) -> ParseError:
        return ParseError(f"{self._buffer.location(at)}: {message}")

    # -- clauses -----------------------------------------------------------

    def _parse_clauses(self, text: str, at: int) -> list[OMPClause]:
        return [
            self._build_clause(name, arg, at).set_span(at, at, self._buffer)
            for name, arg in split_clauses(text)
        ]

    def _build_clause(self, name: str, arg: str | None, at: int) -> OMPClause:
        if name == "map":
            return self._build_map_clause(arg or "", at)
        if name == "reduction":
            if arg is None or ":" not in arg:
                raise self._error(at, "reduction clause needs 'op: list'")
            op, _, items_text = arg.partition(":")
            items = self._parse_items(items_text, at)
            return OMPReductionClause(op.strip(), items)
        if name in _VARLIST_CLAUSES:
            items = self._parse_items(arg or "", at)
            if name == "to":
                return OMPToClause(items)
            if name == "from":
                return OMPFromClause(items)
            if name == "firstprivate":
                return OMPFirstprivateClause(items)
            if name == "private":
                return OMPPrivateClause(items)
            from .ast_nodes import OMPVarListClause

            return OMPVarListClause(name, items)
        if name in _EXPR_CLAUSES:
            if arg is None:
                raise self._error(at, f"clause {name!r} requires an argument")
            return OMPExprClause(name, self._parse_expr(arg, at))
        if name in _SIMPLE_CLAUSES:
            return OMPSimpleClause(name, arg or "")
        raise self._error(at, f"unsupported OpenMP clause {name!r}")

    def _build_map_clause(self, arg: str, at: int) -> OMPMapClause:
        map_type = "tofrom"  # OpenMP default map-type
        items_text = arg
        head, colon, rest = arg.partition(":")
        always = "always" in head.split(",")[0] if colon else False
        head_word = head.strip().removeprefix("always").strip(" ,")
        if colon and (head_word in OMPMapClause.MAP_TYPES or not head_word):
            if head_word:
                map_type = head_word
            items_text = rest
        items = self._parse_items(items_text, at)
        return OMPMapClause(map_type, items, always)

    def _parse_items(self, text: str, at: int) -> list[OMPSectionItem]:
        items: list[OMPSectionItem] = []
        for piece in _split_top_level(text, ","):
            piece = piece.strip()
            if not piece:
                continue
            items.append(self._parse_item(piece, at))
        return items

    def _parse_item(self, text: str, at: int) -> OMPSectionItem:
        """Parse ``name`` or ``name[lo:len]...`` (nested sections allowed)."""
        i, n = 0, len(text)
        while i < n and (text[i].isalnum() or text[i] == "_"):
            i += 1
        name = text[:i]
        if not name:
            raise self._error(at, f"malformed OpenMP list item {text!r}")
        sections: list[tuple[Expr | None, Expr | None]] = []
        while i < n:
            while i < n and text[i] in " \t":
                i += 1
            if i >= n:
                break
            if text[i] != "[":
                raise self._error(at, f"malformed array section in {text!r}")
            depth = 0
            start = i + 1
            while i < n:
                if text[i] == "[":
                    depth += 1
                elif text[i] == "]":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            if depth != 0:
                raise self._error(at, f"unbalanced brackets in {text!r}")
            inner = text[start:i]
            i += 1
            parts = _split_top_level(inner, ":")
            if len(parts) == 1:
                # Single element `a[i]` == section of length 1.
                lower = self._parse_expr(parts[0], at) if parts[0].strip() else None
                sections.append((lower, None))
            elif len(parts) == 2:
                lower = self._parse_expr(parts[0], at) if parts[0].strip() else None
                length = self._parse_expr(parts[1], at) if parts[1].strip() else None
                sections.append((lower, length))
            else:
                raise self._error(at, f"too many ':' in array section {text!r}")
        return OMPSectionItem(name, sections).set_span(at, at, self._buffer)
