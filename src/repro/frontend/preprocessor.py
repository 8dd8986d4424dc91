"""Preprocessor-lite for the mini-C frontend.

Supports the subset of the C preprocessor the nine evaluation benchmarks
need:

* object-like and function-like ``#define`` / ``#undef``
* ``#include`` (skipped -- the tool analyses a single translation unit,
  exactly like OMPDart, paper section IV-B)
* ``#ifdef`` / ``#ifndef`` / ``#else`` / ``#endif``, and ``#if`` on a C
  integer literal (read as the lexer reads one, so ``010`` is 8),
  ``defined NAME`` or ``defined(NAME)``; any other ``#if`` condition is
  a :class:`ParseError`
* ``#pragma omp`` lines survive as :data:`TokenKind.PRAGMA` tokens; any
  other pragma is dropped.

A directive's name, and a pragma's kind, end at any whitespace.

:meth:`Preprocessor.tokens` is one loop pulling from the lexer's
:func:`~repro.frontend.lexer.scan` generator.  It keeps whether the
current region is active as one flag, updated at each conditional
directive, and looks only identifiers up in the macro table.

Macro-expanded tokens take the *use-site* span (the macro name, or
through the closing ``)`` of a function-like use) so that all downstream
rewrites land at real positions in the original file.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from ..diagnostics import ParseError
from .lexer import int_literal_value, scan, tokenize
from .source import SourceBuffer, SourceLocation
from .tokens import Token, TokenKind


@dataclass
class MacroDefinition:
    """One ``#define``.  ``params`` is ``None`` for object-like macros."""

    name: str
    body: list[Token]
    params: list[str] | None = None

    @property
    def is_function_like(self) -> bool:
        return self.params is not None


def _lex_fragment(text: str, filename: str) -> list[Token]:
    """Lex a directive fragment; drops the EOF token."""
    return tokenize(text, filename)[:-1]


#: The ``#if`` conditions besides an integer literal.
_DEFINED = re.compile(r"defined(?:\s*\(\s*([^\W\d]\w*)\s*\)|\s+([^\W\d]\w*))")


@dataclass
class _Pending:
    token: Token
    banned: frozenset[str] = frozenset()


_NO_BANS: frozenset[str] = frozenset()
_IDENT, _PRAGMA, _EOF = TokenKind.IDENTIFIER, TokenKind.PRAGMA, TokenKind.EOF


@dataclass
class Preprocessor:
    """Streams preprocessed tokens from a :class:`SourceBuffer`."""

    buffer: SourceBuffer
    predefined: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.macros: dict[str, MacroDefinition] = {}
        self._source = scan(self.buffer)
        self._queue: deque[_Pending] = deque()
        self._cond_stack: list[bool] = []  # active flags of open #if blocks
        self._active = True  # whether every open #if block is taken
        for name, value in self.predefined.items():
            body = _lex_fragment(str(value), f"<predef:{name}>")
            self.macros[name] = MacroDefinition(name, body)

    # -- public API ------------------------------------------------------

    def tokens(self) -> list[Token]:
        """Run the whole buffer through the preprocessor."""
        out: list[Token] = []
        emit = out.append
        macros = self.macros
        for tok in self._source:
            kind = tok.kind
            if kind is _PRAGMA:
                passthrough = self._handle_directive(tok)
                if passthrough is not None:
                    emit(passthrough)
            elif not self._active:
                if kind is _EOF:
                    raise ParseError(
                        f"{self.buffer.filename}: unterminated conditional directive"
                    )
            elif kind is _IDENT and tok.text in macros:
                if not self._try_expand(tok, _NO_BANS):
                    emit(tok)
                if self._drain(emit):
                    return out
            else:
                emit(tok)
                if kind is _EOF:
                    return out
        raise AssertionError("the scan ended without an EOF token")

    def _drain(self, emit: Callable[[Token], None]) -> bool:
        """Emit the expansion queue, expanding as it goes; True once it
        emits EOF.

        A directive the scan produced (the token a bare function-like
        macro name peeked at, see :meth:`_collect_macro_args`) is
        processed; a ``#`` line inside a macro body is emitted as is.
        """
        queue = self._queue
        macros = self.macros
        while queue:
            pending = queue.popleft()
            tok = pending.token
            if tok.kind is _PRAGMA and tok.expanded_from is None:
                passthrough = self._handle_directive(tok)
                if passthrough is not None:
                    emit(passthrough)
                continue
            if (
                tok.kind is _IDENT
                and tok.text in macros
                and self._try_expand(tok, pending.banned)
            ):
                continue
            emit(tok)
            if tok.kind is _EOF:
                return True
        return False

    # -- macro expansion --------------------------------------------------

    def _try_expand(self, tok: Token, banned: frozenset[str]) -> bool:
        """Expand ``tok`` if it names a macro; returns True if it did."""
        macro = self.macros.get(tok.text)
        if macro is None or tok.text in banned:
            return False
        if macro.is_function_like:
            collected = self._collect_macro_args(macro, banned)
            if collected is None:
                return False  # bare use of a function-like macro name
            args, end = collected
            expansion = self._substitute(macro, args)
        else:
            expansion = macro.body
            end = tok.end_offset
        new_banned = banned | {macro.name}
        begin = tok.offset
        replaced = [
            _Pending(
                Token(t.kind, t.text, begin, end, t.value, macro.name),
                new_banned,
            )
            for t in expansion
        ]
        self._queue.extendleft(reversed(replaced))
        return True

    def _peek_pending_or_lex(self) -> Token:
        if self._queue:
            return self._queue[0].token
        tok = next(self._source)
        self._queue.append(_Pending(tok))
        return tok

    def _pop_pending(self) -> _Pending:
        if self._queue:
            return self._queue.popleft()
        return _Pending(next(self._source))

    def _collect_macro_args(
        self, macro: MacroDefinition, banned: frozenset[str]
    ) -> tuple[list[list[Token]], int] | None:
        """The arguments of a function-like use and the end offset of
        its closing ``)``; None when no ``(`` follows the name.  The
        token peeked for the ``(`` stays queued, and :meth:`_drain`
        processes it like the main loop would."""
        nxt = self._peek_pending_or_lex()
        if nxt.kind is not TokenKind.LPAREN:
            return None
        self._pop_pending()  # '('
        args: list[list[Token]] = [[]]
        depth = 1
        while True:
            pending = self._pop_pending()
            tok = pending.token
            if tok.kind is TokenKind.EOF:
                raise ParseError(
                    f"unterminated arguments for macro {macro.name!r} at "
                    f"{self._where(tok)}"
                )
            if tok.kind is TokenKind.LPAREN:
                depth += 1
            elif tok.kind is TokenKind.RPAREN:
                depth -= 1
                if depth == 0:
                    break
            elif tok.kind is TokenKind.COMMA and depth == 1:
                args.append([])
                continue
            args[-1].append(tok)
        if args == [[]] and not macro.params:
            args = []
        if len(args) != len(macro.params or []):
            raise ParseError(
                f"macro {macro.name!r} expects {len(macro.params or [])} args,"
                f" got {len(args)}"
            )
        return args, tok.end_offset

    @staticmethod
    def _substitute(macro: MacroDefinition, args: list[list[Token]]) -> list[Token]:
        by_name = dict(zip(macro.params or [], args))
        out: list[Token] = []
        for tok in macro.body:
            if tok.kind is TokenKind.IDENTIFIER and tok.text in by_name:
                out.extend(by_name[tok.text])
            else:
                out.append(tok)
        return out

    # -- directives -------------------------------------------------------

    def _handle_directive(self, tok: Token) -> Token | None:
        """Process one ``#...`` logical line; returns a token to emit or None."""
        body = str(tok.value or "").lstrip("#").strip()
        if not body:
            return None
        head, *tail = body.split(None, 1)
        rest = tail[0] if tail else ""

        # Conditional directives are processed even in inactive regions.
        if head == "ifdef":
            self._open(self._active and self._macro_name(head, rest, tok) in self.macros)
            return None
        if head == "ifndef":
            self._open(
                self._active and self._macro_name(head, rest, tok) not in self.macros
            )
            return None
        if head == "if":
            self._open(self._active and self._eval_condition(rest, tok))
            return None
        if head == "else":
            if not self._cond_stack:
                raise ParseError(f"#else without #if at {self._where(tok)}")
            prev = self._cond_stack.pop()
            self._active = all(self._cond_stack)
            self._open(self._active and not prev)
            return None
        if head == "endif":
            if not self._cond_stack:
                raise ParseError(f"#endif without #if at {self._where(tok)}")
            self._cond_stack.pop()
            self._active = all(self._cond_stack)
            return None

        if not self._active:
            return None

        if head == "define":
            self._handle_define(rest, tok)
            return None
        if head == "undef":
            self.macros.pop(self._macro_name(head, rest, tok), None)
            return None
        if head == "include":
            return None  # single-TU analysis, like OMPDart
        if head == "pragma":
            kind = rest.split(None, 1)[0] if rest else ""
            if kind == "omp":
                return tok  # parser consumes OpenMP pragmas
            return None
        raise ParseError(
            f"unsupported preprocessor directive #{head} at {self._where(tok)}"
        )

    def _open(self, taken: bool) -> None:
        """Enter an ``#if`` block; ``taken`` already includes the
        enclosing blocks'."""
        self._cond_stack.append(taken)
        self._active = taken

    def _macro_name(self, head: str, rest: str, tok: Token) -> str:
        """The macro an ``#ifdef``/``#ifndef``/``#undef`` names."""
        if not rest:
            raise ParseError(f"#{head} without a macro name at {self._where(tok)}")
        return rest.split(None, 1)[0]

    def _where(self, tok: Token) -> SourceLocation:
        """``tok``'s position, rendered for an error message."""
        return self.buffer.location(tok.offset)

    def _eval_condition(self, expr: str, tok: Token) -> bool:
        expr = expr.strip()
        defined = _DEFINED.fullmatch(expr)
        if defined is not None:
            return (defined.group(1) or defined.group(2)) in self.macros
        try:
            return int_literal_value(expr) != 0
        except ValueError as exc:
            raise ParseError(
                f"unsupported #if condition {expr!r} at {self._where(tok)} "
                f"({exc}; only integer literals and defined(NAME) are "
                "supported)"
            ) from None

    def _handle_define(self, rest: str, tok: Token) -> None:
        if not rest:
            raise ParseError(f"empty #define at {self._where(tok)}")
        # Function-like only when '(' directly follows the name.
        name_end = 0
        while name_end < len(rest) and (rest[name_end].isalnum() or rest[name_end] == "_"):
            name_end += 1
        name = rest[:name_end]
        if not name:
            raise ParseError(f"malformed #define at {self._where(tok)}")
        params: list[str] | None = None
        body_text = rest[name_end:]
        if body_text.startswith("("):
            close = body_text.find(")")
            if close == -1:
                raise ParseError(
                    f"malformed function-like macro at {self._where(tok)}"
                )
            param_text = body_text[1:close].strip()
            params = [p.strip() for p in param_text.split(",")] if param_text else []
            body_text = body_text[close + 1 :]
        body = _lex_fragment(body_text.strip(), f"<define:{name}>")
        self.macros[name] = MacroDefinition(name, body, params)


def preprocess(
    text: str,
    filename: str = "<input>",
    predefined: dict[str, object] | None = None,
) -> tuple[list[Token], SourceBuffer]:
    """Preprocess ``text``; returns (tokens incl. EOF, original buffer)."""
    buffer = SourceBuffer(text, filename)
    pp = Preprocessor(buffer, predefined or {})
    return pp.tokens(), buffer
