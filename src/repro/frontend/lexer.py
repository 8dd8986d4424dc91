"""One-scan regex lexer for the mini-C subset.

Design notes
------------
* :func:`scan` walks a buffer in one loop over one compiled alternation
  (:data:`_SCAN`).  Each match is a token together with the trivia in
  front of it (whitespace, comments, line splices and newlines), so the
  loop turns once per token and calls no method of its own.  The
  winning group's index picks the :class:`TokenKind` (punctuators
  through the :data:`_PUNCT_KINDS` spelling table); maximal munch
  happens inside the regex engine.
* :func:`scan` is a generator that the preprocessor pulls from, so a
  lexical error surfaces only when the pump reaches it: an earlier
  directive error is still the one reported.  :func:`tokenize` is
  ``list()`` of it.
* Every token records its byte span in the *original* buffer as two
  ints; the rewriter depends on this.  Line and column are left to the
  buffer, which computes them only when an error message renders one.
* A ``#`` opens a preprocessor directive (``#define``, ``#include``,
  ``#pragma`` ...) only at the start of a line: after a bare newline
  in its trivia, or at the start of the buffer.  A newline inside a
  block comment or a ``\\``-splice does not count.  The directive is
  lexed as one logical line and returned as a single
  :data:`TokenKind.PRAGMA` token whose ``value`` holds the directive
  body, with splices and comments collapsed.  The preprocessor decides
  what to do with it; only ``#pragma omp`` survives to the parser.
* Comments are skipped but their bytes stay in the buffer, so offsets of
  the surrounding tokens are unaffected.
"""

from __future__ import annotations

import re
from typing import Iterator

from ..diagnostics import ParseError
from .source import SourceBuffer
from .tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
}

#: Punctuators longest-first so alternation order preserves maximal
#: munch, then interned back to their TokenKind by spelling.
_PUNCT_KINDS: dict[str, TokenKind] = {s: k for s, k in PUNCTUATORS}

_SCAN = re.compile(
    # Trivia before the token.  A bare newline is captured as NL, which
    # is how a ``#`` knows it starts a line.  The possessive ``*+``
    # never backtracks into the trivia, which the regex engine runs
    # faster.
    r"(?:[ \t\r\f\v]+|//[^\n]*|/\*.*?\*/|\\\n|(?P<NL>\n))*+"
    r"(?:"
    # Identifiers / keywords (unicode letters + underscore).
    r"(?P<ID>[^\W\d]\w*)"
    # A terminated block comment would have been trivia.
    r"|(?P<OPEN_COMMENT>/\*)"
    # Punctuators but ``.``, which must not shadow a float like ``.5``.
    r"|(?P<PUNCT>"
    + "|".join(re.escape(s) for s, _ in PUNCTUATORS if s != ".")
    + r")"
    # Hex integers; the [uUlL] suffix is part of the token text but not
    # the value.
    r"|(?P<HEX>0[xX][0-9a-fA-F]+[uUlL]*)"
    # Floats: digits.digits / .digits / digits-with-exponent, each with
    # an optional one-char [fFlL] suffix — plus the bare int-with-f
    # form (``2f``).  The (?!\.) keeps ``1..2`` lexing as INT DOT
    # FLOAT, and exponents require a digit so ``1e+x`` stays INT ID.
    r"|(?P<FLOAT>(?:\d+\.(?!\.)\d*(?:[eE][+-]?\d+)?"
    r"|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+[eE][+-]?\d+)[fFlL]?"
    r"|\d+[fF])"
    r"|(?P<INT>\d+[uUlL]*)"
    # A ``.`` that does not start a float.
    r"|(?P<DOT>\.)"
    # One-line string/char literals; \\. (DOTALL) admits escaped
    # newlines while a bare newline stays a lexing error.
    r'|(?P<STR>"(?:\\.|[^"\\\n])*")'
    r"|(?P<CHR>'(?:\\.|[^'\\])')"
    # A directive's logical line: splices and terminated block comments
    # continue it, a line comment ends it.  It stops short of a block
    # comment that never closes, which the scan reports.
    r"|(?P<DIRECTIVE>#(?:[^\n\\/]+|\\\n?|/\*.*?\*/|/(?![/*]))*(?://[^\n]*)?)"
    r"|(?P<EOF>\Z)"
    r"|(?P<ERROR>.)"
    r")",
    re.DOTALL,
)

_GROUP = _SCAN.groupindex
_NL, _ID, _PUNCT, _HEX, _FLOAT, _INT, _DOT, _STR, _CHR = (
    _GROUP[name]
    for name in ("NL", "ID", "PUNCT", "HEX", "FLOAT", "INT", "DOT", "STR", "CHR")
)
_DIRECTIVE, _OPEN_COMMENT, _EOF = (
    _GROUP[name] for name in ("DIRECTIVE", "OPEN_COMMENT", "EOF")
)

#: The parts of a directive's text its body drops: a splice or a block
#: comment becomes one space, a line comment nothing.
_DIRECTIVE_TRIVIA = re.compile(r"\\\n|/\*.*?\*/|//[^\n]*", re.DOTALL)


def _directive_space(m: re.Match[str]) -> str:
    return "" if m.group().startswith("//") else " "


def _decode_escapes(body: str) -> str:
    """Decode backslash escapes the way the char-scanner did."""
    if "\\" not in body:
        return body
    out: list[str] = []
    i, n = 0, len(body)
    while i < n:
        ch = body[i]
        if ch == "\\" and i + 1 < n:
            esc = body[i + 1]
            out.append(_ESCAPES.get(esc, esc))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _error(buffer: SourceBuffer, offset: int, message: str) -> ParseError:
    return ParseError(f"{buffer.location(offset)}: {message}")


def scan(buffer: SourceBuffer) -> Iterator[Token]:
    """Yield ``buffer``'s tokens, ending with one EOF token.

    A lexical error raises :class:`ParseError` when the scan reaches it.
    """
    text = buffer.text
    keywords = KEYWORDS
    punct_kinds = _PUNCT_KINDS
    keyword, identifier = TokenKind.KEYWORD, TokenKind.IDENTIFIER
    last = -1
    for m in _SCAN.finditer(text):
        group = m.lastindex
        start, end = m.span(group)
        if start == last:
            # A token that abuts the previous one shares its end-offset
            # int, which keeps token lists about 7 % smaller.
            start = last
        last = end
        if group == _ID:
            word = text[start:end]
            yield Token(
                keyword if word in keywords else identifier, word, start, end
            )
        elif group == _PUNCT:
            spelling = text[start:end]
            yield Token(punct_kinds[spelling], spelling, start, end)
        elif group == _INT:
            spelling = text[start:end]
            yield Token(
                TokenKind.INT_LITERAL, spelling, start, end,
                int(spelling.rstrip("uUlL"), 10),
            )
        elif group == _DIRECTIVE:
            if m.start(_NL) < 0 and m.start() > 0:
                raise _error(buffer, start, "unexpected character '#'")
            if text.startswith("/*", end):
                raise _error(buffer, end, "unterminated block comment in directive")
            line = text[start:end]
            body = line
            if "\\" in line or "/" in line:
                body = _DIRECTIVE_TRIVIA.sub(_directive_space, line)
            yield Token(TokenKind.PRAGMA, line, start, end, body)
        elif group == _FLOAT:
            spelling = text[start:end]
            digits = spelling[:-1] if spelling[-1] in "fFlL" else spelling
            yield Token(
                TokenKind.FLOAT_LITERAL, spelling, start, end, float(digits)
            )
        elif group == _DOT:
            yield Token(TokenKind.DOT, ".", start, end)
        elif group == _HEX:
            spelling = text[start:end]
            yield Token(
                TokenKind.INT_LITERAL, spelling, start, end,
                int(spelling.rstrip("uUlL"), 16),
            )
        elif group == _STR:
            spelling = text[start:end]
            yield Token(
                TokenKind.STRING_LITERAL, spelling, start, end,
                _decode_escapes(spelling[1:-1]),
            )
        elif group == _CHR:
            spelling = text[start:end]
            body = spelling[1:-1]
            decoded = _ESCAPES.get(body[1], body[1]) if body[0] == "\\" else body[0]
            yield Token(
                TokenKind.CHAR_LITERAL, spelling, start, end,
                ord(decoded) if decoded else 0,
            )
        elif group == _EOF:
            yield Token(TokenKind.EOF, "", start, start)
            return
        elif group == _OPEN_COMMENT:
            raise _error(buffer, start, "unterminated block comment")
        else:  # ERROR
            ch = text[start]
            if ch == '"':
                raise _error(buffer, start, "unterminated string literal")
            if ch == "'":
                raise _error(buffer, start, "unterminated character literal")
            raise _error(buffer, start, f"unexpected character {ch!r}")


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Lex ``text`` into a token list (with EOF)."""
    return list(scan(SourceBuffer(text, filename)))
