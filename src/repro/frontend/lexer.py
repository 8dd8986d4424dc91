"""Master-pattern regex lexer for the mini-C subset.

Design notes
------------
* One compiled alternation (:data:`_MASTER`) classifies every token in
  a single ``match`` call; the winning named group maps straight onto
  an interned :class:`TokenKind` (punctuators through the
  :data:`_PUNCT_KINDS` spelling table).  The historical char-at-a-time
  scanner walked the punctuator list per token and re-tested every
  literal class in sequence — the master pattern does the maximal-munch
  work inside the regex engine instead.
* Every token records its byte span in the *original* buffer as two
  ints; the rewriter depends on this.  Line and column are left to the
  buffer, which computes them only when an error message renders one.
* Preprocessor directives (``#define``, ``#include``, ``#pragma`` ...)
  are lexed as one logical line each (backslash-newline splices
  collapsed) and returned as a single :data:`TokenKind.PRAGMA` token
  whose ``value`` holds the directive body.  The preprocessor decides
  what to do with them; only ``#pragma omp`` survives to the parser.
* Comments are skipped but their bytes stay in the buffer, so offsets of
  the surrounding tokens are unaffected.
"""

from __future__ import annotations

import re

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

#: Whitespace, comments, line splices and newlines, matched greedily.
#: Newlines are their own alternative so the line-start flag (which
#: arms ``#``-directive recognition) only flips on a *bare* newline —
#: never on one hidden inside a block comment or a ``\``-splice,
#: matching the historical scanner exactly.
_TRIVIA = re.compile(
    r"[ \t\r\f\v]+"
    r"|//[^\n]*"
    r"|/\*.*?\*/"
    r"|\\\n"
    r"|\n+",
    re.DOTALL,
)

#: Punctuators longest-first so alternation order preserves maximal
#: munch, then interned back to their TokenKind by spelling.
_PUNCT_KINDS: dict[str, TokenKind] = {s: k for s, k in PUNCTUATORS}

_MASTER = re.compile(
    # Identifiers / keywords (unicode letters + underscore, like the
    # historical isalpha()-based scanner).
    r"(?P<ID>[^\W\d]\w*)"
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
    # One-line string/char literals; \\. (DOTALL) admits escaped
    # newlines while a bare newline stays a lexing error.
    r'|(?P<STR>"(?:\\.|[^"\\\n])*")'
    r"|(?P<CHR>'(?:\\.|[^'\\])')"
    r"|(?P<PUNCT>" + "|".join(re.escape(s) for s, _ in PUNCTUATORS) + r")",
    re.DOTALL,
)


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


class Lexer:
    """Tokenizes one :class:`SourceBuffer`.

    Use :meth:`tokenize` for the whole buffer, or drive it token by token
    with :meth:`next_token`.
    """

    def __init__(self, buffer: SourceBuffer):
        self.buffer = buffer
        self.text = buffer.text
        self.pos = 0
        self._at_line_start = True

    # -- helpers ---------------------------------------------------------

    def _error(self, message: str) -> ParseError:
        return ParseError(f"{self.buffer.location(self.pos)}: {message}")

    def _peek(self, ahead: int = 0) -> str:
        """One character of lookahead; NUL (never ``""``) past the end.

        Returning ``""`` would make every ``in "..."`` membership test
        succeed vacuously — a classic lexer bug.
        """
        i = self.pos + ahead
        return self.text[i] if i < len(self.text) else "\0"

    # -- token producers -------------------------------------------------

    def next_token(self) -> Token:
        text = self.text
        pos = self.pos
        at_line_start = self._at_line_start
        trivia = _TRIVIA.match
        while True:
            m = trivia(text, pos)
            if m is None:
                break
            if text[m.start()] == "\n":
                at_line_start = True
            pos = m.end()
        self.pos = pos
        self._at_line_start = at_line_start

        if pos >= len(text):
            return Token(TokenKind.EOF, "", pos, pos)
        ch = text[pos]
        if ch == "/" and text.startswith("/*", pos):
            # A terminated block comment would have been consumed as
            # trivia above; reaching one here means it never closes.
            raise self._error("unterminated block comment")
        if ch == "#" and at_line_start:
            return self._lex_directive(pos)
        self._at_line_start = False

        m = _MASTER.match(text, pos)
        if m is None:
            if ch == '"':
                raise self._error("unterminated string literal")
            if ch == "'":
                raise self._error("unterminated character literal")
            raise self._error(f"unexpected character {ch!r}")
        end = self.pos = m.end()
        tok_text = m.group()
        group = m.lastgroup
        if group == "ID":
            kind = TokenKind.KEYWORD if tok_text in KEYWORDS else TokenKind.IDENTIFIER
            value: object = None
        elif group == "PUNCT":
            kind = _PUNCT_KINDS[tok_text]
            value = None
        elif group == "INT":
            kind = TokenKind.INT_LITERAL
            value = int(tok_text.rstrip("uUlL"), 10)
        elif group == "FLOAT":
            kind = TokenKind.FLOAT_LITERAL
            body = tok_text[:-1] if tok_text[-1] in "fFlL" else tok_text
            value = float(body)
        elif group == "HEX":
            kind = TokenKind.INT_LITERAL
            value = int(tok_text.rstrip("uUlL"), 16)
        elif group == "STR":
            kind = TokenKind.STRING_LITERAL
            value = _decode_escapes(tok_text[1:-1])
        else:  # CHR
            kind = TokenKind.CHAR_LITERAL
            body = tok_text[1:-1]
            decoded = _ESCAPES.get(body[1], body[1]) if body[0] == "\\" else body[0]
            value = ord(decoded) if decoded else 0
        return Token(kind, tok_text, pos, end, value)

    def tokenize(self) -> list[Token]:
        """Lex the whole buffer, including the trailing EOF token."""
        out: list[Token] = []
        while True:
            tok = self.next_token()
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out

    def _lex_directive(self, start: int) -> Token:
        """Consume an entire ``#...`` logical line (splices collapsed)."""
        parts: list[str] = []
        n = len(self.text)
        while self.pos < n:
            ch = self.text[self.pos]
            if ch == "\\" and self._peek(1) == "\n":
                self.pos += 2
                parts.append(" ")
                continue
            if ch == "\n":
                break
            # Strip comments inside directive lines.
            if ch == "/" and self._peek(1) == "/":
                while self.pos < n and self.text[self.pos] != "\n":
                    self.pos += 1
                break
            if ch == "/" and self._peek(1) == "*":
                end = self.text.find("*/", self.pos + 2)
                if end == -1:
                    raise self._error("unterminated block comment in directive")
                self.pos = end + 2
                parts.append(" ")
                continue
            parts.append(ch)
            self.pos += 1
        body = "".join(parts)
        return Token(
            TokenKind.PRAGMA, self.text[start : self.pos], start, self.pos, body
        )


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Convenience helper: lex ``text`` into a token list (with EOF)."""
    return Lexer(SourceBuffer(text, filename)).tokenize()
