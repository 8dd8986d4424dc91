"""Token kinds and the Token value object for the mini-C lexer."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class TokenKind(enum.Enum):
    """Lexical token classes.

    Punctuators use their spelling as the enum value so error messages
    and pragma re-lexing read naturally.
    """

    EOF = "<eof>"
    IDENTIFIER = "<ident>"
    KEYWORD = "<keyword>"
    INT_LITERAL = "<int>"
    FLOAT_LITERAL = "<float>"
    CHAR_LITERAL = "<char>"
    STRING_LITERAL = "<string>"
    PRAGMA = "<pragma>"  # one whole `#pragma ...` logical line

    # Punctuators (value == spelling).
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    ARROW = "->"
    ELLIPSIS = "..."
    QUESTION = "?"
    COLON = ":"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    PLUSPLUS = "++"
    MINUSMINUS = "--"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    EXCLAIM = "!"
    LESS = "<"
    GREATER = ">"
    LESSLESS = "<<"
    GREATERGREATER = ">>"
    LESSEQUAL = "<="
    GREATEREQUAL = ">="
    EQUALEQUAL = "=="
    EXCLAIMEQUAL = "!="
    AMPAMP = "&&"
    PIPEPIPE = "||"
    EQUAL = "="
    PLUSEQUAL = "+="
    MINUSEQUAL = "-="
    STAREQUAL = "*="
    SLASHEQUAL = "/="
    PERCENTEQUAL = "%="
    AMPEQUAL = "&="
    PIPEEQUAL = "|="
    CARETEQUAL = "^="
    LESSLESSEQUAL = "<<="
    GREATERGREATEREQUAL = ">>="


#: Keywords of the supported C subset.  ``restrict`` and storage-class
#: specifiers are accepted (and mostly ignored) so real benchmark sources
#: lex cleanly.
KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for", "goto",
        "if", "inline", "int", "long", "register", "restrict", "return",
        "short", "signed", "sizeof", "static", "struct", "switch",
        "typedef", "union", "unsigned", "void", "volatile", "while",
        "_Bool",
    }
)

#: Token kinds that are lexical classes rather than punctuators.
_META_KINDS = frozenset(
    {
        TokenKind.EOF, TokenKind.IDENTIFIER, TokenKind.KEYWORD,
        TokenKind.INT_LITERAL, TokenKind.FLOAT_LITERAL,
        TokenKind.CHAR_LITERAL, TokenKind.STRING_LITERAL, TokenKind.PRAGMA,
    }
)

#: Punctuators ordered longest-first for maximal munch.
PUNCTUATORS: list[tuple[str, TokenKind]] = sorted(
    ((k.value, k) for k in TokenKind if k not in _META_KINDS),
    key=lambda p: -len(p[0]),
)


@dataclass(slots=True)
class Token:
    """One lexical token, spanning ``[offset, end_offset)``.

    Both are plain byte offsets into the *original* source text; the
    buffer renders them as line and column only when a position is
    shown.  A token produced by macro expansion takes the span of the
    macro use it came from (the identifier, or through the closing
    ``)`` of a function-like use), as Clang's expansion range does, so
    downstream rewrites land in the right place.
    """

    kind: TokenKind
    text: str
    offset: int
    end_offset: int
    #: Parsed value for literals (int/float/str).
    value: object = None
    #: Name of the macro this token was expanded from, if any.
    expanded_from: str | None = field(default=None, repr=False)

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in names

    def is_punct(self, kind: TokenKind) -> bool:
        return self.kind is kind

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r}@{self.offset})"

    def __reduce__(self):
        # A constructor call per token instead of the default slot-state
        # dict: smaller pickles that load faster.
        return (
            Token,
            (self.kind, self.text, self.offset, self.end_offset, self.value,
             self.expanded_from),
        )
