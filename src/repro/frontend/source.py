"""Source buffers and locations.

The rewriter (``repro.rewrite``) inserts OpenMP directives into the
*original* source text, so every token and AST node must carry byte
offsets into the unmodified input.  :class:`SourceBuffer` owns the text
and the offset -> (line, column) mapping; :class:`SourceLocation` and
:class:`SourceRange` are cheap value objects referencing it.

This mirrors the contract of Clang's ``SourceManager`` at the fidelity
OMPDart needs: a single translation unit, byte-offset addressed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import total_ordering


class SourceBuffer:
    """Immutable view of one translation unit's text."""

    __slots__ = ("text", "filename", "_line_starts", "_line_hint")

    def __init__(self, text: str, filename: str = "<input>"):
        self.text = text
        self.filename = filename
        # Offsets at which each line begins; line numbers are 1-based.
        starts = [0]
        find = text.find
        i = find("\n")
        while i != -1:
            starts.append(i + 1)
            i = find("\n", i + 1)
        self._line_starts = starts
        # Last line answered by line_col; the lexer queries offsets in
        # near-monotone order, so the answer is almost always this line
        # or the next one.  Purely a cache — the buffer stays logically
        # immutable.
        self._line_hint = 1

    def __len__(self) -> int:
        return len(self.text)

    def line_col(self, offset: int) -> tuple[int, int]:
        """Map a byte offset to a 1-based (line, column) pair."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        offset = min(offset, len(self.text))
        starts = self._line_starts
        n = len(starts)
        hint = self._line_hint
        if starts[hint - 1] <= offset and (hint == n or offset < starts[hint]):
            line = hint
        elif (
            hint < n
            and starts[hint] <= offset
            and (hint + 1 == n or offset < starts[hint + 1])
        ):
            line = hint + 1
        else:
            line = bisect.bisect_right(starts, offset)
        self._line_hint = line
        col = offset - starts[line - 1] + 1
        return line, col

    def line_start_offset(self, line: int) -> int:
        """Byte offset at which 1-based ``line`` begins."""
        if not 1 <= line <= len(self._line_starts):
            raise ValueError(f"line {line} out of range")
        return self._line_starts[line - 1]

    def line_text(self, line: int) -> str:
        """The text of 1-based ``line`` without its trailing newline."""
        start = self.line_start_offset(line)
        end = self.text.find("\n", start)
        if end == -1:
            end = len(self.text)
        return self.text[start:end]

    @property
    def line_count(self) -> int:
        return len(self._line_starts)

    def location(self, offset: int) -> "SourceLocation":
        line, col = self.line_col(offset)
        return SourceLocation(offset, line, col, self.filename)


@total_ordering
class SourceLocation:
    """A point in the original source text.

    A plain ``__slots__`` value object rather than a (frozen) dataclass:
    one is built for every token the lexer emits, and the dataclass
    ``object.__setattr__`` construction path showed up in frontend
    profiles.  Treat instances as immutable.
    """

    __slots__ = ("offset", "line", "column", "filename")

    def __init__(
        self,
        offset: int,
        line: int,
        column: int,
        filename: str = "<input>",
    ):
        self.offset = offset
        self.line = line
        self.column = column
        self.filename = filename

    def __repr__(self) -> str:
        return (
            f"SourceLocation(offset={self.offset!r}, line={self.line!r}, "
            f"column={self.column!r}, filename={self.filename!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceLocation):
            return NotImplemented
        return self.offset == other.offset

    def __lt__(self, other: "SourceLocation") -> bool:
        return self.offset < other.offset

    def __hash__(self) -> int:
        return hash((self.filename, self.offset))

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __reduce__(self):
        # A constructor call instead of the default slot-state dict:
        # every token and AST node carries locations, so this is most
        # of what a spill record holds.
        return (
            SourceLocation,
            (self.offset, self.line, self.column, self.filename),
        )


#: Sentinel used for synthesized nodes that have no source position.
UNKNOWN_LOCATION = SourceLocation(-1, 0, 0, "<unknown>")


@dataclass(frozen=True)
class SourceRange:
    """Half-open byte range ``[begin, end)`` in the original text."""

    begin: SourceLocation
    end: SourceLocation

    @property
    def begin_offset(self) -> int:
        return self.begin.offset

    @property
    def end_offset(self) -> int:
        return self.end.offset

    def contains(self, other: "SourceRange") -> bool:
        return (
            self.begin_offset <= other.begin_offset
            and other.end_offset <= self.end_offset
        )

    def contains_offset(self, offset: int) -> bool:
        return self.begin_offset <= offset < self.end_offset

    def overlaps(self, other: "SourceRange") -> bool:
        return (
            self.begin_offset < other.end_offset
            and other.begin_offset < self.end_offset
        )

    def __str__(self) -> str:
        return f"<{self.begin}, {self.end}>"


UNKNOWN_RANGE = SourceRange(UNKNOWN_LOCATION, UNKNOWN_LOCATION)
