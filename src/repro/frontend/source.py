"""Source buffers and rendered locations.

The rewriter (``repro.rewrite``) inserts OpenMP directives into the
*original* source text, so every token and AST node carries byte
offsets into the unmodified input: plain ints, as a Clang
``SourceLocation`` is a 32-bit offset into a ``SourceManager`` buffer.
:class:`SourceBuffer` owns the text and maps an offset to a line and
column only when something renders a position (a diagnostic, an error
message, the AST or CFG dump, the report).  :class:`SourceLocation` is
the value such a rendering gets back.

This mirrors the contract of Clang's ``SourceManager`` at the fidelity
OMPDart needs: a single translation unit, byte-offset addressed.
"""

from __future__ import annotations

import bisect


class SourceBuffer:
    """Immutable view of one translation unit's text."""

    __slots__ = ("text", "filename", "_line_starts")

    def __init__(self, text: str, filename: str = "<input>"):
        self.text = text
        self.filename = filename
        # Offsets at which each line begins, built on the first render.
        self._line_starts: list[int] | None = None

    def __reduce__(self):
        # Text and name only: the line table is rebuilt on demand.
        return (SourceBuffer, (self.text, self.filename))

    def __len__(self) -> int:
        return len(self.text)

    def _starts(self) -> list[int]:
        starts = self._line_starts
        if starts is None:
            starts = [0]
            find = self.text.find
            i = find("\n")
            while i != -1:
                starts.append(i + 1)
                i = find("\n", i + 1)
            self._line_starts = starts
        return starts

    def line_col(self, offset: int) -> tuple[int, int]:
        """Map a byte offset to a 1-based (line, column) pair."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        offset = min(offset, len(self.text))
        starts = self._starts()
        line = bisect.bisect_right(starts, offset)
        return line, offset - starts[line - 1] + 1

    def line_start_offset(self, line: int) -> int:
        """Byte offset at which 1-based ``line`` begins."""
        starts = self._starts()
        if not 1 <= line <= len(starts):
            raise ValueError(f"line {line} out of range")
        return starts[line - 1]

    def line_text(self, line: int) -> str:
        """The text of 1-based ``line`` without its trailing newline."""
        start = self.line_start_offset(line)
        end = self.text.find("\n", start)
        if end == -1:
            end = len(self.text)
        return self.text[start:end]

    @property
    def line_count(self) -> int:
        return len(self._starts())

    def location(self, offset: int) -> "SourceLocation":
        """Render ``offset`` as a file/line/column location."""
        line, col = self.line_col(offset)
        return SourceLocation(offset, line, col, self.filename)


class SourceLocation:
    """A rendered point in the source text: ``file:line:col``.

    Built only by :meth:`SourceBuffer.location` when a position is
    shown to the user; tokens and AST nodes hold plain offsets.
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

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


#: What a synthesized node (no buffer) renders as.
UNKNOWN_LOCATION = SourceLocation(-1, 0, 0, "<unknown>")
