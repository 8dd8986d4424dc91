"""Offset-addressed rewrite buffer (the Clang ``Rewriter`` contract).

All edits are expressed against *original* byte offsets; they are
applied in one pass, so earlier insertions never invalidate later
offsets.  Multiple insertions at the same offset keep their submission
order (stable sort).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class _Insertion:
    offset: int
    text: str
    #: Lower priorities render first at equal offsets.
    priority: int
    sequence: int


@dataclass
class RewriteBuffer:
    """Accumulates insertions against an immutable original text."""

    original: str
    _insertions: list[_Insertion] = field(default_factory=list)

    def insert(self, offset: int, text: str, *, priority: int = 0) -> None:
        """Queue ``text`` for insertion at ``offset`` in the original."""
        if not 0 <= offset <= len(self.original):
            raise ValueError(
                f"insertion offset {offset} outside [0, {len(self.original)}]"
            )
        self._insertions.append(
            _Insertion(offset, text, priority, len(self._insertions))
        )

    def insert_before_line(self, offset: int, text: str, *, priority: int = 0) -> None:
        """Insert ``text`` at the start of the line containing ``offset``."""
        self.insert(self.line_start(offset), text, priority=priority)

    # -- coordinate helpers ---------------------------------------------------

    def line_start(self, offset: int) -> int:
        nl = self.original.rfind("\n", 0, offset)
        return nl + 1

    def line_end(self, offset: int) -> int:
        """Offset just past the content of the line containing ``offset``
        (i.e. at the newline, or EOF)."""
        nl = self.original.find("\n", offset)
        return len(self.original) if nl == -1 else nl

    def logical_line_end(self, offset: int) -> int:
        """Like :meth:`line_end` but follows backslash continuations —
        needed to append clauses to multi-line pragmas."""
        end = self.line_end(offset)
        while end < len(self.original) and self.original[end - 1 : end] == "\\":
            end = self.line_end(end + 1)
        return end

    def indentation_at(self, offset: int) -> str:
        """Leading whitespace of the line containing ``offset``."""
        start = self.line_start(offset)
        end = start
        while end < len(self.original) and self.original[end] in " \t":
            end += 1
        return self.original[start:end]

    # -- application ------------------------------------------------------------

    def apply(self) -> str:
        """Render the rewritten text."""
        ordered = sorted(
            self._insertions, key=lambda i: (i.offset, i.priority, i.sequence)
        )
        out: list[str] = []
        cursor = 0
        for ins in ordered:
            out.append(self.original[cursor : ins.offset])
            out.append(ins.text)
            cursor = ins.offset
        out.append(self.original[cursor:])
        return "".join(out)
