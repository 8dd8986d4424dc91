"""Shared diagnostic machinery for the OMPDart reproduction.

OMPDart errs on the side of soundness (paper section VII): whenever an
analysis cannot prove a transformation safe it either falls back to a
maximally pessimistic assumption or emits a diagnostic telling the user
what to change (e.g. the declaration-must-precede-region error of section
IV-D).  All stages report their findings as :class:`Diagnostic` records
so callers get a uniform report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.IntEnum):
    """Severity levels, ordered so ``max()`` yields the worst one."""

    NOTE = 0
    REMARK = 1
    WARNING = 2
    ERROR = 3
    FATAL = 4


@dataclass(frozen=True)
class Diagnostic:
    """One analysis finding, tied to a source position when available."""

    severity: Severity
    message: str
    filename: str = "<input>"
    line: int = 0
    column: int = 0

    def render(self) -> str:
        """Format like a compiler diagnostic: ``file:line:col: level: msg``."""
        where = self.filename
        if self.line:
            where += f":{self.line}"
            if self.column:
                where += f":{self.column}"
        return f"{where}: {self.severity.name.lower()}: {self.message}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


class ToolError(Exception):
    """Raised when a stage cannot continue soundly.

    Carries the diagnostics accumulated so far so the CLI and tests can
    show the user exactly what to fix.
    """

    def __init__(self, message: str, diagnostics: list[Diagnostic] | None = None):
        super().__init__(message)
        self.diagnostics: list[Diagnostic] = list(diagnostics or [])


class ParseError(ToolError):
    """Raised by the frontend on malformed input."""


class AnalysisError(ToolError):
    """Raised by the analysis passes on input they cannot handle soundly."""
