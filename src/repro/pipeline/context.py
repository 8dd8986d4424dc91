"""Shared state threaded through the pass pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..diagnostics import Diagnostic

#: Cache-event labels recorded per pass.
HIT = "hit"
MISS = "miss"


@dataclass
class ToolOptions:
    """Knobs for the driver (defaults reproduce the paper's behaviour)."""

    #: Predefined macros handed to the preprocessor (like -DN=...).
    predefined_macros: dict[str, object] = field(default_factory=dict)
    #: When False, diagnostics of WARNING severity do not fail the run.
    werror: bool = False

    def fingerprint_parts(self) -> tuple[Any, ...]:
        """The option values that affect pipeline artifacts."""
        return (sorted(self.predefined_macros.items()), self.werror)


@dataclass
class PipelineContext:
    """One translation unit's trip through the pass manager.

    Passes read their inputs from :attr:`artifacts` (keyed by the
    producing pass's name) and return their own artifact; the manager
    stores it back, so a pass body never touches the cache directly.
    """

    source: str
    filename: str
    options: ToolOptions
    #: pass name -> artifact produced by that pass.
    artifacts: dict[str, Any] = field(default_factory=dict)
    #: Diagnostics accumulated across passes, in pass order.
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: pass name -> wall-clock seconds spent (cache hits included).
    timings: dict[str, float] = field(default_factory=dict)
    #: pass name -> "hit" | "miss".
    cache_events: dict[str, str] = field(default_factory=dict)
    #: pass name -> tier of the record that served a hit: "memory" |
    #: "disk".
    cache_origins: dict[str, str] = field(default_factory=dict)
    #: Uncached pass-to-pass handoff (e.g. the fused-scan prep the
    #: constraints pass leaves for the effects pass).  Never part of
    #: any artifact or cache key.
    scratch: dict[str, Any] = field(default_factory=dict)

    def artifact(self, pass_name: str) -> Any:
        try:
            return self.artifacts[pass_name]
        except KeyError:
            raise KeyError(
                f"pass {pass_name!r} has not produced an artifact yet"
            ) from None
