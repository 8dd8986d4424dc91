"""Tool-level input validation (paper section IV-A)."""

from __future__ import annotations

from ..diagnostics import Diagnostic, Severity
from ..frontend import ast_nodes as A


def data_management_diagnostic(node: A.OMPExecutableDirective) -> Diagnostic:
    """The constraint-violation diagnostic for one offending directive.

    The constraints pass collects these in its fused single-walk scan
    (:mod:`repro.analysis.fused`).
    """
    loc = node.location()
    return Diagnostic(
        Severity.ERROR,
        f"input already contains a '{node.directive_kind}' "
        "directive; OMPDart expects code without target data "
        "or target update constructs (paper section IV-A)",
        filename=loc.filename,
        line=loc.line,
        column=loc.column,
    )
