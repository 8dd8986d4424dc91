"""Tool-level input validation (paper section IV-A)."""

from __future__ import annotations

from ..diagnostics import Diagnostic, Severity
from ..frontend import ast_nodes as A


def data_management_diagnostic(node: A.OMPExecutableDirective) -> Diagnostic:
    """The constraint-violation diagnostic for one offending directive.

    Shared by the legacy whole-walk check below and the fused
    single-walk scan (:mod:`repro.analysis.fused`) so both paths emit
    byte-identical messages.
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


def check_input_constraints(tu: A.TranslationUnit) -> list[Diagnostic]:
    """Validate OMPDart's input contract.

    "The expected input is valid C/C++ source code with OpenMP
    offloading directives.  This code should not include any instances
    of target data or target update directives."
    """
    diagnostics: list[Diagnostic] = []
    for node in tu.walk():
        if isinstance(node, A.DATA_MANAGEMENT_DIRECTIVES):
            diagnostics.append(data_management_diagnostic(node))
    return diagnostics


def has_offload_kernels(tu: A.TranslationUnit) -> bool:
    return any(A.is_offload_kernel(n) for n in tu.walk())
