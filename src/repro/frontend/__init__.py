"""Mini-C frontend: the Clang LibTooling substrate of this reproduction.

Public surface:

* :func:`parse_source` / :func:`parse_file` — text -> TranslationUnit
* :mod:`repro.frontend.ast_nodes` — the Clang-shaped AST (Table I nodes)
* :func:`dump_ast` — Clang-style AST dump (paper Listing 5)
"""

from .ast_nodes import (  # noqa: F401
    DATA_MANAGEMENT_DIRECTIVES,
    OFFLOAD_KERNEL_DIRECTIVES,
    Node,
    TranslationUnit,
    is_offload_kernel,
)
from .dump import dump_ast  # noqa: F401
from .lexer import scan, tokenize  # noqa: F401
from .parser import Parser, fold_integer_constant, parse_file, parse_source  # noqa: F401
from .preprocessor import Preprocessor, preprocess  # noqa: F401
from .source import SourceBuffer, SourceLocation  # noqa: F401

__all__ = [
    "DATA_MANAGEMENT_DIRECTIVES",
    "OFFLOAD_KERNEL_DIRECTIVES",
    "Node",
    "TranslationUnit",
    "is_offload_kernel",
    "dump_ast",
    "scan",
    "tokenize",
    "Parser",
    "fold_integer_constant",
    "parse_file",
    "parse_source",
    "Preprocessor",
    "preprocess",
    "SourceBuffer",
    "SourceLocation",
]
