"""Regenerators for every table and figure of the paper's evaluation."""

from .ascii import format_bytes, render_barchart, render_table  # noqa: F401
from .figures import (  # noqa: F401
    figure3,
    figure4,
    figure5,
    figure6,
    figure_coverage,
    figure_cross_platform,
)
from .perf import SCHEMA, sweep_to_dict  # noqa: F401
from .tables import (  # noqa: F401
    table1,
    table2,
    table3,
    table4,
    table5,
    table5_passes,
)

__all__ = [
    "format_bytes", "render_barchart", "render_table",
    "figure3", "figure4", "figure5", "figure6", "figure_coverage",
    "figure_cross_platform",
    "SCHEMA", "sweep_to_dict",
    "table1", "table2", "table3", "table4", "table5", "table5_passes",
]
