"""The paper's primary contribution: the OMPDart tool."""

from .directives import (  # noqa: F401
    TABLE_II,
    FirstprivateSpec,
    FunctionPlan,
    MapSpec,
    MapType,
    RegionSpec,
    UpdateSpec,
)
from .planner import PlannerOutput, plan_function  # noqa: F401
from .region import check_declarations_precede_region, compute_region  # noqa: F401

__all__ = [
    "TABLE_II",
    "FirstprivateSpec",
    "FunctionPlan",
    "MapSpec",
    "MapType",
    "RegionSpec",
    "UpdateSpec",
    "PlannerOutput",
    "plan_function",
    "check_declarations_precede_region",
    "compute_region",
    "OMPDart",
    "ToolOptions",
    "TransformResult",
    "transform_source",
]

#: The tool facade resolves lazily (PEP 562): ``core.tool`` sits on top
#: of the pass pipeline, whose stages import this package's analysis
#: modules — an eager import here would be a cycle.
_TOOL_EXPORTS = {"OMPDart", "ToolOptions", "TransformResult", "transform_source"}


def __getattr__(name: str):
    if name in _TOOL_EXPORTS:
        from . import tool

        return getattr(tool, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
