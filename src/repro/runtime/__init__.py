"""Simulated OpenMP offload runtime (GPU + CUDA + nsys substitute).

The re-exports below resolve lazily (PEP 562): ``repro.runtime`` sits
on the CLI's platform-flag path, and an eager ``from .interp import
...`` would drag numpy and the whole simulator into every cold start —
including ``ompdart --version`` and parse-only runs, whose startup
budget is pinned by tests.  Importing a *submodule* directly (``from
repro.runtime.platform import DEFAULT_PLATFORM``) only executes this
docstring and the table, never the siblings.
"""

__all__ = [
    "LCG",
    "c_printf",
    "A100_PCIE4",
    "CostModel",
    "DEFAULT_PLATFORM",
    "PLATFORMS",
    "Platform",
    "get_platform",
    "list_platforms",
    "platform_table",
    "register_platform",
    "resolve_platform",
    "DeviceDataEnvironment",
    "DeviceRuntimeError",
    "Interpreter",
    "Machine",
    "SimulationError",
    "SimulationResult",
    "run_simulation",
    "MemcpyRecord",
    "Profiler",
    "TransferStats",
    "ArrayObject",
    "Cell",
    "Pointer",
    "StructObject",
    "NULL",
]

#: public name -> the submodule that defines it.
_EXPORTS = {
    "LCG": "builtins",
    "c_printf": "builtins",
    "A100_PCIE4": "costmodel",
    "CostModel": "costmodel",
    "DEFAULT_PLATFORM": "platform",
    "PLATFORMS": "platform",
    "Platform": "platform",
    "get_platform": "platform",
    "list_platforms": "platform",
    "platform_table": "platform",
    "register_platform": "platform",
    "resolve_platform": "platform",
    "DeviceDataEnvironment": "device",
    "DeviceRuntimeError": "device",
    "Interpreter": "interp",
    "Machine": "interp",
    "SimulationError": "interp",
    "SimulationResult": "interp",
    "run_simulation": "interp",
    "MemcpyRecord": "profiler",
    "Profiler": "profiler",
    "TransferStats": "profiler",
    "NULL": "values",
    "ArrayObject": "values",
    "Cell": "values",
    "Pointer": "values",
    "StructObject": "values",
}


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(
            f"module 'repro.runtime' has no attribute {name!r}"
        )
    from importlib import import_module

    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
