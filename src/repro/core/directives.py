"""The OpenMP constructs OMPDart inserts (paper Table II)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..frontend import ast_nodes as A

#: Paper Table II, verbatim: construct -> description.
TABLE_II: dict[str, str] = {
    "map(to:)": "on region entry copies data from host to device",
    "map(from:)": "on region exit copies data from device to host",
    "map(tofrom:)": (
        "on region entry copies data from host to device and on exit "
        "copies data from device to host"
    ),
    "map(alloc:)": "on region entry allocates memory on device",
    "update to()": "updates data on device with the value from host",
    "update from()": "updates data on host with the value from device",
    "firstprivate()": (
        "on region entry initializes a private copy on the device with "
        "the original value from the host"
    ),
}


class MapType(enum.Enum):
    TO = "to"
    FROM = "from"
    TOFROM = "tofrom"
    ALLOC = "alloc"

    @staticmethod
    def combine(to: bool, frm: bool) -> "MapType":
        if to and frm:
            return MapType.TOFROM
        if to:
            return MapType.TO
        if frm:
            return MapType.FROM
        return MapType.ALLOC


@dataclass(frozen=True)
class MapSpec:
    """One variable's mapping on the function's target data region."""

    var: str
    map_type: MapType
    #: Optional array-section text, e.g. "[0:1024]"; empty = whole var.
    section: str = ""

    def clause_item(self) -> str:
        return f"{self.var}{self.section}"


@dataclass(frozen=True)
class UpdateSpec:
    """One ``target update`` directive to insert."""

    var: str
    #: "to" (host -> device) or "from" (device -> host).
    direction: str
    #: Statement the directive is placed relative to.
    anchor: A.Node
    #: "before" | "after" | "body-end" (loop-conditional special cases).
    position: str = "before"

    def __post_init__(self) -> None:
        if self.direction not in ("to", "from"):
            raise ValueError(f"bad update direction {self.direction!r}")


@dataclass(frozen=True)
class FirstprivateSpec:
    """firstprivate(...) clause appended to one kernel directive."""

    kernel: A.OMPExecutableDirective
    variables: tuple[str, ...]


@dataclass
class RegionSpec:
    """The single target data region of one function (section IV-D)."""

    function_name: str
    #: Top-level statement of the owning block where the region starts.
    first_stmt: A.Stmt
    #: Top-level statement where the region ends.
    last_stmt: A.Stmt
    #: True when the region is exactly one kernel statement, enabling the
    #: rewriter fast path of appending map clauses to the kernel pragma.
    single_kernel: bool

    @property
    def begin_offset(self) -> int:
        return self.first_stmt.begin_offset

    @property
    def end_offset(self) -> int:
        return self.last_stmt.end_offset


@dataclass
class FunctionPlan:
    """Everything the rewriter needs for one function."""

    function: A.FunctionDecl
    region: RegionSpec
    maps: list[MapSpec] = field(default_factory=list)
    updates: list[UpdateSpec] = field(default_factory=list)
    firstprivates: list[FirstprivateSpec] = field(default_factory=list)
    #: Variables excluded because a kernel reduction clause owns them.
    reduction_vars: tuple[str, ...] = ()

    def map_clause_texts(self) -> list[str]:
        """Consolidated ``map(type: a, b)`` clause texts, Table II order."""
        by_type: dict[MapType, list[str]] = {}
        for spec in sorted(self.maps, key=lambda m: m.var):
            by_type.setdefault(spec.map_type, []).append(spec.clause_item())
        out: list[str] = []
        for mt in (MapType.TO, MapType.FROM, MapType.TOFROM, MapType.ALLOC):
            if mt in by_type:
                out.append(f"map({mt.value}: {', '.join(by_type[mt])})")
        return out

    def describe(self) -> str:
        """Human-readable plan summary (used by the CLI report)."""
        lines = [f"function {self.function.name}:"]
        mode = "single-kernel fast path" if self.region.single_kernel else "data region"
        lines.append(
            f"  region ({mode}) spanning offsets "
            f"[{self.region.begin_offset}, {self.region.end_offset})"
        )
        for clause in self.map_clause_texts():
            lines.append(f"  {clause}")
        for upd in self.updates:
            line = upd.anchor.location().line
            lines.append(
                f"  update {upd.direction}({upd.var}) {upd.position} line {line}"
            )
        for fp in self.firstprivates:
            line = fp.kernel.location().line
            lines.append(
                f"  firstprivate({', '.join(fp.variables)}) on kernel at line {line}"
            )
        if self.reduction_vars:
            lines.append(
                "  reduction-managed (not mapped): " + ", ".join(self.reduction_vars)
            )
        return "\n".join(lines)


def count_constructs(plans: "list[FunctionPlan]") -> int:
    """Constructs a plan list inserts (maps count once per clause).

    Shared by ``TransformResult.directive_count()`` and the batch
    driver so both modes report the same number for the same input.
    """
    count = 0
    for plan in plans:
        count += len(plan.map_clause_texts())
        count += len(plan.updates)
        count += len(plan.firstprivates)
    return count
