"""Mapping decision logic: dataflow facts -> directive plan (section IV-D).

Per tracked variable the planner decides between the Table II constructs:

* read-only scalars become ``firstprivate`` clauses on each kernel that
  reads them — the specialized optimization the paper verifies against
  clang/gcc/icx (fewer CUDA memcpys than ``map(to:)``);
* variables whose first device use can be served at region entry get
  ``to``; variables the device writes that are later read on the host
  (or escape the function) get ``from``; both combine to ``tofrom``;
  device-only scratch gets ``alloc``;
* remaining true dependencies become ``target update to/from``
  directives at the positions chosen by the placement analysis;
* variables owned by kernel ``reduction`` clauses are left to the
  OpenMP reduction machinery and excluded from the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.alias import verify_disambiguation
from ..analysis.effects import InterproceduralAnalysis
from ..analysis.liveness import escaping_variables
from ..analysis.placement import (
    PlacementAnalysis,
    PlacementKind,
    UpdatePosition,
)
from ..analysis.validity import (
    Direction,
    ValidityAnalysis,
    variables_of_interest,
)
from ..cfg.astcfg import ASTCFG
from ..diagnostics import Diagnostic, Severity
from ..frontend import ast_nodes as A
from .directives import (
    FirstprivateSpec,
    FunctionPlan,
    MapSpec,
    MapType,
    UpdateSpec,
)
from .region import check_declarations_precede_region, compute_region


@dataclass
class PlannerOutput:
    """Plan plus diagnostics for one function.

    The ``plan`` artifact record keeps it, so it holds nothing that
    points into the CFG: the validity tables and placements stay local
    to :func:`plan_function`.
    """

    plan: FunctionPlan | None
    diagnostics: list[Diagnostic] = field(default_factory=list)


def _reduction_vars(kernels: list[A.OMPExecutableDirective]) -> set[str]:
    out: set[str] = set()
    for kernel in kernels:
        for clause in kernel.clauses_of(A.OMPReductionClause):
            out.update(clause.var_names())
    return out


def _is_scalar_var(facts_decl: A.Decl | None) -> bool:
    if isinstance(facts_decl, A.VarDecl):
        qt = facts_decl.qual_type
        return qt.is_scalar and not qt.is_pointer
    return False


def plan_function(
    astcfg: ASTCFG,
    tu: A.TranslationUnit,
    effects: InterproceduralAnalysis,
    kernels: list[A.OMPExecutableDirective],
) -> PlannerOutput:
    """Produce the directive plan for one function, or None without kernels.

    ``kernels`` is the function's :meth:`ASTCFG.kernel_directives`.
    """
    if not kernels:
        return PlannerOutput(None)

    diagnostics: list[Diagnostic] = []
    tracked = variables_of_interest(astcfg, effects)
    region = compute_region(astcfg, kernels)

    # Alias disambiguation for kernel-referenced pointers (section VII).
    pointer_vars = _pointer_vars(astcfg.function, tu, tracked)
    verify_disambiguation(astcfg.function, tu, pointer_vars)

    validity = ValidityAnalysis(astcfg, effects, tracked).run()
    placer = PlacementAnalysis(
        astcfg, validity, region.begin_offset, region.end_offset
    )
    placements = placer.place_all()

    reduction = _reduction_vars(kernels) & tracked
    escaping = escaping_variables(astcfg.function, tu)

    # -- firstprivate: read-only scalars ------------------------------------
    firstprivate_vars: set[str] = set()
    for name in sorted(tracked - reduction):
        fact = validity.facts.get(name)
        if fact is None or not fact.used_on_device:
            continue
        if _is_scalar_var(fact.decl) and not fact.device_writes:
            firstprivate_vars.add(name)

    fp_specs: list[FirstprivateSpec] = []
    for kernel in kernels:
        used_here = sorted(
            name for name in firstprivate_vars
            if kernel.node_id in validity.facts[name].kernel_access
        )
        if used_here:
            fp_specs.append(FirstprivateSpec(kernel, tuple(used_here)))

    # -- map types + updates -------------------------------------------------
    mapped_vars = {
        name for name in tracked - reduction - firstprivate_vars
        if validity.facts.get(name) is not None
        and validity.facts[name].used_on_device
    }

    # The declaration-placement rule (section IV-D) applies to variables
    # that end up in the region's map clauses; firstprivate scalars and
    # reduction variables travel with each kernel and are exempt.
    diagnostics.extend(
        check_declarations_precede_region(astcfg, region, mapped_vars, kernels)
    )
    if any(d.severity >= Severity.ERROR for d in diagnostics):
        return PlannerOutput(None, diagnostics)

    to_vars: set[str] = set()
    from_vars: set[str] = set()
    update_specs: list[UpdateSpec] = []
    seen_updates: set[tuple[str, str, int, str]] = set()

    for placement in placements:
        name = placement.var
        if name not in mapped_vars:
            continue  # satisfied by firstprivate / reduction semantics
        if placement.kind is PlacementKind.REGION_ENTRY:
            to_vars.add(name)
        elif placement.kind is PlacementKind.REGION_EXIT:
            from_vars.add(name)
        else:
            direction = "to" if placement.direction is Direction.HTOD else "from"
            anchor = placement.anchor
            assert anchor is not None
            position = {
                UpdatePosition.BEFORE: "before",
                UpdatePosition.AFTER: "after",
                UpdatePosition.BODY_END: "body-end",
            }[placement.position]
            key = (name, direction, anchor.node_id, position)
            if key not in seen_updates:
                seen_updates.add(key)
                update_specs.append(UpdateSpec(name, direction, anchor, position))

    # Escaping variables (globals, pointer-parameter data) may be read
    # beyond this function; if the host copy can be stale when the
    # function returns, region exit must copy back.  The fixpoint state
    # at the CFG exit already accounts for in-region update-from
    # directives, so a variable refreshed on the host after its last
    # device write does not get a redundant `from` — this is exactly the
    # redundancy the paper found in lulesh's expert mappings.
    exit_host = validity.host_valid_in(astcfg.cfg.exit)
    for name in sorted(mapped_vars):
        fact = validity.facts[name]
        if fact.device_writes and name in escaping \
                and not exit_host & validity.bits[name]:
            from_vars.add(name)

    maps = [
        MapSpec(name, MapType.combine(name in to_vars, name in from_vars))
        for name in sorted(mapped_vars)
    ]

    plan = FunctionPlan(
        function=astcfg.function,
        region=region,
        maps=maps,
        updates=update_specs,
        firstprivates=fp_specs,
        reduction_vars=tuple(sorted(reduction)),
    )
    return PlannerOutput(plan, diagnostics)


def _pointer_vars(
    fn: A.FunctionDecl, tu: A.TranslationUnit, tracked: set[str]
) -> set[str]:
    """Tracked variables of pointer type (targets of alias checking)."""
    types: dict[str, A.VarDecl] = {}
    for decl in fn.walk_instances(A.VarDecl):
        types.setdefault(decl.name, decl)
    for decl in tu.global_vars():
        types.setdefault(decl.name, decl)
    out: set[str] = set()
    for name in tracked:
        decl = types.get(name)
        if decl is not None and decl.qual_type.is_pointer:
            out.add(name)
    return out
