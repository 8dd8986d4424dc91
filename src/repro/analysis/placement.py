"""Placement of transfer-satisfying constructs (paper sections IV-D/IV-E).

Given a :class:`~repro.analysis.validity.TransferNeed`, decide where the
satisfying construct goes:

* hoisted all the way to the target data region boundary — the need is
  satisfied by the region's ``map(to:)`` clause (HtoD) or ``map(from:)``
  (DtoH after the region);
* before an enclosing loop — when the loop carries no dependency for
  the variable ("we can safely map the data at a location prior to the
  loop");
* inside the loop, directly at the reading statement — when the source
  copy is re-written every iteration (a loop-carried dependency);
* at the end of a loop body — the do/while-conditional special cases of
  section IV-F.

Hoisting out of a loop L is legal iff no node of L writes the variable
in the *source* memory space: one transfer before L then keeps both
copies consistent for every iteration.  This subsumes Algorithm 1's
``locLim`` bound — a producing kernel inside the hoist range is a
source-space write and blocks the hoist.  Algorithm 1 itself
(:func:`~repro.analysis.bounds.find_update_insert_loc`) provides the
access-pattern view used for nested host loops.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

from ..cfg.astcfg import ASTCFG
from ..cfg.graph import CFGNode, LoopInfo, NodeKind
from ..frontend import ast_nodes as A
from .bounds import find_update_insert_loc
from .validity import Direction, Space, TransferNeed, ValidityResult


class PlacementKind(enum.Enum):
    #: satisfied by the region's map(to:) clause at region entry
    REGION_ENTRY = "region-entry"
    #: satisfied by the region's map(from:) clause at region exit
    REGION_EXIT = "region-exit"
    #: a target update directive at a specific statement
    UPDATE = "update"


class UpdatePosition(enum.Enum):
    BEFORE = "before"
    AFTER = "after"
    BODY_END = "body-end"


@dataclass
class Placement:
    """Resolved location for one transfer need."""

    need: TransferNeed
    kind: PlacementKind
    #: For UPDATE: the statement the directive is placed relative to.
    anchor: A.Node | None = None
    position: UpdatePosition = UpdatePosition.BEFORE
    #: Loops the construct was hoisted out of (for reporting/tests).
    hoisted_out_of: tuple[A.LoopStmt, ...] = ()

    @property
    def var(self) -> str:
        return self.need.var

    @property
    def direction(self) -> Direction:
        return self.need.direction


class PlacementAnalysis:
    """Places every transfer need of one function."""

    def __init__(
        self,
        astcfg: ASTCFG,
        result: ValidityResult,
        region_begin: int,
        region_end: int,
    ):
        self.astcfg = astcfg
        self.cfg = astcfg.cfg
        self.result = result
        self.region_begin = region_begin
        self.region_end = region_end
        self._loop_by_stmt: dict[int, LoopInfo] = {
            info.stmt.node_id: info for info in self.cfg.loops
        }

    # -- queries ------------------------------------------------------------

    def _writes_in_loop(self, var: str, space: Space, loop: A.LoopStmt) -> bool:
        """Does any node of ``loop`` write ``var`` in ``space``?"""
        info = self._loop_by_stmt.get(loop.node_id)
        if info is None:
            return True  # unknown loop structure: be pessimistic
        return self._writes(var, space, info.nodes)

    def _writes_in_region_before(self, var: str, space: Space, offset: int) -> bool:
        """Any ``space`` write to ``var`` between region start and ``offset``?"""
        return self._writes(var, space, (
            node for node in self.cfg.nodes
            if node.ast is not None
            and self.region_begin <= node.ast.begin_offset < offset
        ))

    def _writes(self, var: str, space: Space, nodes: Iterable[CFGNode]) -> bool:
        """Does any of ``nodes`` write ``var`` in ``space``?"""
        bit = self.result.bits[var]
        device = space is Space.DEVICE
        write_masks = self.result.write_masks
        return any(
            node.offloaded == device and write_masks.get(node.node_id, 0) & bit
            for node in nodes
        )

    # -- placement ------------------------------------------------------------

    def place(self, need: TransferNeed) -> Placement:
        # After-region host reads are satisfied by map(from:) at exit.
        if (
            need.direction is Direction.DTOH
            and need.node.ast is not None
            and need.node.ast.begin_offset >= self.region_end
        ):
            return Placement(need, PlacementKind.REGION_EXIT)

        anchor = self._anchor_stmt(need)
        source = need.direction.source

        # Loop-conditional reads (section IV-F special cases).  A stale
        # read in a loop's own condition must be refreshed inside the
        # loop when the loop body re-invalidates the data each
        # iteration; `do` conditionals sit at the end of the body, so
        # their update always goes there.
        if (
            need.direction is Direction.DTOH
            and need.node.kind is NodeKind.PRED
            and isinstance(anchor, A.LoopStmt)
        ):
            if isinstance(anchor, A.DoStmt) or self._writes_in_loop(
                need.var, source, anchor
            ):
                return Placement(
                    need, PlacementKind.UPDATE, anchor, UpdatePosition.BODY_END
                )
            # Otherwise one update before the loop serves all iterations;
            # fall through to the hoist chain with pos = the loop itself.

        hoisted: list[A.LoopStmt] = []
        pos: A.Node = anchor
        blocked = False
        for loop in self._enclosing_loops(anchor):
            if loop.begin_offset < self.region_begin:
                break
            if self._writes_in_loop(need.var, source, loop):
                blocked = True  # loop-carried dependency: stay inside
                break
            hoisted.append(loop)
            pos = loop

        if need.direction is Direction.HTOD:
            # Promote to map(to:) when hoisting reached the region level
            # (no loop-carried dependency below) AND the host copy is
            # unchanged between region entry and the hoisted position.
            # The `blocked` check matters: a source-space write later in
            # the loop body still precedes the read via the back edge,
            # which a pure offset comparison would miss.
            if not blocked and not self._writes_in_region_before(
                need.var, Space.HOST, pos.begin_offset
            ):
                return Placement(
                    need, PlacementKind.REGION_ENTRY, hoisted_out_of=tuple(hoisted)
                )
            return Placement(
                need, PlacementKind.UPDATE, pos, UpdatePosition.BEFORE,
                tuple(hoisted),
            )

        # DtoH inside the region: an update from before the reader.
        return Placement(
            need, PlacementKind.UPDATE, pos, UpdatePosition.BEFORE, tuple(hoisted)
        )

    def place_all(self) -> list[Placement]:
        return [self.place(need) for need in self.result.needs]

    # -- helpers ------------------------------------------------------------

    def _anchor_stmt(self, need: TransferNeed) -> A.Node:
        """The host-level statement the transfer must precede.

        Needs inside a kernel anchor at the kernel directive (an update
        cannot be placed inside device code); host needs anchor at their
        own statement.
        """
        if need.node.offloaded and need.kernel is not None:
            return need.kernel
        assert need.node.ast is not None
        return need.node.ast

    def _enclosing_loops(self, stmt: A.Node) -> list[A.LoopStmt]:
        """Host-side loops around ``stmt``, innermost first.

        Uses Algorithm 1's stack orientation.  Loops inside offload
        kernels never appear because anchors are host-level statements.
        """
        return A.enclosing_loops(stmt)

    def algorithm1_position(self, need: TransferNeed) -> A.Node | None:
        """The pure Algorithm 1 answer for an array-access need.

        Exposed for the evaluation harness: on the paper's Listing 6
        pattern this agrees with :meth:`place`.
        """
        if need.access is None or need.access.subscript is None:
            return None
        loops = [
            loop for loop in self._enclosing_loops(self._anchor_stmt(need))
            if isinstance(loop, A.ForStmt)
        ]
        loc_lim = self.region_begin
        return find_update_insert_loc(need.access.subscript, loops, loc_lim)
