"""Forward validity dataflow over the AST-CFG (paper section IV-D).

"We define data to be valid in a memory space if the data was last
written to in said memory space and invalid or stale if the data was
last written to in any other memory space.  While traversing the CFG,
we track whether a memory space has a valid, up-to-date copy of each
variable at each node."

Lattice: per variable, two booleans (valid-on-host, valid-on-device).
The analysis gives every tracked variable one bit and keeps the whole
lattice as two bit planes per CFG node: a host mask and a device mask,
Python ints whose bit ``i`` says that variable ``i`` has a valid copy
in that space.  TOP is all ones on both planes and the meet is ``&``
on each — a copy is valid at a join only if it is valid on every
incoming path.  A node's accesses reduce once to a gen/kill pair per
plane, ``out = (in & keep) | set``: every access leaves its own space
valid, and a write also kills the other space's copy.  A read that
observes a stale copy is a :class:`TransferNeed` (a true RAW dependency
across memory spaces — anti and output dependencies need no
communication); the transfer function *assumes the transfer happens*,
so downstream state reflects the mapping the tool will insert.

The fixpoint visits loop back edges like any other edge, which realizes
the paper's loop rule: if data must be valid at the top of a loop body,
it must still be valid when the back edge is taken, otherwise the meet
exposes a loop-carried dependency.  Needs and facts are recorded in one
sweep over the fixpoint masks.
"""

from __future__ import annotations

import enum
import heapq
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from ..cfg.astcfg import ASTCFG
from ..cfg.graph import CFGNode, EdgeLabel, NodeKind
from ..frontend import ast_nodes as A
from .access import Access, AccessKind
from .effects import InterproceduralAnalysis


class Space(enum.Enum):
    HOST = "host"
    DEVICE = "device"


class Direction(enum.Enum):
    """Transfer direction, named like the profiler counters."""

    HTOD = "HtoD"
    DTOH = "DtoH"

    @property
    def source(self) -> Space:
        return Space.HOST if self is Direction.HTOD else Space.DEVICE

    @property
    def dest(self) -> Space:
        return Space.DEVICE if self is Direction.HTOD else Space.HOST


@dataclass(frozen=True, eq=False)
class VarState:
    """Validity of one variable's copies.  Immutable; meet returns new.

    There are only four possible states, so every operation hands back
    one of the four module-level instances (:data:`_INTERNED`).
    Equality is structural with an identity fast path (the hand-written
    ``__eq__`` below): interned states hit the ``is`` check, while
    externally-constructed instances still compare by value.
    """

    valid_host: bool = True
    valid_dev: bool = False

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, VarState):
            return NotImplemented
        return (
            self.valid_host == other.valid_host
            and self.valid_dev == other.valid_dev
        )

    def __hash__(self) -> int:
        return hash((self.valid_host, self.valid_dev))

    def meet(self, other: "VarState") -> "VarState":
        if self is other:
            return self
        return _INTERNED[
            self.valid_host and other.valid_host,
            self.valid_dev and other.valid_dev,
        ]

    def valid_in(self, space: Space) -> bool:
        return self.valid_host if space is Space.HOST else self.valid_dev

    def with_valid(self, space: Space, value: bool) -> "VarState":
        if space is Space.HOST:
            return _INTERNED[bool(value), self.valid_dev]
        return _INTERNED[self.valid_host, bool(value)]

    def after_write(self, space: Space) -> "VarState":
        """A write makes its space the only valid one."""
        return ENTRY if space is Space.HOST else _DEVICE_ONLY


#: TOP of the lattice: both copies valid.
TOP = VarState(True, True)
#: Boundary state at function entry: host data valid, device empty.
ENTRY = VarState(True, False)
#: Device copy valid, host stale (state after a device write).
_DEVICE_ONLY = VarState(False, True)
#: Neither copy valid (bottom; reachable only through meets).
_NEITHER = VarState(False, False)
_INTERNED: dict[tuple[bool, bool], VarState] = {
    (True, True): TOP,
    (True, False): ENTRY,
    (False, True): _DEVICE_ONLY,
    (False, False): _NEITHER,
}


def transfer_masks(
    space: Space, effects: Iterable[tuple[int, bool, bool]], full: int
) -> tuple[int, int, int, int]:
    """Reduce one node's ``(bit, reads, writes)`` accesses to its transfer
    function ``(keep_host, set_host, keep_dev, set_dev)``, applied as
    ``out = (in & keep) | set`` per plane.

    Every access that reads or writes leaves its own space valid (a
    stale read because the tool satisfies it in place), and a write
    kills the other space's copy.  Neither step clears a bit of the
    node's own plane, so the accesses commute and the node sets every
    touched bit on its plane and keeps all but the written bits on the
    other.  ``full`` is the all-ones mask of the tracked variables.
    """
    touched = written = 0
    for bit, reads, writes in effects:
        if reads or writes:
            touched |= bit
        if writes:
            written |= bit
    if space is Space.HOST:
        return (full, touched, full ^ written, 0)
    return (full ^ written, 0, full, touched)


@dataclass(frozen=True)
class TransferNeed:
    """A true (RAW) dependency between memory spaces at one CFG node."""

    var: str
    direction: Direction
    node: CFGNode
    #: The triggering access, when a single expression caused it.
    access: Access | None = None
    #: The offload kernel the read occurs in (HtoD needs inside kernels).
    kernel: A.OMPExecutableDirective | None = None

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.var, self.direction.value, self.node.node_id)


@dataclass
class VarFacts:
    """Aggregate facts about one variable across the function."""

    name: str
    decl: A.Decl | None = None
    used_on_device: bool = False
    device_reads: bool = False
    device_writes: bool = False
    host_reads: bool = False
    host_writes: bool = False
    #: kernel directive id -> joined access kind inside that kernel.
    kernel_access: dict[int, AccessKind] = field(default_factory=dict)

    def note(self, space: Space, kind: AccessKind,
             kernel: A.OMPExecutableDirective | None) -> None:
        if space is Space.DEVICE:
            self.used_on_device = True
            self.device_reads |= kind.reads
            self.device_writes |= kind.writes
            if kernel is not None:
                old = self.kernel_access.get(kernel.node_id, AccessKind.NONE)
                self.kernel_access[kernel.node_id] = old.join(kind)
        else:
            self.host_reads |= kind.reads
            self.host_writes |= kind.writes


@dataclass
class ValidityResult:
    """Everything the planner needs from the dataflow."""

    needs: list[TransferNeed]
    facts: dict[str, VarFacts]
    #: Per-node resolved accesses (reached nodes only).
    node_accesses: dict[int, list[Access]]
    #: Tracked variable -> its bit in every mask, in sorted name order.
    bits: dict[str, int]
    #: Reached nodes in fixpoint order; ``index`` maps node id -> position.
    nodes: list[CFGNode]
    index: dict[int, int]
    #: Fixpoint planes entering / leaving ``nodes[i]``.
    in_host: list[int]
    in_dev: list[int]
    out_host: list[int]
    out_dev: list[int]
    #: node id -> variables the node writes, in the node's own space.
    write_masks: dict[int, int]

    @property
    def state_in(self) -> Mapping[CFGNode, dict[str, VarState]]:
        """Fixpoint state *entering* each reached node, decoded per read."""
        return _StateView(self, self.in_host, self.in_dev)

    @property
    def state_out(self) -> Mapping[CFGNode, dict[str, VarState]]:
        """Fixpoint state *leaving* each reached node, decoded per read."""
        return _StateView(self, self.out_host, self.out_dev)

    def host_valid_in(self, node: CFGNode) -> int:
        """Host plane entering ``node``; 0 (nothing known valid) when unreached."""
        i = self.index.get(node.node_id)
        return 0 if i is None else self.in_host[i]


class _StateView(Mapping):
    """Read-only ``{node: {var: VarState}}`` over one pair of planes."""

    __slots__ = ("_result", "_host", "_dev")

    def __init__(self, result: ValidityResult, host: list[int], dev: list[int]):
        self._result = result
        self._host = host
        self._dev = dev

    def __getitem__(self, node: CFGNode) -> dict[str, VarState]:
        result = self._result
        i = result.index.get(getattr(node, "node_id", None))
        if i is None or result.nodes[i] is not node:
            raise KeyError(node)
        host, dev = self._host[i], self._dev[i]
        return {
            var: _INTERNED[bool(host & bit), bool(dev & bit)]
            for var, bit in result.bits.items()
        }

    def __iter__(self) -> Iterator[CFGNode]:
        return iter(self._result.nodes)

    def __len__(self) -> int:
        return len(self._result.nodes)


class ValidityAnalysis:
    """Worklist fixpoint over one function's AST-CFG."""

    def __init__(
        self,
        astcfg: ASTCFG,
        effects: InterproceduralAnalysis,
        tracked: set[str],
    ):
        self.astcfg = astcfg
        self.cfg = astcfg.cfg
        self.effects = effects
        self.tracked = tracked
        self._bits = {var: 1 << i for i, var in enumerate(sorted(tracked))}
        self._accesses: dict[int, list[Access]] = {}
        #: id(access) -> is this write guarded?  The Access objects live
        #: in ``_accesses``, so their ids are stable for this analysis.
        self._guarded: dict[int, bool] = {}
        #: ForStmt node id -> does the loop run at least once?
        self._runs_once: dict[int, bool] = {}
        self._must_execute_heads = self._find_must_execute_heads()

    def _loop_runs_once(self, loop: A.ForStmt) -> bool:
        """Statically known trip count >= 1 (memoized per loop)."""
        cached = self._runs_once.get(loop.node_id)
        if cached is None:
            from .bounds import loop_bounds  # local import: avoid module cycle

            bounds = loop_bounds(loop)
            cached = self._runs_once[loop.node_id] = (
                bounds is not None and bounds.trip_count is not None
                and bounds.trip_count >= 1
            )
        return cached

    def _find_must_execute_heads(self) -> set[int]:
        """PRED nodes of loops with a statically known trip count >= 1.

        For such loops the exit (false) edge can only be taken after the
        body ran, so the state leaving the loop is the post-body state —
        not the meet with the never-entered pre-state.  This keeps
        device writes inside constant-trip kernels visible after the
        loop (the paper's Listing 2 reuse case) without giving up
        soundness for genuinely unknown bounds.
        """
        return {
            node.node_id for node in self.cfg.nodes
            if node.kind is NodeKind.PRED and isinstance(node.ast, A.ForStmt)
            and self._loop_runs_once(node.ast)
        }

    # -- access resolution (cached) ------------------------------------------

    def accesses_of(self, node: CFGNode) -> list[Access]:
        cached = self._accesses.get(node.node_id)
        if cached is not None:
            return cached
        if node.ast is None or not isinstance(node.ast, A.Stmt):
            result: list[Access] = []
        else:
            result = [
                a for a in self.effects.resolve_node_accesses(node.ast)
                if a.name in self.tracked
            ]
        self._accesses[node.node_id] = result
        return result

    def _effects_of(self, node: CFGNode) -> list[tuple[Access, int, bool, bool]]:
        """``(access, bit, reads, writes)`` for each tracked access.

        A conditionally-executed write is a read-modify-write at
        whole-variable granularity: the untaken path keeps the incoming
        value, so the destination copy must be valid *before* the write
        (bfs's device-set flag is the canonical case).  It counts as a
        read here; its state change is a write's either way.
        """
        bits, guarded = self._bits, self._guarded
        out = []
        for acc in self.accesses_of(node):
            reads, writes = acc.kind.reads, acc.kind.writes
            if writes and not reads:
                key = id(acc)
                if key not in guarded:
                    guarded[key] = self._write_is_guarded(node, acc)
                reads = guarded[key]
            out.append((acc, bits[acc.name], reads, writes))
        return out

    def _write_is_guarded(self, node: CFGNode, acc: Access) -> bool:
        """Is this write control-dependent on a branch whose other arm
        does not also write the variable?

        Walks the AST ancestry from the writing statement up to the
        enclosing kernel directive (device writes) or the function (host
        writes).  `if` statements whose other branch writes the same
        variable do not guard — both paths define it, which is how
        unconditional boundary-vs-interior kernels stay strong writes.
        """
        stmt = node.ast
        if stmt is None:
            return False
        current: A.Node = stmt
        for anc in stmt.ancestors():
            if isinstance(anc, A.FunctionDecl):
                break
            if A.is_offload_kernel(anc):
                break
            if isinstance(anc, A.IfStmt) and current is not anc.cond:
                other = (
                    anc.else_branch if current is anc.then_branch else anc.then_branch
                )
                if other is None or not _subtree_writes(other, acc.name):
                    return True
            if isinstance(anc, (A.SwitchStmt, A.CaseStmt, A.DefaultStmt)):
                return True
            if isinstance(anc, A.ConditionalOperator):
                return True
            if isinstance(anc, A.WhileStmt) and current is not anc.cond:
                return True  # while bodies may execute zero times
            if isinstance(anc, A.ForStmt) and current is anc.body \
                    and not self._loop_runs_once(anc):
                return True
            current = anc
        # Conditional operators *inside* the same statement also guard.
        return _write_under_conditional(stmt, acc)

    # -- fixpoint -----------------------------------------------------------------

    def run(self) -> ValidityResult:
        order = self.cfg.topological_order()
        index = {node.node_id: i for i, node in enumerate(order)}
        for node in order:  # appends anything reached only via back edges
            for edge in node.successors:
                if edge.dst.node_id not in index:
                    index[edge.dst.node_id] = len(order)
                    order.append(edge.dst)
        n = len(order)
        full = (1 << len(self._bits)) - 1
        heads = self._must_execute_heads

        # Flat per-node tables of ints, so the fixpoint keeps no per-node
        # containers alive for the cyclic GC to trace.  Node i's meet
        # reads pred_slots[pred_at[i]:pred_at[i + 1]] (successors alike).
        # Slot ``i`` is node i's OUT; slot ``n + i`` is the FALSE-edge OUT
        # of a must-execute loop head, which carries the post-body state.
        # Unreachable predecessors are always TOP and drop out of the meet.
        pred_at, pred_slots = [0], []
        succ_at, succ_slots = [0], []
        back_preds: dict[int, list[int]] = {}
        keep_h, set_h = [full] * n, [0] * n
        keep_d, set_d = [full] * n, [0] * n
        write_masks: dict[int, int] = {}
        for i, node in enumerate(order):
            for edge in node.predecessors:
                j = index.get(edge.src.node_id)
                if j is None:
                    continue
                if edge.src.node_id in heads and edge.label is EdgeLabel.FALSE \
                        and not edge.is_back_edge:
                    j += n
                pred_slots.append(j)
            pred_at.append(len(pred_slots))
            for edge in node.successors:
                succ_slots.append(index[edge.dst.node_id])
            succ_at.append(len(succ_slots))
            if node.node_id in heads:
                back_preds[i] = [
                    index[e.src.node_id] for e in node.predecessors
                    if e.is_back_edge and e.src.node_id in index
                ]
            effects = self._effects_of(node)
            if not effects:
                continue
            space = Space.DEVICE if node.offloaded else Space.HOST
            keep_h[i], set_h[i], keep_d[i], set_d[i] = transfer_masks(
                space, ((b, r, w) for _, b, r, w in effects), full
            )
            # The other plane keeps every bit but the written ones.
            written = full ^ (keep_d[i] if space is Space.HOST else keep_h[i])
            if written:
                write_masks[node.node_id] = written

        # Optimistic start: every OUT slot is TOP until its node runs.
        out_h = [full] * (2 * n)
        out_d = [full] * (2 * n)
        in_h = [full] * n
        in_d = [full] * n
        heap = list(range(n))  # reverse-postorder priority
        queued = [True] * n
        heappop, heappush = heapq.heappop, heapq.heappush
        while heap:
            i = heappop(heap)
            queued[i] = False
            if i == 0:  # entry: host data valid, device empty
                h, d = full, 0
            else:
                h = d = full
                for s in pred_slots[pred_at[i]:pred_at[i + 1]]:
                    h &= out_h[s]
                    d &= out_d[s]
            in_h[i] = h
            in_d[i] = d
            h = (h & keep_h[i]) | set_h[i]
            d = (d & keep_d[i]) | set_d[i]
            changed = h != out_h[i] or d != out_d[i]
            out_h[i] = h
            out_d[i] = d
            back = back_preds.get(i)
            if back is not None:
                # The exit edge carries post-body state only: meet over
                # back-edge predecessors, re-run through the predicate.
                h = d = full
                for s in back:
                    h &= out_h[s]
                    d &= out_d[s]
                h = (h & keep_h[i]) | set_h[i]
                d = (d & keep_d[i]) | set_d[i]
                if h != out_h[n + i] or d != out_d[n + i]:
                    out_h[n + i] = h
                    out_d[n + i] = d
                    changed = True
            if changed:
                for j in succ_slots[succ_at[i]:succ_at[i + 1]]:
                    if not queued[j]:
                        queued[j] = True
                        heappush(heap, j)

        needs, facts = self._record(index, in_h, in_d)
        return ValidityResult(
            needs, facts, dict(self._accesses), self._bits, order, index,
            in_h, in_d, out_h[:n], out_d[:n], write_masks,
        )

    def _record(
        self, index: dict[int, int], in_h: list[int], in_d: list[int]
    ) -> tuple[list[TransferNeed], dict[str, VarFacts]]:
        """Needs and facts of every reached node, from the fixpoint planes.

        Within a node only a variable's first access can observe a stale
        copy: any access leaves the node's own space valid.
        """
        facts: dict[str, VarFacts] = {}
        needs: list[TransferNeed] = []
        for node in self.cfg.nodes:
            i = index.get(node.node_id)
            if i is None:
                continue
            if node.offloaded:
                space, direction, valid = Space.DEVICE, Direction.HTOD, in_d[i]
            else:
                space, direction, valid = Space.HOST, Direction.DTOH, in_h[i]
            kernel = node.kernel
            for acc, bit, reads, writes in self._effects_of(node):
                fact = facts.get(acc.name)
                if fact is None:
                    fact = facts[acc.name] = VarFacts(acc.name, acc.decl)
                elif fact.decl is None:
                    fact.decl = acc.decl
                fact.note(space, acc.kind, kernel)
                if reads and not valid & bit:
                    needs.append(TransferNeed(acc.name, direction, node, acc, kernel))
                if reads or writes:
                    valid |= bit
        needs.sort(
            key=lambda n: (
                n.node.ast.begin_offset if n.node.ast is not None else 0,
                n.var,
            ),
        )
        return needs, facts


def _subtree_writes(root: A.Node, var: str) -> bool:
    """Quick syntactic check: does ``root`` assign to ``var``?"""
    for n in root.walk():
        if isinstance(n, A.BinaryOperator) and n.is_assignment:
            ref, _ = _lvalue_base(n.lhs)
            if ref is not None and ref.name == var:
                return True
        if isinstance(n, A.UnaryOperator) and n.op in ("++", "--"):
            ref, _ = _lvalue_base(n.operand)
            if ref is not None and ref.name == var:
                return True
    return False


def _lvalue_base(expr: A.Expr):
    from .access import _base_ref

    return _base_ref(expr)


def _write_under_conditional(stmt: A.Stmt, acc: Access) -> bool:
    """Is the write nested under a ConditionalOperator within its own
    statement (``x = c ? (y = 1) : 0`` style)?  Rare; checked for
    completeness."""
    if acc.ref is None:
        return False
    node: A.Node | None = acc.ref.parent
    while node is not None and node is not stmt:
        if isinstance(node, A.ConditionalOperator):
            return True
        node = node.parent
    return False


def variables_of_interest(
    astcfg: ASTCFG, effects: InterproceduralAnalysis
) -> set[str]:
    """Variables referenced inside any offloaded region of the function.

    "We trace the reads and writes to any variable referenced inside any
    offloaded region" — excluding variables declared *inside* the kernel
    (private by construction) and kernel-local loop indices.
    """
    declared_in_kernel: set[str] = set()
    referenced: set[str] = set()
    for node in astcfg.cfg.nodes:
        if not node.offloaded or node.ast is None:
            continue
        if isinstance(node.ast, A.DeclStmt):
            declared_in_kernel.update(d.name for d in node.ast.decls)
        if isinstance(node.ast, (A.ForStmt,)) and isinstance(node.ast.init, A.DeclStmt):
            declared_in_kernel.update(d.name for d in node.ast.init.decls)
        for acc in effects.resolve_node_accesses(node.ast) if isinstance(node.ast, A.Stmt) else []:
            referenced.add(acc.name)
    return referenced - declared_in_kernel
