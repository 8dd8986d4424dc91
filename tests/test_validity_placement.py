"""Tests for the validity dataflow (IV-D) and update placement (IV-D/E)."""

from collections import deque

import pytest

from repro.analysis import (
    Direction,
    InterproceduralAnalysis,
    PlacementAnalysis,
    PlacementKind,
    UpdatePosition,
    ValidityAnalysis,
    VarState,
    variables_of_interest,
)
from repro.analysis.validity import ENTRY, TOP, Space, VarFacts
from repro.cfg import ASTCFG, build_astcfgs
from repro.cfg.graph import EdgeLabel
from repro.core.region import compute_region
from repro.frontend import ast_nodes as A
from repro.frontend import parse_source
from repro.pipeline.manager import PassManager
from repro.suite.registry import BENCHMARK_ORDER, get_benchmark
from repro.suite.synth import generate_corpus


def setup(src, fn_name="main"):
    tu = parse_source(src, "t.c")
    fn = tu.lookup_function(fn_name)
    astcfg = ASTCFG(fn)
    effects = InterproceduralAnalysis(tu)
    tracked = variables_of_interest(astcfg, effects)
    result = ValidityAnalysis(astcfg, effects, tracked).run()
    region = compute_region(astcfg)
    placer = PlacementAnalysis(astcfg, result, region.begin_offset, region.end_offset)
    return astcfg, tracked, result, placer, region


class TestVarState:
    def test_meet_is_conjunction(self):
        a = VarState(True, False)
        b = VarState(True, True)
        assert a.meet(b) == VarState(True, False)

    def test_write_invalidates_other_space(self):
        from repro.analysis.validity import Space

        s = VarState(True, True).after_write(Space.DEVICE)
        assert not s.valid_host and s.valid_dev

    def test_entry_state(self):
        from repro.analysis.validity import ENTRY

        assert ENTRY.valid_host and not ENTRY.valid_dev


class TestTrackedVariables:
    def test_kernel_locals_excluded(self):
        src = """
        int a[8];
        int main() {
          #pragma omp target
          for (int i = 0; i < 8; i++) { int t = i * 2; a[i] = t; }
          return 0;
        }
        """
        astcfg, tracked, *_ = setup(src)
        assert tracked == {"a"}

    def test_host_only_vars_excluded(self):
        src = """
        int a[8]; int h;
        int main() {
          h = 3;
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] = i;
          return h;
        }
        """
        _, tracked, *_ = setup(src)
        assert "h" not in tracked

    def test_scalar_used_in_kernel_tracked(self):
        src = """
        int a[8]; int n;
        int main() {
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] = n;
          return 0;
        }
        """
        _, tracked, *_ = setup(src)
        assert tracked == {"a", "n"}


class TestRAWDetection:
    def test_kernel_read_of_host_data(self):
        src = """
        int a[8];
        int main() {
          a[0] = 1;
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] += 1;
          return 0;
        }
        """
        _, _, result, *_ = setup(src)
        dirs = {(n.var, n.direction) for n in result.needs}
        assert ("a", Direction.HTOD) in dirs

    def test_host_read_of_device_data(self):
        src = """
        int a[8]; int out;
        int main() {
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] = i;
          out = a[3];
          return out;
        }
        """
        _, _, result, *_ = setup(src)
        dirs = {(n.var, n.direction) for n in result.needs}
        assert ("a", Direction.DTOH) in dirs

    def test_war_waw_need_no_transfer(self):
        # Host writes then device overwrites: anti/output deps only.
        src = """
        int a[8];
        int main() {
          a[0] = 1;
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] = i;
          return 0;
        }
        """
        _, _, result, *_ = setup(src)
        assert all(n.direction is not Direction.HTOD for n in result.needs)

    def test_device_to_device_reuse_no_transfer(self):
        # Listing 2: two kernels, nothing host-side in between.
        src = """
        int a[8];
        int main() {
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] = i;
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] *= 2;
          return 0;
        }
        """
        _, _, result, *_ = setup(src)
        # the second kernel reads device-valid data: no HtoD need at it
        htod = [n for n in result.needs if n.direction is Direction.HTOD]
        assert htod == []

    def test_host_write_between_kernels_needs_update(self):
        src = """
        int a[8];
        int main() {
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] = i;
          a[0] = 99;
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] *= 2;
          return 0;
        }
        """
        _, _, result, *_ = setup(src)
        dirs = {(n.var, n.direction) for n in result.needs}
        # host writes a[0] (elementwise => host copy only partially valid;
        # conservative whole-array model: host stale => DtoH first), then
        # the second kernel needs the host write => HtoD.
        assert ("a", Direction.HTOD) in dirs

    def test_facts_aggregate_kernel_usage(self):
        src = """
        int a[8]; int n;
        int main() {
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] = n;
          return 0;
        }
        """
        _, _, result, *_ = setup(src)
        assert result.facts["a"].device_writes
        assert not result.facts["a"].device_reads
        assert result.facts["n"].device_reads
        assert not result.facts["n"].device_writes

    def test_loop_carried_state_via_meet(self):
        # Listing 1: kernel in a loop; host copy invalid after iteration 1,
        # so the meet at the loop head drops host validity.
        src = """
        int a[8];
        int main() {
          for (int t = 0; t < 4; t++) {
            #pragma omp target
            for (int j = 0; j < 8; j++) a[j] += j;
          }
          return 0;
        }
        """
        astcfg, _, result, *_ = setup(src)
        outer = [lp for lp in astcfg.cfg.loops
                 if lp.head is not None and not lp.head.offloaded]
        head = outer[0].head
        state = result.state_in[head]["a"]
        assert not state.valid_host  # after one iteration host copy is stale


class TestPlacementDecisions:
    def test_map_to_promotion(self):
        src = """
        int a[8];
        int main() {
          a[0] = 1;
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] += 1;
          return 0;
        }
        """
        astcfg, _, result, placer, _ = setup(src)
        places = placer.place_all()
        htod = [p for p in places if p.direction is Direction.HTOD]
        assert htod and htod[0].kind is PlacementKind.REGION_ENTRY

    def test_after_region_read_becomes_map_from(self):
        src = """
        int a[8]; int out;
        int main() {
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] = i;
          out = a[3];
          return out;
        }
        """
        _, _, result, placer, _ = setup(src)
        places = placer.place_all()
        dtoh = [p for p in places if p.direction is Direction.DTOH]
        assert dtoh and dtoh[0].kind is PlacementKind.REGION_EXIT

    def test_in_region_host_read_is_update(self):
        src = """
        int a[8]; int out;
        int main() {
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] = i;
          out = a[3];
          #pragma omp target
          for (int i = 0; i < 8; i++) a[i] *= 2;
          return out;
        }
        """
        _, _, result, placer, _ = setup(src)
        dtoh = [p for p in placer.place_all() if p.direction is Direction.DTOH]
        assert dtoh and dtoh[0].kind is PlacementKind.UPDATE
        assert dtoh[0].position is UpdatePosition.BEFORE

    def test_listing6_hoists_out_of_both_host_loops(self):
        src = """
        double ps[128]; double out[17];
        int main() {
          #pragma omp target teams distribute parallel for
          for (int t = 0; t < 128; t++) ps[t] = t;
          for (int j = 1; j <= 16; j++) {
            double sum = 0.0;
            for (int k = 0; k < 8; k++) sum += ps[k * 16 + j - 1];
            out[j] = sum;
          }
          #pragma omp target teams distribute parallel for
          for (int t = 1; t <= 16; t++) out[t] *= 2.0;
          return 0;
        }
        """
        _, _, result, placer, _ = setup(src)
        ps_updates = [
            p for p in placer.place_all()
            if p.var == "ps" and p.kind is PlacementKind.UPDATE
        ]
        assert len(ps_updates) == 1
        placement = ps_updates[0]
        assert len(placement.hoisted_out_of) == 2
        assert isinstance(placement.anchor, A.ForStmt)
        # anchor must be the outer j loop (the one with lower offset)
        assert placement.anchor.begin_offset == min(
            lp.begin_offset for lp in placement.hoisted_out_of
        )

    def test_loop_carried_update_stays_inside(self):
        # Host writes the array every outer iteration -> the HtoD update
        # cannot be hoisted out of the outer loop.
        src = """
        int a[8]; int seed;
        int main() {
          for (int t = 0; t < 4; t++) {
            a[0] = t;
            #pragma omp target
            for (int j = 0; j < 8; j++) a[j] += 1;
          }
          return 0;
        }
        """
        _, _, result, placer, _ = setup(src)
        htod = [p for p in placer.place_all() if p.direction is Direction.HTOD]
        assert htod
        p = htod[0]
        assert p.kind is PlacementKind.UPDATE
        assert p.hoisted_out_of == ()
        assert isinstance(p.anchor, A.OMPExecutableDirective)

    def test_kernel_anchoring(self):
        # Needs inside kernels anchor at the kernel directive.
        src = """
        int a[8];
        int main() {
          a[0] = 1;
          for (int t = 0; t < 4; t++) {
            a[1] = t;
            #pragma omp target
            for (int j = 0; j < 8; j++) a[j] += 1;
          }
          return 0;
        }
        """
        _, _, result, placer, _ = setup(src)
        htod = [p for p in placer.place_all() if p.direction is Direction.HTOD]
        for p in htod:
            if p.kind is PlacementKind.UPDATE:
                assert isinstance(p.anchor, A.OMPExecutableDirective)

    def test_do_while_conditional_body_end(self):
        src = """
        int flag; int a[8];
        int main() {
          do {
            #pragma omp target map(tofrom: flag)
            for (int i = 0; i < 8; i++) { a[i] += 1; flag = a[i] > 5; }
          } while (flag == 0);
          return 0;
        }
        """
        tu = parse_source(src, "t.c")
        fn = tu.lookup_function("main")
        astcfg = ASTCFG(fn)
        effects = InterproceduralAnalysis(tu)
        tracked = variables_of_interest(astcfg, effects)
        result = ValidityAnalysis(astcfg, effects, tracked).run()
        region = compute_region(astcfg)
        placer = PlacementAnalysis(
            astcfg, result, region.begin_offset, region.end_offset
        )
        flag_updates = [
            p for p in placer.place_all()
            if p.var == "flag" and p.direction is Direction.DTOH
        ]
        assert flag_updates
        assert flag_updates[0].position is UpdatePosition.BODY_END
        assert isinstance(flag_updates[0].anchor, A.DoStmt)


class TestAlgorithm1Position:
    def test_array_access_need_inside_host_loop(self):
        # The paper's Listing 6 shape: a kernel inside a host loop
        # whose per-iteration access pattern admits a hoisted update.
        src = """
        int a[8][8];
        int main() {
          for (int i = 0; i < 8; i++) {
            #pragma omp target teams distribute parallel for
            for (int j = 0; j < 8; j++) a[i][j] = a[i][j] + 1;
          }
          return 0;
        }
        """
        astcfg, _, _, placer, _ = setup(src)
        positions = [
            placer.algorithm1_position(need)
            for need in placer.result.needs
            if need.access is not None and need.access.subscript is not None
        ]
        assert positions, "expected at least one array-access need"
        for pos in positions:
            assert pos is None or isinstance(pos, A.Node)

    def test_need_without_subscript_returns_none(self):
        src = """
        int a[4];
        int main() {
          a[0] = 1;
          #pragma omp target
          for (int i = 0; i < 4; i++) a[i] += 1;
          return a[0];
        }
        """
        _, _, _, placer, _ = setup(src)
        for need in placer.result.needs:
            if need.access is None or need.access.subscript is None:
                assert placer.algorithm1_position(need) is None


# ---------------------------------------------------------------------------
# Reference oracle: the per-variable dict fixpoint
# ---------------------------------------------------------------------------


def dict_fixpoint(analysis):
    """The validity fixpoint as one ``{var: VarState}`` dict per node.

    A FIFO worklist applies each access with :class:`VarState` in order;
    a final sweep over the reached nodes records needs and facts.  It
    shares only access resolution, guard checks and must-execute loop
    heads with the bit-vector analysis under test.
    """
    cfg, tracked = analysis.cfg, analysis.tracked
    heads = analysis._must_execute_heads

    def apply(node, state, needs=None, facts=None):
        space = Space.DEVICE if node.offloaded else Space.HOST
        direction = Direction.HTOD if node.offloaded else Direction.DTOH
        out = dict(state)
        for acc in analysis.accesses_of(node):
            vs, kind = out[acc.name], acc.kind
            reads = kind.reads or (
                kind.writes and analysis._write_is_guarded(node, acc)
            )
            if facts is not None:
                fact = facts.setdefault(acc.name, VarFacts(acc.name, acc.decl))
                if fact.decl is None:
                    fact.decl = acc.decl
                fact.note(space, kind, node.kernel)
            if reads and not vs.valid_in(space):
                if needs is not None:
                    needs.setdefault(
                        (acc.name, node.node_id),
                        (acc.name, direction, node, node.kernel),
                    )
                vs = vs.with_valid(space, True)
            if kind.writes:
                vs = vs.after_write(space)
            out[acc.name] = vs
        return out

    def meet(states):
        out = {v: TOP for v in tracked}
        for st in states:
            if st is not None:
                out = {v: out[v].meet(st[v]) for v in tracked}
        return out

    state_in, state_out, exit_out = {}, {}, {}

    def edge_out(edge):
        if edge.src.node_id in heads and edge.label is EdgeLabel.FALSE \
                and not edge.is_back_edge:
            return exit_out.get(edge.src)
        return state_out.get(edge.src)

    worklist = deque(cfg.topological_order())
    queued = set(worklist)
    while worklist:
        node = worklist.popleft()
        queued.discard(node)
        if node is cfg.entry:
            state_in[node] = {v: ENTRY for v in tracked}
        else:
            state_in[node] = meet(edge_out(e) for e in node.predecessors)
        out = apply(node, state_in[node])
        changed = state_out.get(node) != out
        state_out[node] = out
        if node.node_id in heads:
            post = apply(node, meet(
                state_out.get(e.src) for e in node.predecessors if e.is_back_edge
            ))
            if exit_out.get(node) != post:
                exit_out[node] = post
                changed = True
        if changed:
            for edge in node.successors:
                if edge.dst not in queued:
                    worklist.append(edge.dst)
                    queued.add(edge.dst)

    needs, facts = {}, {}
    for node in cfg.nodes:
        if node in state_in:
            apply(node, state_in[node], needs, facts)
    ordered = sorted(needs.values(), key=lambda n: (
        n[2].ast.begin_offset if n[2].ast is not None else 0, n[0],
    ))
    return state_in, ordered, facts


def _oracle_sources():
    for name in BENCHMARK_ORDER:
        bench = get_benchmark(name)
        unopt = bench.unoptimized_source()
        transformed = PassManager(cache=None).run(unopt, name + ".c")
        yield f"{name}/unoptimized", unopt
        yield f"{name}/transformed", transformed.artifact("rewrite")
        yield f"{name}/expert", bench.expert_source()
    for filename, source in generate_corpus(18, seed=11):
        yield filename, source


@pytest.mark.parametrize("label,source", list(_oracle_sources()))
def test_bit_vector_fixpoint_matches_dict_oracle(label, source):
    tu = parse_source(source, label)
    effects = InterproceduralAnalysis(tu)
    checked = 0
    for astcfg in build_astcfgs(tu).values():
        if not astcfg.kernel_directives():
            continue
        tracked = variables_of_interest(astcfg, effects)
        analysis = ValidityAnalysis(astcfg, effects, tracked)
        result = analysis.run()
        state_in, needs, facts = dict_fixpoint(analysis)
        assert dict(result.state_in) == state_in
        assert [
            (n.var, n.direction, n.node, n.kernel) for n in result.needs
        ] == needs
        assert result.facts == facts
        checked += 1
    assert checked
