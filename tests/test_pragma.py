"""Unit tests for OpenMP pragma parsing (directives + clauses)."""

import pytest

from repro.diagnostics import ParseError
from repro.frontend import ast_nodes as A
from repro.frontend import parse_source
from repro.frontend.pragma import split_clauses


def parse_directive(pragma, body="{ }", extra=""):
    src = f"int a[10]; int n;\n{extra}\nint main() {{\n{pragma}\n{body}\nreturn 0;\n}}"
    tu = parse_source(src, "t.c")
    fn = tu.lookup_function("main")
    directives = list(fn.walk_instances(A.OMPExecutableDirective))
    assert directives, "no directive parsed"
    return directives[0]


class TestDirectiveRecognition:
    # Every row of paper Table I.
    TABLE_I = [
        ("#pragma omp target", A.OMPTargetDirective),
        ("#pragma omp target parallel", A.OMPTargetParallelDirective),
        ("#pragma omp target parallel for", A.OMPTargetParallelForDirective),
        ("#pragma omp target parallel for simd", A.OMPTargetParallelForSimdDirective),
        ("#pragma omp target parallel loop", A.OMPTargetParallelGenericLoopDirective),
        ("#pragma omp target simd", A.OMPTargetSimdDirective),
        ("#pragma omp target teams", A.OMPTargetTeamsDirective),
        ("#pragma omp target teams distribute", A.OMPTargetTeamsDistributeDirective),
        ("#pragma omp target teams distribute parallel for",
         A.OMPTargetTeamsDistributeParallelForDirective),
        ("#pragma omp target teams distribute parallel for simd",
         A.OMPTargetTeamsDistributeParallelForSimdDirective),
        ("#pragma omp target teams distribute simd",
         A.OMPTargetTeamsDistributeSimdDirective),
        ("#pragma omp target teams loop", A.OMPTargetTeamsGenericLoopDirective),
    ]

    @pytest.mark.parametrize("pragma,cls", TABLE_I)
    def test_table1_kernel_directives(self, pragma, cls):
        body = "for (int i = 0; i < 10; i++) a[i] = i;"
        d = parse_directive(pragma, body)
        assert type(d) is cls
        assert d.is_offload_kernel
        assert A.is_offload_kernel(d)

    def test_table1_is_complete(self):
        assert len(A.OFFLOAD_KERNEL_DIRECTIVES) == 12
        for pragma, cls in self.TABLE_I:
            spelled = "omp " + pragma.removeprefix("#pragma omp ")
            assert A.OFFLOAD_KERNEL_DIRECTIVES[cls] == spelled

    def test_target_data(self):
        d = parse_directive("#pragma omp target data map(tofrom: a)")
        assert type(d) is A.OMPTargetDataDirective
        assert not d.is_offload_kernel
        assert d.associated_stmt is not None

    def test_target_update_standalone(self):
        d = parse_directive("#pragma omp target update from(a)", body="a[0] = 1;")
        assert type(d) is A.OMPTargetUpdateDirective
        assert d.associated_stmt is None

    def test_target_enter_exit_data(self):
        d = parse_directive("#pragma omp target enter data map(to: a)", body="a[0] = 1;")
        assert type(d) is A.OMPTargetEnterDataDirective
        d = parse_directive("#pragma omp target exit data map(from: a)", body="a[0] = 1;")
        assert type(d) is A.OMPTargetExitDataDirective

    def test_host_parallel_for(self):
        d = parse_directive("#pragma omp parallel for",
                            body="for (int i = 0; i < 10; i++) a[i] = i;")
        assert type(d) is A.OMPHostDirective
        assert not d.is_offload_kernel

    def test_unknown_directive_raises(self):
        with pytest.raises(ParseError):
            parse_directive("#pragma omp banana")


class TestMapClauses:
    def test_default_map_type_is_tofrom(self):
        d = parse_directive("#pragma omp target data map(a)")
        (clause,) = d.map_clauses()
        assert clause.map_type == "tofrom"

    @pytest.mark.parametrize("mt", ["to", "from", "tofrom", "alloc", "release", "delete"])
    def test_map_types(self, mt):
        d = parse_directive(f"#pragma omp target data map({mt}: a)")
        assert d.map_clauses()[0].map_type == mt

    def test_map_multiple_items(self):
        d = parse_directive("#pragma omp target data map(to: a, n)")
        assert d.map_clauses()[0].var_names() == ["a", "n"]

    def test_multiple_map_clauses(self):
        d = parse_directive("#pragma omp target data map(to: a) map(from: n)")
        assert len(d.map_clauses()) == 2

    def test_array_section(self):
        d = parse_directive("#pragma omp target data map(to: a[0:10])")
        item = d.map_clauses()[0].items[0]
        assert not item.is_whole_variable
        lo, ln = item.sections[0]
        assert isinstance(lo, A.IntegerLiteral) and lo.value == 0
        assert isinstance(ln, A.IntegerLiteral) and ln.value == 10

    def test_array_section_with_exprs(self):
        d = parse_directive("#pragma omp target data map(to: a[n:n*2])")
        item = d.map_clauses()[0].items[0]
        lo, ln = item.sections[0]
        assert isinstance(lo, A.DeclRefExpr)
        assert isinstance(ln, A.BinaryOperator)

    def test_2d_section(self):
        d = parse_directive("#pragma omp target data map(to: a[0:4][0:5])")
        item = d.map_clauses()[0].items[0]
        assert len(item.sections) == 2

    def test_always_modifier(self):
        d = parse_directive("#pragma omp target data map(always, tofrom: a)")
        assert d.map_clauses()[0].map_type == "tofrom"


class TestOtherClauses:
    def test_firstprivate(self):
        body = "for (int i = 0; i < 10; i++) a[i] = n;"
        d = parse_directive("#pragma omp target parallel for firstprivate(n)", body)
        (fp,) = d.clauses_of(A.OMPFirstprivateClause)
        assert fp.var_names() == ["n"]

    def test_update_to_from(self):
        d = parse_directive("#pragma omp target update to(a) from(n)", body="a[0] = 1;")
        (to,) = d.clauses_of(A.OMPToClause)
        (frm,) = d.clauses_of(A.OMPFromClause)
        assert to.var_names() == ["a"]
        assert frm.var_names() == ["n"]

    def test_reduction(self):
        body = "for (int i = 0; i < 10; i++) n += a[i];"
        d = parse_directive(
            "#pragma omp target teams distribute parallel for reduction(+: n)", body
        )
        (red,) = d.clauses_of(A.OMPReductionClause)
        assert red.operator == "+"
        assert red.var_names() == ["n"]

    def test_num_teams_expr(self):
        body = "for (int i = 0; i < 10; i++) a[i] = i;"
        d = parse_directive("#pragma omp target teams distribute num_teams(4*2)", body)
        (c,) = [cl for cl in d.clauses if cl.kind == "num_teams"]
        assert isinstance(c, A.OMPExprClause)

    def test_nowait(self):
        body = "for (int i = 0; i < 10; i++) a[i] = i;"
        d = parse_directive("#pragma omp target parallel for nowait", body)
        assert any(c.kind == "nowait" for c in d.clauses)

    def test_schedule(self):
        body = "for (int i = 0; i < 10; i++) a[i] = i;"
        d = parse_directive("#pragma omp parallel for schedule(static, 4)", body)
        (c,) = [cl for cl in d.clauses if cl.kind == "schedule"]
        assert "static" in c.argument

    def test_collapse(self):
        body = "for (int i = 0; i < 4; i++) for (int j = 0; j < 4; j++) a[i] = j;"
        d = parse_directive("#pragma omp target teams distribute collapse(2)", body)
        assert any(c.kind == "collapse" for c in d.clauses)

    def test_unknown_clause_raises(self):
        with pytest.raises(ParseError):
            parse_directive("#pragma omp target frobnicate(a)")


class TestSplitClauses:
    def test_empty(self):
        assert split_clauses("") == []

    def test_single_no_arg(self):
        assert split_clauses("nowait") == [("nowait", None)]

    def test_args_with_nested_parens(self):
        out = split_clauses("if(f(1,2)) map(to: a)")
        assert out == [("if", "f(1,2)"), ("map", "to: a")]

    def test_comma_separated_clauses(self):
        out = split_clauses("firstprivate(x), nowait")
        assert out == [("firstprivate", "x"), ("nowait", None)]

    def test_unbalanced_raises(self):
        with pytest.raises(ParseError):
            split_clauses("map(to: a")


class TestPragmaIntegration:
    def test_nested_directive_structure(self):
        src = """
        int a[10];
        int main() {
          #pragma omp target data map(tofrom: a)
          {
            #pragma omp target teams distribute parallel for
            for (int i = 0; i < 10; i++) a[i] = i;
          }
          return 0;
        }
        """
        tu = parse_source(src, "t.c")
        data = list(tu.walk_instances(A.OMPTargetDataDirective))
        kernels = [n for n in tu.walk() if A.is_offload_kernel(n)]
        assert len(data) == 1 and len(kernels) == 1
        # the kernel is nested inside the data region's associated stmt
        assert any(k is n for n in data[0].walk() for k in kernels)

    def test_directive_range_covers_associated_stmt(self):
        src = """
        int a[10];
        int main() {
          #pragma omp target
          for (int i = 0; i < 10; i++) a[i] = i;
          return 0;
        }
        """
        tu = parse_source(src, "t.c")
        (kernel,) = [n for n in tu.walk() if A.is_offload_kernel(n)]
        stmt = kernel.associated_stmt
        assert kernel.begin_offset <= stmt.begin_offset
        assert stmt.end_offset <= kernel.end_offset

    def test_pragma_text_preserved(self):
        d = parse_directive("#pragma omp target data map(to: a)")
        assert "map(to: a)" in d.pragma_text
