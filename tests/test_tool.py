"""End-to-end tests of the OMPDart tool (parse -> analyze -> rewrite).

Anchored on the paper's motivating listings (section III) and the
behaviours section VI attributes to the tool on the benchmarks.
"""

import pytest

from repro.core import transform_source
from repro.diagnostics import ToolError
from repro.frontend import ast_nodes as A
from repro.frontend import parse_source

LISTING1 = """#define N 64
int a[N];
int main() {
  for (int i = 0; i < N; ++i) {
    #pragma omp target
    for (int j = 0; j < N; ++j) {
      a[j] += j;
    }
  }
  return 0;
}
"""

LISTING2 = """#define N 64
int a[N];
int main() {
  #pragma omp target
  for (int i = 0; i < N; ++i) {
    a[i] += i;
  }
  #pragma omp target
  for (int i = 0; i < N; ++i) {
    a[i] *= i;
  }
  return 0;
}
"""

# The program the paper's Listing 3 *intends*: array summed on the host
# every iteration of the outer loop.
LISTING3_INTENT = """#define N 64
#define M 4
int a[N];
int total;
int main() {
  int sum = 0;
  for (int i = 0; i < M; ++i) {
    #pragma omp target
    for (int j = 0; j < N; ++j) {
      a[j] += j;
    }
    for (int j = 0; j < N; ++j) {
      sum += a[j];
    }
  }
  total = sum;
  return 0;
}
"""


def reparses(result):
    """The tool's output must itself be valid input C."""
    tu = parse_source(result.output_source, "out.c")
    return tu


class TestListing1:
    def test_region_wraps_outer_loop(self):
        res = transform_source(LISTING1, "l1.c")
        out = res.output_source
        assert "#pragma omp target data map(tofrom: a)" in out
        # the region must open before the outer for loop
        assert out.index("target data") < out.index("for (int i")

    def test_no_update_directives_needed(self):
        res = transform_source(LISTING1, "l1.c")
        assert "target update" not in res.output_source

    def test_output_reparses(self):
        res = transform_source(LISTING1, "l1.c")
        tu = reparses(res)
        assert len(list(tu.walk_instances(A.OMPTargetDataDirective))) == 1

    def test_plan_metadata(self):
        res = transform_source(LISTING1, "l1.c")
        (plan,) = res.plans
        assert not plan.region.single_kernel
        assert [m.var for m in plan.maps] == ["a"]


class TestListing2:
    def test_single_region_covers_both_kernels(self):
        res = transform_source(LISTING2, "l2.c")
        out = res.output_source
        assert out.count("#pragma omp target data") == 1
        # no transfers between the kernels
        assert "target update" not in out

    def test_map_tofrom(self):
        res = transform_source(LISTING2, "l2.c")
        (plan,) = res.plans
        assert plan.map_clause_texts() == ["map(tofrom: a)"]


class TestListing3Intent:
    def test_update_from_inserted_inside_loop(self):
        res = transform_source(LISTING3_INTENT, "l3.c")
        out = res.output_source
        assert "#pragma omp target update from(a)" in out
        # the update must sit inside the outer loop (after the kernel,
        # before the summation loop), i.e. textually after the kernel
        # pragma and before `sum += a[j]`.
        upd = out.index("target update from(a)")
        assert out.index("#pragma omp target\n") < upd or \
            out.index("omp target") < upd
        assert upd < out.index("sum += a[j]")

    def test_map_to_not_tofrom_everything(self):
        res = transform_source(LISTING3_INTENT, "l3.c")
        (plan,) = res.plans
        by_var = {m.var: m.map_type.value for m in plan.maps}
        assert by_var["a"] == "to"  # from is satisfied by the in-loop update

    def test_output_reparses_and_keeps_structure(self):
        res = transform_source(LISTING3_INTENT, "l3.c")
        tu = reparses(res)
        updates = list(tu.walk_instances(A.OMPTargetUpdateDirective))
        assert len(updates) == 1


class TestInputConstraints:
    def test_existing_target_data_rejected(self):
        src = """
        int a[4];
        int main() {
          #pragma omp target data map(tofrom: a)
          {
            #pragma omp target
            for (int i = 0; i < 4; i++) a[i] = i;
          }
          return 0;
        }
        """
        with pytest.raises(ToolError) as exc:
            transform_source(src, "bad.c")
        assert any("target data" in d.message for d in exc.value.diagnostics)

    def test_existing_target_update_rejected(self):
        src = """
        int a[4];
        int main() {
          #pragma omp target
          for (int i = 0; i < 4; i++) a[i] = i;
          #pragma omp target update from(a)
          return 0;
        }
        """
        with pytest.raises(ToolError):
            transform_source(src, "bad.c")

    def test_declaration_after_region_start_rejected(self):
        # `b` is declared between two kernels: inside the region extent.
        src = """
        int a[4];
        int main() {
          #pragma omp target
          for (int i = 0; i < 4; i++) a[i] = i;
          int b[4];
          b[0] = a[0];
          #pragma omp target
          for (int i = 0; i < 4; i++) a[i] += b[0];
          return b[0];
        }
        """
        with pytest.raises(ToolError) as exc:
            transform_source(src, "bad.c")
        assert any("must precede" in d.message for d in exc.value.diagnostics)

    def test_host_local_read_after_region_rejected(self):
        # `t` never reaches a kernel but is read after the region, so
        # bracing the region would end its scope; `u` travels as a
        # firstprivate scalar and is exempt.
        src = (
            "int a[4];\n"
            "int main() {\n"
            "  #pragma omp target\n"
            "  for (int i = 0; i < 4; i++) a[i] = i;\n"
            "  int t = 3;\n"
            "  int u = 4;\n"
            "  #pragma omp target\n"
            "  for (int i = 0; i < 4; i++) a[i] += u;\n"
            "  return t;\n"
            "}\n"
        )
        with pytest.raises(ToolError) as exc:
            transform_source(src, "bad.c")
        assert [
            (d.message, d.filename, d.line, d.column)
            for d in exc.value.diagnostics
        ] == [(
            "declaration of 't' must precede the target data region; "
            "move it before line 3, column 3", "bad.c", 5, 3,
        )]

    def test_program_without_kernels_unchanged(self):
        src = "int main() { return 0; }\n"
        res = transform_source(src, "plain.c")
        assert res.output_source == src
        assert res.plans == []


class TestFirstprivate:
    SRC = """
    double a[32];
    int main() {
      double scale = 2.5;
      int n = 32;
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 32; i++) {
        a[i] = scale * i + n;
      }
      return 0;
    }
    """

    def test_read_only_scalars_become_firstprivate(self):
        res = transform_source(self.SRC, "fp.c")
        out = res.output_source
        assert "firstprivate(" in out
        assert "n" in out[out.index("firstprivate"):]
        assert "scale" in out[out.index("firstprivate"):]

    def test_scalars_not_mapped(self):
        res = transform_source(self.SRC, "fp.c")
        (plan,) = res.plans
        mapped = {m.var for m in plan.maps}
        assert "scale" not in mapped and "n" not in mapped
        assert mapped == {"a"}

    def test_written_scalar_is_not_firstprivate(self):
        src = """
        double a[32]; int flag;
        int main() {
          #pragma omp target
          for (int i = 0; i < 32; i++) { a[i] = i; flag = 1; }
          return flag;
        }
        """
        res = transform_source(src, "wf.c")
        (plan,) = res.plans
        fp_vars = {v for spec in plan.firstprivates for v in spec.variables}
        assert "flag" not in fp_vars
        assert "flag" in {m.var for m in plan.maps}


class TestReduction:
    def test_reduction_vars_not_mapped(self):
        src = """
        double a[64]; double total;
        int main() {
          double sum = 0.0;
          #pragma omp target teams distribute parallel for reduction(+: sum)
          for (int i = 0; i < 64; i++) sum += a[i];
          total = sum;
          return 0;
        }
        """
        res = transform_source(src, "red.c")
        (plan,) = res.plans
        assert "sum" in plan.reduction_vars
        assert "sum" not in {m.var for m in plan.maps}
        fp_vars = {v for spec in plan.firstprivates for v in spec.variables}
        assert "sum" not in fp_vars


class TestDeviceOnlyData:
    def test_scratch_array_gets_alloc(self):
        src = """
        double tmp[64]; double out[64]; double res;
        int main() {
          #pragma omp target
          for (int i = 0; i < 64; i++) tmp[i] = i * 2.0;
          #pragma omp target
          for (int i = 0; i < 64; i++) out[i] = tmp[i] + 1.0;
          res = out[0];
          return 0;
        }
        """
        res = transform_source(src, "alloc.c")
        (plan,) = res.plans
        by_var = {m.var: m.map_type.value for m in plan.maps}
        # tmp is produced and consumed on-device only... but it is a
        # global (escaping), so sound handling gives it `from`.
        assert by_var["out"] in ("from", "tofrom")
        assert "alloc" in {m.map_type.value for m in plan.maps} or by_var["tmp"] == "from"

    def test_local_scratch_is_alloc(self):
        src = """
        double out[64]; double res;
        int main() {
          double tmp[64];
          #pragma omp target
          for (int i = 0; i < 64; i++) tmp[i] = i * 2.0;
          #pragma omp target
          for (int i = 0; i < 64; i++) out[i] = tmp[i] + 1.0;
          res = out[0];
          return 0;
        }
        """
        res = transform_source(src, "alloc2.c")
        (plan,) = res.plans
        by_var = {m.var: m.map_type.value for m in plan.maps}
        assert by_var["tmp"] == "alloc"


class TestToolOverhead:
    def test_elapsed_recorded(self):
        res = transform_source(LISTING1, "l1.c")
        assert res.elapsed_seconds > 0.0

    def test_report_mentions_constructs(self):
        res = transform_source(LISTING3_INTENT, "l3.c")
        report = res.report()
        assert "map(to: a)" in report
        assert "update" in report


class TestIdempotentStructure:
    def test_single_kernel_fast_path_appends_clause(self):
        src = """
        int a[16];
        int main() {
          a[0] = 1;
          #pragma omp target
          for (int i = 0; i < 16; i++) a[i] += i;
          return a[0];
        }
        """
        res = transform_source(src, "fast.c")
        out = res.output_source
        # no separate data region: map clause appended to the kernel pragma
        assert "#pragma omp target data" not in out
        assert "#pragma omp target map(tofrom: a)" in out

    def test_multiline_pragma_clause_appended_after_continuation(self):
        src = (
            "int a[16];\n"
            "int main() {\n"
            "  a[0] = 1;\n"
            "  #pragma omp target teams distribute \\\n"
            "      parallel for\n"
            "  for (int i = 0; i < 16; i++) a[i] += i;\n"
            "  return a[0];\n"
            "}\n"
        )
        res = transform_source(src, "ml.c")
        reparses(res)
        assert "map(tofrom: a)" in res.output_source

    def test_tab_separated_kernel_pragma_is_mapped(self):
        # The pragma kind ends at any whitespace, so a tab after
        # ``omp`` still makes this an OpenMP kernel.
        src = (
            "int a[16];\n"
            "int main() {\n"
            "  a[0] = 1;\n"
            "  #pragma omp\ttarget teams distribute parallel for\n"
            "  for (int i = 0; i < 16; i++) a[i] += i;\n"
            "  return a[0];\n"
            "}\n"
        )
        res = transform_source(src, "tab.c")
        reparses(res)
        assert len(res.plans) == 1
        assert "map(tofrom: a)" in res.output_source
