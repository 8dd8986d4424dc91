"""Tests for the AST dump, report generators, and CLI."""

from repro.frontend import dump_ast, parse_source
from repro.report import (
    format_bytes,
    render_barchart,
    render_table,
    table1,
    table2,
    table3,
    table5,
    table5_passes,
)


class TestDump:
    def test_listing5_shape(self):
        # Paper Listing 4 -> dump comparable to paper Listing 5.
        src = (
            "#define N 100\n"
            "int main() {\n"
            "  int a[N];\n"
            "  #pragma omp target teams distribute parallel for\n"
            "  for (int i = 0; i < N/2; i++) {\n"
            "    a[i] = i;\n"
            "  }\n"
            "  return 0;\n"
            "}\n"
        )
        text = dump_ast(parse_source(src, "l4.c"))
        for needle in (
            "ForStmt", "DeclStmt", "VarDecl", "IntegerLiteral",
            "BinaryOperator", "'<'", "postfix '++'", "ArraySubscriptExpr",
            "DeclRefExpr", "OMPTargetTeamsDistributeParallelForDirective",
        ):
            assert needle in text, needle

    def test_rails(self):
        text = dump_ast(parse_source("int main() { return 1 + 2; }", "t.c"))
        assert "|-" in text and "`-" in text

    def test_folded_macro_bound_visible(self):
        text = dump_ast(parse_source("#define N 4\nint a[N];", "t.c"))
        assert "int [4]" in text


class TestRenderers:
    def test_render_table_alignment(self):
        text = render_table(["a", "bbbb"], [["xx", "y"], ["x", "yyyyy"]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular

    def test_render_barchart(self):
        text = render_barchart("title", {"one": 1.0, "two": 2.0})
        assert text.startswith("title")
        assert text.count("#") > 0

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.00 kB"
        assert format_bytes(3 << 20) == "3.00 MB"
        assert format_bytes(5 << 30) == "5.00 GB"


class TestTables:
    def test_table1_has_12_rows(self):
        assert len(table1().splitlines()) == 14

    def test_table2_lists_firstprivate(self):
        assert "firstprivate()" in table2()

    def test_table3_lists_nine_apps(self):
        text = table3()
        assert text.count("HeCBench") == 5
        assert text.count("Rodinia") == 4

    def test_table5_average(self):
        text = table5({"a": 0.1, "b": 0.3})
        assert "0.200s" in text

    def test_table5_passes_breakdown(self):
        text = table5_passes({
            "a": {"parse": 0.1, "plan": 0.2},
            "b": {"parse": 0.3, "plan": 0.1},
        })
        assert "parse" in text and "plan" in text
        assert "0.400s" in text  # parse total
        assert "(total)" in text
        assert "0.350s" in text  # mean per benchmark


class TestCLI:
    def test_transform_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "in.c"
        src.write_text(
            "int a[4];\nint main() {\n"
            "  a[0] = 1;\n"
            "  #pragma omp target\n"
            "  for (int i = 0; i < 4; i++) a[i] += i;\n"
            "  return a[0];\n}\n"
        )
        out = tmp_path / "out.c"
        rc = main([str(src), "-o", str(out), "--report"])
        assert rc == 0
        assert "map(tofrom: a)" in out.read_text()

    def test_dump_ast_flag(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "in.c"
        src.write_text("int x;\n")
        assert main([str(src), "--dump-ast"]) == 0
        assert "VarDecl" in capsys.readouterr().out

    def test_error_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "bad.c"
        src.write_text(
            "int a[4];\nint main() {\n"
            "  #pragma omp target update from(a)\n  return 0;\n}\n"
        )
        assert main([str(src)]) == 1

    def test_negative_shift_in_array_size_is_a_parse_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        src = tmp_path / "shift.c"
        src.write_text("int a[1 << -1];\nint main() { return 0; }\n")
        assert main([str(src)]) == 1
        err = capsys.readouterr().err
        (line,) = [l for l in err.splitlines() if "ompdart: error:" in l]
        assert line.endswith("array size must be an integer constant")
        assert "Traceback" not in err

    def test_missing_file(self):
        from repro.cli import main

        assert main(["/nonexistent/file.c"]) == 2

    def test_predefines(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "in.c"
        src.write_text("int a[SIZE];\nint main() { return 0; }\n")
        assert main([str(src), "-DSIZE=7", "--dump-ast"]) == 0
        assert "int [7]" in capsys.readouterr().out

    def test_predefines_read_as_gcc_reads_them(self, tmp_path, capsys):
        """``-D X=`` defines X as empty and ``-D X`` as 1 (``gcc -DX=
        -E`` turns ``int a[X 4];`` into ``int a[ 4];``)."""
        from repro.cli import main

        src = tmp_path / "in.c"
        src.write_text("int a[X 4];\nint b[Y];\nint main() { return 0; }\n")
        assert main([str(src), "-D", "X=", "-D", "Y", "--dump-ast"]) == 0
        out = capsys.readouterr().out
        assert "a 'int [4]'" in out and "b 'int [1]'" in out


class TestCoverageReport:
    def test_figure_coverage_lists_strategies(self):
        from repro.report import figure_coverage
        from repro.suite.runner import run_benchmark

        runs = {"bfs": run_benchmark("bfs")}
        series, text = figure_coverage(runs)
        assert series["bfs"]["OMPDart"]["vector_strategy"] == "masked"
        assert series["bfs"]["OMPDart"]["fallback_reason"] is None
        assert "masked 14/14" in text

    def test_suite_cli_prints_coverage(self, capsys):
        from repro.cli import main

        assert main(["suite", "--benchmarks", "xsbench"]) == 0
        out = capsys.readouterr().out
        assert "vectorizer coverage 3/3 variant(s)" in out

    def test_suite_cli_coverage_with_no_vectorize(self, capsys):
        from repro.cli import main

        assert main(
            ["suite", "--benchmarks", "xsbench", "--no-vectorize", "--report"]
        ) == 0
        out = capsys.readouterr().out
        assert "vectorizer coverage 0/3 variant(s)" in out
        assert "vectorization disabled" in out
