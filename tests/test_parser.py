"""Unit tests for the mini-C parser and its light semantic analysis."""

import pytest

from repro.diagnostics import ParseError
from repro.frontend import ast_nodes as A
from repro.frontend import parse_source
from repro.frontend.parser import fold_integer_constant


def parse(src):
    return parse_source(src, "test.c")


def first_fn(src, name="main"):
    tu = parse(src)
    fn = tu.lookup_function(name)
    assert fn is not None, f"function {name} not found"
    return fn


def find(node, cls):
    return list(node.walk_instances(cls))


def contains(outer, inner):
    """``inner``'s byte span lies within ``outer``'s."""
    return (
        outer.begin_offset <= inner.begin_offset
        and inner.end_offset <= outer.end_offset
    )


class TestDeclarations:
    def test_global_scalar(self):
        tu = parse("int x;")
        (var,) = tu.global_vars()
        assert var.name == "x"
        assert str(var.qual_type) == "int"
        assert var.is_global

    def test_global_with_init(self):
        tu = parse("double pi = 3.14;")
        (var,) = tu.global_vars()
        assert isinstance(var.init, A.FloatingLiteral)

    def test_multiple_declarators(self):
        tu = parse("int a, b = 2, c;")
        assert [v.name for v in tu.global_vars()] == ["a", "b", "c"]

    def test_array_type(self):
        tu = parse("float a[10];")
        (var,) = tu.global_vars()
        assert var.qual_type.is_array
        assert var.qual_type.size == 40

    def test_2d_array(self):
        tu = parse("double m[4][8];")
        (var,) = tu.global_vars()
        inner, dims = var.qual_type.type.flattened()
        assert dims == (4, 8)
        assert var.qual_type.size == 4 * 8 * 8

    def test_octal_array_size(self):
        tu = parse("int a[010];")
        (var,) = tu.global_vars()
        assert var.qual_type.type.length == 8

    def test_array_size_constant_folded(self):
        tu = parse("#define N 8\nint a[N * 2];")
        (var,) = tu.global_vars()
        assert var.qual_type.type.length == 16

    def test_pointer_type(self):
        tu = parse("int *p;")
        (var,) = tu.global_vars()
        assert var.qual_type.is_pointer

    def test_pointer_to_const(self):
        tu = parse("const double *p;")
        (var,) = tu.global_vars()
        assert var.qual_type.points_to_const()

    def test_static_storage(self):
        tu = parse("static int x;")
        assert tu.global_vars()[0].storage == "static"

    def test_init_list(self):
        tu = parse("int a[3] = {1, 2, 3};")
        (var,) = tu.global_vars()
        assert isinstance(var.init, A.InitListExpr)
        assert len(var.init.inits) == 3

    def test_empty_init_list(self):
        tu = parse("int a[4] = {};")
        assert isinstance(tu.global_vars()[0].init, A.InitListExpr)


class TestFunctions:
    def test_definition_and_prototype(self):
        tu = parse("int f(int a);\nint f(int a) { return a; }")
        fns = tu.functions()
        assert len(fns) == 2
        assert tu.lookup_function("f").is_definition

    def test_params(self):
        fn = first_fn("void g(int n, double *x, const float *y) {}", "g")
        assert [p.name for p in fn.params] == ["n", "x", "y"]
        assert fn.params[1].qual_type.is_pointer
        assert fn.params[2].qual_type.points_to_const()

    def test_array_param_decays_to_pointer(self):
        fn = first_fn("void g(double a[]) {}", "g")
        assert fn.params[0].qual_type.is_pointer

    def test_sized_array_param_decays(self):
        fn = first_fn("void g(double a[16]) {}", "g")
        assert fn.params[0].qual_type.is_pointer

    def test_2d_array_param(self):
        fn = first_fn("void g(double a[][8]) {}", "g")
        qt = fn.params[0].qual_type
        assert qt.is_pointer
        assert qt.pointee().is_array

    def test_void_params(self):
        fn = first_fn("int f(void) { return 1; }", "f")
        assert fn.params == []

    def test_forward_reference_resolved(self):
        tu = parse("int main() { return helper(); }\nint helper() { return 3; }")
        call = find(tu, A.CallExpr)[0]
        ref = call.callee
        assert isinstance(ref, A.DeclRefExpr)
        assert isinstance(ref.decl, A.FunctionDecl)
        assert ref.decl.is_definition

    def test_recursion_resolves(self):
        fn = first_fn("int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }", "fib")
        calls = find(fn, A.CallExpr)
        assert len(calls) == 2

    def test_builtin_call_typed(self):
        fn = first_fn("double f(double x) { return sqrt(x); }", "f")
        call = find(fn, A.CallExpr)[0]
        assert str(call.qual_type) == "double"


class TestStatements:
    def test_if_else(self):
        fn = first_fn("int main() { int x = 1; if (x) x = 2; else x = 3; return x; }")
        (if_stmt,) = find(fn, A.IfStmt)
        assert if_stmt.else_branch is not None

    def test_for_loop_parts(self):
        fn = first_fn("int main() { for (int i = 0; i < 4; i++) {} return 0; }")
        (loop,) = find(fn, A.ForStmt)
        assert isinstance(loop.init, A.DeclStmt)
        assert isinstance(loop.cond, A.BinaryOperator)
        assert isinstance(loop.inc, A.UnaryOperator)

    def test_for_loop_empty_parts(self):
        fn = first_fn("int main() { for (;;) break; return 0; }")
        (loop,) = find(fn, A.ForStmt)
        assert loop.init is None and loop.cond is None and loop.inc is None

    def test_while(self):
        fn = first_fn("int main() { int i = 0; while (i < 3) i++; return i; }")
        assert len(find(fn, A.WhileStmt)) == 1

    def test_do_while(self):
        fn = first_fn("int main() { int i = 0; do { i++; } while (i < 3); return i; }")
        assert len(find(fn, A.DoStmt)) == 1

    def test_switch(self):
        src = """
        int main() {
          int x = 2, y = 0;
          switch (x) {
            case 1: y = 10; break;
            case 2: y = 20; break;
            default: y = -1;
          }
          return y;
        }
        """
        fn = first_fn(src)
        assert len(find(fn, A.SwitchStmt)) == 1
        assert len(find(fn, A.CaseStmt)) == 2
        assert len(find(fn, A.DefaultStmt)) == 1

    def test_break_continue(self):
        fn = first_fn("int main() { for (;;) { if (1) continue; break; } return 0; }")
        assert len(find(fn, A.BreakStmt)) == 1
        assert len(find(fn, A.ContinueStmt)) == 1

    def test_goto_rejected(self):
        with pytest.raises(ParseError):
            parse("int main() { goto done; done: return 0; }")

    def test_null_stmt(self):
        fn = first_fn("int main() { ; return 0; }")
        assert len(find(fn, A.NullStmt)) == 1


class TestExpressions:
    def test_precedence_mul_over_add(self):
        fn = first_fn("int main() { return 1 + 2 * 3; }")
        ret = find(fn, A.ReturnStmt)[0]
        top = ret.value
        assert isinstance(top, A.BinaryOperator) and top.op == "+"
        assert isinstance(top.rhs, A.BinaryOperator) and top.rhs.op == "*"

    def test_assignment_right_assoc(self):
        fn = first_fn("int main() { int a, b; a = b = 1; return a; }")
        assigns = [
            n for n in find(fn, A.BinaryOperator) if n.op == "="
        ]
        outer = assigns[0]
        assert isinstance(outer.rhs, A.BinaryOperator)
        assert outer.rhs.op == "="

    def test_compound_assign(self):
        fn = first_fn("int main() { int a = 0; a += 3; return a; }")
        assert any(isinstance(n, A.CompoundAssignOperator) for n in fn.walk())

    def test_ternary(self):
        fn = first_fn("int main() { int a = 1; return a ? 2 : 3; }")
        assert len(find(fn, A.ConditionalOperator)) == 1

    def test_subscript_typing(self):
        fn = first_fn("int main() { double a[4]; return (int)a[0]; }")
        sub = find(fn, A.ArraySubscriptExpr)[0]
        assert str(sub.qual_type) == "double"

    def test_nested_subscript(self):
        fn = first_fn("int main() { double m[2][3]; m[1][2] = 0.0; return 0; }")
        subs = find(fn, A.ArraySubscriptExpr)
        outer = subs[0]
        ref = outer.base_decl_ref()
        assert ref is not None and ref.name == "m"
        assert len(outer.index_exprs()) == 2

    def test_member_access(self):
        src = """
        struct Point { double x; double y; };
        int main() { struct Point p; p.x = 1.0; return 0; }
        """
        fn = first_fn(src)
        mem = find(fn, A.MemberExpr)[0]
        assert mem.member == "x"
        assert str(mem.qual_type) == "double"

    def test_arrow_access(self):
        src = """
        struct Node { int v; };
        int f(struct Node *n) { return n->v; }
        """
        fn = first_fn(src, "f")
        mem = find(fn, A.MemberExpr)[0]
        assert mem.is_arrow
        assert str(mem.qual_type) == "int"

    def test_cast(self):
        fn = first_fn("int main() { double d = 1.5; return (int)d; }")
        assert len(find(fn, A.CStyleCastExpr)) == 1

    def test_malloc_cast_pattern(self):
        fn = first_fn(
            "int main() { double *p = (double *)malloc(8 * 4); free(p); return 0; }"
        )
        cast = find(fn, A.CStyleCastExpr)[0]
        assert cast.target_type.is_pointer

    def test_sizeof_type(self):
        fn = first_fn("int main() { return sizeof(double); }")
        sz = find(fn, A.SizeOfExpr)[0]
        assert fold_integer_constant(sz) == 8

    def test_sizeof_expr(self):
        fn = first_fn("int main() { int x; return sizeof x; }")
        sz = find(fn, A.SizeOfExpr)[0]
        assert fold_integer_constant(sz) == 4

    def test_address_of(self):
        fn = first_fn("void g(int *p) {}\nint main() { int x; g(&x); return 0; }")
        amp = [n for n in find(fn, A.UnaryOperator) if n.op == "&"]
        assert len(amp) == 1
        assert amp[0].qual_type.is_pointer

    def test_string_concatenation(self):
        fn = first_fn('int main() { printf("a" "b"); return 0; }')
        lit = find(fn, A.StringLiteral)[0]
        assert lit.value == "ab"

    def test_comma_expression(self):
        fn = first_fn("int main() { int a, b; for (a = 0, b = 1; a < 2; a++) {} return b; }")
        commas = [n for n in find(fn, A.BinaryOperator) if n.op == ","]
        assert len(commas) == 1


class TestTypedefsStructsEnums:
    def test_typedef(self):
        tu = parse("typedef double real;\nreal x;")
        assert str(tu.global_vars()[0].qual_type) == "double"

    def test_typedef_struct(self):
        tu = parse("typedef struct { float x; float y; } Vec2;\nVec2 v;")
        var = tu.global_vars()[0]
        assert var.qual_type.is_aggregate
        assert var.qual_type.size == 8

    def test_named_struct_reference(self):
        tu = parse("struct S { int a; };\nstruct S s;")
        var = tu.global_vars()[0]
        assert var.qual_type.size == 4

    def test_struct_with_array_field(self):
        tu = parse("struct Grid { double cells[16]; int n; };\nstruct Grid g;")
        assert tu.global_vars()[0].qual_type.size == 16 * 8 + 4

    def test_enum_constants(self):
        tu = parse("enum Color { RED, GREEN = 5, BLUE };\nint x = BLUE;")
        var = tu.global_vars()[0]
        assert fold_integer_constant(var.init) == 6


class TestConstantFolding:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("1 + 2", 3),
            ("10 / 3", 3),
            ("7 % 4", 3),
            ("1 << 4", 16),
            ("(2 + 3) * 4", 20),
            ("-5", -5),
            ("!0", 1),
            ("1 ? 7 : 9", 7),
            ("0 ? 7 : 9", 9),
            ("3 > 2", 1),
        ],
    )
    def test_fold(self, expr, expected):
        tu = parse(f"int a[{expr}];" if expected > 0 else f"int x = {expr};")
        var = tu.global_vars()[0]
        if expected > 0:
            assert var.qual_type.type.length == expected
        else:
            assert fold_integer_constant(var.init) == expected

    def test_division_by_zero_not_folded(self):
        with pytest.raises(ParseError):
            parse("int a[1 / 0];")


class TestSourceRanges:
    def test_ranges_nest(self):
        src = "int main() {\n  int x = 1;\n  return x;\n}\n"
        tu = parse(src)
        fn = tu.lookup_function("main")
        body = fn.body
        assert contains(fn, body)
        for stmt in body.stmts:
            assert contains(body, stmt)

    def test_parents_set(self):
        tu = parse("int main() { return 1 + 2; }")
        lit = find(tu, A.IntegerLiteral)[0]
        assert isinstance(lit.parent, A.BinaryOperator)
        assert A.enclosing_function(lit).name == "main"

    def test_enclosing_loops(self):
        src = """
        int main() {
          for (int i = 0; i < 2; i++)
            for (int j = 0; j < 2; j++) {
              int x = 0;
            }
          return 0;
        }
        """
        tu = parse(src)
        decl = [d for d in find(tu, A.VarDecl) if d.name == "x"][0]
        loops = A.enclosing_loops(decl)
        assert len(loops) == 2
