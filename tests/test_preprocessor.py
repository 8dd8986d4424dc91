"""Unit tests for the preprocessor-lite."""

import pytest

from repro.diagnostics import ParseError
from repro.frontend.preprocessor import preprocess
from repro.frontend.tokens import TokenKind


def values(text, predefined=None):
    toks, _ = preprocess(text, predefined=predefined or {})
    return [(t.kind, t.text, t.value) for t in toks[:-1]]


def texts(text, predefined=None):
    toks, _ = preprocess(text, predefined=predefined or {})
    return [t.text for t in toks[:-1]]


class TestObjectMacros:
    def test_simple_expansion(self):
        toks, _ = preprocess("#define N 100\nint a[N];")
        lit = [t for t in toks if t.kind is TokenKind.INT_LITERAL][0]
        assert lit.value == 100
        assert lit.expanded_from == "N"

    def test_expansion_keeps_use_site_location(self):
        src = "#define N 100\nint a[N];"
        toks, buf = preprocess(src)
        lit = [t for t in toks if t.kind is TokenKind.INT_LITERAL][0]
        assert buf.text[lit.offset] == "N"

    def test_multi_token_body(self):
        assert texts("#define SZ (4 * 8)\nint a = SZ;") == [
            "int", "a", "=", "(", "4", "*", "8", ")", ";",
        ]

    def test_nested_macros(self):
        src = "#define A 1\n#define B (A + A)\nint x = B;"
        assert "1" in texts(src)

    def test_self_referential_macro_does_not_loop(self):
        src = "#define X X\nint X;"
        assert texts(src) == ["int", "X", ";"]

    def test_undef(self):
        src = "#define N 1\n#undef N\nint N;"
        assert texts(src) == ["int", "N", ";"]

    def test_redefinition_wins(self):
        src = "#define N 1\n#define N 2\nint a = N;"
        toks, _ = preprocess(src)
        lit = [t for t in toks if t.kind is TokenKind.INT_LITERAL][0]
        assert lit.value == 2

    def test_predefined_macros(self):
        toks, _ = preprocess("int a[SIZE];", predefined={"SIZE": 64})
        lit = [t for t in toks if t.kind is TokenKind.INT_LITERAL][0]
        assert lit.value == 64


class TestFunctionMacros:
    def test_basic_call(self):
        src = "#define SQ(x) ((x) * (x))\nint a = SQ(3);"
        assert texts(src).count("3") == 2

    def test_two_params(self):
        src = "#define ADD(a, b) (a + b)\nint x = ADD(1, 2);"
        t = texts(src)
        assert "1" in t and "2" in t and "+" in t

    def test_arg_with_nested_parens(self):
        src = "#define ID(x) x\nint a = ID(f(1, 2));"
        assert texts(src) == ["int", "a", "=", "f", "(", "1", ",", "2", ")", ";"]

    def test_name_without_call_not_expanded(self):
        src = "#define F(x) x\nint F;"
        assert texts(src) == ["int", "F", ";"]

    def test_wrong_arity_raises(self):
        with pytest.raises(ParseError):
            preprocess("#define F(a, b) a\nint x = F(1);")

    def test_zero_arg_macro(self):
        src = "#define GET() 5\nint x = GET();"
        assert "5" in texts(src)


class TestConditionals:
    def test_ifdef_taken(self):
        src = "#define X 1\n#ifdef X\nint a;\n#endif\nint b;"
        assert texts(src) == ["int", "a", ";", "int", "b", ";"]

    def test_ifdef_not_taken(self):
        src = "#ifdef X\nint a;\n#endif\nint b;"
        assert texts(src) == ["int", "b", ";"]

    def test_ifndef(self):
        src = "#ifndef X\nint a;\n#endif"
        assert texts(src) == ["int", "a", ";"]

    def test_else_branch(self):
        src = "#ifdef X\nint a;\n#else\nint b;\n#endif"
        assert texts(src) == ["int", "b", ";"]

    def test_nested_conditionals(self):
        src = (
            "#define A 1\n#ifdef A\n#ifdef B\nint x;\n#else\nint y;\n#endif\n#endif"
        )
        assert texts(src) == ["int", "y", ";"]

    def test_if_literal(self):
        assert texts("#if 0\nint a;\n#endif\nint b;") == ["int", "b", ";"]
        assert texts("#if 1\nint a;\n#endif") == ["int", "a", ";"]

    def test_unterminated_conditional_raises(self):
        with pytest.raises(ParseError):
            preprocess("#ifdef X\nint a;")

    def test_endif_without_if_raises(self):
        with pytest.raises(ParseError):
            preprocess("#endif")

    def test_defines_inside_false_branch_ignored(self):
        src = "#ifdef X\n#define N 5\n#endif\nint N;"
        assert texts(src) == ["int", "N", ";"]


class TestPassthrough:
    def test_include_skipped(self):
        assert texts("#include <stdio.h>\nint a;") == ["int", "a", ";"]

    def test_include_quotes_skipped(self):
        assert texts('#include "local.h"\nint a;') == ["int", "a", ";"]

    def test_omp_pragma_survives(self):
        toks, _ = preprocess("#pragma omp target\nint a;")
        assert toks[0].kind is TokenKind.PRAGMA

    def test_non_omp_pragma_dropped(self):
        toks, _ = preprocess("#pragma once\nint a;")
        assert toks[0].kind is not TokenKind.PRAGMA

    def test_unknown_directive_raises(self):
        with pytest.raises(ParseError):
            preprocess("#banana\nint a;")
