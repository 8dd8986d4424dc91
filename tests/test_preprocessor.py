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

    @pytest.mark.parametrize(
        "between",
        [
            "#define N 3\n",
            "#define Q 1\n#ifdef Q\nint b;\n#endif\n",
            "#ifdef Q\nint b;\n#define N 5\n#endif\n",
            "#if 0\nint b;\n#else\nint c;\n#endif\n",
            "#pragma omp target\n",
        ],
        ids=["define", "ifdef-taken", "inactive-region", "else", "pragma"],
    )
    def test_directive_after_bare_name_is_processed(self, between):
        """The token peeked for a ``(`` after a bare function-like name
        is a directive here; it must be processed, as after any other
        identifier."""
        tail = f"int F\n{between};\nint a[N];\n"
        defines = "#define F(x) x\n#define N 2\n#undef N\n#define N 4\n"
        got, _ = preprocess(defines + tail)
        want, _ = preprocess(defines.replace("F(x) x", "G(x) x") + tail)
        assert [(t.kind, t.text, t.value) for t in got] == [
            (t.kind, t.text, t.value) for t in want
        ]
        assert "N" not in texts(defines + tail)

    def test_directive_after_bare_name_from_an_expansion(self):
        src = "#define F(x) x\n#define G F\nint G\n#define N 3\n;int a[N];"
        assert texts(src) == ["int", "F", ";", "int", "a", "[", "3", "]", ";"]

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


class TestDirectiveWhitespace:
    """A directive's name, and a pragma's kind, end at any whitespace."""

    def test_tab_after_define(self):
        toks, _ = preprocess("#define\tN 64\nint a[N];")
        lit = [t for t in toks if t.kind is TokenKind.INT_LITERAL][0]
        assert (lit.value, lit.expanded_from) == (64, "N")

    def test_tab_after_ifdef(self):
        src = "#define N 1\n#ifdef\tN\nint a;\n#endif\nint b;"
        assert texts(src) == ["int", "a", ";", "int", "b", ";"]

    def test_tab_after_pragma(self):
        toks, _ = preprocess("#pragma\tomp target\nint a;")
        assert toks[0].kind is TokenKind.PRAGMA

    def test_tab_after_pragma_kind(self):
        src = "#pragma omp\ttarget teams distribute parallel for\nint a;"
        toks, _ = preprocess(src)
        assert toks[0].kind is TokenKind.PRAGMA
        assert toks[0].value == src.splitlines()[0]


class TestIfConditions:
    """``#if`` takes an integer literal, ``defined NAME`` or
    ``defined(NAME)``; anything else is an error, not a guess."""

    @pytest.mark.parametrize(
        "cond", ["defined(A)", "defined A", "defined ( A )", "defined\tA"]
    )
    def test_defined_forms(self, cond):
        src = f"#define A 1\n#if {cond}\nint a;\n#endif\nint b;"
        assert texts(src) == ["int", "a", ";", "int", "b", ";"]
        src = f"#if {cond}\nint a;\n#endif\nint b;"
        assert texts(src) == ["int", "b", ";"]

    @pytest.mark.parametrize(
        "cond",
        ["defined(A) && defined(B)", "defined(A) || 1", "definedA", "defined()"],
    )
    def test_other_conditions_raise(self, cond):
        src = f"#define A 1\n#define B 1\n#if {cond}\nint a;\n#endif\n"
        with pytest.raises(ParseError, match="unsupported #if condition") as exc:
            preprocess(src, "c.c")
        assert "c.c:3:1" in str(exc.value)

    @pytest.mark.parametrize(
        "cond,taken",
        [("010", True), ("00", False), ("10L", True), ("1u", True),
         ("0x0UL", False), ("0x10", True)],
    )
    def test_integer_conditions_read_as_c_does(self, cond, taken):
        src = f"#if {cond}\nint a;\n#endif\nint b;"
        assert texts(src) == (["int", "a", ";"] if taken else []) + [
            "int", "b", ";",
        ]

    @pytest.mark.parametrize(
        "cond,reason",
        [
            ("1_0", 'invalid suffix "_0" on integer constant'),
            ("0o7", 'invalid suffix "o7" on integer constant'),
            ("0b1", 'invalid suffix "b1" on integer constant'),
            ("08", 'invalid digit "8" in octal constant'),
            ("1 + 1", "not an integer literal"),
        ],
    )
    def test_integer_conditions_c_rejects_raise(self, cond, reason):
        with pytest.raises(ParseError, match="unsupported #if condition") as exc:
            preprocess(f"int x;\n#if {cond}\nint a;\n#endif\n", "c.c")
        assert f"at c.c:2:1 ({reason};" in str(exc.value)

    def test_condition_in_inactive_region_is_not_read(self):
        src = "#if 0\n#if defined(A) || 1\nint a;\n#endif\n#endif\nint b;"
        assert texts(src) == ["int", "b", ";"]


class TestNamelessDirectives:
    @pytest.mark.parametrize("head", ["ifdef", "ifndef", "undef"])
    def test_missing_name_is_a_parse_error(self, head):
        with pytest.raises(ParseError) as exc:
            preprocess(f"int a;\n#{head}\nint b;\n#endif\n", "m.c")
        assert str(exc.value) == f"#{head} without a macro name at m.c:2:1"

    def test_batch_reports_it_as_a_parse_error(self):
        from repro.pipeline.batch import transform_batch

        (outcome,) = transform_batch([("#ifdef\nint a;\n#endif\n", "m.c")])
        assert not outcome.ok
        assert "internal error" not in outcome.error
        assert "#ifdef without a macro name at m.c:1:1" in outcome.error


class TestFirstErrorOrder:
    def test_directive_error_before_later_lexical_error(self):
        # The lexer is pulled token by token, so the line-1 directive
        # fails before the scan reaches the line-3 string.
        src = '#error nope\nint x;\nchar *s = "abc;\n'
        with pytest.raises(ParseError) as exc:
            preprocess(src, "e.c")
        assert str(exc.value) == "unsupported preprocessor directive #error at e.c:1:1"
