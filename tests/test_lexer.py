"""Unit tests for the mini-C lexer."""

import pytest

from repro.diagnostics import ParseError
from repro.frontend.lexer import scan, tokenize
from repro.frontend.source import SourceBuffer
from repro.frontend.tokens import PUNCTUATORS, TokenKind


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def texts(text):
    return [t.text for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_identifier(self):
        (tok,) = tokenize("hello")[:-1]
        assert tok.kind is TokenKind.IDENTIFIER
        assert tok.text == "hello"

    def test_identifier_with_underscore_and_digits(self):
        (tok,) = tokenize("_foo_42")[:-1]
        assert tok.kind is TokenKind.IDENTIFIER

    def test_keywords_are_classified(self):
        for kw in ("int", "for", "while", "return", "const", "struct"):
            (tok,) = tokenize(kw)[:-1]
            assert tok.kind is TokenKind.KEYWORD, kw

    def test_adjacent_tokens(self):
        assert kinds("a+b") == [
            TokenKind.IDENTIFIER, TokenKind.PLUS, TokenKind.IDENTIFIER,
        ]


class TestNumericLiterals:
    def test_decimal_int(self):
        (tok,) = tokenize("42")[:-1]
        assert tok.kind is TokenKind.INT_LITERAL
        assert tok.value == 42

    def test_int_at_end_of_buffer_is_not_float(self):
        # Regression: empty lookahead must not satisfy `in "fF"`.
        (tok,) = tokenize("100")[:-1]
        assert tok.kind is TokenKind.INT_LITERAL
        assert tok.value == 100

    def test_hex_int(self):
        (tok,) = tokenize("0xFF")[:-1]
        assert tok.value == 255

    def test_int_suffixes(self):
        for text in ("7u", "7U", "7L", "7UL", "7ull"):
            (tok,) = tokenize(text)[:-1]
            assert tok.kind is TokenKind.INT_LITERAL
            assert tok.value == 7

    @pytest.mark.parametrize(
        "text,value",
        [("010", 8), ("0777", 511), ("0", 0), ("00", 0), ("017u", 15),
         ("0x10", 16), ("0X1fUL", 31), ("10", 10), ("123LU", 123)],
    )
    def test_int_values_read_as_c_does(self, text, value):
        (tok,) = tokenize(text)[:-1]
        assert (tok.kind, tok.text, tok.value) == (
            TokenKind.INT_LITERAL, text, value,
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ("int a = 08;", 'l.c:1:9: invalid digit "8" in octal constant'),
            ("x\n  0179", 'l.c:2:3: invalid digit "9" in octal constant'),
            ("1uu", 'l.c:1:1: invalid suffix "uu" on integer constant'),
            ("0x1lL", 'l.c:1:1: invalid suffix "lL" on integer constant'),
        ],
        ids=["octal-8", "octal-9-on-line-2", "uu", "lL"],
    )
    def test_bad_int_literal_is_a_lexical_error(self, text, message):
        with pytest.raises(ParseError) as exc:
            tokenize(text.replace("\\n", "\n"), "l.c")
        assert str(exc.value) == message

    def test_leading_zero_float_is_decimal(self):
        assert [t.value for t in tokenize("08.5 09e1")[:-1]] == [8.5, 90.0]

    def test_float_basic(self):
        (tok,) = tokenize("3.25")[:-1]
        assert tok.kind is TokenKind.FLOAT_LITERAL
        assert tok.value == 3.25

    def test_float_exponent(self):
        (tok,) = tokenize("1e3")[:-1]
        assert tok.kind is TokenKind.FLOAT_LITERAL
        assert tok.value == 1000.0

    def test_float_negative_exponent(self):
        (tok,) = tokenize("2.5e-2")[:-1]
        assert tok.value == pytest.approx(0.025)

    def test_float_f_suffix(self):
        (tok,) = tokenize("1.0f")[:-1]
        assert tok.kind is TokenKind.FLOAT_LITERAL

    def test_int_with_f_suffix_is_float(self):
        (tok,) = tokenize("2f ")[:-1]
        assert tok.kind is TokenKind.FLOAT_LITERAL
        assert tok.value == 2.0

    def test_leading_dot_float(self):
        (tok,) = tokenize(".5")[:-1]
        assert tok.kind is TokenKind.FLOAT_LITERAL
        assert tok.value == 0.5


class TestStringsAndChars:
    def test_string_literal(self):
        (tok,) = tokenize('"hi"')[:-1]
        assert tok.kind is TokenKind.STRING_LITERAL
        assert tok.value == "hi"

    def test_string_escapes(self):
        (tok,) = tokenize(r'"a\nb\t\\"')[:-1]
        assert tok.value == "a\nb\t\\"

    def test_char_literal(self):
        (tok,) = tokenize("'x'")[:-1]
        assert tok.kind is TokenKind.CHAR_LITERAL
        assert tok.value == ord("x")

    def test_char_escape(self):
        (tok,) = tokenize(r"'\n'")[:-1]
        assert tok.value == ord("\n")

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            tokenize('"oops')


class TestOperators:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("<<=", TokenKind.LESSLESSEQUAL),
            (">>=", TokenKind.GREATERGREATEREQUAL),
            ("<<", TokenKind.LESSLESS),
            ("<=", TokenKind.LESSEQUAL),
            ("<", TokenKind.LESS),
            ("->", TokenKind.ARROW),
            ("--", TokenKind.MINUSMINUS),
            ("-", TokenKind.MINUS),
            ("...", TokenKind.ELLIPSIS),
            ("==", TokenKind.EQUALEQUAL),
            ("=", TokenKind.EQUAL),
        ],
    )
    def test_maximal_munch(self, text, kind):
        (tok,) = tokenize(text)[:-1]
        assert tok.kind is kind

    @pytest.mark.parametrize("text,kind", PUNCTUATORS)
    def test_every_punctuator_is_one_token(self, text, kind):
        (tok,) = tokenize(text)[:-1]
        assert tok.kind is kind

    def test_munch_sequence(self):
        assert kinds("a<<=b") == [
            TokenKind.IDENTIFIER, TokenKind.LESSLESSEQUAL, TokenKind.IDENTIFIER,
        ]

    def test_arrow_vs_minus(self):
        assert kinds("p->x - y") == [
            TokenKind.IDENTIFIER, TokenKind.ARROW, TokenKind.IDENTIFIER,
            TokenKind.MINUS, TokenKind.IDENTIFIER,
        ]


class TestCommentsAndTrivia:
    def test_line_comment_skipped(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x */ b") == ["a", "b"]

    def test_multiline_block_comment(self):
        assert texts("a /* 1\n2\n3 */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(ParseError):
            tokenize("a /* never ends")

    def test_offsets_unaffected_by_comments(self):
        toks = tokenize("ab /*c*/ de")
        assert toks[0].offset == 0
        assert toks[1].offset == 9


class TestDirectives:
    def test_pragma_token(self):
        toks = tokenize("#pragma omp target\nint x;")
        assert toks[0].kind is TokenKind.PRAGMA
        assert "omp target" in str(toks[0].value)

    def test_pragma_with_continuation(self):
        toks = tokenize("#pragma omp target \\\n  map(to: a)\nint x;")
        assert toks[0].kind is TokenKind.PRAGMA
        assert "map(to: a)" in str(toks[0].value)

    def test_hash_mid_line_is_error(self):
        with pytest.raises(ParseError):
            tokenize("int x; # pragma")

    def test_directive_strips_line_comment(self):
        toks = tokenize("#pragma omp target // note\nint x;")
        assert "note" not in str(toks[0].value)


class TestScan:
    def test_scan_is_lazy(self):
        # An error is raised only when the scan reaches it, so the
        # preprocessor reports an earlier directive error first.
        tokens = scan(SourceBuffer('int x;\n"oops', "s.c"))
        assert [next(tokens).text for _ in range(3)] == ["int", "x", ";"]
        with pytest.raises(ParseError, match="s.c:2:1: unterminated string"):
            next(tokens)

    def test_hash_after_comment_at_line_start_opens_a_directive(self):
        toks = tokenize("int x;\n/* c */ #pragma omp target\n")
        assert toks[3].kind is TokenKind.PRAGMA

    def test_newline_inside_comment_does_not_start_a_line(self):
        with pytest.raises(ParseError, match="unexpected character '#'"):
            tokenize("int x; /* c\n */ #pragma omp target\n")

    def test_abutting_tokens_share_an_offset(self):
        # Offsets past 256 are not cached ints, so sharing is by design.
        toks = tokenize(" " * 300 + "a[i] b")
        assert toks[0].end_offset is toks[1].offset
        assert toks[2].end_offset is toks[3].offset
        assert toks[3].end_offset != toks[4].offset

    def test_directive_body_collapses_splices_and_comments(self):
        (tok, _) = tokenize("#define A 1 /* c\n */ + \\\n 2 // tail\n")
        assert tok.value == "#define A 1   +   2 "


class TestLocations:
    def test_line_and_column(self):
        src = "int x;\n  y = 1;"
        y = [t for t in tokenize(src) if t.text == "y"][0]
        assert SourceBuffer(src).line_col(y.offset) == (2, 3)

    def test_source_buffer_line_col_roundtrip(self):
        buf = SourceBuffer("ab\ncd\nef")
        assert buf.line_col(0) == (1, 1)
        assert buf.line_col(3) == (2, 1)
        assert buf.line_col(7) == (3, 2)

    def test_line_text(self):
        buf = SourceBuffer("ab\ncd\n")
        assert buf.line_text(2) == "cd"

    def test_end_offset(self):
        (tok,) = tokenize("hello")[:-1]
        assert tok.end_offset == 5
