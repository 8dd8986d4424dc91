"""Recursive-descent parser for mini-C with OpenMP pragmas.

Produces the Clang-shaped AST of :mod:`repro.frontend.ast_nodes` from a
preprocessed token stream.  Performs light semantic analysis while
parsing: name resolution (``DeclRefExpr.decl``), typedef/struct
registration, and best-effort expression typing — enough for OMPDart's
scalar-vs-aggregate and pointer-to-const decisions (paper section IV-B).

Grammar cover (sufficient for the nine evaluation benchmarks): all C
statement forms, full C expression precedence, multi-dimensional arrays,
pointers, structs/typedefs/enums, function definitions and prototypes,
and every OpenMP directive in the pragma table.
"""

from __future__ import annotations

import operator
from typing import Callable, TypeVar

from ..diagnostics import ParseError
from . import ast_nodes as A
from .ctypes_ import (
    BOOL,
    BUILTIN_TYPEDEFS,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    LONGDOUBLE,
    LONGLONG,
    SHORT,
    SIZE_T,
    UCHAR,
    UINT,
    ULONG,
    ULONGLONG,
    USHORT,
    VOID,
    FunctionType,
    QualType,
    StructType,
    array_of,
    pointer_to,
)
from .lexer import scan
from .preprocessor import preprocess
from .pragma import PragmaParser
from .source import SourceBuffer
from .tokens import Token, TokenKind

# Math & libc builtins the interpreter provides.  Registered lazily as
# implicit prototypes so calls type-check and the interprocedural pass
# can whitelist their (absent) side effects.
_BUILTIN_SIGNATURES: dict[str, tuple[QualType, tuple[QualType, ...], bool]] = {
    "printf": (INT, (pointer_to(CHAR.with_const()),), True),
    "fprintf": (INT, (pointer_to(CHAR.with_const()),), True),
    "sprintf": (INT, (pointer_to(CHAR),), True),
    "puts": (INT, (pointer_to(CHAR.with_const()),), False),
    "exp": (DOUBLE, (DOUBLE,), False),
    "exp2": (DOUBLE, (DOUBLE,), False),
    "expf": (FLOAT, (FLOAT,), False),
    "log": (DOUBLE, (DOUBLE,), False),
    "log2": (DOUBLE, (DOUBLE,), False),
    "log10": (DOUBLE, (DOUBLE,), False),
    "sqrt": (DOUBLE, (DOUBLE,), False),
    "sqrtf": (FLOAT, (FLOAT,), False),
    "cbrt": (DOUBLE, (DOUBLE,), False),
    "pow": (DOUBLE, (DOUBLE, DOUBLE), False),
    "powf": (FLOAT, (FLOAT, FLOAT), False),
    "fabs": (DOUBLE, (DOUBLE,), False),
    "fabsf": (FLOAT, (FLOAT,), False),
    "abs": (INT, (INT,), False),
    "sin": (DOUBLE, (DOUBLE,), False),
    "cos": (DOUBLE, (DOUBLE,), False),
    "tan": (DOUBLE, (DOUBLE,), False),
    "tanh": (DOUBLE, (DOUBLE,), False),
    "floor": (DOUBLE, (DOUBLE,), False),
    "ceil": (DOUBLE, (DOUBLE,), False),
    "fmax": (DOUBLE, (DOUBLE, DOUBLE), False),
    "fmin": (DOUBLE, (DOUBLE, DOUBLE), False),
    "fmaxf": (FLOAT, (FLOAT, FLOAT), False),
    "fminf": (FLOAT, (FLOAT, FLOAT), False),
    "fmod": (DOUBLE, (DOUBLE, DOUBLE), False),
    "malloc": (pointer_to(VOID), (SIZE_T,), False),
    "calloc": (pointer_to(VOID), (SIZE_T, SIZE_T), False),
    "realloc": (pointer_to(VOID), (pointer_to(VOID), SIZE_T), False),
    "free": (VOID, (pointer_to(VOID),), False),
    "memset": (pointer_to(VOID), (pointer_to(VOID), INT, SIZE_T), False),
    "memcpy": (pointer_to(VOID), (pointer_to(VOID), pointer_to(VOID), SIZE_T), False),
    "rand": (INT, (), False),
    "srand": (VOID, (UINT,), False),
    "atoi": (INT, (pointer_to(CHAR.with_const()),), False),
    "atof": (DOUBLE, (pointer_to(CHAR.with_const()),), False),
    "exit": (VOID, (INT,), False),
    "assert": (VOID, (INT,), False),
    "omp_get_wtime": (DOUBLE, (), False),
    "omp_get_thread_num": (INT, (), False),
    "omp_get_num_threads": (INT, (), False),
    "omp_get_num_teams": (INT, (), False),
    "omp_get_team_num": (INT, (), False),
    "omp_is_initial_device": (INT, (), False),
}

BUILTIN_FUNCTION_NAMES = frozenset(_BUILTIN_SIGNATURES)

NodeT = TypeVar("NodeT", bound=A.Node)

_KERNEL_DIRECTIVE_CLASSES: dict[str, type] = {
    "target": A.OMPTargetDirective,
    "target parallel": A.OMPTargetParallelDirective,
    "target parallel for": A.OMPTargetParallelForDirective,
    "target parallel for simd": A.OMPTargetParallelForSimdDirective,
    "target parallel loop": A.OMPTargetParallelGenericLoopDirective,
    "target simd": A.OMPTargetSimdDirective,
    "target teams": A.OMPTargetTeamsDirective,
    "target teams distribute": A.OMPTargetTeamsDistributeDirective,
    "target teams distribute parallel for":
        A.OMPTargetTeamsDistributeParallelForDirective,
    "target teams distribute parallel for simd":
        A.OMPTargetTeamsDistributeParallelForSimdDirective,
    "target teams distribute simd": A.OMPTargetTeamsDistributeSimdDirective,
    "target teams loop": A.OMPTargetTeamsGenericLoopDirective,
}

_DATA_DIRECTIVE_CLASSES: dict[str, type] = {
    "target data": A.OMPTargetDataDirective,
    "target enter data": A.OMPTargetEnterDataDirective,
    "target exit data": A.OMPTargetExitDataDirective,
    "target update": A.OMPTargetUpdateDirective,
}


class _Scope:
    """One lexical scope of variable declarations."""

    __slots__ = ("names", "parent")

    def __init__(self, parent: "_Scope | None" = None):
        self.names: dict[str, A.Decl] = {}
        self.parent = parent

    def declare(self, name: str, decl: A.Decl) -> None:
        self.names[name] = decl

    def lookup(self, name: str) -> A.Decl | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class EnumConstantDecl(A.Decl):
    """An enumerator; behaves like a const int for the analyses."""

    __slots__ = ("name", "value", "qual_type")

    def __init__(self, name: str, value: int):
        super().__init__()
        self.name = name
        self.value = value
        self.qual_type = INT.with_const()


class Parser:
    """Parses a preprocessed token stream into a :class:`TranslationUnit`."""

    def __init__(self, tokens: list[Token], buffer: SourceBuffer):
        self.tokens = tokens
        self.buffer = buffer
        self.pos = 0
        self.typedefs: dict[str, QualType] = dict(BUILTIN_TYPEDEFS)
        self.struct_tags: dict[str, StructType] = {}
        self.scope = _Scope()
        self._pragma_parser = PragmaParser(self._parse_expr_text, buffer)
        self._implicit_decls: dict[str, A.FunctionDecl] = {}

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    # The token list always ends in EOF and ``pos`` never moves past
    # it, so the ahead=0 hot path is a plain index; only lookaheads
    # need the end guard.

    def _tok(self, ahead: int = 0) -> Token:
        toks = self.tokens
        i = self.pos + ahead
        return toks[i] if i < len(toks) else toks[-1]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _check(self, kind: TokenKind) -> bool:
        return self.tokens[self.pos].kind is kind

    def _accept(self, kind: TokenKind) -> Token | None:
        if self.tokens[self.pos].kind is kind:
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not kind:
            raise self._error(
                f"expected {what or kind.value!r}, found {tok.text or tok.kind.value!r}"
            )
        return self._advance()

    def _accept_keyword(self, *names: str) -> Token | None:
        if self._tok().is_keyword(*names):
            return self._advance()
        return None

    def _expect_keyword(self, name: str) -> Token:
        tok = self._tok()
        if not tok.is_keyword(name):
            raise self._error(f"expected {name!r}, found {tok.text!r}")
        return self._advance()

    def _error(self, message: str) -> ParseError:
        return ParseError(f"{self.buffer.location(self._tok().offset)}: {message}")

    def _offset(self) -> int:
        return self.tokens[self.pos].offset

    def _span(self, node: NodeT, begin: int, end: int | None = None) -> NodeT:
        """Place ``node`` at ``[begin, end)``; ``end`` defaults to the end
        of the last consumed token."""
        return node.set_span(
            begin, self._prev_end() if end is None else end, self.buffer
        )

    def _prev_end(self) -> int:
        if self.pos == 0:
            return 0
        return self.tokens[self.pos - 1].end_offset

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_translation_unit(self) -> A.TranslationUnit:
        start = self._offset()
        decls: list[A.Decl] = []
        while not self._check(TokenKind.EOF):
            if self._check(TokenKind.SEMI):
                self._advance()
                continue
            if self._check(TokenKind.PRAGMA):
                raise self._error("OpenMP directive outside of a function body")
            decls.extend(self._parse_external_declaration())
        tu = self._span(A.TranslationUnit(decls, self.buffer.filename), start)
        # Finalize the tree in one walk up front (walk indices and
        # parent links): the forward-reference fixup below and every
        # later analysis walk then iterate the cached list instead of
        # re-traversing children().
        tu.preorder()
        self._resolve_forward_references(tu)
        return tu

    def _resolve_forward_references(self, tu: A.TranslationUnit) -> None:
        """Bind DeclRefExprs to functions/globals defined later in the file.

        C technically requires declaration-before-use, but real benchmark
        sources frequently define ``main`` first; a post-parse fixup keeps
        the frontend permissive without a second full pass.
        """
        by_name: dict[str, A.Decl] = {}
        for fn in tu.functions():
            if fn.name not in by_name or fn.is_definition:
                by_name[fn.name] = fn
        for var in tu.global_vars():
            by_name.setdefault(var.name, var)
        for node in tu.walk():
            if isinstance(node, A.DeclRefExpr) and node.decl is None:
                decl = by_name.get(node.name)
                if decl is not None:
                    node.decl = decl
                    node.qual_type = self._decl_type(decl)
        # Recompute call-expression result types now that callees resolve.
        for node in tu.walk():
            if isinstance(node, A.CallExpr) and node.qual_type is None:
                node.qual_type = self._call_type(node.callee)

    def _parse_external_declaration(self) -> list[A.Decl]:
        start = self._offset()
        storage = ""
        while True:
            tok = self._accept_keyword("static", "extern", "inline", "auto", "register")
            if tok is None:
                break
            if tok.text in ("static", "extern"):
                storage = tok.text

        if self._tok().is_keyword("typedef"):
            return [self._parse_typedef(start)]

        base, record_decl = self._parse_type_specifier()
        # struct definition without declarators: `struct S { ... };`
        if record_decl is not None and self._check(TokenKind.SEMI):
            self._advance()
            return [record_decl]
        if self._check(TokenKind.SEMI):  # e.g. bare `enum {...};`
            self._advance()
            return []

        name, qt, params, variadic = self._parse_declarator(base)
        out: list[A.Decl] = [record_decl] if record_decl is not None else []

        if params is not None:  # function prototype or definition
            fn = self._parse_function_tail(name, qt, params, variadic, storage, start)
            self.scope.declare(name, fn)
            out.append(fn)
            return out

        # (Possibly multiple) global variable declarators.
        decls = self._parse_init_declarators(name, qt, base, storage, start, is_global=True)
        out.extend(decls)
        return out

    def _parse_typedef(self, start: int) -> A.TypedefDecl:
        self._expect_keyword("typedef")
        base, _ = self._parse_type_specifier()
        name, qt, params, _ = self._parse_declarator(base)
        if params is not None:
            raise self._error("function typedefs are not supported")
        self._expect(TokenKind.SEMI)
        self.typedefs[name] = qt
        return self._span(A.TypedefDecl(name, qt), start)

    def _parse_function_tail(
        self,
        name: str,
        return_type: QualType,
        params: list[A.ParmVarDecl],
        variadic: bool,
        storage: str,
        start: int,
    ) -> A.FunctionDecl:
        body: A.CompoundStmt | None = None
        if self._check(TokenKind.LBRACE):
            # Definition: params live in the function scope.
            self.scope = _Scope(self.scope)
            for p in params:
                self.scope.declare(p.name, p)
            fn_placeholder = A.FunctionDecl(
                name, return_type, params, None, storage=storage, variadic=variadic
            )
            # Allow recursion: the name resolves while parsing the body.
            self.scope.parent.declare(name, fn_placeholder)  # type: ignore[union-attr]
            body = self._parse_compound_stmt()
            self.scope = self.scope.parent  # type: ignore[assignment]
        else:
            self._expect(TokenKind.SEMI)
        fn = A.FunctionDecl(
            name, return_type, params, body, storage=storage, variadic=variadic
        )
        return self._span(fn, start)

    def _parse_init_declarators(
        self,
        first_name: str,
        first_type: QualType,
        base: QualType,
        storage: str,
        start: int,
        *,
        is_global: bool,
    ) -> list[A.VarDecl]:
        decls: list[A.VarDecl] = []
        name, qt = first_name, first_type
        while True:
            init: A.Expr | None = None
            if self._accept(TokenKind.EQUAL):
                init = self._parse_initializer()
            decl = self._span(
                A.VarDecl(name, qt, init, is_global=is_global, storage=storage),
                start,
            )
            self.scope.declare(name, decl)
            decls.append(decl)
            if not self._accept(TokenKind.COMMA):
                break
            name, qt, params, _ = self._parse_declarator(base)
            if params is not None:
                raise self._error("function declarator in variable declaration list")
        self._expect(TokenKind.SEMI)
        return decls

    # ------------------------------------------------------------------
    # Types & declarators
    # ------------------------------------------------------------------

    _TYPE_KEYWORDS = frozenset(
        {"void", "char", "short", "int", "long", "float", "double",
         "signed", "unsigned", "const", "volatile", "struct", "union",
         "enum", "_Bool", "restrict"}
    )

    def _starts_type(self, tok: Token) -> bool:
        if tok.kind is TokenKind.KEYWORD and tok.text in self._TYPE_KEYWORDS:
            return True
        return tok.kind is TokenKind.IDENTIFIER and tok.text in self.typedefs

    def _parse_type_specifier(self) -> tuple[QualType, A.RecordDecl | None]:
        """Parse a (possibly const-qualified) base type specifier."""
        const = False
        words: list[str] = []
        record_decl: A.RecordDecl | None = None
        result: QualType | None = None

        while True:
            tok = self._tok()
            if tok.is_keyword("const"):
                const = True
                self._advance()
                continue
            if tok.is_keyword("volatile", "restrict"):
                self._advance()
                continue
            if tok.is_keyword("struct", "union"):
                self._advance()
                result, record_decl = self._parse_struct_specifier()
                break
            if tok.is_keyword("enum"):
                self._advance()
                result = self._parse_enum_specifier()
                break
            if tok.kind is TokenKind.KEYWORD and tok.text in (
                "void", "char", "short", "int", "long", "float", "double",
                "signed", "unsigned", "_Bool",
            ):
                words.append(tok.text)
                self._advance()
                continue
            if (
                tok.kind is TokenKind.IDENTIFIER
                and tok.text in self.typedefs
                and not words
                and result is None
            ):
                result = self.typedefs[tok.text]
                self._advance()
                break
            break

        if result is None:
            if not words:
                raise self._error("expected a type specifier")
            result = self._resolve_builtin_type(words)
        if const:
            result = result.with_const()
        return result, record_decl

    @staticmethod
    def _resolve_builtin_type(words: list[str]) -> QualType:
        key = " ".join(sorted(words))
        unsigned = "unsigned" in words
        core = [w for w in words if w not in ("signed", "unsigned")]
        spelled = " ".join(core)
        table = {
            "": UINT if unsigned else INT,
            "void": VOID,
            "char": UCHAR if unsigned else CHAR,
            "short": USHORT if unsigned else SHORT,
            "short int": USHORT if unsigned else SHORT,
            "int": UINT if unsigned else INT,
            "long": ULONG if unsigned else LONG,
            "long int": ULONG if unsigned else LONG,
            "long long": ULONGLONG if unsigned else LONGLONG,
            "long long int": ULONGLONG if unsigned else LONGLONG,
            "float": FLOAT,
            "double": DOUBLE,
            "long double": LONGDOUBLE,
            "_Bool": BOOL,
        }
        if spelled not in table:
            raise ParseError(f"unsupported type specifier {key!r}")
        return table[spelled]

    def _parse_struct_specifier(self) -> tuple[QualType, A.RecordDecl | None]:
        start = self._offset()
        tag = ""
        if self._check(TokenKind.IDENTIFIER):
            tag = self._advance().text
        if not self._check(TokenKind.LBRACE):
            if tag in self.struct_tags:
                return QualType(self.struct_tags[tag]), None
            # Forward reference; create an empty placeholder.
            st = StructType(tag, ())
            self.struct_tags[tag] = st
            return QualType(st), None

        self._advance()  # '{'
        fields: list[A.FieldDecl] = []
        while not self._check(TokenKind.RBRACE):
            base, _ = self._parse_type_specifier()
            while True:
                fname, fqt, params, _ = self._parse_declarator(base)
                if params is not None:
                    raise self._error("function members are not supported")
                fields.append(self._span(A.FieldDecl(fname, fqt), start))
                if not self._accept(TokenKind.COMMA):
                    break
            self._expect(TokenKind.SEMI)
        self._expect(TokenKind.RBRACE)
        st = StructType(tag, tuple((f.name, f.qual_type) for f in fields))
        if tag:
            self.struct_tags[tag] = st
        record = self._span(A.RecordDecl(tag, fields, st), start)
        return QualType(st), record

    def _parse_enum_specifier(self) -> QualType:
        if self._check(TokenKind.IDENTIFIER):
            self._advance()  # enum tag (unused)
        if self._accept(TokenKind.LBRACE):
            next_value = 0
            while not self._check(TokenKind.RBRACE):
                name_tok = self._expect(TokenKind.IDENTIFIER, "enumerator name")
                if self._accept(TokenKind.EQUAL):
                    value_expr = self._parse_conditional()
                    value = self._fold_int(value_expr)
                    if value is None:
                        raise self._error("enumerator value must be a constant")
                    next_value = value
                self.scope.declare(name_tok.text, EnumConstantDecl(name_tok.text, next_value))
                next_value += 1
                if not self._accept(TokenKind.COMMA):
                    break
            self._expect(TokenKind.RBRACE)
        return INT

    def _parse_declarator(
        self, base: QualType
    ) -> tuple[str, QualType, list[A.ParmVarDecl] | None, bool]:
        """Parse ``* const * name [N][M] | name(params)``.

        Returns (name, type, params-or-None, variadic).
        """
        qt = base
        while self._accept(TokenKind.STAR):
            qt = pointer_to(qt)
            while self._accept_keyword("const", "volatile", "restrict"):
                if self.tokens[self.pos - 1].text == "const":
                    qt = qt.with_const()

        name_tok = self._expect(TokenKind.IDENTIFIER, "declarator name")
        name = name_tok.text

        if self._check(TokenKind.LPAREN):
            self._advance()
            params, variadic = self._parse_parameter_list()
            self._expect(TokenKind.RPAREN)
            return name, qt, params, variadic

        dims: list[int | None] = []
        while self._accept(TokenKind.LBRACKET):
            if self._check(TokenKind.RBRACKET):
                dims.append(None)
            else:
                size = self._parse_array_size()
                if size is None:
                    raise self._error("array size must be an integer constant")
                dims.append(size)
            self._expect(TokenKind.RBRACKET)
        for dim in reversed(dims):
            qt = array_of(qt, dim)
        return name, qt, None, False

    def _parse_array_size(self) -> int | None:
        """The size between ``[`` and ``]``: its folded value, or None
        when it is not an integer constant."""
        size = self._fold_int(self._parse_conditional())
        if size is not None and size < 0:
            raise self._error("array size is negative")
        return size

    def _parse_parameter_list(self) -> tuple[list[A.ParmVarDecl], bool]:
        params: list[A.ParmVarDecl] = []
        variadic = False
        if self._check(TokenKind.RPAREN):
            return params, variadic
        if self._tok().is_keyword("void") and self._tok(1).kind is TokenKind.RPAREN:
            self._advance()
            return params, variadic
        index = 0
        while True:
            if self._accept(TokenKind.ELLIPSIS):
                variadic = True
                break
            start = self._offset()
            base, _ = self._parse_type_specifier()
            qt = base
            while self._accept(TokenKind.STAR):
                qt = pointer_to(qt)
                while self._accept_keyword("const", "volatile", "restrict"):
                    if self.tokens[self.pos - 1].text == "const":
                        qt = qt.with_const()
            pname = ""
            if self._check(TokenKind.IDENTIFIER):
                pname = self._advance().text
            # Array parameters decay: T a[]  -> T*, T a[][N] -> T(*)[N].
            dims: list[int | None] = []
            while self._accept(TokenKind.LBRACKET):
                if self._check(TokenKind.RBRACKET):
                    dims.append(None)
                else:
                    dims.append(self._parse_array_size())
                self._expect(TokenKind.RBRACKET)
            if dims:
                inner = qt
                for dim in reversed(dims[1:]):
                    inner = array_of(inner, dim)
                qt = pointer_to(inner)
            params.append(
                self._span(A.ParmVarDecl(pname or f"<arg{index}>", qt, index), start)
            )
            index += 1
            if not self._accept(TokenKind.COMMA):
                break
        return params, variadic

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _parse_compound_stmt(self) -> A.CompoundStmt:
        start = self._offset()
        self._expect(TokenKind.LBRACE)
        self.scope = _Scope(self.scope)
        stmts: list[A.Stmt] = []
        while not self._check(TokenKind.RBRACE):
            if self._check(TokenKind.EOF):
                raise self._error("unterminated compound statement")
            stmts.append(self._parse_statement())
        self._expect(TokenKind.RBRACE)
        self.scope = self.scope.parent  # type: ignore[assignment]
        return self._span(A.CompoundStmt(stmts), start)

    def _parse_statement(self) -> A.Stmt:
        tok = self._tok()
        start = tok.offset

        if tok.kind is TokenKind.PRAGMA:
            return self._parse_omp_statement()
        if tok.kind is TokenKind.LBRACE:
            return self._parse_compound_stmt()
        if tok.kind is TokenKind.SEMI:
            self._advance()
            return self._span(A.NullStmt(), start)
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("do"):
            return self._parse_do()
        if tok.is_keyword("switch"):
            return self._parse_switch()
        if tok.is_keyword("case"):
            self._advance()
            value = self._parse_conditional()
            self._expect(TokenKind.COLON)
            sub = self._parse_statement()
            return self._span(A.CaseStmt(value, sub), start)
        if tok.is_keyword("default"):
            self._advance()
            self._expect(TokenKind.COLON)
            sub = self._parse_statement()
            return self._span(A.DefaultStmt(sub), start)
        if tok.is_keyword("break"):
            self._advance()
            self._expect(TokenKind.SEMI)
            return self._span(A.BreakStmt(), start)
        if tok.is_keyword("continue"):
            self._advance()
            self._expect(TokenKind.SEMI)
            return self._span(A.ContinueStmt(), start)
        if tok.is_keyword("return"):
            self._advance()
            value = None if self._check(TokenKind.SEMI) else self._parse_expression()
            self._expect(TokenKind.SEMI)
            return self._span(A.ReturnStmt(value), start)
        if tok.is_keyword("goto"):
            raise self._error("goto is not supported by the analysis (paper scope)")
        if self._starts_type(tok) or tok.is_keyword("static", "extern"):
            return self._parse_decl_stmt()

        expr = self._parse_expression()
        self._expect(TokenKind.SEMI)
        return self._span(A.ExprStmt(expr), start)

    def _parse_decl_stmt(self) -> A.DeclStmt:
        start = self._offset()
        storage = ""
        while True:
            tok = self._accept_keyword("static", "extern", "register", "auto")
            if tok is None:
                break
            if tok.text in ("static", "extern"):
                storage = tok.text
        base, record = self._parse_type_specifier()
        if record is not None and self._check(TokenKind.SEMI):
            self._advance()
            return self._span(A.DeclStmt([]), start)
        name, qt, params, _ = self._parse_declarator(base)
        if params is not None:
            raise self._error("nested function declarations are not supported")
        decls = self._parse_init_declarators(
            name, qt, base, storage, start, is_global=False
        )
        return self._span(A.DeclStmt(decls), start)

    def _parse_initializer(self) -> A.Expr:
        if self._check(TokenKind.LBRACE):
            start = self._offset()
            self._advance()
            inits: list[A.Expr] = []
            while not self._check(TokenKind.RBRACE):
                inits.append(self._parse_initializer())
                if not self._accept(TokenKind.COMMA):
                    break
            self._expect(TokenKind.RBRACE)
            return self._span(A.InitListExpr(inits), start)
        return self._parse_assignment()

    def _parse_if(self) -> A.IfStmt:
        start = self._offset()
        self._expect_keyword("if")
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN)
        then_branch = self._parse_statement()
        else_branch = None
        if self._accept_keyword("else"):
            else_branch = self._parse_statement()
        return self._span(A.IfStmt(cond, then_branch, else_branch), start)

    def _parse_for(self) -> A.ForStmt:
        start = self._offset()
        self._expect_keyword("for")
        self._expect(TokenKind.LPAREN)
        self.scope = _Scope(self.scope)
        init: A.Stmt | None = None
        if not self._check(TokenKind.SEMI):
            if self._starts_type(self._tok()):
                init = self._parse_decl_stmt()
            else:
                init_start = self._offset()
                expr = self._parse_expression()
                self._expect(TokenKind.SEMI)
                init = self._span(A.ExprStmt(expr), init_start)
        else:
            self._advance()
        cond = None if self._check(TokenKind.SEMI) else self._parse_expression()
        self._expect(TokenKind.SEMI)
        inc = None if self._check(TokenKind.RPAREN) else self._parse_expression()
        self._expect(TokenKind.RPAREN)
        body = self._parse_statement()
        self.scope = self.scope.parent  # type: ignore[assignment]
        return self._span(A.ForStmt(init, cond, inc, body), start)

    def _parse_while(self) -> A.WhileStmt:
        start = self._offset()
        self._expect_keyword("while")
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN)
        body = self._parse_statement()
        return self._span(A.WhileStmt(cond, body), start)

    def _parse_do(self) -> A.DoStmt:
        start = self._offset()
        self._expect_keyword("do")
        body = self._parse_statement()
        self._expect_keyword("while")
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMI)
        return self._span(A.DoStmt(body, cond), start)

    def _parse_switch(self) -> A.SwitchStmt:
        start = self._offset()
        self._expect_keyword("switch")
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN)
        body = self._parse_statement()
        return self._span(A.SwitchStmt(cond, body), start)

    # ------------------------------------------------------------------
    # OpenMP
    # ------------------------------------------------------------------

    def _parse_omp_statement(self) -> A.Stmt:
        tok = self._advance()
        assert tok.kind is TokenKind.PRAGMA
        parsed = self._pragma_parser.parse(str(tok.value), tok.offset)
        kind, category = parsed.directive_kind, parsed.category

        associated: A.Stmt | None = None
        if category in ("kernel", "data", "host"):
            associated = self._parse_statement()
        end_offset = associated.end_offset if associated is not None else tok.end_offset

        if category == "kernel":
            cls = _KERNEL_DIRECTIVE_CLASSES[kind]
        elif category in ("data", "standalone-data"):
            cls = _DATA_DIRECTIVE_CLASSES[kind]
        else:
            cls = A.OMPHostDirective
        directive = cls(kind, parsed.clauses, associated, parsed.raw_text)
        return self._span(directive, tok.offset, end_offset)

    def _parse_expr_text(self, text: str, anchor: int) -> A.Expr:
        """Parse an expression embedded in pragma clause text.

        The expression gets its own buffer, named after the pragma's
        line, so its nodes' offsets index the clause text.
        """
        line, _ = self.buffer.line_col(anchor)
        sub_buffer = SourceBuffer(text, f"<pragma@{line}>")
        sub = Parser(list(scan(sub_buffer)), sub_buffer)
        sub.typedefs = self.typedefs
        sub.struct_tags = self.struct_tags
        sub.scope = self.scope
        expr = sub._parse_expression()
        if not sub._check(TokenKind.EOF):
            raise ParseError(
                f"{self.buffer.location(anchor)}: trailing tokens in pragma "
                f"expression {text!r}"
            )
        return expr

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def _parse_expression(self) -> A.Expr:
        expr = self._parse_assignment()
        while self._check(TokenKind.COMMA):
            self._advance()
            rhs = self._parse_assignment()
            expr = self._span(
                A.BinaryOperator(",", expr, rhs, rhs.qual_type),
                expr.begin_offset, rhs.end_offset,
            )
        return expr

    _ASSIGN_KINDS = {
        TokenKind.EQUAL: "=",
        TokenKind.PLUSEQUAL: "+=",
        TokenKind.MINUSEQUAL: "-=",
        TokenKind.STAREQUAL: "*=",
        TokenKind.SLASHEQUAL: "/=",
        TokenKind.PERCENTEQUAL: "%=",
        TokenKind.AMPEQUAL: "&=",
        TokenKind.PIPEEQUAL: "|=",
        TokenKind.CARETEQUAL: "^=",
        TokenKind.LESSLESSEQUAL: "<<=",
        TokenKind.GREATERGREATEREQUAL: ">>=",
    }

    def _parse_assignment(self) -> A.Expr:
        lhs = self._parse_conditional()
        op = self._ASSIGN_KINDS.get(self._tok().kind)
        if op is None:
            return lhs
        self._advance()
        rhs = self._parse_assignment()
        cls = A.CompoundAssignOperator if op != "=" else A.BinaryOperator
        return self._span(
            cls(op, lhs, rhs, lhs.qual_type), lhs.begin_offset, rhs.end_offset
        )

    def _parse_conditional(self) -> A.Expr:
        cond = self._parse_binary(0)
        if not self._check(TokenKind.QUESTION):
            return cond
        self._advance()
        true_expr = self._parse_expression()
        self._expect(TokenKind.COLON)
        false_expr = self._parse_conditional()
        return self._span(
            A.ConditionalOperator(cond, true_expr, false_expr, true_expr.qual_type),
            cond.begin_offset, false_expr.end_offset,
        )

    _BINARY_LEVELS: list[dict[TokenKind, str]] = [
        {TokenKind.PIPEPIPE: "||"},
        {TokenKind.AMPAMP: "&&"},
        {TokenKind.PIPE: "|"},
        {TokenKind.CARET: "^"},
        {TokenKind.AMP: "&"},
        {TokenKind.EQUALEQUAL: "==", TokenKind.EXCLAIMEQUAL: "!="},
        {TokenKind.LESS: "<", TokenKind.GREATER: ">",
         TokenKind.LESSEQUAL: "<=", TokenKind.GREATEREQUAL: ">="},
        {TokenKind.LESSLESS: "<<", TokenKind.GREATERGREATER: ">>"},
        {TokenKind.PLUS: "+", TokenKind.MINUS: "-"},
        {TokenKind.STAR: "*", TokenKind.SLASH: "/", TokenKind.PERCENT: "%"},
    ]

    #: Flattened operator table for precedence climbing:
    #: kind -> (level, spelling).  Derived from ``_BINARY_LEVELS`` so the
    #: grammar stays declared in one place.
    _BINARY_OPS: dict[TokenKind, tuple[int, str]] = {
        kind: (level, op)
        for level, ops in enumerate(_BINARY_LEVELS)
        for kind, op in ops.items()
    }

    def _parse_binary(self, level: int) -> A.Expr:
        # Precedence climbing: parses every left-associative binary
        # operator of precedence >= ``level`` in one loop, recursing
        # only for genuinely nested (tighter-binding) right operands —
        # the ladder formulation recursed through every level per
        # operand, which dominated parse time at batch scale.  Produces
        # the identical AST.
        binary_ops = self._BINARY_OPS
        lhs = self._parse_cast()
        while True:
            info = binary_ops.get(self.tokens[self.pos].kind)
            if info is None or info[0] < level:
                return lhs
            op_level, op = info
            self.pos += 1  # the operator token (never EOF: it is in the map)
            rhs = self._parse_binary(op_level + 1)
            lhs = self._span(
                A.BinaryOperator(op, lhs, rhs, self._binary_type(op, lhs, rhs)),
                lhs.begin_offset, rhs.end_offset,
            )

    def _parse_cast(self) -> A.Expr:
        if self._check(TokenKind.LPAREN) and self._starts_type(self._tok(1)):
            start = self._offset()
            self._advance()
            base, _ = self._parse_type_specifier()
            qt = base
            while self._accept(TokenKind.STAR):
                qt = pointer_to(qt)
                while self._accept_keyword("const", "volatile", "restrict"):
                    pass
            self._expect(TokenKind.RPAREN)
            operand = self._parse_cast()
            return self._span(A.CStyleCastExpr(qt, operand), start)
        return self._parse_unary()

    _SIMPLE_UNARY = {
        TokenKind.PLUS: "+", TokenKind.MINUS: "-",
        TokenKind.EXCLAIM: "!", TokenKind.TILDE: "~",
    }

    def _parse_unary(self) -> A.Expr:
        tok = self.tokens[self.pos]
        start = tok.offset
        simple = self._SIMPLE_UNARY
        if tok.kind in simple:
            self._advance()
            operand = self._parse_cast()
            qt = INT if simple[tok.kind] in ("!",) else operand.qual_type
            return self._span(
                A.UnaryOperator(simple[tok.kind], operand, True, qt),
                start, operand.end_offset,
            )
        if tok.kind in (TokenKind.PLUSPLUS, TokenKind.MINUSMINUS):
            self._advance()
            operand = self._parse_unary()
            op = "++" if tok.kind is TokenKind.PLUSPLUS else "--"
            return self._span(
                A.UnaryOperator(op, operand, True, operand.qual_type),
                start, operand.end_offset,
            )
        if tok.kind is TokenKind.STAR:
            self._advance()
            operand = self._parse_cast()
            qt = None
            if operand.qual_type is not None and operand.qual_type.is_pointer:
                qt = operand.qual_type.pointee()
            elif operand.qual_type is not None and operand.qual_type.is_array:
                qt = operand.qual_type.element()
            return self._span(
                A.UnaryOperator("*", operand, True, qt), start, operand.end_offset
            )
        if tok.kind is TokenKind.AMP:
            self._advance()
            operand = self._parse_cast()
            qt = pointer_to(operand.qual_type) if operand.qual_type else None
            return self._span(
                A.UnaryOperator("&", operand, True, qt), start, operand.end_offset
            )
        if tok.is_keyword("sizeof"):
            self._advance()
            if self._check(TokenKind.LPAREN) and self._starts_type(self._tok(1)):
                self._advance()
                base, _ = self._parse_type_specifier()
                qt = base
                while self._accept(TokenKind.STAR):
                    qt = pointer_to(qt)
                self._expect(TokenKind.RPAREN)
                return self._span(A.SizeOfExpr(qt, None, SIZE_T), start)
            operand = self._parse_unary()
            return self._span(A.SizeOfExpr(None, operand, SIZE_T), start)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._tok()
            if tok.kind is TokenKind.LBRACKET:
                self._advance()
                index = self._parse_expression()
                end_tok = self._expect(TokenKind.RBRACKET)
                qt = self._subscript_type(expr)
                expr = self._span(
                    A.ArraySubscriptExpr(expr, index, qt),
                    expr.begin_offset, end_tok.end_offset,
                )
            elif tok.kind is TokenKind.LPAREN:
                self._advance()
                args: list[A.Expr] = []
                if not self._check(TokenKind.RPAREN):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._accept(TokenKind.COMMA):
                            break
                end_tok = self._expect(TokenKind.RPAREN)
                qt = self._call_type(expr)
                expr = self._span(
                    A.CallExpr(expr, args, qt), expr.begin_offset, end_tok.end_offset
                )
            elif tok.kind in (TokenKind.DOT, TokenKind.ARROW):
                is_arrow = tok.kind is TokenKind.ARROW
                self._advance()
                member = self._expect(TokenKind.IDENTIFIER, "member name")
                qt = self._member_type(expr, member.text, is_arrow)
                expr = self._span(
                    A.MemberExpr(expr, member.text, is_arrow, qt),
                    expr.begin_offset, member.end_offset,
                )
            elif tok.kind in (TokenKind.PLUSPLUS, TokenKind.MINUSMINUS):
                self._advance()
                op = "++" if tok.kind is TokenKind.PLUSPLUS else "--"
                expr = self._span(
                    A.UnaryOperator(op, expr, False, expr.qual_type),
                    expr.begin_offset, tok.end_offset,
                )
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self._tok()
        start = tok.offset
        # Identifiers are the most common primary by far — test first.
        if tok.kind is TokenKind.IDENTIFIER:
            self._advance()
            decl = self.scope.lookup(tok.text)
            if decl is None:
                decl = self._implicit_function(tok.text)
            qt = self._decl_type(decl)
            return self._span(A.DeclRefExpr(tok.text, decl, qt), start, tok.end_offset)
        if tok.kind is TokenKind.INT_LITERAL:
            self._advance()
            node = A.IntegerLiteral(int(tok.value), INT)  # type: ignore[arg-type]
            return self._span(node, start, tok.end_offset)
        if tok.kind is TokenKind.FLOAT_LITERAL:
            self._advance()
            node = A.FloatingLiteral(float(tok.value), DOUBLE)  # type: ignore[arg-type]
            return self._span(node, start, tok.end_offset)
        if tok.kind is TokenKind.CHAR_LITERAL:
            self._advance()
            node = A.CharacterLiteral(int(tok.value), INT)  # type: ignore[arg-type]
            return self._span(node, start, tok.end_offset)
        if tok.kind is TokenKind.STRING_LITERAL:
            self._advance()
            value = str(tok.value)
            end = tok.end_offset
            # Adjacent string literal concatenation.
            while self._check(TokenKind.STRING_LITERAL):
                nxt = self._advance()
                value += str(nxt.value)
                end = nxt.end_offset
            node = A.StringLiteral(value, pointer_to(CHAR.with_const()))
            return self._span(node, start, end)
        if tok.kind is TokenKind.LPAREN:
            self._advance()
            inner = self._parse_expression()
            end_tok = self._expect(TokenKind.RPAREN)
            return self._span(A.ParenExpr(inner), start, end_tok.end_offset)
        raise self._error(f"unexpected token {tok.text or tok.kind.value!r} in expression")

    # ------------------------------------------------------------------
    # Light type computation
    # ------------------------------------------------------------------

    def _implicit_function(self, name: str) -> A.FunctionDecl | None:
        if name in self._implicit_decls:
            return self._implicit_decls[name]
        sig = _BUILTIN_SIGNATURES.get(name)
        if sig is None:
            return None
        ret, param_types, variadic = sig
        params = [
            A.ParmVarDecl(f"<arg{i}>", qt, i) for i, qt in enumerate(param_types)
        ]
        fn = A.FunctionDecl(name, ret, params, None, variadic=variadic)
        self._implicit_decls[name] = fn
        return fn

    @staticmethod
    def _decl_type(decl: A.Decl | None) -> QualType | None:
        if isinstance(decl, A.VarDecl):
            return decl.qual_type
        if isinstance(decl, EnumConstantDecl):
            return decl.qual_type
        if isinstance(decl, A.FunctionDecl):
            return QualType(
                FunctionType(decl.return_type,
                             tuple(p.qual_type for p in decl.params),
                             decl.variadic)
            )
        return None

    @staticmethod
    def _subscript_type(base: A.Expr) -> QualType | None:
        qt = base.qual_type
        if qt is None:
            return None
        if qt.is_array:
            return qt.element()
        if qt.is_pointer:
            return qt.pointee()
        return None

    @staticmethod
    def _call_type(callee: A.Expr) -> QualType | None:
        qt = callee.qual_type
        if qt is not None and isinstance(qt.type, FunctionType):
            return qt.type.return_type
        return None

    @staticmethod
    def _member_type(base: A.Expr, member: str, is_arrow: bool) -> QualType | None:
        qt = base.qual_type
        if qt is None:
            return None
        if is_arrow and qt.is_pointer:
            qt = qt.pointee()
        if isinstance(qt.type, StructType) and qt.type.has_field(member):
            return qt.type.field_type(member)
        return None

    @staticmethod
    def _binary_type(op: str, lhs: A.Expr, rhs: A.Expr) -> QualType | None:
        if op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            return INT
        lt, rt = lhs.qual_type, rhs.qual_type
        if lt is None or rt is None:
            return lt or rt
        if lt.is_pointer or lt.is_array:
            return lt
        if rt.is_pointer or rt.is_array:
            return rt
        if lt.is_floating and not rt.is_floating:
            return lt
        if rt.is_floating and not lt.is_floating:
            return rt
        return lt if lt.size >= rt.size else rt

    # ------------------------------------------------------------------
    # Constant folding (array sizes, enum values, loop bound analysis)
    # ------------------------------------------------------------------

    def _fold_int(self, expr: A.Expr) -> int | None:
        return fold_integer_constant(expr)


#: Integer folds of the binary operators.  Assignments and ``,`` do
#: not fold, nor do ``/`` and ``%`` by zero, nor shifts by a count
#: outside 0-63: C leaves those undefined, and an unbounded count would
#: make Python build a huge int.
_FOLD_BINARY: dict[str, Callable[[int, int], int | None]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": lambda a, b: int(a / b) if b else None,
    "%": lambda a, b: a - int(a / b) * b if b else None,
    "<<": lambda a, b: a << b if 0 <= b < 64 else None,
    ">>": lambda a, b: a >> b if 0 <= b < 64 else None,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}

_FOLD_UNARY: dict[str, Callable[[int], int]] = {
    "-": operator.neg,
    "+": operator.pos,
    "~": operator.invert,
    "!": lambda v: int(not v),
}


def fold_integer_constant(expr: A.Expr) -> int | None:
    """Evaluate an integer constant expression, or None if not constant."""
    if isinstance(expr, A.IntegerLiteral):
        return expr.value
    if isinstance(expr, A.CharacterLiteral):
        return expr.value
    if isinstance(expr, A.ParenExpr):
        return fold_integer_constant(expr.inner)
    if isinstance(expr, A.DeclRefExpr) and isinstance(expr.decl, EnumConstantDecl):
        return expr.decl.value
    if isinstance(expr, A.SizeOfExpr):
        if expr.arg_type is not None:
            return expr.arg_type.size
        if expr.arg_expr is not None and expr.arg_expr.qual_type is not None:
            return expr.arg_expr.qual_type.size
        return None
    if isinstance(expr, A.UnaryOperator) and expr.is_prefix:
        fold = _FOLD_UNARY.get(expr.op)
        if fold is None:
            return None
        val = fold_integer_constant(expr.operand)
        return None if val is None else fold(val)
    if isinstance(expr, A.BinaryOperator):
        fold = _FOLD_BINARY.get(expr.op)
        if fold is None:
            return None
        lhs = fold_integer_constant(expr.lhs)
        if lhs is None:
            return None
        rhs = fold_integer_constant(expr.rhs)
        return None if rhs is None else fold(lhs, rhs)
    if isinstance(expr, A.ConditionalOperator):
        cond = fold_integer_constant(expr.cond)
        if cond is None:
            return None
        return fold_integer_constant(expr.true_expr if cond else expr.false_expr)
    if isinstance(expr, A.CStyleCastExpr):
        return fold_integer_constant(expr.operand)
    return None


def parse_source(
    text: str,
    filename: str = "<input>",
    predefined: dict[str, object] | None = None,
) -> A.TranslationUnit:
    """Preprocess and parse C source text into a :class:`TranslationUnit`."""
    tokens, buffer = preprocess(text, filename, predefined)
    parser = Parser(tokens, buffer)
    return parser.parse_translation_unit()


def parse_file(path: str, predefined: dict[str, object] | None = None) -> A.TranslationUnit:
    """Parse a C file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_source(fh.read(), path, predefined)
