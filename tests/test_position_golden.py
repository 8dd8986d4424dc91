"""Golden pins for every place a source position is rendered.

Positions reach the user through the AST dump, the AST-CFG DOT labels,
the ``--report`` plan lines, diagnostics and error messages.  This
module pins all of them: sha256 digests per input for the bulky ones
(the 18 program files plus the 9 transformed outputs of the
unoptimized programs) and the full text of every diagnostic and of one
fixture per error path that names a position.  It also pins the
preprocessed token stream those renderings start from: one digest per
input, plus one macro fixture, of every token's kind, text, offsets,
value and macro origin.

The data in ``data/position_golden.json`` was generated from the tool
as it stood before source positions became integer offsets, and the
token digests from the lexer as it stood before it became one
generator scan; run this module as a script to regenerate it::

    PYTHONPATH=src python tests/test_position_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.cfg import astcfg_to_dot, build_astcfgs
from repro.core.tool import OMPDart
from repro.diagnostics import ToolError
from repro.frontend import dump_ast, parse_source, preprocess
from repro.suite.registry import PROGRAMS_DIR

GOLDEN = Path(__file__).with_name("data") / "position_golden.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


PROGRAMS = sorted(path.name for path in PROGRAMS_DIR.glob("*.c"))
INPUT_NAMES = sorted(
    PROGRAMS
    + [n.replace("_unoptimized", "_transformed") for n in PROGRAMS if "_unopt" in n]
)


def _canonical_dot(dot: str) -> str:
    """``dot`` with node ids renumbered by first appearance: CFG node
    ids come from a process-wide counter, so they depend on what ran
    before in the same process."""
    ids: dict[str, str] = {}
    return re.sub(
        r"\bn(\d+)\b", lambda m: ids.setdefault(m.group(1), f"n{len(ids) + 1}"), dot
    )


@functools.cache
def _inputs() -> dict[str, str]:
    """The 18 program files plus the transformed unoptimized programs."""
    inputs = {name: (PROGRAMS_DIR / name).read_text() for name in PROGRAMS}
    for name in PROGRAMS:
        if name.endswith("_unoptimized.c"):
            out = OMPDart().run(inputs[name], name).output_source
            inputs[name.replace("_unoptimized", "_transformed")] = out
    return inputs


def render_positions(name: str, source: str) -> dict[str, object]:
    """Every position-bearing rendering of one input."""
    tu = parse_source(source, name)
    cfgs = "".join(
        _canonical_dot(astcfg_to_dot(c)) + "\n" for c in build_astcfgs(tu).values()
    )
    entry: dict[str, object] = {
        "dump_ast": _sha(dump_ast(tu)),
        "dump_cfg": _sha(cfgs),
    }
    try:
        result = OMPDart().run(source, name)
    except ToolError as exc:
        entry["plan"] = None
        entry["rewrite"] = None
        entry["diagnostics"] = [str(exc)] + [d.render() for d in exc.diagnostics]
        return entry
    entry["plan"] = _sha("\n".join(plan.describe() for plan in result.plans))
    entry["rewrite"] = _sha(result.output_source)
    entry["diagnostics"] = [d.render() for d in result.diagnostics]
    return entry


def _golden() -> dict[str, object]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", INPUT_NAMES)
def test_program_renderings_match_golden(name):
    assert render_positions(name, _inputs()[name]) == _golden()["inputs"][name]


def test_golden_covers_every_input():
    assert sorted(_golden()["inputs"]) == sorted(_inputs()) == INPUT_NAMES
    assert len(INPUT_NAMES) == 27


# -- the preprocessed token stream -------------------------------------------

#: What the 18 programs (object-like ``#define`` only) leave out:
#: function-like and nested expansion, ``#ifdef``/``#else``, line
#: splices, comments inside directives, and every literal class.
MACRO_FIXTURE_NAME = "macro_fixture.c"
MACRO_FIXTURE = (
    "#define N 16\n"
    "#define SQ(x) ((x) * (x))\n"
    "#define ADD(a, b) (SQ(a) + (b)) /* nested: SQ inside ADD */\n"
    "#define SCALE 2.5f // a comment inside a directive\n"
    "#define WIDE (N + \\\n"
    "              N)\n"
    "#ifdef N\n"
    "int a[N];\n"
    "#else\n"
    "int a[1];\n"
    "#endif\n"
    "#ifndef MISSING\n"
    "double s = SCALE;\n"
    "#else\n"
    "double s = 0;\n"
    "#endif\n"
    "#if defined(N)\n"
    "unsigned h = 0x1Fu + 'x' + '\\n';\n"
    "#endif\n"
    "#if 0\n"
    "int never;\n"
    "#endif\n"
    "#pragma once\n"
    "#include <stdio.h>\n"
    "int main() {\n"
    "  int t = ADD(N, SQ(3)) + WIDE;\n"
    "  double e = 1e3 + .5 + 1.0;\n"
    '  printf("%d\\t%s\\n", t, "a\\"b");\n'
    "  #pragma omp target teams distribute \\\n"
    "      parallel for map(tofrom: a) /* clause comment */\n"
    "  for (int i = 0; i < N; i++) a[i] = SQ(i) /* inline */ + t;\n"
    "  return 0;\n"
    "}\n"
)


def _token_inputs() -> dict[str, str]:
    return {**_inputs(), MACRO_FIXTURE_NAME: MACRO_FIXTURE}


def token_digest(name: str, source: str) -> str:
    """sha256 of the ``preprocess`` artifact's token list."""
    tokens, _ = preprocess(source, name)
    return _sha(
        "\n".join(
            repr((t.kind.name, t.text, t.offset, t.end_offset, t.value,
                  t.expanded_from))
            for t in tokens
        )
    )


@pytest.mark.parametrize("name", sorted(INPUT_NAMES + [MACRO_FIXTURE_NAME]))
def test_token_stream_matches_golden(name):
    assert token_digest(name, _token_inputs()[name]) == _golden()["tokens"][name]


def test_token_golden_covers_every_input():
    assert sorted(_golden()["tokens"]) == sorted(_token_inputs())
    assert len(_golden()["tokens"]) == 28


def test_macro_fixture_exercises_expansion():
    tokens, _ = preprocess(MACRO_FIXTURE, MACRO_FIXTURE_NAME)
    origins = {t.expanded_from for t in tokens}
    assert {"N", "SQ", "ADD", "SCALE", "WIDE"} <= origins
    assert "never" not in {t.text for t in tokens}
    assert sum(t.kind.name == "PRAGMA" for t in tokens) == 1


# -- one fixture per error path that renders a position ---------------------

ERROR_FIXTURES: dict[str, str] = {
    "parse_error": "int x = ;\n",
    "unterminated_string": 'int main() {\n  char *s = "abc;\n}\n',
    "else_without_if": "int x;\n#else\nint y;\n",
    "unterminated_macro_args": "#define F(a) a\nint main() {\n  return F(1;\n}\n",
    "unrecognized_directive": (
        "int main() {\n  #pragma omp bogus\n  return 0;\n}\n"
    ),
    "pragma_trailing_tokens": (
        "int a[4];\nint main() {\n  int n = 4;\n"
        "  #pragma omp target teams num_teams(n n)\n"
        "  for (int i = 0; i < 4; i++) a[i] = i;\n  return 0;\n}\n"
    ),
    "data_management_constraint": (
        "int a[4];\nint main() {\n"
        "  #pragma omp target data map(tofrom: a)\n  {\n"
        "    #pragma omp target\n"
        "    for (int i = 0; i < 4; i++) a[i] = i;\n  }\n  return 0;\n}\n"
    ),
    "declaration_after_region": (
        "int a[4];\nint main() {\n"
        "  #pragma omp target\n"
        "  for (int i = 0; i < 4; i++) a[i] = i;\n"
        "  int b[4];\n  b[0] = a[0];\n"
        "  #pragma omp target\n"
        "  for (int i = 0; i < 4; i++) a[i] += b[0];\n"
        "  return b[0];\n}\n"
    ),
    "break_outside_loop": "int main() {\n  break;\n  return 0;\n}\n",
}


def render_error(source: str) -> list[str]:
    """The exception text and rendered diagnostics of a failing run."""
    try:
        OMPDart().run(source, "err.c")
    except ToolError as exc:
        return [str(exc)] + [d.render() for d in exc.diagnostics]
    raise AssertionError("error fixture did not fail")


@pytest.mark.parametrize("case", sorted(ERROR_FIXTURES))
def test_error_renderings_match_golden(case):
    assert render_error(ERROR_FIXTURES[case]) == _golden()["errors"][case]


def test_every_error_fixture_names_a_position():
    for case, lines in _golden()["errors"].items():
        assert any("err.c:" in line for line in lines), case


# Clause expressions are parsed from their own ``<pragma@N>`` buffer,
# so their dump positions are relative to the clause text.  No program
# file has a clause expression with a nonzero column.
SECTION_DUMP_SOURCE = (
    "int main() {\n"
    "  int n = 8;\n"
    "  double a[8];\n"
    "  #pragma omp target teams distribute parallel for"
    " map(tofrom: a[0:n]) num_teams(n + 1)\n"
    "  for (int i = 0; i < n; i++) a[i] = i;\n"
    "  return 0;\n"
    "}\n"
)


def test_clause_expression_dump_matches_golden():
    tu = parse_source(SECTION_DUMP_SOURCE, "clauses.c")
    assert dump_ast(tu).splitlines() == _golden()["clause_dump"]


def _regenerate() -> None:
    data = {
        "inputs": {n: render_positions(n, s) for n, s in sorted(_inputs().items())},
        "errors": {c: render_error(s) for c, s in sorted(ERROR_FIXTURES.items())},
        "clause_dump": dump_ast(
            parse_source(SECTION_DUMP_SOURCE, "clauses.c")
        ).splitlines(),
        "tokens": {n: token_digest(n, s) for n, s in sorted(_token_inputs().items())},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
