"""Source positions are integer offsets: spans nest, and neither tokens,
AST nodes nor pickled records hold location objects."""

import io
import pickle
from collections import Counter

import pytest

from repro.frontend import ast_nodes as A
from repro.frontend import parse_source, preprocess
from repro.frontend.parser import Parser
from repro.frontend.tokens import Token
from repro.pipeline import artifacts as AR
from repro.pipeline.manager import PassManager
from repro.suite.registry import PROGRAMS_DIR
from repro.suite.synth import generate_corpus

#: Class names of the per-token / per-node position objects that
#: integer offsets replaced.
LOCATION_TYPES = {"SourceLocation", "SourceRange"}

MACRO_SUBSCRIPT = """
#define N 1000
#define SQ(x) ((x) * (x))
double a[N];
double f(int i) {
  a[i] += SQ(i);
  return a[N - 1] + SQ(a[N]);
}
"""


def _escaping_spans(tu: A.TranslationUnit) -> list[str]:
    """Nodes whose span leaves their parent's, within one buffer."""
    bad = []
    for node in tu.walk():
        parent = node.parent
        if parent is None or node.buffer is None or node.buffer is not parent.buffer:
            continue
        if not (
            parent.begin_offset <= node.begin_offset
            and node.end_offset <= parent.end_offset
        ):
            bad.append(f"{node.class_name} in {parent.class_name}")
    return bad


def _span_inputs():
    programs = [(p.name, p.read_text()) for p in sorted(PROGRAMS_DIR.glob("*.c"))]
    seen = set()
    corpus = []
    for name, source in generate_corpus(360, seed=0):
        if source not in seen:
            seen.add(source)
            corpus.append((name, source))
    return programs + corpus


class TestSpansNest:
    def test_macro_expansion_ends_at_the_macro_use(self):
        tu = parse_source(MACRO_SUBSCRIPT, "m.c")

        def spelled(kind):
            return {
                MACRO_SUBSCRIPT[n.begin_offset:n.end_offset]
                for n in tu.walk_instances(kind)
            }

        # An object-like use ends with its name, a function-like one
        # with its closing parenthesis.
        assert spelled(A.IntegerLiteral) == {"N", "1", "SQ(a[N])"}
        assert spelled(A.ParenExpr) == {"SQ(i)", "SQ(a[N])"}
        assert _escaping_spans(tu) == []

    def test_child_spans_lie_inside_parent_spans(self):
        inputs = _span_inputs()
        assert len(inputs) == 18 + 234
        bad = {}
        for name, source in inputs:
            escaping = _escaping_spans(parse_source(source, name))
            if escaping:
                bad[name] = escaping
        assert bad == {}


def _slot_values(obj):
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if hasattr(obj, slot):
                yield slot, getattr(obj, slot)


class _TypeCounter(pickle.Pickler):
    def __init__(self, file):
        super().__init__(file, protocol=5)
        self.counts: Counter[str] = Counter()

    def reducer_override(self, obj):
        self.counts[type(obj).__name__] += 1
        return NotImplemented


@pytest.fixture(scope="module")
def lulesh():
    return (PROGRAMS_DIR / "lulesh_unoptimized.c").read_text()


class TestNoLocationObjects:
    def test_positions_are_plain_ints(self):
        assert "location" not in Token.__slots__
        assert not any("range" in getattr(c, "__slots__", ()) for c in A.Node.__mro__)
        from repro.frontend import source

        assert not hasattr(source, "SourceRange")

    def test_parsing_allocates_no_location_objects(self, lulesh):
        tokens, buffer = preprocess(lulesh, "lulesh.c")
        tu = Parser(tokens, buffer).parse_translation_unit()
        held = Counter()
        for obj in [*tokens, *tu.walk()]:
            for slot, value in _slot_values(obj):
                if type(value).__name__ in LOCATION_TYPES:
                    held[f"{type(obj).__name__}.{slot}"] += 1
        assert held == Counter()
        assert all(type(t.offset) is int for t in tokens)
        assert all(
            type(n.begin_offset) is int and type(n.end_offset) is int
            for n in tu.walk()
        )

    def test_record_pickles_no_location_objects(self, lulesh):
        manager = PassManager()
        record = manager.run(lulesh, "lulesh.c", until="codegen").artifacts
        record.update(manager.run(lulesh, "lulesh.c").artifacts)
        assert set(record) == {p.name for p in manager.passes}
        counter = _TypeCounter(io.BytesIO())
        counter.dump((AR.RECORD_VERSION, record))
        assert counter.counts["Token"] > 0
        assert {t: counter.counts[t] for t in LOCATION_TYPES} == dict.fromkeys(
            LOCATION_TYPES, 0
        )
