"""The spill record: one file per input holding every stored pass's
artifact in a summary part and an analysis part, each decoded only when
a run asks for one of its passes, versioned keys, quarantine of broken
records, and the retired spill formats staying unread."""

import collections
import dataclasses
import gc
import io
import pickle
import threading
import time
import zlib

import pytest

from repro.analysis.placement import Placement
from repro.analysis.validity import ValidityResult
from repro.cfg.graph import CFGEdge, CFGNode
from repro.diagnostics import ToolError
from repro.frontend.ast_nodes import Node
from repro.frontend.source import SourceBuffer
from repro.frontend.tokens import Token, TokenKind
from repro.pipeline import artifacts as AR
from repro.pipeline import cache as cache_module
from repro.pipeline.batch import transform_batch
from repro.pipeline.cache import MISS, ArtifactCache
from repro.pipeline.context import ToolOptions
from repro.pipeline.manager import PassManager
from repro.pipeline.passes import DEFAULT_PASSES
from repro.pipeline.store import gc_spills, spill_stats

SRC = """
int a[64];
void work() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 64; i++) a[i] = a[i] * 2;
}
int main() { a[0] = 3; work(); return a[0]; }
"""

#: Violates the input constraints: a standalone update of a variable
#: that no enclosing data region maps.
BAD_SRC = """
int a[4];
int main() {
  #pragma omp target
  for (int i = 0; i < 4; i++) a[i] = i;
  #pragma omp target update from(a)
  return 0;
}
"""

PASS_NAMES = (
    "preprocess", "parse", "codegen", "constraints", "effects", "cfg",
    "plan", "rewrite", "summary",
)

#: The passes a transform runs (a run that names no target, as
#: ``OMPDart.run``): the paper's chain, without codegen and summary.
TRANSFORM_NAMES = PASS_NAMES[:2] + PASS_NAMES[3:-1]

#: The passes whose artifacts a transform's record keeps; a warm
#: transform runs only these.
RECORD_NAMES = ("parse", "constraints", "plan", "rewrite")

#: A cold run that targets the summary: the transform's passes, then it.
COLD_SUMMARY_EVENTS = dict.fromkeys((*TRANSFORM_NAMES, "summary"), "miss")

#: Everything a record can hold: the transform's four and codegen in
#: the analysis part, and the summary in the summary part.
STORED_NAMES = {"parse", "codegen", "constraints", "plan", "rewrite", "summary"}

#: What a record's analysis part can hold.
ANALYSIS_NAMES = STORED_NAMES - {"summary"}


@pytest.fixture(scope="module")
def ctx():
    return PassManager().run(SRC, "t.c")


@pytest.fixture(scope="module")
def record():
    """All nine artifacts of ``SRC`` in chain order: a transform's
    seven, the codegen rows of a simulator run and the summary."""
    manager = PassManager()
    built = manager.run(SRC, "t.c", until="codegen").artifacts
    built.update(manager.run(SRC, "t.c").artifacts)
    built.update(PassManager().run(SRC, "t.c", until="summary").artifacts)
    return {name: built[name] for name in PASS_NAMES}


def _referenced_nodes(artifact):
    """The AST nodes ``artifact`` references directly (not through
    other nodes)."""
    found = []

    class Probe(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, Node):
                found.append(obj)
                return len(found)
            return None

    Probe(io.BytesIO(), protocol=5).dump(artifact)
    return found


def _manager(directory):
    return PassManager(cache=ArtifactCache(disk_dir=directory))


def _events(ctx, names=TRANSFORM_NAMES):
    assert list(ctx.cache_events) == list(names)
    return list(ctx.cache_events.values())


def _decoded_parts(directory):
    """The one spill's (summary, analysis) parts, decoded."""
    (spill,) = directory.glob("*.art")
    return tuple(map(AR.decode_part, AR.split_parts(spill.read_bytes())))


def _spilled_passes(directory):
    summary, analysis = _decoded_parts(directory)
    return set(summary) | set(analysis)


def _summarize(directory):
    """A batch transform of ``SRC`` over ``directory``."""
    transform_batch([(SRC, "t.c")], cache_dir=str(directory))


def _counting_manager(cache):
    """A manager over ``cache`` whose passes log each build by name."""
    built = []

    def counted(p):
        def build(ctx):
            built.append(p.name)
            return p.build(ctx)

        return dataclasses.replace(p, build=build)

    manager = PassManager([counted(p) for p in DEFAULT_PASSES], cache)
    return manager, built


def _pickled_instances(obj):
    """Class -> number of objects of that class a pickle of ``obj``
    reduces (everything but None, bools and the exact builtin
    containers, numbers and strings; memoized objects count once)."""
    census = collections.Counter()

    class Census(pickle.Pickler):
        def reducer_override(self, value):
            census[type(value)] += 1
            return NotImplemented

    Census(io.BytesIO(), protocol=5).dump(obj)
    return census


def _pickled_nodes(obj):
    """How many AST nodes a pickle of ``obj`` holds."""
    census = _pickled_instances(obj)
    return sum(n for cls, n in census.items() if issubclass(cls, Node))


class TestSchemas:
    def test_round_trip_all_passes(self, record):
        back = AR.decode_part(AR.encode_part(record))
        assert list(back) == list(PASS_NAMES)
        for name in PASS_NAMES:
            assert type(back[name]) is type(record[name]), name
        assert back["rewrite"] == record["rewrite"]
        assert back["constraints"] == record["constraints"]
        assert back["codegen"] == record["codegen"]
        assert back["summary"] == record["summary"]

    def test_parts_round_trip_through_one_file(self, record):
        summary = AR.encode_part({"summary": record["summary"]})
        analysis = AR.encode_part({n: record[n] for n in ANALYSIS_NAMES})
        raw = AR.join_parts(summary, analysis)
        assert AR.split_parts(raw) == (summary, analysis)
        assert AR.split_parts(AR.join_parts(summary, b"")) == (summary, b"")
        assert AR.decode_part(b"") == {}
        assert {AR.part_of(n) for n in ANALYSIS_NAMES} == {AR.ANALYSIS_PART}
        assert AR.part_of("summary") == AR.SUMMARY_PART

    def test_the_summary_is_what_a_batch_outcome_carries(self, record):
        """Output, diagnostics, directive count and ``changed``: no
        AST node, and a fifth of the analysis part's bytes at most."""
        summary = record["summary"]
        (outcome,) = transform_batch([(SRC, "t.c")])
        assert summary.output == outcome.output_source == record["rewrite"]
        assert summary.directive_count == outcome.directive_count > 0
        assert summary.changed is outcome.changed is True
        assert summary.error is None
        assert _pickled_nodes(summary) == 0
        analysis = {n: record[n] for n in RECORD_NAMES}
        assert _pickled_nodes(analysis) > 0
        assert 5 * len(AR.encode_part({"summary": summary})) < len(
            AR.encode_part(analysis)
        )

    def test_unknown_pass_gets_default_pickle_schema(self, tmp_path):
        """A pass outside the default chain (a custom pipeline's) is
        pickled into the record like any other."""
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.put("custom", "k", {"synthetic": [1, 2, 3]})
        cache.commit("k")
        fresh = ArtifactCache(disk_dir=tmp_path)
        assert fresh.lookup("custom", "k") == ({"synthetic": [1, 2, 3]}, "disk")

    def test_analysis_payloads_drop_the_embedded_tu(self, ctx):
        """effects/cfg/plan share the record's one AST instead of each
        carrying a copy."""

        def whole_object_size(artifact):
            return len(zlib.compress(pickle.dumps(artifact, protocol=5), 1))

        names = ("parse", "effects", "cfg", "plan")
        separate = sum(whole_object_size(ctx.artifacts[n]) for n in names)
        part = AR.encode_part({n: ctx.artifacts[n] for n in names})
        assert len(part) < separate / 2

    def test_decoded_refs_share_node_identity_with_parse(self, ctx):
        back = AR.decode_part(AR.encode_part(ctx.artifacts))
        parse = back["parse"]
        assert back["effects"].tu is parse
        nodes = set(map(id, parse.walk()))
        for astcfg in back["cfg"].values():
            assert id(astcfg.function) in nodes

    def test_every_referenced_node_is_in_the_decoded_preorder(self, ctx):
        """Decoded analysis artifacts point into the decoded TU, never
        into copies of it.  Statements the CFG synthesizes (the wrapper
        of a for-increment) belong to no TU and carry no walk index;
        they are set aside, as many as the built artifacts have."""
        built = set(map(id, ctx.artifacts["parse"].preorder()))
        back = AR.decode_part(AR.encode_part(ctx.artifacts))
        preorder = back["parse"].preorder()
        for name in ("effects", "cfg", "plan"):
            nodes = _referenced_nodes(back[name])
            in_tree = [node for node in nodes if node.walk_index >= 0]
            assert in_tree, name
            assert all(preorder[n.walk_index] is n for n in in_tree), name
            synthesized = [
                n for n in _referenced_nodes(ctx.artifacts[name])
                if id(n) not in built
            ]
            assert len(nodes) - len(in_tree) == len(synthesized), name

    def test_version_mismatch_is_a_decode_error(self, ctx, monkeypatch):
        part = AR.encode_part({"rewrite": ctx.artifacts["rewrite"]})
        raw = AR.join_parts(b"", part)
        monkeypatch.setattr(AR, "RECORD_VERSION", AR.RECORD_VERSION + 1)
        with pytest.raises(AR.ArtifactDecodeError, match="expected v"):
            AR.split_parts(raw)

    def test_corrupt_container_is_a_decode_error(self, ctx):
        with pytest.raises(AR.ArtifactDecodeError):
            AR.split_parts(AR.MAGIC + b"garbage")
        with pytest.raises(AR.ArtifactDecodeError):
            AR.split_parts(b"neither magic nor pickle")
        part = AR.encode_part({"rewrite": ctx.artifacts["rewrite"]})
        with pytest.raises(AR.ArtifactDecodeError, match="truncated"):
            AR.split_parts(AR.join_parts(part, b"")[:-1])
        with pytest.raises(AR.ArtifactDecodeError):
            AR.decode_part(b"garbage")
        with pytest.raises(AR.ArtifactDecodeError, match="not a dict"):
            AR.decode_part(zlib.compress(pickle.dumps(["rewrite"])))


    def test_tokens_and_locations_pickle_as_constructor_calls(self):
        buf = SourceBuffer("int a;\nint b[N];\n", "t.c")
        tok = Token(TokenKind.INT_LITERAL, "42", 13, 14, 42, "N")
        assert buf.__reduce__() == (SourceBuffer, (buf.text, "t.c"))
        assert tok.__reduce__() == (
            Token, (TokenKind.INT_LITERAL, "42", 13, 14, 42, "N")
        )
        back, back_buf = pickle.loads(pickle.dumps((tok, buf), protocol=5))
        assert back == tok and str(back_buf.location(back.offset)) == "t.c:2:7"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_decode_restores_the_gc_state(self, ctx, enabled):
        raw = AR.encode_part(ctx.artifacts)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            AR.decode_part(raw)
            assert gc.isenabled() is enabled
            with pytest.raises(AR.ArtifactDecodeError):
                AR.decode_part(raw[: len(raw) // 2])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestVersionedKeys:
    def test_schema_version_folds_into_storage_key(self, monkeypatch):
        key = "abc123"
        current = AR.storage_key(key)
        assert current.startswith(key) and current != key
        monkeypatch.setattr(AR, "RECORD_VERSION", AR.RECORD_VERSION + 1)
        assert AR.storage_key(key) != current

    def test_version_bump_invalidates_cached_artifacts(
        self, tmp_path, monkeypatch
    ):
        """Incompatible records are never looked up, not mis-unpickled."""
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.put("rewrite", "k", "old-shape")
        cache.commit("k")
        fresh = ArtifactCache(disk_dir=tmp_path)
        assert fresh.get("rewrite", "k") == "old-shape"
        monkeypatch.setattr(AR, "RECORD_VERSION", AR.RECORD_VERSION + 1)
        stale = ArtifactCache(disk_dir=tmp_path)
        assert stale.get("rewrite", "k") is MISS

    def test_memory_keys_are_versioned_too(self, monkeypatch):
        cache = ArtifactCache()
        cache.put("rewrite", "k", "cached")
        monkeypatch.setattr(AR, "RECORD_VERSION", AR.RECORD_VERSION + 1)
        assert cache.get("rewrite", "k") is MISS


class TestRetiredSpillFormat:
    """Whole-object pickles (``.pkl`` files, or such a payload under an
    ``.art`` name) are garbage: never decoded, swept by ``store gc``."""

    def test_pkl_spills_are_never_read(self, tmp_path):
        manager = PassManager()
        ctx = manager.run(SRC, "t.c")
        key = manager.input_key(SRC, "t.c", ToolOptions())
        for name, artifact in ctx.artifacts.items():
            raw = zlib.compress(pickle.dumps(artifact, protocol=5), 6)
            (tmp_path / f"{name}-{key}.pkl").write_bytes(raw)
        cold = ArtifactCache(disk_dir=tmp_path)
        assert cold.get("rewrite", key) is MISS
        assert spill_stats(tmp_path)["files"] == 0
        report = gc_spills(tmp_path)
        assert report.quarantine_swept == len(ctx.artifacts)
        assert not list(tmp_path.iterdir())

    def test_whole_object_payload_is_a_quarantined_miss(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.put("rewrite", "k", "compact")
        cache.commit("k")
        (spill,) = tmp_path.glob("*.art")
        spill.write_bytes(zlib.compress(pickle.dumps("whole", protocol=5)))
        fresh = ArtifactCache(disk_dir=tmp_path)
        assert fresh.get("rewrite", "k") is MISS
        assert fresh.stats["rewrite"].corrupt_spills == 1
        assert list(tmp_path.glob("*.art.bad"))


class TestRecordCache:
    def test_put_stages_until_commit(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.put("parse", "k", [1])
        cache.put("rewrite", "k", "out")
        assert not list(tmp_path.glob("*.art"))
        cache.commit("k")
        assert _decoded_parts(tmp_path) == ({}, {"parse": [1], "rewrite": "out"})
        (spill,) = tmp_path.glob("*.art")
        written = spill.stat().st_ino  # a spill replaces the file
        cache.commit("k")  # nothing new: no second write
        assert spill.stat().st_ino == written

    def test_memory_tier_holds_one_record_per_input(self):
        manager = PassManager()
        for i in range(3):
            manager.run(SRC.replace("* 2", f"* {i}"), "t.c")
        assert len(manager.cache) == 3
        assert ArtifactCache().max_entries == 32

    def test_memory_tier_holds_only_the_stored_artifacts(self):
        manager = PassManager()
        manager.run(SRC, "t.c")
        key = manager.input_key(SRC, "t.c", ToolOptions())
        held = [
            name for name in PASS_NAMES
            if manager.cache.get(name, key) is not MISS
        ]
        assert held == list(RECORD_NAMES)

    def test_threads_share_one_decode_of_each_part(self, tmp_path, monkeypatch):
        """Threads racing to decode a record's parts all read the one
        copy the first decode merged: every lookup hits, and every
        thread sees the same objects.  A slowed decoder makes the
        threads decode each part at the same time."""
        _manager(tmp_path).run(SRC, "t.c")
        _summarize(tmp_path)
        key = PassManager.input_key(SRC, "t.c", ToolOptions())
        cache = ArtifactCache(disk_dir=tmp_path)
        names = ("summary", *RECORD_NAMES)

        def slow(blob, decode=cache_module.decode_part):
            artifacts = decode(blob)
            time.sleep(0.05)  # every thread is now past its undecoded check
            return artifacts

        monkeypatch.setattr(cache_module, "decode_part", slow)
        barrier = threading.Barrier(8)
        seen = []

        def look_up_all():
            barrier.wait(timeout=10)
            seen.append([cache.lookup(name, key) for name in names])

        threads = [threading.Thread(target=look_up_all) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == len(threads)
        first = [id(value) for value, _ in seen[0]]
        for found in seen:
            assert [origin for _, origin in found] == ["disk"] * len(names)
            assert [id(value) for value, _ in found] == first
        assert {n: s.hits for n, s in cache.stats.items()} == dict.fromkeys(
            names, len(threads)
        )

    def test_an_empty_record_leaves_memory_on_commit(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        assert cache.get("parse", "k") is MISS
        assert len(cache) == 1  # the rest of the run skips the disk
        cache.commit("k")
        assert len(cache) == 0
        assert not list(tmp_path.iterdir())


class TestOneRecordPerInput:
    def test_batch_spills_one_record_per_distinct_input(self, tmp_path):
        items = [
            (SRC.replace("* 2", f"* {i}"), f"f{i}.c") for i in range(4)
        ]
        items += [(items[0][0], "copy.c"), (BAD_SRC, "bad.c")]
        outcomes = transform_batch(items, jobs=2, cache_dir=str(tmp_path))
        assert [o.ok for o in outcomes] == [True] * 5 + [False]
        distinct = {source for source, _ in items}
        assert len(list(tmp_path.glob("*.art"))) == len(distinct)

    def test_prefix_run_then_full_run_merge_into_one_record(self, tmp_path):
        _manager(tmp_path).run(SRC, "t.c", until="codegen")
        assert _spilled_passes(tmp_path) == {"parse", "codegen"}
        full = _manager(tmp_path).run(SRC, "t.c")
        # parse hits, so preprocess is not built; the analyses the plan
        # reads are.
        assert _events(full, TRANSFORM_NAMES[1:]) == ["hit"] + ["miss"] * 5
        assert set(full.cache_origins.values()) == {"disk"}
        assert _spilled_passes(tmp_path) == ANALYSIS_NAMES
        again = _manager(tmp_path).run(SRC, "t.c")
        assert _events(again, RECORD_NAMES) == ["hit"] * 4
        assert set(again.cache_origins.values()) == {"disk"}
        assert again.artifact("rewrite") == full.artifact("rewrite")

    def test_full_run_then_codegen_run_merge_into_one_record(self, tmp_path):
        _manager(tmp_path).run(SRC, "t.c")
        assert _spilled_passes(tmp_path) == set(RECORD_NAMES)
        rows = _manager(tmp_path).run(SRC, "t.c", until="codegen")
        assert _events(rows, ("parse", "codegen")) == ["hit", "miss"]
        assert _spilled_passes(tmp_path) == ANALYSIS_NAMES
        again = _manager(tmp_path).run(SRC, "t.c", until="codegen")
        assert _events(again, ("parse", "codegen")) == ["hit"] * 2
        assert again.artifact("codegen") == rows.artifact("codegen")

    def test_tool_error_replays_from_a_warm_record(self, tmp_path):
        errors = []
        for _ in range(2):
            manager, built = _counting_manager(ArtifactCache(disk_dir=tmp_path))
            with pytest.raises(ToolError) as info:
                manager.run(BAD_SRC, "bad.c")
            errors.append(
                (str(info.value), [d.render() for d in info.value.diagnostics])
            )
        assert errors[0] == errors[1]
        assert "constraints" in errors[1][0]
        assert _spilled_passes(tmp_path) == {"parse", "constraints"}
        # The second run looked every stored pass up and stopped at the
        # replayed constraint violation without building anything.
        assert built == []
        stats = manager.cache.stats
        assert list(stats) == list(RECORD_NAMES)
        assert [s.hits for s in stats.values()] == [1, 1, 0, 0]
        assert [s.misses for s in stats.values()] == [0, 0, 1, 1]

    @pytest.mark.parametrize("source", [BAD_SRC, "int main( {\n"])
    def test_a_rejection_replays_from_the_summary(self, tmp_path, source):
        """A rejected input's summary holds the error, so a warm run
        raises it again without decoding or building anything."""
        errors = []
        for _ in range(2):
            manager, built = _counting_manager(ArtifactCache(disk_dir=tmp_path))
            with pytest.raises(ToolError) as info:
                manager.run(source, "bad.c", until="summary")
            errors.append(
                (str(info.value), [d.render() for d in info.value.diagnostics])
            )
        assert errors[0] == errors[1]
        assert _spilled_passes(tmp_path) == {"summary"}
        assert built == []
        assert list(manager.cache.stats) == ["summary"]

    def test_a_warm_batch_builds_nothing_and_decodes_no_analysis(
        self, tmp_path, monkeypatch
    ):
        items = [
            (SRC.replace("* 2", f"* {i}"), f"f{i}.c") for i in range(3)
        ] + [(BAD_SRC, "bad.c")]
        cold = transform_batch(items, jobs=2, cache_dir=str(tmp_path))
        for spill in tmp_path.glob("*.art"):
            summary, analysis = AR.split_parts(spill.read_bytes())
            assert analysis == b""
            assert _pickled_nodes(AR.decode_part(summary)) == 0
        decoded = []

        def spy(blob, decode=cache_module.decode_part):
            artifacts = decode(blob)
            decoded.append(set(artifacts))
            return artifacts

        monkeypatch.setattr(cache_module, "decode_part", spy)
        manager, built = _counting_manager(ArtifactCache(disk_dir=tmp_path))
        warm = transform_batch(items, manager=manager)
        assert built == []
        assert decoded == [{"summary"}] * len(items)
        assert [o.cache_origins for o in warm[:3]] == [{"summary": "disk"}] * 3

        def returned(outcome):
            return (
                outcome.ok, outcome.output_source, outcome.diagnostics,
                outcome.directive_count, outcome.changed, outcome.error,
            )

        assert list(map(returned, warm)) == list(map(returned, cold))
        assert not warm[-1].ok and "constraints" in warm[-1].error

    def test_a_spill_that_adds_one_part_keeps_the_other(self, tmp_path):
        _summarize(tmp_path)
        (spill,) = tmp_path.glob("*.art")
        summary, _ = AR.split_parts(spill.read_bytes())
        _manager(tmp_path).run(SRC, "t.c")
        again, analysis = AR.split_parts(spill.read_bytes())
        assert again == summary and analysis
        _summarize(tmp_path)  # a hit: nothing spilled
        assert AR.split_parts(spill.read_bytes()) == (summary, analysis)
        spill.unlink()
        _manager(tmp_path).run(SRC, "t.c")
        empty, analysis = AR.split_parts(spill.read_bytes())
        assert empty == b""
        _summarize(tmp_path)
        summary, again = AR.split_parts(spill.read_bytes())
        assert summary and again == analysis

    @pytest.mark.parametrize(
        "damage, until, events, spilled",
        [
            ("truncated", "summary", COLD_SUMMARY_EVENTS, {"summary"}),
            ("no-magic", "summary", COLD_SUMMARY_EVENTS, {"summary"}),
            ("skewed", "summary", COLD_SUMMARY_EVENTS, {"summary"}),
            # A broken part costs only itself: the summary is rebuilt
            # from the analysis part, and a full run keeps the summary.
            (
                "summary", "summary",
                {**dict.fromkeys(RECORD_NAMES, "hit"), "summary": "miss"},
                {"summary", *RECORD_NAMES},
            ),
            (
                "analysis", None, dict.fromkeys(TRANSFORM_NAMES, "miss"),
                {"summary", *RECORD_NAMES},
            ),
        ],
        ids=["truncated", "no-magic", "skewed", "summary", "analysis"],
    )
    def test_broken_record_is_quarantined_then_respilled(
        self, tmp_path, monkeypatch, damage, until, events, spilled
    ):
        first = _manager(tmp_path).run(SRC, "t.c")
        _summarize(tmp_path)
        (spill,) = tmp_path.glob("*.art")
        summary, analysis = AR.split_parts(spill.read_bytes())
        raw = AR.join_parts(summary, analysis)
        if damage == "truncated":
            raw = raw[: len(raw) // 2]
        elif damage == "no-magic":
            raw = raw[len(AR.MAGIC):]
        elif damage == "skewed":
            with monkeypatch.context() as patch:
                patch.setattr(AR, "RECORD_VERSION", AR.RECORD_VERSION + 1)
                raw = AR.join_parts(summary, analysis)
        elif damage == "summary":
            raw = AR.join_parts(summary[: len(summary) // 2], analysis)
        else:
            raw = AR.join_parts(summary, analysis[: len(analysis) // 2])
        spill.write_bytes(raw)

        manager = _manager(tmp_path)
        rebuilt = manager.run(SRC, "t.c", until=until)
        assert list(rebuilt.cache_events.items()) == list(events.items())
        # The broken record or part is charged to the first pass looked
        # up in it.
        charged = "parse" if until is None else "summary"
        assert manager.cache.stats[charged].corrupt_spills == 1
        assert len(list(tmp_path.glob("*.art.bad"))) == 1
        (respilled,) = tmp_path.glob("*.art")
        assert respilled.name == spill.name
        assert _spilled_passes(tmp_path) == spilled
        healed = _manager(tmp_path).run(SRC, "t.c", until=until)
        assert set(healed.cache_events.values()) == {"hit"}
        output = healed.artifact("rewrite") if until is None else (
            healed.artifact("summary").output
        )
        assert output == first.artifact("rewrite")


class TestStoredPasses:
    """Only ``parse``, ``codegen``, ``constraints``, ``plan``,
    ``rewrite`` and ``summary`` are stored; ``preprocess``, ``effects``
    and ``cfg`` are built only for a stored pass that misses."""

    def test_stored_flags(self):
        assert {p.name for p in DEFAULT_PASSES if p.stored} == STORED_NAMES

    def test_a_full_hit_builds_nothing(self):
        manager, built = _counting_manager(ArtifactCache())
        manager.run(SRC, "t.c")
        assert built == list(TRANSFORM_NAMES)
        built.clear()
        warm = manager.run(SRC, "t.c")
        assert built == []
        assert warm.cache_events == dict.fromkeys(RECORD_NAMES, "hit")
        assert list(warm.timings) == list(RECORD_NAMES)

    def test_a_codegen_record_spares_a_full_run_the_preprocess_pass(
        self, tmp_path
    ):
        _manager(tmp_path).run(SRC, "t.c", until="codegen")
        manager, built = _counting_manager(ArtifactCache(disk_dir=tmp_path))
        ctx = manager.run(SRC, "t.c")
        assert built == ["constraints", "effects", "cfg", "plan", "rewrite"]
        assert "preprocess" not in ctx.artifacts

    @pytest.mark.parametrize("until", ["preprocess", "effects", "cfg"])
    def test_an_unstored_target_is_built_over_a_warm_record(self, until):
        manager, built = _counting_manager(ArtifactCache())
        cold = manager.run(SRC, "t.c")
        built.clear()
        ctx = manager.run(SRC, "t.c", until=until)
        assert built == [until]
        assert ctx.cache_events[until] == "miss"
        assert type(ctx.artifact(until)) is type(cold.artifact(until))

    def test_a_record_pickles_no_tokens_or_cfg(self, tmp_path):
        _manager(tmp_path).run(SRC, "t.c")
        _manager(tmp_path).run(SRC, "t.c", until="codegen")
        _summarize(tmp_path)
        summary, analysis = _decoded_parts(tmp_path)
        record = {**summary, **analysis}
        assert set(record) == STORED_NAMES
        census = _pickled_instances(record)
        for cls in (Token, CFGNode, CFGEdge, ValidityResult, Placement):
            assert census[cls] == 0, cls.__name__
        # The census sees what it looks for: a built cfg is all CFG.
        cfg = PassManager().run(SRC, "t.c", until="cfg").artifact("cfg")
        assert _pickled_instances(cfg)[CFGNode] > 0
