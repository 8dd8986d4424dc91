"""The spill record: one file per input holding every pass's artifact,
versioned keys, quarantine of broken records, and the retired spill
formats staying unread."""

import gc
import io
import pickle
import zlib

import pytest

from repro.diagnostics import ToolError
from repro.frontend.ast_nodes import Node
from repro.frontend.source import SourceBuffer
from repro.frontend.tokens import Token, TokenKind
from repro.pipeline import artifacts as AR
from repro.pipeline.batch import transform_batch
from repro.pipeline.cache import MISS, ArtifactCache
from repro.pipeline.context import ToolOptions
from repro.pipeline.manager import PassManager
from repro.pipeline.store import gc_spills

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
    "plan", "rewrite",
)

#: The passes a transform runs: every pass but the simulator's codegen.
TRANSFORM_NAMES = tuple(name for name in PASS_NAMES if name != "codegen")


@pytest.fixture(scope="module")
def ctx():
    return PassManager().run(SRC, "t.c")


@pytest.fixture(scope="module")
def record():
    """All eight artifacts of ``SRC`` in chain order: a transform's
    seven plus the codegen rows of a simulator run."""
    manager = PassManager()
    built = manager.run(SRC, "t.c", until="codegen").artifacts
    built.update(manager.run(SRC, "t.c").artifacts)
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


def _spilled_passes(directory):
    (spill,) = directory.glob("*.art")
    return set(AR.decode_record(spill.read_bytes()))


class TestSchemas:
    def test_round_trip_all_passes(self, record):
        raw = AR.encode_record(record)
        assert AR.is_record(raw)
        back = AR.decode_record(raw)
        assert list(back) == list(PASS_NAMES)
        for name in PASS_NAMES:
            assert type(back[name]) is type(record[name]), name
        assert back["rewrite"] == record["rewrite"]
        assert back["constraints"] == record["constraints"]
        assert back["codegen"] == record["codegen"]

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
        record = AR.encode_record({n: ctx.artifacts[n] for n in names})
        assert len(record) < separate / 2

    def test_decoded_refs_share_node_identity_with_parse(self, ctx):
        back = AR.decode_record(AR.encode_record(ctx.artifacts))
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
        back = AR.decode_record(AR.encode_record(ctx.artifacts))
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
        raw = AR.encode_record({"rewrite": ctx.artifacts["rewrite"]})
        monkeypatch.setattr(AR, "RECORD_VERSION", AR.RECORD_VERSION + 1)
        with pytest.raises(AR.ArtifactDecodeError):
            AR.decode_record(raw)

    def test_corrupt_container_is_a_decode_error(self):
        with pytest.raises(AR.ArtifactDecodeError):
            AR.decode_record(AR.MAGIC + b"garbage")
        with pytest.raises(AR.ArtifactDecodeError):
            AR.decode_record(b"neither magic nor pickle")


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
        raw = AR.encode_record(ctx.artifacts)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            AR.decode_record(raw)
            assert gc.isenabled() is enabled
            with pytest.raises(AR.ArtifactDecodeError):
                AR.decode_record(raw[: len(raw) // 2])
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
        assert cold.disk_usage() == 0
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
        (spill,) = tmp_path.glob("*.art")
        assert AR.decode_record(spill.read_bytes()) == {
            "parse": [1], "rewrite": "out",
        }
        written = cache.disk_bytes_written
        cache.commit("k")  # nothing new: no second write
        assert cache.disk_bytes_written == written

    def test_memory_tier_holds_one_record_per_input(self):
        manager = PassManager()
        for i in range(3):
            manager.run(SRC.replace("* 2", f"* {i}"), "t.c")
        assert len(manager.cache) == 3
        assert ArtifactCache().max_entries == 32

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
        assert _spilled_passes(tmp_path) == {"preprocess", "parse", "codegen"}
        full = _manager(tmp_path).run(SRC, "t.c")
        assert _events(full) == ["hit"] * 2 + ["miss"] * 5
        assert set(full.cache_origins.values()) == {"disk"}
        assert _spilled_passes(tmp_path) == set(PASS_NAMES)
        again = _manager(tmp_path).run(SRC, "t.c")
        assert _events(again) == ["hit"] * 7
        assert set(again.cache_origins.values()) == {"disk"}
        assert again.artifact("rewrite") == full.artifact("rewrite")

    def test_full_run_then_codegen_run_merge_into_one_record(self, tmp_path):
        _manager(tmp_path).run(SRC, "t.c")
        assert _spilled_passes(tmp_path) == set(TRANSFORM_NAMES)
        rows = _manager(tmp_path).run(SRC, "t.c", until="codegen")
        codegen_chain = ("preprocess", "parse", "codegen")
        assert _events(rows, codegen_chain) == ["hit", "hit", "miss"]
        assert _spilled_passes(tmp_path) == set(PASS_NAMES)
        again = _manager(tmp_path).run(SRC, "t.c", until="codegen")
        assert _events(again, codegen_chain) == ["hit"] * 3
        assert again.artifact("codegen") == rows.artifact("codegen")

    def test_tool_error_replays_from_a_warm_record(self, tmp_path):
        errors = []
        for _ in range(2):
            manager = _manager(tmp_path)
            with pytest.raises(ToolError) as info:
                manager.run(BAD_SRC, "bad.c")
            errors.append(
                (str(info.value), [d.render() for d in info.value.diagnostics])
            )
        assert errors[0] == errors[1]
        assert "constraints" in errors[1][0]
        # The second run answered every pass up to the failing one.
        stats = manager.cache.stats
        assert list(stats) == list(TRANSFORM_NAMES[:3])
        assert [s.hits for s in stats.values()] == [1] * 3
        assert all(s.misses == 0 for s in stats.values())

    @pytest.mark.parametrize("damage", ["truncated", "no-magic", "skewed"])
    def test_broken_record_is_quarantined_then_respilled(
        self, tmp_path, damage
    ):
        first = _manager(tmp_path).run(SRC, "t.c")
        (spill,) = tmp_path.glob("*.art")
        raw = spill.read_bytes()
        if damage == "truncated":
            raw = raw[: len(raw) // 2]
        elif damage == "no-magic":
            raw = raw[len(AR.MAGIC):]
        else:
            body = pickle.dumps((AR.RECORD_VERSION + 1, dict(first.artifacts)))
            raw = AR.MAGIC + zlib.compress(body)
        spill.write_bytes(raw)

        manager = _manager(tmp_path)
        rebuilt = manager.run(SRC, "t.c")
        assert _events(rebuilt) == ["miss"] * 7
        assert manager.cache.stats["preprocess"].corrupt_spills == 1
        assert len(list(tmp_path.glob("*.art.bad"))) == 1
        (respilled,) = tmp_path.glob("*.art")
        assert respilled.name == spill.name
        healed = _manager(tmp_path).run(SRC, "t.c")
        assert _events(healed) == ["hit"] * 7
        assert healed.artifact("rewrite") == first.artifact("rewrite")
