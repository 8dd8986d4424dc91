"""Typed per-pass artifact schemas: compact spills, versioned keys,
and the retired whole-object spill format staying unread."""

import pickle
import zlib

import pytest

from repro.pipeline import artifacts as AR
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

PASS_NAMES = (
    "preprocess", "parse", "codegen", "constraints", "effects", "cfg",
    "plan", "rewrite",
)


@pytest.fixture(scope="module")
def ctx():
    return PassManager().run(SRC, "t.c")


class TestSchemas:
    def test_every_pass_has_a_registered_schema(self):
        for name in PASS_NAMES:
            schema = AR.schema_for(name)
            assert schema.pass_name == name
            assert schema.version >= 2

    def test_unknown_pass_gets_default_pickle_schema(self):
        assert AR.schema_for("custom") is AR.DEFAULT_SCHEMA

    def test_round_trip_all_passes(self, ctx):
        deps = dict(ctx.artifacts)
        for name in PASS_NAMES:
            raw = AR.encode_spill(name, ctx.artifacts[name])
            assert AR.is_compact_spill(raw)
            back = AR.decode_spill(raw, name, deps)
            assert type(back) is type(ctx.artifacts[name])
        assert AR.decode_spill(
            AR.encode_spill("rewrite", ctx.artifacts["rewrite"]), "rewrite"
        ) == ctx.artifacts["rewrite"]

    def test_analysis_payloads_drop_the_embedded_tu(self, ctx):
        """effects/cfg/plan no longer spill a whole AST copy each."""

        def whole_object_size(artifact):
            return len(zlib.compress(pickle.dumps(artifact, protocol=5), 6))

        for name in ("effects", "cfg", "plan"):
            compact = len(AR.encode_spill(name, ctx.artifacts[name]))
            assert compact < whole_object_size(ctx.artifacts[name]), name
        # effects is almost pure reference payload: a small fraction.
        assert len(
            AR.encode_spill("effects", ctx.artifacts["effects"])
        ) < whole_object_size(ctx.artifacts["effects"]) / 3

    def test_decoded_refs_share_node_identity_with_parse(self, ctx):
        parse2 = AR.decode_spill(
            AR.encode_spill("parse", ctx.artifacts["parse"]), "parse"
        )
        deps = {"parse": parse2}
        effects = AR.decode_spill(
            AR.encode_spill("effects", ctx.artifacts["effects"]),
            "effects", deps,
        )
        assert effects.tu is parse2
        cfg = AR.decode_spill(
            AR.encode_spill("cfg", ctx.artifacts["cfg"]), "cfg", deps
        )
        nodes = set(map(id, parse2.walk()))
        for astcfg in cfg.values():
            assert id(astcfg.function) in nodes

    def test_ref_payload_without_parse_dep_raises(self, ctx):
        raw = AR.encode_spill("effects", ctx.artifacts["effects"])
        with pytest.raises(AR.ArtifactDecodeError):
            AR.decode_spill(raw, "effects")

    def test_non_ast_artifact_under_refs_schema_is_self_contained(self):
        raw = AR.encode_spill("effects", {"synthetic": [1, 2, 3]})
        assert AR.decode_spill(raw, "effects") == {"synthetic": [1, 2, 3]}

    def test_find_translation_unit(self, ctx):
        tu = ctx.artifacts["parse"]
        assert AR.find_translation_unit(tu) is tu
        assert AR.find_translation_unit(ctx.artifacts["effects"]) is tu
        assert AR.find_translation_unit(ctx.artifacts["plan"]) is tu
        assert AR.find_translation_unit({"no": "ast"}) is None

    def test_version_mismatch_is_a_decode_error(self, ctx, monkeypatch):
        raw = AR.encode_spill("rewrite", ctx.artifacts["rewrite"])
        bumped = AR.ArtifactSchema(
            "rewrite", AR.schema_version("rewrite") + 1, "text",
            AR._encode_text, AR._decode_text,
        )
        monkeypatch.setitem(AR.SCHEMAS, "rewrite", bumped)
        with pytest.raises(AR.ArtifactDecodeError):
            AR.decode_spill(raw, "rewrite")

    def test_corrupt_container_is_a_decode_error(self):
        with pytest.raises(AR.ArtifactDecodeError):
            AR.decode_spill(AR.MAGIC + b"garbage", "parse")
        with pytest.raises(AR.ArtifactDecodeError):
            AR.decode_spill(b"neither magic nor pickle", "parse")


class TestVersionedKeys:
    def test_schema_version_folds_into_storage_key(self):
        key = "abc123"
        assert AR.storage_key("parse", key).startswith(key)
        assert AR.storage_key("parse", key) != AR.storage_key("custom", key)

    def test_version_bump_invalidates_cached_artifacts(
        self, tmp_path, monkeypatch
    ):
        """Incompatible spills are never looked up, not mis-unpickled."""
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.put("rewrite", "k", "old-shape")
        fresh = ArtifactCache(disk_dir=tmp_path)
        assert fresh.get("rewrite", "k") == "old-shape"
        bumped = AR.ArtifactSchema(
            "rewrite", AR.schema_version("rewrite") + 1, "text",
            AR._encode_text, AR._decode_text,
        )
        monkeypatch.setitem(AR.SCHEMAS, "rewrite", bumped)
        stale = ArtifactCache(disk_dir=tmp_path)
        assert stale.get("rewrite", "k") is MISS

    def test_memory_keys_are_versioned_too(self, monkeypatch):
        cache = ArtifactCache()
        cache.put("rewrite", "k", "cached")
        bumped = AR.ArtifactSchema(
            "rewrite", AR.schema_version("rewrite") + 1, "text",
            AR._encode_text, AR._decode_text,
        )
        monkeypatch.setitem(AR.SCHEMAS, "rewrite", bumped)
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
        assert cold.prewarm() == 0
        assert cold.get("rewrite", key) is MISS
        assert cold.disk_usage() == 0
        report = gc_spills(tmp_path)
        assert report.quarantine_swept == len(ctx.artifacts)
        assert not list(tmp_path.iterdir())

    def test_whole_object_payload_is_a_quarantined_miss(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.put("rewrite", "k", "compact")
        (spill,) = tmp_path.glob("*.art")
        spill.write_bytes(zlib.compress(pickle.dumps("whole", protocol=5)))
        fresh = ArtifactCache(disk_dir=tmp_path)
        assert fresh.get("rewrite", "k") is MISS
        assert fresh.stats["rewrite"].corrupt_spills == 1
        assert list(tmp_path.glob("*.art.bad"))


class TestPrewarmCompact:
    def test_prewarm_decodes_ref_spills_against_group_parse(self, tmp_path):
        manager = PassManager(cache=ArtifactCache(disk_dir=tmp_path))
        ctx = manager.run(SRC, "t.c")
        cold = ArtifactCache(disk_dir=tmp_path)
        loaded = cold.prewarm()
        assert loaded == len(list(tmp_path.glob("*.art")))
        # Warmed analysis artifacts resolve against the warmed parse.
        key = manager.input_key(SRC, "t.c", ToolOptions())
        parse = cold.get("parse", key)
        effects = cold.get("effects", key)
        assert effects.tu is parse
        assert cold.get("rewrite", key) == ctx.artifact("rewrite")
        assert all(s.disk_bytes_read == 0 for s in cold.stats.values())

    def test_prewarm_skips_ref_spills_without_parse(self, tmp_path):
        manager = PassManager(cache=ArtifactCache(disk_dir=tmp_path))
        manager.run(SRC, "t.c")
        parse_files = list(tmp_path.glob("parse-*.art"))
        assert len(parse_files) == 1
        parse_files[0].unlink()
        cold = ArtifactCache(disk_dir=tmp_path)
        loaded = cold.prewarm()
        # Reference spills (effects/cfg/plan) cannot anchor: skipped.
        assert loaded == len(list(tmp_path.glob("*.art"))) - 3
