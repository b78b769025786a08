"""``tools/upgrade_index.py``: JSON indexes (formats 1-3) → format 4.

The library reads format 4 only; these tests convert the committed v3
fixtures (``tests/data/v3/``) and check that the result ranks exactly
like ``handmade_index``, that the loaders refuse an unconverted file by
name, and that the tool never touches its source.  The v1/v2 flat cases
are in ``tests/test_storage.py`` (``TestFormatVersions``) and the legacy
segment directories in ``tests/test_lifecycle.py``
(``TestLegacyJsonSegments``).
"""

import json
import shutil

import pytest

from repro import ContextSearchEngine, ShardedEngine
from repro.core.ranking import BM25, DirichletLanguageModel, PivotedNormalizationTFIDF
from repro.errors import QueryError
from repro.lifecycle import SegmentedIndex
from repro.storage import (
    StorageError,
    load_any_index,
    load_index,
    load_shard,
    load_sharded_index,
)

from .conftest import HANDMADE_DOCS, V3_DATA, upgrade_tool

QUERIES = [
    "leukemia | Diseases",
    "pancreas transplant | Diseases",
    "transplant grafts | DigestiveSystem",
]
MODELS = [PivotedNormalizationTFIDF, BM25, DirichletLanguageModel]


def rankings(engine):
    """Every (query, mode) outcome with unrounded scores."""
    outcomes = []
    for query in QUERIES:
        for search in (
            engine.search,
            engine.search_conventional,
            engine.search_disjunctive,
        ):
            try:
                outcomes.append([(h.external_id, h.score) for h in search(query).hits])
            except QueryError as exc:
                outcomes.append(type(exc))
    return outcomes


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", ["idx.json", "idx.json.gz"])
def test_flat_fixture_ranks_like_handmade(tmp_path, handmade_index, name, model):
    converted = tmp_path / "idx.bin"
    assert upgrade_tool.upgrade(V3_DATA / "flat" / name, converted) == "flat"
    expected = rankings(ContextSearchEngine(handmade_index, ranking=model()))
    with load_index(converted) as loaded:
        assert rankings(ContextSearchEngine(loaded, ranking=model())) == expected


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("ext", [".json", ".json.gz"])
def test_sharded_fixture_ranks_like_handmade(tmp_path, handmade_index, ext, model):
    converted = tmp_path / "idx.bin"
    source = V3_DATA / "sharded" / f"idx{ext}"
    assert upgrade_tool.upgrade(source, converted) == "sharded"
    for shard_id in (0, 1):
        stored = json.loads(
            (V3_DATA / "sharded" / f"idx.shard{shard_id}.json").read_text()
        )
        shard = load_shard(tmp_path / f"idx.shard{shard_id}.bin", shard_id)
        assert list(shard.global_ids) == stored["global_ids"]
        shard.index.close()
    expected = rankings(ContextSearchEngine(handmade_index, ranking=model()))
    with ShardedEngine(
        load_sharded_index(converted), ranking=model(), executor="serial"
    ) as engine:
        assert rankings(engine) == expected


class TestUnconvertedArtefactsAreRefused:
    """Every loader names the file, the format it found and the tool."""

    @staticmethod
    def _assert_refusal(exc_info, path):
        message = str(exc_info.value)
        assert str(path) in message
        assert "format 3" in message
        assert "tools/upgrade_index.py" in message

    @pytest.mark.parametrize("loader", [load_index, load_any_index])
    def test_flat_file(self, loader):
        path = V3_DATA / "flat" / "idx.json.gz"
        with pytest.raises(StorageError) as exc_info:
            loader(path)
        self._assert_refusal(exc_info, path)

    @pytest.mark.parametrize("loader", [load_sharded_index, load_any_index])
    def test_sharded_manifest(self, loader):
        path = V3_DATA / "sharded" / "idx.json"
        with pytest.raises(StorageError) as exc_info:
            loader(path)
        self._assert_refusal(exc_info, path)

    def test_shard_file(self):
        path = V3_DATA / "sharded" / "idx.shard1.json"
        with pytest.raises(StorageError) as exc_info:
            load_shard(path)
        self._assert_refusal(exc_info, path)

    def test_segmented_manifest(self, tmp_path):
        directory = tmp_path / "seg"
        with SegmentedIndex.open(directory) as index:
            index.add_documents(HANDMADE_DOCS)
            index.flush()
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 3
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError) as exc_info:
            load_any_index(directory)
        self._assert_refusal(exc_info, manifest_path)


class TestToolContract:
    def test_source_untouched_and_existing_destination_refused(self, tmp_path):
        source = tmp_path / "src"
        shutil.copytree(V3_DATA / "sharded", source)
        before = {p.name: p.read_bytes() for p in source.iterdir()}
        out = tmp_path / "out"
        out.mkdir()
        upgrade_tool.upgrade(source / "idx.json", out / "idx.json")
        assert {p.name: p.read_bytes() for p in source.iterdir()} == before
        with pytest.raises(StorageError, match="already exists"):
            upgrade_tool.upgrade(source / "idx.json", out / "idx.json")

    def test_destination_inside_segmented_source_refused(self, tmp_path):
        directory = tmp_path / "seg"
        SegmentedIndex.open(directory).close()
        with pytest.raises(StorageError, match="inside"):
            upgrade_tool.upgrade(directory, directory / "v4")
        assert not (directory / "v4").exists()

    def test_v4_source_refused(self, tmp_path, handmade_index):
        from repro.storage import save_index

        path = tmp_path / "idx.bin"
        save_index(handmade_index, path)
        with pytest.raises(StorageError, match="already index format 4"):
            upgrade_tool.upgrade(path, tmp_path / "again.bin")

    def test_truncated_source_is_storage_error(self, tmp_path):
        torn = tmp_path / "idx.json.gz"
        torn.write_bytes((V3_DATA / "flat" / "idx.json.gz").read_bytes()[:200])
        with pytest.raises(StorageError, match="corrupt artefact") as exc_info:
            upgrade_tool.upgrade(torn, tmp_path / "idx.bin")
        assert torn.name in str(exc_info.value)
        assert not (tmp_path / "idx.bin").exists()

    def test_main_exit_codes(self, tmp_path, capsys):
        source = V3_DATA / "flat" / "idx.json"
        target = tmp_path / "idx.bin"
        assert upgrade_tool.main([str(source), str(target)]) == 0
        assert "format 4" in capsys.readouterr().out
        assert upgrade_tool.main([str(source), str(target)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert upgrade_tool.main([str(source)]) == 2
        assert "usage" in capsys.readouterr().err
        assert upgrade_tool.main([str(tmp_path / "nope.json"), "x"]) == 2
        assert "does not exist" in capsys.readouterr().err
