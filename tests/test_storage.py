"""Round-trip tests for index and catalog persistence."""

import base64
import json
import shutil
import sys
from array import array
from pathlib import Path

import pytest

from repro import ContextSearchEngine, build_index, select_views
from repro.storage import (
    StorageError,
    load_catalog,
    load_index,
    save_catalog,
    save_index,
)

from .conftest import V3_DATA, upgrade_tool


def decode_column(text: str) -> array:
    """A v2/v3 posting column: base64 of little-endian int64."""
    column = array("q")
    column.frombytes(base64.b64decode(text))
    if sys.byteorder != "little":
        column.byteswap()
    return column


def copy_v3_sharded(tmp_path: Path, ext: str = ".json") -> Path:
    """Copy the v3 sharded fixture (manifest ``idx{ext}`` plus its two
    shard files) into ``tmp_path``; returns the copied manifest."""
    for name in ("idx", "idx.shard0", "idx.shard1"):
        shutil.copy(V3_DATA / "sharded" / f"{name}{ext}", tmp_path)
    return tmp_path / f"idx{ext}"


class TestIndexRoundTrip:
    @pytest.fixture(
        params=[None, "idx.json", "idx.json.gz"],
        ids=["v4-binary", "v3-json", "v3-json-gz"],
    )
    def saved_path(self, request, tmp_path, handmade_index):
        """A v4 save, or a v3 fixture converted by the upgrade tool."""
        path = tmp_path / "idx.json"
        if request.param is None:
            save_index(handmade_index, path)
        else:
            upgrade_tool.upgrade(V3_DATA / "flat" / request.param, path)
        return path

    def test_statistics_survive(self, saved_path, handmade_index):
        loaded = load_index(saved_path)
        assert loaded.num_docs == handmade_index.num_docs
        assert loaded.total_length == handmade_index.total_length
        assert set(loaded.vocabulary) == set(handmade_index.vocabulary)
        assert set(loaded.predicate_vocabulary) == set(
            handmade_index.predicate_vocabulary
        )

    def test_postings_identical(self, saved_path, handmade_index):
        loaded = load_index(saved_path)
        for term in handmade_index.vocabulary:
            original = list(handmade_index.postings(term))
            assert list(loaded.postings(term)) == original

    def test_search_results_identical(self, saved_path, handmade_index):
        loaded = load_index(saved_path)
        a = ContextSearchEngine(handmade_index).search("leukemia | Diseases")
        b = ContextSearchEngine(loaded).search("leukemia | Diseases")
        assert a.external_ids() == b.external_ids()
        for ha, hb in zip(a.hits, b.hits):
            assert ha.score == pytest.approx(hb.score, abs=1e-12)

    def test_v4_density_budget(self, tmp_path, corpus42_index):
        """The v4 codec stays under 700 B/doc on a 1,500-document corpus
        (464 when the budget was set); a regression that doubles the
        artefact trips it."""
        path = tmp_path / "idx.bin"
        save_index(corpus42_index, path)
        assert path.stat().st_size / corpus42_index.num_docs <= 700

    def test_uncommitted_index_rejected(self, tmp_path):
        from repro.index import InvertedIndex

        with pytest.raises(StorageError):
            save_index(InvertedIndex(), tmp_path / "x.json")

    def test_wrong_kind_rejected(self, tmp_path, handmade_index):
        path = tmp_path / "idx.json"
        save_index(handmade_index, path)
        with pytest.raises(StorageError):
            load_catalog(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "index", "version": 999, "documents": []}')
        with pytest.raises(StorageError):
            load_index(path)


class TestCatalogRoundTrip:
    @pytest.fixture(scope="class")
    def selected(self, corpus_index):
        t_c = corpus_index.num_docs // 20
        catalog, _ = select_views(corpus_index, t_c=t_c, t_v=128)
        return catalog

    def test_views_survive(self, tmp_path, selected):
        path = tmp_path / "catalog.json.gz"
        save_catalog(selected, path)
        loaded = load_catalog(path)
        assert len(loaded) == len(selected)
        for a, b in zip(selected, loaded):
            assert a.keyword_set == b.keyword_set
            assert a.df_terms == b.df_terms
            assert a.size == b.size

    def test_answers_identical(self, tmp_path, selected, corpus_index):
        from repro.core.query import ContextSpecification
        from repro.core.statistics import cardinality_spec, total_length_spec

        path = tmp_path / "catalog.json"
        save_catalog(selected, path)
        loaded = load_catalog(path)
        view_a = next(iter(selected))
        view_b = next(v for v in loaded if v.keyword_set == view_a.keyword_set)
        context = ContextSpecification([sorted(view_a.keyword_set)[0]])
        specs = [cardinality_spec(), total_length_spec()]
        assert view_a.answer_many(specs, context) == view_b.answer_many(
            specs, context
        )

    def test_engine_with_loaded_catalog(self, tmp_path, selected, corpus_index):
        path = tmp_path / "catalog.json"
        save_catalog(selected, path)
        loaded = load_catalog(path)
        covered = next(iter(loaded)).keyword_set
        predicate = max(sorted(covered), key=corpus_index.predicate_frequency)
        term = max(
            list(corpus_index.vocabulary)[:200],
            key=corpus_index.document_frequency,
        )
        a = ContextSearchEngine(corpus_index, catalog=selected).search(
            f"{term} | {predicate}"
        )
        b = ContextSearchEngine(corpus_index, catalog=loaded).search(
            f"{term} | {predicate}"
        )
        assert b.report.resolution.path == "views"
        assert a.external_ids() == b.external_ids()

    @pytest.mark.parametrize("name", ["catalog.json", "catalog.json.gz"])
    def test_failed_save_keeps_previous_artefact(
        self, tmp_path, selected, name
    ):
        path = tmp_path / name
        save_catalog(selected, path, generation=3)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_catalog(selected, path, selection={"x": object()})
        assert path.read_bytes() == before
        assert len(load_catalog(path)) == len(selected)
        assert [p.name for p in tmp_path.iterdir()] == [name]


class TestFormatVersions:
    """Only format 4 is read.  Version-1 (token streams only), version-2
    (posting columns) and version-3 (columns plus block maxima) payloads
    are refused with an error naming ``tools/upgrade_index.py``, and load
    once that tool has rebuilt them from their stored token streams."""

    def _v1_payload(self, index) -> dict:
        return {
            "kind": "index",
            "version": 1,
            "searchable_fields": list(index.searchable_fields),
            "predicate_field": index.predicate_field,
            "segment_size": index.segment_size,
            "documents": [
                {
                    "external_id": doc.external_id,
                    "field_tokens": {
                        name: list(tokens)
                        for name, tokens in doc.field_tokens.items()
                    },
                }
                for doc in index.store
            ],
        }

    def test_v1_payload_still_loads(self, tmp_path, handmade_index):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(self._v1_payload(handmade_index)))
        with pytest.raises(StorageError, match="format 1.*upgrade_index"):
            load_index(path)
        upgrade_tool.upgrade(path, tmp_path / "v1.bin")
        loaded = load_index(tmp_path / "v1.bin")
        assert loaded.num_docs == handmade_index.num_docs
        for term in handmade_index.vocabulary:
            assert list(loaded.postings(term)) == list(
                handmade_index.postings(term)
            )
        a = ContextSearchEngine(handmade_index).search("leukemia | Diseases")
        b = ContextSearchEngine(loaded).search("leukemia | Diseases")
        assert a.external_ids() == b.external_ids()
        loaded.close()

    @staticmethod
    def _as_v2_payload(payload: dict) -> dict:
        """Strip a saved v3 payload down to the legacy v2 shape."""
        payload = dict(payload)
        payload["version"] = 2
        payload["content"] = {
            term: column[:3] for term, column in payload["content"].items()
        }
        return payload

    def test_v3_payload_carries_precompiled_postings(self, tmp_path):
        """The tool ignores the stored v3 columns, yet rebuilds exactly
        them: postings, ``max_tf``, block maxima, lengths."""
        source = V3_DATA / "flat" / "idx.json"
        payload = json.loads(source.read_text())
        assert payload["version"] == 3
        upgrade_tool.upgrade(source, tmp_path / "idx.bin")
        with load_index(tmp_path / "idx.bin") as loaded:
            assert set(loaded.vocabulary) == set(payload["content"])
            for term, column in payload["content"].items():
                packed_ids, packed_tfs, max_tf, packed_blocks = column
                plist = loaded.postings(term)
                assert list(plist.doc_ids) == list(decode_column(packed_ids))
                assert list(plist.tfs) == list(decode_column(packed_tfs))
                assert plist.max_tf == max_tf
                assert list(plist.block_max_tfs) == list(
                    decode_column(packed_blocks)
                )
            for term, packed in payload["predicates"].items():
                assert list(loaded.predicate_postings(term).doc_ids) == list(
                    decode_column(packed)
                )
            for doc, entry in zip(loaded.store, payload["documents"]):
                assert doc.external_id == entry["external_id"]
                assert doc.length == entry["length"]
                assert doc.unique_terms == entry["unique_terms"]

    def test_v3_reload_preserves_max_tf_and_blocks(
        self, tmp_path, handmade_index
    ):
        upgrade_tool.upgrade(V3_DATA / "flat" / "idx.json", tmp_path / "idx.bin")
        loaded = load_index(tmp_path / "idx.bin")
        for term in handmade_index.vocabulary:
            original = handmade_index.postings(term)
            reloaded = loaded.postings(term)
            assert reloaded.max_tf == original.max_tf
            assert list(reloaded.block_max_tfs) == list(original.block_max_tfs)
            assert reloaded.segment_bounds() == original.segment_bounds()
        loaded.close()

    def test_v2_payload_still_loads_with_recomputed_blocks(
        self, tmp_path, handmade_index
    ):
        save_path = V3_DATA / "flat" / "idx.json"
        path = tmp_path / "v2.json"
        path.write_text(
            json.dumps(self._as_v2_payload(json.loads(save_path.read_text())))
        )
        with pytest.raises(StorageError, match="format 2.*upgrade_index"):
            load_index(path)
        upgrade_tool.upgrade(path, tmp_path / "v2.bin")
        loaded = load_index(tmp_path / "v2.bin")
        for term in handmade_index.vocabulary:
            original = handmade_index.postings(term)
            reloaded = loaded.postings(term)
            assert list(reloaded) == list(original)
            assert reloaded.max_tf == original.max_tf
            # Block maxima are not in the v2 payload; the rebuild
            # recomputes them and they must match exactly.
            assert list(reloaded.block_max_tfs) == list(original.block_max_tfs)
        a = ContextSearchEngine(handmade_index).search_disjunctive(
            "leukemia | Diseases"
        )
        b = ContextSearchEngine(loaded).search_disjunctive(
            "leukemia | Diseases"
        )
        assert a.external_ids() == b.external_ids()
        loaded.close()

    def test_future_version_rejected_with_supported_list(self, tmp_path):
        path = tmp_path / "v9.json"
        payload = json.loads((V3_DATA / "flat" / "idx.json").read_text())
        payload["version"] = 9
        path.write_text(json.dumps(payload))
        with pytest.raises(StorageError, match="versions 1, 2"):
            upgrade_tool.upgrade(path, tmp_path / "v9.bin")
        assert not (tmp_path / "v9.bin").exists()

    def test_malformed_v2_payload_is_storage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        payload = json.loads((V3_DATA / "flat" / "idx.json").read_text())
        payload["version"] = 2
        payload["documents"][0]["field_tokens"] = 7  # not a field mapping
        path.write_text(json.dumps(payload))
        with pytest.raises(StorageError, match="malformed index payload"):
            upgrade_tool.upgrade(path, tmp_path / "broken.bin")

    def test_only_v4_shards_are_writable(self, tmp_path, handmade_index):
        from repro.index.sharded import ShardedInvertedIndex
        from repro.storage import save_sharded_index

        sharded = ShardedInvertedIndex.from_index(handmade_index, 2, "hash")
        with pytest.raises(StorageError, match="writable format is 4"):
            save_sharded_index(sharded, tmp_path / "idx.json", format=3)
        assert list(tmp_path.iterdir()) == []


class TestShardedLoadRobustness:
    """A missing, truncated, or version-incompatible per-shard file must
    surface as one readable StorageError naming the offending file."""

    @pytest.fixture(params=[3, 4], ids=["v3-json", "v4-binary"])
    def saved_sharded(self, request, tmp_path, handmade_index):
        """A v4 save, or the v3 fixture converted by the upgrade tool."""
        from repro.index.sharded import ShardedInvertedIndex
        from repro.storage import load_sharded_index, save_sharded_index

        path = tmp_path / "idx.json"
        if request.param == 3:
            upgrade_tool.upgrade(V3_DATA / "sharded" / "idx.json", path)
        else:
            sharded = ShardedInvertedIndex.from_index(handmade_index, 2, "hash")
            save_sharded_index(sharded, path)
        return path, load_sharded_index

    def test_missing_shard_file(self, saved_sharded):
        path, load_sharded_index = saved_sharded
        victim = path.parent / "idx.shard1.json"
        victim.unlink()
        with pytest.raises(StorageError, match="is missing") as exc_info:
            load_sharded_index(path)
        assert victim.name in str(exc_info.value)

    def test_truncated_gzip_shard(self, tmp_path):
        """A torn legacy shard fails its conversion, naming the file."""
        path = copy_v3_sharded(tmp_path, ".json.gz")
        victim = tmp_path / "idx.shard0.json.gz"
        victim.write_bytes(victim.read_bytes()[:40])  # truncate mid-stream
        with pytest.raises(StorageError, match="unreadable") as exc_info:
            upgrade_tool.upgrade(path, tmp_path / "out.bin")
        assert victim.name in str(exc_info.value)

    def test_truncated_binary_shard(self, tmp_path, handmade_index):
        from repro.index.sharded import ShardedInvertedIndex
        from repro.storage import load_sharded_index, save_sharded_index

        sharded = ShardedInvertedIndex.from_index(handmade_index, 2, "hash")
        path = tmp_path / "idx.json"
        save_sharded_index(sharded, path)
        victim = tmp_path / "idx.shard0.json"
        victim.write_bytes(victim.read_bytes()[:64])  # torn mid-header
        with pytest.raises(StorageError, match="unreadable") as exc_info:
            load_sharded_index(path)
        assert victim.name in str(exc_info.value)

    def test_shard_version_mismatch(self, tmp_path, handmade_index):
        """A v3 JSON shard file under a v4 manifest is refused by name."""
        from repro.index.sharded import ShardedInvertedIndex
        from repro.storage import load_sharded_index, save_sharded_index

        sharded = ShardedInvertedIndex.from_index(handmade_index, 2, "hash")
        path = tmp_path / "idx.json"
        save_sharded_index(sharded, path)
        victim = path.parent / "idx.shard0.json"
        shutil.copy(V3_DATA / "sharded" / "idx.shard0.json", victim)
        with pytest.raises(StorageError, match="unreadable") as exc_info:
            load_sharded_index(path)
        assert victim.name in str(exc_info.value)
        assert "format 3" in str(exc_info.value)
        assert "tools/upgrade_index.py" in str(exc_info.value)

    def test_intact_set_roundtrips(self, saved_sharded, handmade_index):
        path, load_sharded_index = saved_sharded
        loaded = load_sharded_index(path)
        assert loaded.num_docs == handmade_index.num_docs
        loaded.close()

    def test_loaded_set_ranks_like_the_flat_index(
        self, saved_sharded, handmade_engine
    ):
        from repro import ShardedEngine

        path, load_sharded_index = saved_sharded
        expected = handmade_engine.search("leukemia | Diseases")
        with ShardedEngine(
            load_sharded_index(path), executor="serial"
        ) as engine:
            got = engine.search("leukemia | Diseases")
        assert [(h.external_id, h.score) for h in got.hits] == [
            (h.external_id, h.score) for h in expected.hits
        ]


class TestBinaryFormatV4:
    """The v4 block format: lazy loads, torn-file diagnostics, and
    resource lifecycle."""

    @pytest.fixture()
    def v4_path(self, tmp_path, handmade_index):
        path = tmp_path / "idx.bin"
        save_index(handmade_index, path)
        return path

    def test_rankings_bit_identical_to_eager_v3(self, tmp_path, v4_path):
        """The v3 fixture, converted by the upgrade tool, ranks exactly
        like a fresh v4 save of the same collection."""
        converted = tmp_path / "v3.bin"
        upgrade_tool.upgrade(V3_DATA / "flat" / "idx.json", converted)
        with load_index(converted) as eager, load_index(v4_path) as lazy:
            a = ContextSearchEngine(eager).search("leukemia | Diseases")
            b = ContextSearchEngine(lazy).search("leukemia | Diseases")
        assert a.external_ids() == b.external_ids()
        for ha, hb in zip(a.hits, b.hits):
            assert ha.score == hb.score  # bit-identical, not approx

    def test_loaded_lists_are_lazy_until_touched(self, v4_path):
        from repro.index.postings import LazyPostingList

        loaded = load_index(v4_path)
        plist = next(
            loaded.postings(t)
            for t in loaded.vocabulary
            if len(loaded.postings(t))
        )
        assert isinstance(plist, LazyPostingList)
        assert not plist.materialized
        # Metadata reads decode nothing...
        assert plist.max_tf >= 1 and len(plist) >= 1
        assert not plist.materialized
        # ...while an element read promotes the list to plain arrays.
        assert plist.doc_ids[0] >= 0
        assert plist.materialized
        loaded.close()

    def test_close_is_idempotent_and_blocks_reads(self, v4_path):
        loaded = load_index(v4_path)
        untouched = [
            t for t in loaded.vocabulary if len(loaded.postings(t))
        ]
        loaded.close()
        loaded.close()  # idempotent
        with pytest.raises(StorageError, match="closed"):
            list(loaded.postings(untouched[0]).doc_ids)

    def test_context_manager_closes(self, v4_path):
        with load_index(v4_path) as loaded:
            assert loaded.num_docs > 0

    def test_json_loader_names_binary_artefact(self, v4_path):
        from repro.storage import load_catalog

        with pytest.raises(StorageError, match="byte 0.*format v4"):
            load_catalog(v4_path)

    def test_torn_header_names_file_and_offset(self, tmp_path, v4_path):
        torn = tmp_path / "torn.bin"
        torn.write_bytes(v4_path.read_bytes()[:32])
        with pytest.raises(StorageError, match="at byte") as exc_info:
            load_index(torn)
        assert torn.name in str(exc_info.value)

    def test_torn_blocks_surface_offset_on_decode(self, tmp_path, v4_path):
        # Keep the header/dictionary intact but cut the file short, so
        # the tear is only discovered when a block is actually decoded.
        data = v4_path.read_bytes()
        torn = tmp_path / "torn-tail.bin"
        torn.write_bytes(data[: int(len(data) * 0.7)])
        try:
            loaded = load_index(torn)
        except StorageError as exc:
            assert "at byte" in str(exc)
            return
        with pytest.raises(StorageError, match="at byte"):
            for term in loaded.vocabulary:
                list(loaded.postings(term).doc_ids)
        loaded.close()

    def test_flipped_magic_reports_damage(self, tmp_path, v4_path):
        data = bytearray(v4_path.read_bytes())
        data[5] ^= 0xFF  # damage inside the magic, after the sniff prefix
        bad = tmp_path / "bad-magic.bin"
        bad.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            load_index(bad)

    def test_no_resource_warning_when_closed(self, v4_path):
        import gc
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            loaded = load_index(v4_path)
            for term in list(loaded.vocabulary)[:5]:
                list(loaded.postings(term))
            loaded.close()
            del loaded
            gc.collect()
