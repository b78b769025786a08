"""Tests for the segmented index lifecycle.

The headline invariant: at *every* lifecycle point — memtable-only,
after flush, after tombstone deletes, after WAL-replay reopen, after
compaction — a ranking computed over the segmented index is
bit-identical to the ranking of a from-scratch
:class:`~repro.index.inverted_index.InvertedIndex` built over the
currently-live documents, in flat and sharded mode, across all three
query modes.  On top of that: snapshot isolation, crash recovery
(torn WAL tails vs real corruption), physical tombstone drop at
compaction, the single-epoch freshness contract of the statistics and
serving caches, exact incremental view maintenance, and a randomized
interleaving property test over the cached serving stack.
"""

from __future__ import annotations

import asyncio
import base64
import json
import random
import sys
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ContextSearchEngine, Document, InvertedIndex
from repro.errors import IndexError_, QueryError
from repro.lifecycle import (
    LifecycleEngine,
    SegmentedIndex,
    VersionClock,
    WriteAheadLog,
    replay_wal,
)
from repro.storage import StorageError, load_any_index

from .conftest import upgrade_tool

# ---------------------------------------------------------------------------
# Test corpus: deterministic, mesh predicates shared across docs so that
# contexts have several members and deletions visibly change statistics.

TOPICS = [
    ("protein folding dynamics", "Proteins Dynamics"),
    ("protein structure analysis", "Proteins Genomics"),
    ("genome sequencing pipelines", "Genomics Pipelines"),
    ("neural network training", "Learning Networks"),
    ("network protein interactions", "Proteins Networks"),
]


def make_docs(count, start=0):
    docs = []
    for i in range(start, start + count):
        title, mesh = TOPICS[i % len(TOPICS)]
        docs.append(
            Document(
                f"D{i}",
                {
                    "title": f"{title} study {i}",
                    "abstract": f"{title} results iteration {i % 7}",
                    "mesh": mesh,
                },
            )
        )
    return docs


DOCS = make_docs(20)

QUERIES = [
    "protein | Proteins",
    "protein structure | Proteins Genomics",
    "network training | Learning Networks",
    "genome | Genomics",
]


def fresh_reference(documents):
    """A from-scratch monolithic index over exactly these documents."""
    index = InvertedIndex()
    index.add_all(documents)
    index.commit()
    return index


def ranking_of(results):
    return [(h.external_id, round(h.score, 9)) for h in results.hits]


def assert_equivalent(engine, live_docs, queries=QUERIES):
    """Rankings from ``engine`` equal a from-scratch rebuild's, in all
    three query modes."""
    reference = ContextSearchEngine(fresh_reference(live_docs))
    for query in queries:
        for mode in ("context", "conventional", "disjunctive"):
            try:
                if mode == "context":
                    expected = reference.search(query)
                elif mode == "conventional":
                    expected = reference.search_conventional(query)
                else:
                    expected = reference.search_disjunctive(query)
                expected_error = None
            except QueryError as exc:
                expected, expected_error = None, type(exc)
            try:
                if mode == "context":
                    actual = engine.search(query)
                elif mode == "conventional":
                    actual = engine.search_conventional(query)
                else:
                    actual = engine.search_disjunctive(query)
            except QueryError as exc:
                assert expected_error is type(exc), (
                    f"{mode} {query!r}: engine raised {exc!r}, "
                    f"reference did not"
                )
                continue
            assert expected_error is None, (
                f"{mode} {query!r}: reference raised, engine did not"
            )
            assert ranking_of(actual) == ranking_of(expected), (
                f"{mode} {query!r}: ranking diverged"
            )


def live(documents, deleted):
    return [d for d in documents if d.doc_id not in deleted]


# ---------------------------------------------------------------------------
# Building blocks


class TestVersionClock:
    def test_monotonic(self):
        clock = VersionClock()
        assert clock.version == 0
        assert clock.advance() == 1
        assert clock.advance() == 2

    def test_advance_to_never_regresses(self):
        clock = VersionClock()
        clock.advance_to(7)
        assert clock.version == 7
        clock.advance_to(3)
        assert clock.version == 7


class TestMemtable:
    def _memtable(self):
        index = SegmentedIndex()
        return index._memtable

    def test_add_assigns_sequential_ids(self):
        table = self._memtable()
        stored = [table.add(doc) for doc in DOCS[:3]]
        assert [s.internal_id for s in stored] == [0, 1, 2]
        assert len(table) == 3

    def test_delete_removes_unsealed_doc(self):
        table = self._memtable()
        table.add(DOCS[0])
        table.add(DOCS[1])
        assert table.delete("D0") is not None
        assert table.get("D0") is None
        assert len(table) == 1
        # docid 0 is never reused
        stored = table.add(DOCS[2])
        assert stored.internal_id == 2


class TestSegment:
    def test_build_freezes_documents_and_postings(self):
        index = SegmentedIndex()
        index.add_documents(DOCS[:5])
        segment = index.flush()
        assert segment is not None
        assert segment.num_docs == 5
        assert segment.min_doc_id == 0
        assert segment.max_doc_id == 4
        for plist in segment.content.values():
            ids = list(plist.doc_ids)
            assert ids == sorted(ids)

    def test_live_documents_excludes_tombstones(self):
        index = SegmentedIndex()
        index.add_documents(DOCS[:5])
        segment = index.flush()
        survivors = segment.live_documents({1, 3})
        assert [d.internal_id for d in survivors] == [0, 2, 4]


# ---------------------------------------------------------------------------
# Snapshot semantics


class TestSnapshot:
    def test_snapshot_is_isolated_from_later_mutations(self):
        index = SegmentedIndex()
        index.add_documents(DOCS[:10])
        index.flush()
        before = index.snapshot()
        assert before.num_docs == 10

        index.delete_documents(["D3"])
        index.add_documents(DOCS[10:12])
        after = index.snapshot()

        # The old snapshot still sees the old world.
        assert before.num_docs == 10
        assert before.store.by_external_id("D3") is not None
        assert after.num_docs == 11
        assert after.store.by_external_id("D3") is None
        assert after.version > before.version

    def test_snapshot_cached_per_version(self):
        index = SegmentedIndex()
        index.add_documents(DOCS[:4])
        index.flush()
        assert index.snapshot() is index.snapshot()
        index.add_documents(DOCS[4:5])
        assert index.snapshot() is not None

    def test_clean_single_segment_postings_are_zero_copy(self):
        index = SegmentedIndex()
        index.add_documents(DOCS[:5])
        segment = index.flush()
        snapshot = index.snapshot()
        term = next(iter(segment.content))
        assert snapshot.postings(term) is segment.content[term]

    def test_tombstoned_ids_absent_from_all_postings(self):
        index = SegmentedIndex()
        index.add_documents(DOCS[:10])
        index.flush()
        index.delete_documents(["D0", "D5"])
        snapshot = index.snapshot()
        dead = {0, 5}
        for term in snapshot.vocabulary:
            assert not dead & set(snapshot.postings(term).doc_ids)
        for term in snapshot.predicate_vocabulary:
            assert not dead & set(snapshot.predicate_postings(term).doc_ids)

    def test_partitions_cover_disjoint_ranges(self):
        index = SegmentedIndex()
        index.add_documents(DOCS[:6])
        index.flush()
        index.add_documents(DOCS[6:10])
        index.flush()
        snapshot = index.snapshot()
        parts = snapshot.partitions()
        assert len(parts) == 2
        assert sum(p.num_docs for p in parts) == snapshot.num_docs

    def test_epoch_matches_version(self):
        index = SegmentedIndex()
        index.add_documents(DOCS[:2])
        snapshot = index.snapshot()
        assert snapshot.epoch == snapshot.version == index.epoch


# ---------------------------------------------------------------------------
# The headline invariant: bit-identity at every lifecycle point


@pytest.fixture(params=[0, 3], ids=["flat", "sharded3"])
def engine_factory(request):
    shards = request.param

    def make(index):
        return LifecycleEngine(index, num_shards=shards)

    return make


class TestBitIdentity:
    def test_memtable_only(self, engine_factory):
        index = SegmentedIndex()
        engine = engine_factory(index)
        engine.ingest(DOCS[:10])
        assert_equivalent(engine, DOCS[:10])

    def test_mixed_segment_and_memtable(self, engine_factory):
        index = SegmentedIndex()
        engine = engine_factory(index)
        engine.ingest(DOCS[:10])
        engine.flush()
        engine.ingest(DOCS[10:15])
        assert_equivalent(engine, DOCS[:15])

    def test_after_flush(self, engine_factory):
        index = SegmentedIndex()
        engine = engine_factory(index)
        engine.ingest(DOCS)
        engine.flush()
        assert_equivalent(engine, DOCS)

    def test_after_tombstone_delete(self, engine_factory):
        index = SegmentedIndex()
        engine = engine_factory(index)
        engine.ingest(DOCS[:15])
        engine.flush()
        engine.delete(["D3", "D7"])
        assert_equivalent(engine, live(DOCS[:15], {"D3", "D7"}))

    def test_ingest_after_delete(self, engine_factory):
        index = SegmentedIndex()
        engine = engine_factory(index)
        engine.ingest(DOCS[:15])
        engine.flush()
        engine.delete(["D3", "D7"])
        engine.ingest(DOCS[15:])
        assert_equivalent(engine, live(DOCS, {"D3", "D7"}))

    def test_after_compaction(self, engine_factory):
        index = SegmentedIndex()
        engine = engine_factory(index)
        engine.ingest(DOCS[:8])
        engine.flush()
        engine.ingest(DOCS[8:15])
        engine.flush()
        engine.delete(["D3", "D7"])
        engine.ingest(DOCS[15:])
        report = engine.compact(full=True)
        assert report.changed
        assert_equivalent(engine, live(DOCS, {"D3", "D7"}))

    def test_after_reopen_with_wal_replay(self, engine_factory, tmp_path):
        directory = tmp_path / "idx"
        index = SegmentedIndex.open(directory)
        index.add_documents(DOCS[:12])
        index.flush()
        index.add_documents(DOCS[12:16])  # left in the WAL, unflushed
        index.delete_documents(["D2", "D13"])
        index.close()

        reopened = SegmentedIndex.open(directory)
        engine = engine_factory(reopened)
        try:
            assert_equivalent(engine, live(DOCS[:16], {"D2", "D13"}))
        finally:
            engine.close()


class TestSegmentStatsResolve:
    def test_matches_whole_snapshot_statistics(self):
        index = SegmentedIndex()
        engine = LifecycleEngine(index)
        engine.ingest(DOCS[:8])
        engine.flush()
        engine.ingest(DOCS[8:16])
        engine.flush()
        engine.delete(["D4"])
        engine.ingest(DOCS[16:])

        ground = engine.current_engine().context_statistics(
            ["Proteins"], ["protein"]
        )
        merged = engine.context_statistics(["Proteins"], ["protein"])
        assert merged.cardinality == ground.cardinality
        assert merged.total_length == ground.total_length
        assert dict(merged.df) == dict(ground.df)

    def test_empty_context_raises(self):
        index = SegmentedIndex()
        engine = LifecycleEngine(index)
        engine.ingest(DOCS[:5])
        with pytest.raises(QueryError):
            engine.context_statistics(["NoSuchPredicate"], ["protein"])


# ---------------------------------------------------------------------------
# Persistence and crash recovery


class TestPersistence:
    def test_reopen_restores_committed_state(self, tmp_path):
        directory = tmp_path / "idx"
        index = SegmentedIndex.open(directory)
        index.add_documents(DOCS[:10])
        index.flush()
        index.close()

        reopened = SegmentedIndex.open(directory)
        try:
            assert reopened.num_docs == 10
            assert reopened.num_segments == 1
            assert reopened.get_document("D4") is not None
        finally:
            reopened.close()

    def test_wal_replay_restores_unflushed_mutations(self, tmp_path):
        directory = tmp_path / "idx"
        index = SegmentedIndex.open(directory)
        index.add_documents(DOCS[:6])
        index.flush()
        index.add_documents(DOCS[6:9])
        index.delete_documents(["D1", "D7"])
        index.close()  # never flushed: adds + deletes live only in the WAL

        reopened = SegmentedIndex.open(directory)
        try:
            assert reopened.num_docs == 7
            assert reopened.get_document("D1") is None
            assert reopened.get_document("D7") is None
            assert reopened.get_document("D8") is not None
        finally:
            reopened.close()

    def test_torn_final_wal_line_is_dropped(self, tmp_path):
        directory = tmp_path / "idx"
        index = SegmentedIndex.open(directory)
        index.add_documents(DOCS[:5])
        index.close()
        wal_path = next(directory.glob("wal-*.jsonl"))
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "add", "doc_id": "D99", "fi')  # torn write

        reopened = SegmentedIndex.open(directory)
        try:
            assert reopened.num_docs == 5
            assert reopened.get_document("D99") is None
        finally:
            reopened.close()

    def test_mid_wal_corruption_is_a_storage_error(self, tmp_path):
        directory = tmp_path / "idx"
        index = SegmentedIndex.open(directory)
        index.add_documents(DOCS[:5])
        index.close()
        wal_path = next(directory.glob("wal-*.jsonl"))
        lines = wal_path.read_text(encoding="utf-8").splitlines()
        lines[1] = "NOT JSON"
        wal_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        with pytest.raises(StorageError, match="corrupt WAL") as exc_info:
            SegmentedIndex.open(directory)
        assert wal_path.name in str(exc_info.value)

    def test_unknown_wal_op_is_a_storage_error(self, tmp_path):
        path = tmp_path / "wal-000000.jsonl"
        wal = WriteAheadLog(path)
        wal.log_add(DOCS[0])
        wal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"op": "upsert", "doc_id": "D1"}) + "\n")
            handle.write(json.dumps({"op": "add", "doc_id": "D2", "fields": {}}) + "\n")
        with pytest.raises(StorageError, match="unknown record"):
            replay_wal(path)

    def test_missing_segment_file_names_the_file(self, tmp_path):
        directory = tmp_path / "idx"
        index = SegmentedIndex.open(directory)
        index.add_documents(DOCS[:5])
        index.flush()
        index.close()
        victim = next((directory / "segments").glob("seg-*"))
        victim.unlink()

        with pytest.raises(StorageError) as exc_info:
            SegmentedIndex.open(directory)
        assert victim.name in str(exc_info.value)

    def test_manifest_commit_is_atomic(self, tmp_path):
        """No .tmp siblings survive a commit, and the manifest is always
        parseable after any number of commits."""
        directory = tmp_path / "idx"
        index = SegmentedIndex.open(directory)
        for lo in range(0, 20, 5):
            index.add_documents(DOCS[lo : lo + 5])
            index.flush()
            assert not list(directory.rglob("*.tmp"))
            manifest = json.loads(
                (directory / "manifest.json").read_text(encoding="utf-8")
            )
            assert manifest["kind"] == "segmented_index"
        index.close()

    def test_commit_rotates_wal_generation(self, tmp_path):
        directory = tmp_path / "idx"
        index = SegmentedIndex.open(directory)
        index.add_documents(DOCS[:5])
        old = {p.name for p in directory.glob("wal-*.jsonl")}
        assert old  # the adds were logged
        index.flush()
        manifest = json.loads(
            (directory / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["wal"] not in old  # a fresh generation
        # The old generation is unlinked; the new one starts empty.
        assert not old & {p.name for p in directory.glob("wal-*.jsonl")}
        assert replay_wal(directory / manifest["wal"]) == []
        index.close()

    def test_load_any_index_opens_directories(self, tmp_path):
        directory = tmp_path / "idx"
        index = SegmentedIndex.open(directory)
        index.add_documents(DOCS[:5])
        index.flush()
        index.close()
        loaded = load_any_index(directory)
        try:
            assert isinstance(loaded, SegmentedIndex)
            assert loaded.num_docs == 5
        finally:
            loaded.close()

    def test_reopened_index_continues_docids(self, tmp_path):
        directory = tmp_path / "idx"
        index = SegmentedIndex.open(directory)
        index.add_documents(DOCS[:7])
        index.flush()
        index.close()
        reopened = SegmentedIndex.open(directory)
        stored = reopened.add_documents(DOCS[7:9])
        assert [s.internal_id for s in stored] == [7, 8]
        reopened.close()


# ---------------------------------------------------------------------------
# Compaction


class TestCompaction:
    def test_compaction_physically_drops_tombstones(self, tmp_path):
        directory = tmp_path / "idx"
        index = SegmentedIndex.open(directory)
        index.add_documents(DOCS[:10])
        index.flush()
        index.add_documents(DOCS[10:])
        index.flush()
        index.delete_documents(["D3", "D12"])
        report = index.compact(full=True)
        assert report.dropped_documents == 2
        assert index._tombstones == set()
        for segment in index._segments:
            externals = {d.external_id for d in segment.documents}
            assert "D3" not in externals and "D12" not in externals
        index.close()

        # And the physically-compacted state is what reloads.
        reopened = SegmentedIndex.open(directory)
        try:
            assert reopened._tombstones == set()
            assert reopened.num_docs == 18
        finally:
            reopened.close()

    def test_full_compaction_yields_single_segment(self):
        index = SegmentedIndex()
        for lo in range(0, 20, 5):
            index.add_documents(DOCS[lo : lo + 5])
            index.flush()
        assert index.num_segments == 4
        report = index.compact(full=True)
        assert index.num_segments == 1
        assert report.segments_before == 4
        assert report.segments_after == 1

    def test_tiered_compaction_merges_equal_sized_neighbours(self):
        index = SegmentedIndex()
        for lo in range(0, 12, 4):
            index.add_documents(DOCS[lo : lo + 4])
            index.flush()
        assert index.num_segments == 3
        report = index.compact()
        assert report.changed
        assert index.num_segments < 3

    def test_compaction_noop_when_nothing_to_do(self):
        index = SegmentedIndex()
        index.add_documents(DOCS[:5])
        index.flush()
        report = index.compact()
        assert not report.changed
        assert report.merged == []

    def test_compaction_preserves_docid_order(self):
        index = SegmentedIndex()
        for lo in range(0, 20, 5):
            index.add_documents(DOCS[lo : lo + 5])
            index.flush()
        index.delete_documents(["D2", "D11"])
        index.compact(full=True)
        snapshot = index.snapshot()
        ids = [d.internal_id for d in snapshot.store]
        assert ids == sorted(ids)
        for term in snapshot.vocabulary:
            column = list(snapshot.postings(term).doc_ids)
            assert column == sorted(column)


# ---------------------------------------------------------------------------
# Legacy JSON segments: sealed by older builds, converted by the upgrade tool


def exact_rankings(engine, queries=QUERIES):
    """Every (query, mode) outcome with unrounded scores."""
    outcomes = []
    for query in queries:
        for search in (
            engine.search,
            engine.search_conventional,
            engine.search_disjunctive,
        ):
            try:
                hits = search(query).hits
                outcomes.append([(h.external_id, h.score) for h in hits])
            except QueryError as exc:
                outcomes.append(type(exc))
    return outcomes


def encode_column(values) -> str:
    """A v2/v3 posting column: base64 of little-endian int64."""
    column = array("q", values)
    if sys.byteorder != "little":
        column.byteswap()
    return base64.b64encode(column.tobytes()).decode("ascii")


class TestLegacyJsonSegments:
    """No writer emits v2/v3 JSON segments any more, so these tests seal
    them by hand (as ``TestFormatVersions._v1_payload`` does for flat
    files).  The loader refuses them; ``tools/upgrade_index.py`` turns
    them into v4 segments that rank and compact like the originals."""

    @staticmethod
    def _payload(segment, version: int) -> dict:
        content = {}
        for term, plist in segment.content.items():
            ids, tfs = plist.columns()
            column = [encode_column(ids), encode_column(tfs)]
            if version == 3:
                column += [plist.max_tf, encode_column(plist.block_max_tfs)]
            content[term] = column
        return {
            "kind": "segment",
            "version": version,
            "segment_id": segment.segment_id,
            "documents": [
                {
                    "internal_id": doc.internal_id,
                    "external_id": doc.external_id,
                    # v3 joined each field into one string; v2 kept lists.
                    "field_tokens": {
                        name: " ".join(tokens) if version == 3 else list(tokens)
                        for name, tokens in doc.field_tokens.items()
                    },
                    "length": doc.length,
                    "unique_terms": doc.unique_terms,
                }
                for doc in segment.documents
            ],
            "content": content,
            "predicates": {
                term: encode_column(plist.columns()[0])
                for term, plist in segment.predicates.items()
            },
        }

    @pytest.fixture
    def v4_dir(self, tmp_path):
        directory = tmp_path / "v4"
        index = SegmentedIndex.open(directory)
        index.add_documents(DOCS[:8])
        index.flush()
        index.add_documents(DOCS[8:15])
        index.delete_documents(["D3", "D9"])
        index.flush()
        index.add_documents(DOCS[15:])  # left in the WAL, unflushed
        index.close()
        return directory

    def _legacy_copy(
        self, v4_dir, target, version, corrupt=None, manifest_version=None,
        segments=None,
    ):
        """Copy ``v4_dir`` with its first ``segments`` (default: all)
        rewritten as JSON payloads of ``version``, under a manifest of
        ``manifest_version`` (default: ``version``); ``corrupt(payload)``
        may damage the first one."""
        import gzip
        import shutil

        shutil.copytree(v4_dir, target)
        manifest_path = target / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["version"] = manifest_version or version
        with SegmentedIndex.open(v4_dir) as source:
            segments_by_id = {s.segment_id: s for s in source._segments}
            for position, entry in enumerate(manifest["segments"][:segments]):
                payload = self._payload(segments_by_id[entry["segment_id"]], version)
                if corrupt is not None and position == 0:
                    corrupt(payload)
                (target / entry["file"]).unlink()
                entry["file"] = f"segments/{entry['segment_id']}.json.gz"
                with gzip.open(target / entry["file"], "wt") as handle:
                    json.dump(payload, handle)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        return target

    @pytest.mark.parametrize("version", [2, 3])
    def test_rankings_bit_identical_to_v4(self, v4_dir, tmp_path, version):
        legacy_dir = self._legacy_copy(v4_dir, tmp_path / "legacy", version)
        assert not list((legacy_dir / "segments").glob("*.seg"))
        with pytest.raises(StorageError, match="upgrade_index"):
            SegmentedIndex.open(legacy_dir)
        upgraded = tmp_path / "upgraded"
        upgrade_tool.upgrade(legacy_dir, upgraded)
        assert not list((upgraded / "segments").glob("*.json.gz"))
        with LifecycleEngine(SegmentedIndex.open(v4_dir)) as engine:
            expected = exact_rankings(engine)
        with LifecycleEngine(SegmentedIndex.open(upgraded)) as engine:
            assert exact_rankings(engine) == expected
            assert_equivalent(engine, live(DOCS, {"D3", "D9"}))

    @pytest.mark.parametrize("version", [2, 3])
    def test_full_compaction_rewrites_as_v4(self, v4_dir, tmp_path, version):
        legacy_dir = self._legacy_copy(v4_dir, tmp_path / "legacy", version)
        upgraded = tmp_path / "upgraded"
        upgrade_tool.upgrade(legacy_dir, upgraded)
        with LifecycleEngine(SegmentedIndex.open(v4_dir)) as engine:
            expected = exact_rankings(engine)
        with SegmentedIndex.open(upgraded) as index:
            index.compact(full=True)
        files = list((upgraded / "segments").iterdir())
        assert len(files) == 1 and files[0].suffix == ".seg"
        with LifecycleEngine(SegmentedIndex.open(upgraded)) as engine:
            assert exact_rankings(engine) == expected

    def test_malformed_entry_names_the_file(self, v4_dir, tmp_path):
        def corrupt(payload):
            del payload["documents"][0]["length"]

        legacy_dir = self._legacy_copy(
            v4_dir, tmp_path / "legacy", 3, corrupt=corrupt
        )
        upgraded = tmp_path / "upgraded"
        with pytest.raises(StorageError, match="malformed segment") as info:
            upgrade_tool.upgrade(legacy_dir, upgraded)
        assert "seg-000000.json.gz" in str(info.value)
        assert not upgraded.exists()

    def test_mixed_directory_converts_per_segment(self, v4_dir, tmp_path):
        """A v4 manifest may still name a JSON segment: the loader refuses
        it by file name, and the tool rebuilds just that segment while
        copying the ``.seg`` files, the tombstones and the WAL as they
        are."""
        legacy_dir = self._legacy_copy(
            v4_dir, tmp_path / "legacy", 3, manifest_version=4, segments=1
        )
        with pytest.raises(StorageError) as info:
            SegmentedIndex.open(legacy_dir)
        assert "seg-000000.json.gz" in str(info.value)
        assert "format 3" in str(info.value)
        upgraded = tmp_path / "upgraded"
        upgrade_tool.upgrade(legacy_dir, upgraded)
        for copied in (legacy_dir / "segments").glob("*.seg"):
            assert (upgraded / "segments" / copied.name).read_bytes() == (
                copied.read_bytes()
            )
        manifest = json.loads((upgraded / "manifest.json").read_text())
        assert manifest["version"] == 4 and manifest["tombstones"]
        wal = manifest["wal"]
        assert (upgraded / wal).read_bytes() == (legacy_dir / wal).read_bytes()
        with LifecycleEngine(SegmentedIndex.open(v4_dir)) as engine:
            expected = exact_rankings(engine)
        with LifecycleEngine(SegmentedIndex.open(upgraded)) as engine:
            assert exact_rankings(engine) == expected


# ---------------------------------------------------------------------------
# The single-epoch contract: every cache reads one version counter


class TestEpochConsumers:
    def test_every_mutation_ticks_the_clock(self):
        index = SegmentedIndex()
        engine = LifecycleEngine(index)
        seen = [engine.epoch]
        engine.ingest(DOCS[:5])
        seen.append(engine.epoch)
        engine.delete(["D2"])
        seen.append(engine.epoch)
        engine.flush()
        seen.append(engine.epoch)
        engine.ingest(DOCS[5:10])
        engine.flush()
        engine.compact(full=True)
        seen.append(engine.epoch)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)

    def test_single_epoch_source_across_the_stack(self):
        """Every epoch consumer reads the same VersionClock value: the
        lifecycle engine, its per-snapshot inner engine and the snapshot
        itself all agree — and a mutation advances all of them through
        the one clock."""
        index = SegmentedIndex()
        engine = LifecycleEngine(index)
        engine.ingest(DOCS[:10])
        inner = engine.current_engine()
        assert (
            inner.epoch
            == engine.epoch
            == index.epoch
            == index.snapshot().version
        )

        engine.ingest(DOCS[10:])
        fresh_inner = engine.current_engine()
        assert fresh_inner is not inner
        assert fresh_inner.epoch == index.epoch > inner.epoch

    def test_mutation_swaps_inner_engine_and_rankings_follow(self):
        index = SegmentedIndex()
        engine = LifecycleEngine(index)
        engine.ingest(DOCS[:10])
        engine.search("protein | Proteins")
        engine.delete(["D0", "D5"])
        engine.compact(full=True)
        assert_equivalent_single(
            engine, live(DOCS[:10], {"D0", "D5"}), "protein | Proteins"
        )

    def test_sharded_engine_reports_snapshot_version(self):
        index = SegmentedIndex()
        engine = LifecycleEngine(index, num_shards=2)
        engine.ingest(DOCS[:10])
        inner = engine.current_engine()
        assert inner.epoch == engine.epoch == index.epoch


def assert_equivalent_single(engine, live_docs, query):
    reference = ContextSearchEngine(fresh_reference(live_docs))
    expected = reference.search(query)
    actual = engine.search(query)
    assert ranking_of(actual) == ranking_of(expected)


# ---------------------------------------------------------------------------
# Views stay exact across the lifecycle


class TestViewsMaintenance:
    def test_catalog_equals_from_scratch_materialization(self):
        """After any add/delete/flush/compact interleaving, the
        incrementally-maintained view equals one materialised from
        scratch over the surviving documents."""
        from repro.views import ViewCatalog, WideSparseTable
        from repro.views.view import materialize_view

        index = SegmentedIndex()
        catalog = ViewCatalog()
        engine = LifecycleEngine(index, catalog=catalog)

        keyword_set = frozenset({"Proteins", "Genomics"})
        engine.ingest(DOCS[:10])
        snapshot = index.snapshot()
        df_terms = tuple(
            sorted(
                snapshot.vocabulary,
                key=lambda t: -snapshot.document_frequency(t),
            )[:2]
        )
        table = WideSparseTable.from_index(snapshot)
        view = materialize_view(table, keyword_set, df_terms=df_terms)
        catalog.add(view)

        engine.ingest(DOCS[10:15])
        engine.flush()
        engine.delete(["D1", "D6"])
        engine.ingest(DOCS[15:])
        engine.compact(full=True)

        reference = fresh_reference(live(DOCS, {"D1", "D6"}))
        scratch = materialize_view(
            WideSparseTable.from_index(reference),
            keyword_set,
            df_terms=df_terms,
        )
        assert view.groups == scratch.groups

    def test_reselect_over_tombstoned_snapshot_matches_scratch(self):
        """Reselection over a snapshot whose global docids have gaps —
        after deletes, and again after compaction — builds views equal
        to ones materialised from scratch over the survivors."""
        from repro.selection.adaptive import IncrementalReselector
        from repro.selection.workload_driven import WorkloadEntry
        from repro.views import WideSparseTable
        from repro.views.view import materialize_view

        docs = make_docs(300)
        index = SegmentedIndex()
        engine = LifecycleEngine(index)
        engine.ingest(docs[:150])
        engine.flush()
        engine.ingest(docs[150:])
        engine.flush()
        deleted = {"D3", "D50", "D160", "D200", "D299"}
        engine.delete(sorted(deleted))

        workload = [
            WorkloadEntry(frozenset({"Proteins"}), frequency=3),
            WorkloadEntry(frozenset({"Proteins", "Genomics"}), frequency=2),
            WorkloadEntry(frozenset({"Learning", "Networks"}), frequency=1),
        ]
        reselector = IncrementalReselector(
            storage_budget=10**9, include_tc_columns=True
        )
        scratch_table = WideSparseTable.from_index(
            fresh_reference(live(docs, deleted))
        )
        for compact in (False, True):
            if compact:
                engine.compact(full=True)
            catalog, report = reselector.reselect(index.snapshot(), workload)
            assert report.built_views == len(catalog) > 0
            for view in catalog:
                scratch = materialize_view(
                    scratch_table,
                    view.keyword_set,
                    df_terms=view.df_terms,
                    tc_terms=view.tc_terms,
                )
                assert view.groups == scratch.groups

    def test_catalog_engine_matches_plain_engine(self):
        from repro.views import ViewCatalog

        index = SegmentedIndex()
        engine = LifecycleEngine(index, catalog=ViewCatalog())
        engine.ingest(DOCS[:12])
        engine.flush()
        engine.delete(["D4"])
        engine.ingest(DOCS[12:])
        assert_equivalent(engine, live(DOCS, {"D4"}))


# ---------------------------------------------------------------------------
# Serving: the result cache can never return a stale ranking


def make_service(engine, **overrides):
    from repro.service.server import QueryService, ServiceConfig

    return QueryService(engine, ServiceConfig(**overrides))


def query_request(text, top_k=5):
    from repro.service.protocol import Request

    return Request(op="query", query=text, top_k=top_k)


def serve(service, request):
    return asyncio.run(service.handle_request(request))


class TestLifecycleServing:
    def test_healthz_reports_lifecycle_state(self):
        from repro.service.protocol import Request

        index = SegmentedIndex()
        engine = LifecycleEngine(index)
        engine.ingest(DOCS[:5])
        service = make_service(engine)
        try:
            response = serve(service, query_request("protein | Proteins"))
            assert response["status"] == "ok"
            health = serve(service, Request(op="healthz"))
            assert health["engine"] == "lifecycle"
            assert health["lifecycle"]["live_docs"] == 5
            assert health["epoch"] == engine.epoch
        finally:
            service.close()

    def test_search_many_honours_batch_width(self):
        """The caller's ``max_workers`` reaches the flat per-snapshot
        engine's batch executor (``batch --workers``, ``serve --workers``)."""
        with LifecycleEngine(SegmentedIndex()) as engine:
            engine.ingest(DOCS)
            report = engine.search_many(QUERIES, max_workers=1)
            assert report.workers == 1
            assert all(outcome.ok for outcome in report.outcomes)
            assert engine.search_many(QUERIES, max_workers=3).workers == 3

    def test_cached_serving_never_stale_after_mutations(self):
        """The serving cache hit path must go cold after every mutation:
        epoch stamps make stale entries unreachable."""
        index = SegmentedIndex()
        engine = LifecycleEngine(index)
        engine.ingest(DOCS[:10])
        service = make_service(engine, cache_entries=64)
        query = "protein | Proteins"
        try:
            first = serve(service, query_request(query))
            repeat = serve(service, query_request(query))
            assert repeat["cached"] is True
            assert repeat["hits"] == first["hits"]

            engine.ingest(DOCS[10:])
            fresh = serve(service, query_request(query))
            assert "cached" not in fresh
            assert service.result_cache.metrics.stale_drops == 1

            reference = ContextSearchEngine(fresh_reference(DOCS))
            expected = [
                h.external_id for h in reference.search(query, top_k=5).hits
            ]
            assert [h["doc"] for h in fresh["hits"]] == expected
        finally:
            service.close()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    # Seed 936 deletes every live Proteins document: the reply must be the
    # reference's EmptyContextError, not a ranking.
    @example(936)
    def test_random_interleaving_never_serves_stale(self, seed):
        """Property: under any interleaving of ingest/delete/flush/compact
        with cached serving, every response equals the from-scratch
        outcome over the currently-live documents: the same ranking, or
        the same error when the context has emptied."""
        rng = random.Random(seed)
        index = SegmentedIndex()
        engine = LifecycleEngine(index)
        service = make_service(engine, cache_entries=32)
        pending = make_docs(40)
        alive = []
        query = "protein | Proteins"
        try:
            engine.ingest(pending[:8])
            alive.extend(pending[:8])
            del pending[:8]
            for _ in range(12):
                op = rng.choice(
                    ["ingest", "delete", "flush", "compact", "query"]
                )
                if op == "ingest" and pending:
                    batch = pending[: rng.randint(1, 4)]
                    engine.ingest(batch)
                    alive.extend(batch)
                    del pending[: len(batch)]
                elif op == "delete" and len(alive) > 3:
                    victim = rng.choice(alive)
                    engine.delete([victim.doc_id])
                    alive.remove(victim)
                elif op == "flush":
                    engine.flush()
                elif op == "compact":
                    engine.compact(full=rng.random() < 0.5)
                response = serve(service, query_request(query))
                reference = ContextSearchEngine(fresh_reference(alive))
                try:
                    hits = reference.search(query, top_k=5).hits
                except QueryError as exc:
                    assert response["status"] == "error"
                    assert response["error"] == f"{type(exc).__name__}: {exc}"
                    continue
                assert response["status"] == "ok"
                expected = [h.external_id for h in hits]
                assert [h["doc"] for h in response["hits"]] == expected
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Error handling


class TestLifecycleErrors:
    def test_duplicate_add_rejected(self):
        index = SegmentedIndex()
        index.add_documents(DOCS[:3])
        with pytest.raises(IndexError_, match="duplicate"):
            index.add_documents([DOCS[0]])

    def test_delete_unknown_id_rejected_atomically(self):
        index = SegmentedIndex()
        index.add_documents(DOCS[:3])
        with pytest.raises(IndexError_, match="unknown"):
            index.delete_documents(["D0", "D99"])
        # Nothing was applied: D0 survives the failed batch.
        assert index.get_document("D0") is not None

    def test_auto_flush_seals_at_threshold(self):
        index = SegmentedIndex(flush_threshold=5)
        index.add_documents(DOCS[:12], auto_flush=True)
        assert index.num_segments >= 2
        assert len(index._memtable) < 5
        assert index.num_docs == 12
