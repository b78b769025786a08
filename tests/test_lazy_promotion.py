"""A lazy v4 posting list promotes itself to plain arrays on its first
element read.

Bounds reads (length, ``max_tf``, the skip table, the per-block maxima,
segment overlap) and the bulk ``columns()`` reader leave a list lazy.
The first element read decodes every block once and installs two
``array('q')`` columns on the list; a :class:`LazyColumn` captured
before that forwards to them.  The loader is kept, so an unpromoted
list still fails cleanly after ``close()`` while a promoted one keeps
reading.
"""

import sys
import threading
from bisect import bisect_left

import pytest

import repro.index.blockstore as blockstore
from repro import ContextSearchEngine
from repro.index.postings import (
    END_OF_LIST,
    LazyColumn,
    LazyPostingList,
    PostingCursor,
)
from repro.lifecycle import SegmentedIndex
from repro.storage import StorageError, load_index, save_index

K = 5


@pytest.fixture(scope="module")
def v4_path(corpus_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("promotion") / "index.bin"
    save_index(corpus_index, path)
    return path


@pytest.fixture
def lazy(v4_path):
    """A freshly loaded v4 index: no list has been promoted yet."""
    index = load_index(v4_path)
    yield index
    index.close()


def by_frequency(index):
    return sorted(index.vocabulary, key=lambda w: (-index.document_frequency(w), w))


def all_lists(index):
    return [index.postings(t) for t in index.vocabulary] + [
        index.predicate_postings(p) for p in index.predicate_vocabulary
    ]


@pytest.fixture(scope="module")
def mixed_queries(corpus_index):
    """40 (mode, query) pairs: context, conventional and disjunctive
    searches over frequent and mid-frequency terms."""
    terms = by_frequency(corpus_index)
    predicates = sorted(
        corpus_index.predicate_vocabulary,
        key=lambda m: (-corpus_index.predicate_frequency(m), m),
    )
    modes = ("context", "conventional", "disjunctive")
    queries = []
    for i in range(40):
        keywords = f"{terms[i % 12]} {terms[12 + 7 * i]}"
        queries.append((modes[i % 3], f"{keywords} | {predicates[i % 6]}"))
    return queries


def run(engine, mode, query):
    if mode == "context":
        results = engine.search(query, top_k=K)
    elif mode == "conventional":
        results = engine.search_conventional(query, top_k=K)
    else:
        results = engine.search_disjunctive(query, top_k=K)
    return [(hit.external_id, hit.score) for hit in results.hits]


@pytest.fixture
def decodes(monkeypatch):
    """Counts every block decode of every v4 loader."""
    calls = []
    real = blockstore.decode_block

    def counting(frame, count, prev):
        calls.append(count)
        return real(frame, count, prev)

    monkeypatch.setattr(blockstore, "decode_block", counting)
    return calls


class TestCapturedColumns:
    def test_columns_captured_before_promotion_read_the_arrays(
        self, lazy, corpus_index
    ):
        term = by_frequency(corpus_index)[0]
        plist = lazy.postings(term)
        eager = corpus_index.postings(term)
        ids, tfs = plist.doc_ids, plist.tfs
        assert isinstance(ids, LazyColumn) and isinstance(tfs, LazyColumn)
        assert not plist.materialized

        assert tfs[1] == eager.tfs[1]  # the first element read promotes
        assert plist.materialized
        assert plist.doc_ids is not ids and plist.tfs is not tfs
        for column, reference in ((ids, eager.doc_ids), (tfs, eager.tfs)):
            assert len(column) == len(reference)
            for i in (0, 1, len(reference) // 2, len(reference) - 1):
                assert column[i] == reference[i]
            for i in (-1, -2, -len(reference)):
                assert column[i] == reference[i]
            assert column[3:40:2] == reference[3:40:2]
            assert column[-10:] == reference[-10:]
            assert list(column) == list(reference)
            with pytest.raises(IndexError):
                column[len(reference)]
        for target in range(-1, eager.doc_ids[-1] + 3, 5):
            assert bisect_left(ids, target) == bisect_left(eager.doc_ids, target)

    def test_cursor_built_before_promotion_reads_on(self, lazy, corpus_index):
        term = by_frequency(corpus_index)[1]
        plist = lazy.postings(term)
        eager = corpus_index.postings(term)
        cursor = PostingCursor(plist)
        assert not plist.materialized
        walked = [(cursor.doc, cursor.tf)]  # the first tf read promotes
        assert plist.materialized
        while cursor.advance() != END_OF_LIST:
            walked.append((cursor.doc, cursor.tf))
        assert walked == list(eager)


class TestConcurrentPromotion:
    def test_four_threads_match_the_eager_engine(
        self, lazy, corpus_index, mixed_queries, decodes
    ):
        eager = ContextSearchEngine(corpus_index)
        expected = [run(eager, mode, query) for mode, query in mixed_queries]
        engine = ContextSearchEngine(lazy)
        start = threading.Barrier(4)
        results, errors = {}, []

        def worker(slot):
            try:
                start.wait()
                results[slot] = [run(engine, m, q) for m, q in mixed_queries]
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for slot in range(4):
            assert results[slot] == expected
        # Racing readers promoted each list once between them.
        promoted = [p for p in all_lists(lazy) if p.materialized]
        assert len(decodes) == sum(p.num_segments for p in promoted)


class TestDecodeCounts:
    def test_blocks_decode_once_then_never(self, lazy, mixed_queries, decodes):
        engine = ContextSearchEngine(lazy)
        first = [run(engine, m, q) for m, q in mixed_queries]
        promoted = [p for p in all_lists(lazy) if p.materialized]
        assert promoted
        assert len(decodes) == sum(p.num_segments for p in promoted)

        before = len(decodes)
        second = [run(engine, m, q) for m, q in mixed_queries]
        assert len(decodes) == before
        assert second == first


class TestWhatStaysLazy:
    def test_metadata_and_bulk_reads_do_not_promote(
        self, lazy, corpus_index, decodes
    ):
        a, b = (lazy.postings(t) for t in by_frequency(corpus_index)[:2])
        assert len(a) and a.max_tf >= 1
        assert len(a.block_max_tfs) == a.num_segments
        assert len(a.segment_bounds()) == a.num_segments
        assert a.overlapping_segments(b) >= 1
        PostingCursor(a)
        assert decodes == []

        eager = corpus_index.postings(a.term)
        assert a.columns() == eager.columns()
        assert len(decodes) == a.num_segments
        assert not a.materialized and not b.materialized
        assert isinstance(a.doc_ids, LazyColumn)


class TestClose:
    def test_closed_file_fails_unpromoted_lists_only(self, v4_path, corpus_index):
        index = load_index(v4_path)
        promoted, unpromoted = (
            index.postings(t) for t in by_frequency(corpus_index)[:2]
        )
        assert isinstance(unpromoted, LazyPostingList)
        first = promoted.doc_ids[0]
        index.close()

        assert promoted.doc_ids[0] == first
        assert promoted.columns() == corpus_index.postings(promoted.term).columns()
        with pytest.raises(StorageError, match="closed"):
            unpromoted.doc_ids[0]
        assert not unpromoted.materialized
        assert len(unpromoted) == len(corpus_index.postings(unpromoted.term))


def compacted_postings(index):
    """``{space: {term: (ids, tfs)}}`` of the single compacted segment."""
    (segment,) = index._segments
    return {
        space: {
            term: (list(ids), list(tfs))
            for term, (ids, tfs) in (
                (term, plist.columns())
                for term, plist in getattr(segment, space).items()
            )
        }
        for space in ("content", "predicates")
    }


class TestCompactionStaysLazy:
    def build(self, index, documents):
        """Two flushed segments and two deletions across them."""
        index.add_documents(documents[:120])
        index.flush()
        index.add_documents(documents[120:])
        index.flush()
        index.delete_documents([documents[5].doc_id, documents[150].doc_id])
        return index

    def test_full_compaction_promotes_no_old_list(self, corpus, tmp_path):
        documents = corpus.documents[:240]
        self.build(SegmentedIndex.open(tmp_path / "v4"), documents).close()
        # The in-memory twin: plain posting lists, the same merge.
        reference = self.build(SegmentedIndex(), documents)
        reference.compact(full=True)

        index = SegmentedIndex.open(tmp_path / "v4")
        try:
            old = [
                plist
                for segment in index._segments
                for space in (segment.content, segment.predicates)
                for plist in space.values()
            ]
            assert len(index._segments) == 2
            assert old and all(isinstance(p, LazyPostingList) for p in old)
            assert index.compact(full=True).changed
            assert not any(plist.materialized for plist in old)
            assert compacted_postings(index) == compacted_postings(reference)
        finally:
            index.close()
