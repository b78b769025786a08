"""PostingCursor: the one seek through a posting list's skip table.

The cursor replaced ``PostingList.skip_to`` and every private copy of it,
so it must land where a sorted-array ``bisect_left`` lands and charge a
:class:`CostCounter` exactly what ``skip_to`` charged.  ``skip_to`` is
kept below as the reference.  The same holds over lazily decoded lists
(in-memory loaders and v4 block files), whose first read decodes every
block once and whose later seeks decode none.  The last tests pin the
readers that moved onto the cursor: the ``tc`` gather of the context
intersection decodes each block once, and MaxScore top-k (membership in
``D_P`` is a forward seek per predicate list) gives the exhaustive
reference's answer and the recorded work counts.
"""

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BM25, ContextSearchEngine, PivotedNormalizationTFIDF
from repro.core.statistics import CollectionStatistics, QueryStatistics
from repro.core.topk import MaxScoreScorer, SharedTopKThreshold, exhaustive_disjunctive
from repro.index.kernels import intersect_ids_with_tfs
from repro.index.postings import (
    END_OF_LIST,
    CostCounter,
    LazyPostingList,
    PostingCursor,
    PostingList,
)
from repro.index.sharded import ShardedInvertedIndex
from repro.storage import (
    load_index,
    load_sharded_index,
    save_index,
    save_sharded_index,
)


def skip_to(plist, position, target, counter):
    """The body of the deleted ``PostingList.skip_to``: the reference."""
    n = len(plist.doc_ids)
    if position >= n:
        return position
    seg = position // plist.segment_size
    landing = bisect_left(plist._seg_maxes, target, seg)
    if landing >= len(plist._seg_maxes):
        landing = len(plist._seg_maxes) - 1
    if counter is not None:
        counter.segments_skipped += landing - seg
    landing_start = plist._skip_starts[landing] if plist._skip_starts else 0
    scan_start = max(position, landing_start)
    scan_end = min(n, landing_start + plist.segment_size)
    new_position = bisect_left(plist.doc_ids, target, scan_start, scan_end)
    if counter is not None:
        counter.entries_scanned += new_position - scan_start
    return new_position


def lazy_copy(plist, calls=None):
    """A fresh, unpromoted lazy list over ``plist``'s blocks.  A lazy
    ``plist`` lends its own (v4) loader, which promotion keeps;
    ``calls`` records every block load."""
    size = plist.segment_size
    if isinstance(plist, LazyPostingList):
        load = plist._loader
    else:
        ids, tfs = plist.columns()

        def load(block):
            window = slice(block * size, (block + 1) * size)
            return ids[window], tfs[window]

    def loader(block):
        if calls is not None:
            calls.append(block)
        return load(block)

    return LazyPostingList(
        plist.term,
        len(plist),
        size,
        plist.max_tf,
        plist._seg_mins,
        plist._seg_maxes,
        plist._seg_max_tfs,
        loader,
    )


def assert_cursor_state(cursor, plist, position):
    ids = plist.doc_ids
    size = plist.segment_size
    assert cursor.pos == position
    assert cursor.block == position // size
    if position < len(ids):
        assert cursor.doc == ids[position]
        assert cursor.tf == plist.tfs[position]
        assert cursor.block_max_doc == plist.segment_bounds()[cursor.block][1]
    else:
        assert cursor.doc == cursor.block_max_doc == END_OF_LIST


def replay(plist, steps):
    """Run ``steps`` (a target, or None for advance) on a cursor and on
    the reference; positions, states and charges must agree."""
    cursor = PostingCursor(plist)
    ids = list(plist.doc_ids)
    position = 0
    got, expected = CostCounter(), CostCounter()
    for target in steps:
        if target is None:
            if position >= len(ids):
                continue
            cursor.advance(got)
            position += 1
            expected.entries_scanned += 1
        else:
            before = position
            landed = cursor.seek(target, got)
            position = skip_to(plist, position, target, expected)
            assert position == max(before, bisect_left(ids, target))
            assert landed == (ids[position] if position < len(ids) else END_OF_LIST)
        assert_cursor_state(cursor, plist, position)
        assert got == expected


@st.composite
def lists_and_steps(draw):
    size = draw(st.sampled_from([2, 3, 4, 64]))
    # Lengths that fill whole segments come up often: they are where an
    # exhausted cursor once indexed one past the skip table.
    length = draw(
        st.one_of(
            st.integers(0, 150),
            st.integers(0, 6).map(lambda blocks: blocks * size),
        )
    )
    ids = sorted(draw(st.sets(st.integers(0, 600), min_size=length, max_size=length)))
    pairs = [(doc_id, 1 + doc_id % 5) for doc_id in ids]
    plist = PostingList.from_pairs("w", pairs, segment_size=size)
    if draw(st.booleans()):
        plist = lazy_copy(plist)
    # Ascending targets with repeats, past-the-end targets and advances.
    targets = sorted(draw(st.lists(st.integers(0, 650), max_size=40)))
    steps = [
        None if draw(st.booleans()) and draw(st.booleans()) else target
        for target in targets
    ]
    return plist, steps + [650, 651, None]


class TestSeekMatchesSkipTo:
    @settings(max_examples=400, deadline=None)
    @given(case=lists_and_steps())
    def test_lands_and_charges_like_skip_to(self, case):
        plist, steps = case
        replay(plist, steps)

    @pytest.mark.parametrize("size", [2, 3, 4, 64])
    @pytest.mark.parametrize("blocks", [0, 1, 3])
    def test_segment_aligned_exhaustion(self, size, blocks):
        plist = PostingList.from_pairs(
            "w", [(i, 1) for i in range(blocks * size)], segment_size=size
        )
        replay(plist, [blocks * size - 1, blocks * size, 10**9, 10**9, None])

    def test_target_at_or_below_doc_is_free(self):
        plist = PostingList.from_pairs("w", [(i * 3, 1) for i in range(20)], 4)
        cursor = PostingCursor(plist)
        counter = CostCounter()
        assert cursor.seek(30, counter) == 30
        charged = counter.copy()
        assert cursor.seek(30, counter) == 30
        assert cursor.seek(2, counter) == 30
        assert counter == charged

    def test_lookups_are_one_seek(self):
        plist = PostingList.from_pairs("w", [(1, 3), (4, 7), (9, 2)], 2)
        assert [plist.contains(d) for d in range(11)] == [
            d in (1, 4, 9) for d in range(11)
        ]
        assert [plist.tf_for(d) for d in (0, 1, 4, 9, 10)] == [None, 3, 7, 2, None]


@pytest.fixture(scope="module")
def v4_indexes(corpus, corpus_index, tmp_path_factory):
    """The corpus index with 64- and 4-entry segments, each paired with
    its reopened v4 block file."""
    pairs = []
    for size, index in ((64, corpus_index), (4, corpus.build_index(segment_size=4))):
        path = tmp_path_factory.mktemp("cursor") / f"index{size}.bin"
        save_index(index, path)
        pairs.append((index, load_index(path)))
    yield pairs
    for _, lazy in pairs:
        lazy.close()


class TestLazyV4Lists:
    def test_seeks_match_skip_to(self, v4_indexes):
        for eager, lazy in v4_indexes:
            terms = sorted(eager.vocabulary, key=lambda w: (-eager.document_frequency(w), w))
            for rank, term in enumerate(terms[:40:4]):
                last = eager.postings(term).doc_ids[-1]
                step = 1 + rank * 7
                steps = list(range(0, last + 3, step)) + [None, last + 9]
                plist = lazy_copy(lazy.postings(term))
                replay(plist, steps)
                # The cursor's first read promoted the list; its captured
                # columns forwarded to the arrays for the rest of the replay.
                assert plist.materialized

    def test_first_read_decodes_every_block_once(self, v4_indexes):
        eager, lazy = v4_indexes[1]
        term = max(eager.vocabulary, key=eager.document_frequency)
        last = eager.postings(term).doc_ids[-1]
        calls = []
        plist = lazy_copy(lazy.postings(term), calls)
        every_block = list(range(plist.num_segments))
        cursor = PostingCursor(plist)
        assert calls == []
        for target in range(0, last + 2, 37):
            cursor.seek(target)
            assert calls in ([], every_block)
        assert calls == every_block
        # Later seeks, on fresh cursors too, decode nothing.
        for target in range(0, last + 2, 37):
            PostingCursor(plist).seek(target)
        assert calls == every_block


class TestTcGather:
    def test_loads_each_matched_block_once(self, v4_indexes):
        """The ``tc`` gather of ``L_w ∩ context`` walks one cursor: at most
        one loader call per distinct block that holds a match."""
        eager, lazy = v4_indexes[1]
        terms = sorted(eager.vocabulary, key=lambda w: (-eager.document_frequency(w), w))
        predicate = max(eager.predicate_vocabulary, key=eager.predicate_frequency)
        context = list(eager.predicate_postings(predicate).doc_ids)
        for term in terms[:10]:
            source = lazy.postings(term)
            without, with_tc = [], []
            intersect_ids_with_tfs(context, lazy_copy(source, without))
            matched, tc = intersect_ids_with_tfs(
                context, lazy_copy(source, with_tc), want_tc=True
            )
            plist = eager.postings(term)
            positions = [bisect_left(plist.doc_ids, d) for d in matched]
            blocks = {p // plist.segment_size for p in positions}
            assert matched and tc == sum(plist.tfs[p] for p in positions)
            assert len(with_tc) - len(without) <= len(blocks)


def global_stats(index, keywords):
    return CollectionStatistics(
        cardinality=index.num_docs,
        total_length=index.total_length,
        df={w: index.document_frequency(w) for w in keywords},
    )


class TestTopKThroughCursors:
    K = 10

    @pytest.fixture(scope="class")
    def query(self, corpus_index):
        terms = sorted(
            corpus_index.vocabulary,
            key=lambda w: (-corpus_index.document_frequency(w), w),
        )
        predicates = sorted(
            corpus_index.predicate_vocabulary,
            key=lambda m: (-corpus_index.predicate_frequency(m), m),
        )[:2]
        members = set(corpus_index.predicate_postings(predicates[0]).doc_ids)
        members &= set(corpus_index.predicate_postings(predicates[1]).doc_ids)
        assert len(members) > self.K
        return [terms[0], terms[3], terms[40], terms[300]], predicates, members

    @pytest.fixture(scope="class")
    def lazy_shards(self, corpus_index, tmp_path_factory):
        path = tmp_path_factory.mktemp("cursor-shards") / "sharded.bin"
        save_sharded_index(ShardedInvertedIndex.from_index(corpus_index, 3), path)
        sharded = load_sharded_index(path)
        yield sharded
        sharded.close()

    @pytest.mark.parametrize("ranking", [PivotedNormalizationTFIDF(), BM25()])
    def test_two_predicate_context_matches_exhaustive(
        self, corpus_index, v4_indexes, lazy_shards, query, ranking
    ):
        keywords, predicates, members = query
        lazy = v4_indexes[0][1]
        stats = global_stats(corpus_index, keywords)
        reference = exhaustive_disjunctive(
            corpus_index, keywords, stats, ranking, self.K, context_filter=members
        )
        flat = MaxScoreScorer(
            lazy, keywords, stats, ranking, predicates=predicates
        ).top_k(self.K)
        assert [s.doc_id for s in flat] == [s.doc_id for s in reference]
        for got, want in zip(flat, reference):
            assert got.score == pytest.approx(want.score, abs=1e-12)

        query_stats = QueryStatistics.from_keywords(keywords)
        bounds = {
            w: ranking.term_upper_bound(
                w, corpus_index.postings(w).max_tf, query_stats, stats
            )
            for w in keywords
        }
        shared = SharedTopKThreshold(self.K)
        merged = []
        for shard in lazy_shards.shards:
            scorer = MaxScoreScorer(
                shard.index, keywords, stats, ranking,
                predicates=predicates, term_bounds=bounds,
            )
            merged.extend(
                (s.score, shard.global_ids[s.doc_id])
                for s in scorer.top_k(self.K, shared=shared)
            )
        merged.sort(key=lambda hit: (-hit[0], hit[1]))
        assert merged[: self.K] == [(s.score, s.doc_id) for s in flat]


# (seen, scored, pruned, heap updates, blocks considered, blocks skipped,
# entries scanned, segments skipped) per (model, keyword ranks, predicate
# ranks, block_max), top 5 over the conftest corpus with 4-entry
# segments, as recorded before MaxScore moved onto PostingCursor.
RECORDED = {
    ("tfidf", (0, 1, 2), (0,), True): (1097, 47, 762, 32, 289, 13, 7217, 662),
    ("tfidf", (0, 1, 2), (0,), False): (1149, 47, 799, 32, 0, 0, 7269, 649),
    ("tfidf", (3, 10, 30), (0, 1), True): (292, 47, 131, 30, 76, 0, 5194, 329),
    ("tfidf", (3, 10, 30), (0, 1), False): (292, 47, 131, 30, 0, 0, 5194, 329),
    ("tfidf", (1, 50), (1, 2), True): (190, 44, 9, 19, 44, 0, 3601, 304),
    ("tfidf", (1, 50), (1, 2), False): (190, 44, 9, 19, 0, 0, 3601, 304),
    ("tfidf", (5, 6, 7, 200), (3,), True): (656, 83, 238, 28, 184, 5, 5198, 318),
    ("tfidf", (5, 6, 7, 200), (3,), False): (679, 83, 248, 28, 0, 0, 5218, 313),
    ("bm25", (0, 1, 2), (0,), True): (1149, 40, 806, 34, 289, 0, 7091, 649),
    ("bm25", (0, 1, 2), (0,), False): (1149, 40, 806, 34, 0, 0, 7091, 649),
    ("bm25", (3, 10, 30), (0, 1), True): (287, 46, 130, 30, 74, 0, 5191, 331),
    ("bm25", (3, 10, 30), (0, 1), False): (287, 46, 130, 30, 0, 0, 5191, 331),
    ("bm25", (1, 50), (1, 2), True): (190, 30, 23, 19, 44, 0, 3581, 250),
    ("bm25", (1, 50), (1, 2), False): (190, 30, 23, 19, 0, 0, 3581, 250),
    ("bm25", (5, 6, 7, 200), (3,), True): (635, 65, 247, 25, 175, 5, 5094, 323),
    ("bm25", (5, 6, 7, 200), (3,), False): (658, 65, 257, 25, 0, 0, 5114, 318),
}


@pytest.mark.parametrize("shape", [0, 1], ids=["memory", "lazy"])
def test_topk_counts_match_recorded(v4_indexes, shape):
    index = v4_indexes[1][shape]
    terms = sorted(index.vocabulary, key=lambda w: (-index.document_frequency(w), w))
    predicates = sorted(
        index.predicate_vocabulary,
        key=lambda m: (-index.predicate_frequency(m), m),
    )
    engines = {
        "tfidf": ContextSearchEngine(index, ranking=PivotedNormalizationTFIDF()),
        "bm25": ContextSearchEngine(index, ranking=BM25()),
    }
    for (model, kw, pr, block_max), expected in RECORDED.items():
        text = " ".join(terms[i] for i in kw) + " | " + " ".join(predicates[i] for i in pr)
        report = engines[model].search_disjunctive(
            text, top_k=5, block_max=block_max
        ).report
        diagnostics = report.topk
        assert (
            diagnostics["candidates_seen"],
            diagnostics["candidates_scored"],
            diagnostics["candidates_pruned"],
            diagnostics["heap_updates"],
            diagnostics["blocks_considered"],
            diagnostics["blocks_skipped"],
            report.counter.entries_scanned,
            report.counter.segments_skipped,
        ) == expected, (model, kw, pr, block_max)
