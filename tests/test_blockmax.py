"""Block-max top-k: rank-safety and bit-identity at every layer.

The block-max scorer may only *skip* work, never change results.  The
property tests here assert rankings — docids *and* exact float scores —
are identical with blocks on, with blocks off (global-bound MaxScore),
and against the exhaustive reference: at the scorer level over
adversarial tf-skewed corpora, through the flat and sharded engines
(1/2/3/8 shards), and at every lifecycle point (memtable-only,
post-flush, post-compaction, WAL-replay reopen).  Small segment sizes
make block boundaries dense so the skip machinery actually fires.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BM25,
    ContextSearchEngine,
    Document,
    PivotedNormalizationTFIDF,
    build_index,
)
from repro.core.sharded_engine import ShardedEngine
from repro.core.statistics import CollectionStatistics
from repro.core.topk import (
    MaxScoreScorer,
    TopKDiagnostics,
    exhaustive_disjunctive,
)
from repro.index.sharded import ShardedInvertedIndex
from repro.lifecycle import LifecycleEngine, SegmentedIndex

TERMS = ("alpha", "beta", "gamma", "delta")
QUERY = "alpha beta gamma delta | Common"


def skewed_docs(rows, prefix="S"):
    """One document per row of per-term tfs.  Every document carries the
    ``Common`` predicate so the query context is never empty."""
    docs = []
    for i, row in enumerate(rows):
        body = " ".join(" ".join([t] * tf) for t, tf in zip(TERMS, row) if tf)
        docs.append(
            Document(
                f"{prefix}{i}",
                {
                    "title": body or "filler",
                    "mesh": "Common " + ("Odd" if i % 2 else "Even"),
                },
            )
        )
    return docs


def global_stats(index, keywords):
    return CollectionStatistics(
        cardinality=index.num_docs,
        total_length=index.total_length,
        df={w: index.document_frequency(w) for w in keywords},
    )


def exact_ranking(results):
    """(external_id, exact score) pairs — no rounding, bit-identity."""
    return [(h.external_id, h.score) for h in results.hits]


ROWS = st.lists(
    st.tuples(*(st.integers(min_value=0, max_value=48) for _ in TERMS)),
    min_size=4,
    max_size=64,
)


class TestScorerBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(rows=ROWS, k=st.integers(min_value=1, max_value=16))
    def test_blocks_match_global_and_exhaustive(self, rows, k):
        index = build_index(skewed_docs(rows), segment_size=4)
        keywords = [t for t in TERMS if t in index.vocabulary]
        if not keywords:
            return
        stats = global_stats(index, keywords)
        for ranking in (PivotedNormalizationTFIDF(), BM25()):
            blocked = MaxScoreScorer(
                index, keywords, stats, ranking, block_max=True
            ).top_k(k)
            unblocked = MaxScoreScorer(
                index, keywords, stats, ranking, block_max=False
            ).top_k(k)
            reference = exhaustive_disjunctive(
                index, keywords, stats, ranking, k
            )
            # Blocks on vs off run the same scoring code — bit-identical.
            assert [(s.doc_id, s.score) for s in blocked] == [
                (s.doc_id, s.score) for s in unblocked
            ]
            # Vs the exhaustive reference: identical ranking; scores agree
            # to the repo-wide 1e-12 contract (summation order differs).
            assert [s.doc_id for s in blocked] == [
                s.doc_id for s in reference
            ]
            for a, b in zip(blocked, reference):
                assert a.score == pytest.approx(b.score, abs=1e-12)


class TestEngineBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(rows=ROWS, k=st.integers(min_value=1, max_value=12))
    def test_flat_and_sharded_rankings_identical(self, rows, k):
        index = build_index(skewed_docs(rows), segment_size=4)
        flat = ContextSearchEngine(index)
        on = flat.search_disjunctive(QUERY, top_k=k, block_max=True)
        off = flat.search_disjunctive(QUERY, top_k=k, block_max=False)
        assert exact_ranking(on) == exact_ranking(off)
        assert on.report.topk["block_max"] is True
        assert off.report.topk["block_max"] is False
        for shards in (1, 2, 3, 8):
            sharded = ShardedInvertedIndex.from_index(index, shards, "hash")
            with ShardedEngine(sharded) as engine:
                s_on = engine.search_disjunctive(
                    QUERY, top_k=k, block_max=True
                )
                s_off = engine.search_disjunctive(
                    QUERY, top_k=k, block_max=False
                )
            assert exact_ranking(s_on) == exact_ranking(on)
            assert exact_ranking(s_off) == exact_ranking(on)


def lifecycle_checkpoints(directory, docs, shards):
    """Drive one segmented index through its lifecycle, yielding an
    engine at each point: memtable-only, post-flush, post-compaction,
    and a WAL-replay reopen (last batch left unflushed)."""
    index = SegmentedIndex(directory, segment_size=4)
    engine = LifecycleEngine(index, num_shards=shards)
    try:
        engine.ingest(docs[: len(docs) // 2])
        yield "memtable", engine, docs[: len(docs) // 2]
        engine.flush()
        yield "post-flush", engine, docs[: len(docs) // 2]
        engine.ingest(docs[len(docs) // 2 :])
        engine.flush()
        engine.compact(full=True)
        yield "post-compaction", engine, docs
    finally:
        engine.close()
    reopened = SegmentedIndex.open(directory)
    replayed = LifecycleEngine(reopened, num_shards=shards)
    try:
        yield "wal-replay", replayed, docs
    finally:
        replayed.close()


class TestLifecycleBitIdentity:
    @settings(max_examples=4, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                *(st.integers(min_value=0, max_value=32) for _ in TERMS)
            ),
            min_size=8,
            max_size=32,
        ),
        k=st.integers(min_value=1, max_value=10),
        shards=st.sampled_from([0, 3]),
    )
    def test_every_lifecycle_point(self, rows, k, shards):
        docs = skewed_docs(rows, prefix="L")
        with tempfile.TemporaryDirectory() as directory:
            for point, engine, live in lifecycle_checkpoints(
                directory, docs, shards
            ):
                on = engine.search_disjunctive(QUERY, top_k=k, block_max=True)
                off = engine.search_disjunctive(
                    QUERY, top_k=k, block_max=False
                )
                assert exact_ranking(on) == exact_ranking(off), point
                reference = ContextSearchEngine(
                    build_index(live, segment_size=4)
                ).search_disjunctive(QUERY, top_k=k, block_max=False)
                assert [h.external_id for h in on.hits] == [
                    h.external_id for h in reference.hits
                ], point
                for a, b in zip(on.hits, reference.hits):
                    assert a.score == pytest.approx(b.score, abs=1e-12), point


@pytest.fixture(scope="module")
def spike_index():
    """The classic block-max shape: the top answer sits in the first
    block (tf=12 for both query terms), every later block holds tf=1
    postings whose block bound cannot beat it, and long keyword-free
    filler docs keep the query terms selective (healthy idf) and the
    spike docs near the average length (scores close to their bound)."""
    rows = []
    for i in range(400):
        if i < 4:
            rows.append((12, 12, 0, 0))
        elif i % 5 == 0:
            rows.append((1, 1, 0, 0))
        else:
            rows.append((0, 0, 30, 0))
    return build_index(skewed_docs(rows, prefix="K"), segment_size=4)


class TestDiagnostics:
    def test_blocks_skipped_fires(self, spike_index):
        keywords = ["alpha", "beta"]
        stats = global_stats(spike_index, keywords)
        diagnostics = TopKDiagnostics()
        hits = MaxScoreScorer(
            spike_index, keywords, stats, BM25(), block_max=True
        ).top_k(1, diagnostics=diagnostics)
        assert len(hits) == 1
        assert diagnostics.blocks_considered > 0
        assert diagnostics.blocks_skipped > 0

    def test_counters_zero_without_blocks(self, spike_index):
        keywords = ["alpha", "beta"]
        stats = global_stats(spike_index, keywords)
        diagnostics = TopKDiagnostics()
        MaxScoreScorer(
            spike_index, keywords, stats, BM25(), block_max=False
        ).top_k(1, diagnostics=diagnostics)
        assert diagnostics.blocks_considered == 0
        assert diagnostics.blocks_skipped == 0

    def test_skipping_saves_scoring_work(self, spike_index):
        keywords = ["alpha", "beta"]
        stats = global_stats(spike_index, keywords)
        with_blocks = TopKDiagnostics()
        without = TopKDiagnostics()
        a = MaxScoreScorer(
            spike_index, keywords, stats, BM25(), block_max=True
        ).top_k(1, diagnostics=with_blocks)
        b = MaxScoreScorer(
            spike_index, keywords, stats, BM25(), block_max=False
        ).top_k(1, diagnostics=without)
        assert [(s.doc_id, s.score) for s in a] == [
            (s.doc_id, s.score) for s in b
        ]
        assert with_blocks.candidates_seen < without.candidates_seen

    def test_report_carries_topk_diagnostics(self, spike_index):
        engine = ContextSearchEngine(spike_index)
        report = engine.search_disjunctive(
            QUERY, top_k=5, block_max=True
        ).report
        assert report.topk is not None
        assert report.topk["block_max"] is True
        assert report.topk["candidates_scored"] > 0
        assert report.topk["blocks_considered"] > 0
        roundtrip = type(report).from_dict(report.to_dict())
        assert roundtrip.topk == report.topk

    def test_sharded_report_merges_per_shard_counters(self, spike_index):
        sharded = ShardedInvertedIndex.from_index(spike_index, 3, "hash")
        with ShardedEngine(sharded) as engine:
            report = engine.search_disjunctive(
                QUERY, top_k=5, block_max=True
            ).report
        assert report.topk is not None
        assert report.topk["block_max"] is True
        assert report.topk["candidates_seen"] > 0
