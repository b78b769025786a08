"""The columnar scoring loop is exact.

``RankingFunction.prepare`` hoists the per-query constants out of the
per-document score.  Its scorer must agree with ``RankingFunction.score``
bit for bit, and ``score_candidates`` must equal the per-document
reference loop (one ``DocumentStatistics`` per candidate, tf looked up
with ``tf_for``) for every model, over in-memory and lazily decoded (v4)
posting lists.  The forward tf walk needs ascending candidate ids; the
last tests pin that every caller delivers them.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.sharded_engine as sharded_engine_module
import repro.temporal.engine as temporal_engine_module
from repro import (
    ContextSearchEngine,
    ShardedEngine,
    ShardedInvertedIndex,
    select_views,
)
from repro.core.ranking import (
    ALL_RANKING_FUNCTIONS,
    BM25,
    DirichletLanguageModel,
    PivotedNormalizationTFIDF,
)
from repro.core.scoring import _tf_column, score_candidates
from repro.core.statistics import (
    CollectionStatistics,
    DocumentStatistics,
    QueryStatistics,
)
from repro.index.postings import PostingList
from repro.storage import load_index, save_index
from repro.temporal import NumericAttributeIndex, TemporalSearchEngine

MODELS = [
    PivotedNormalizationTFIDF(),
    PivotedNormalizationTFIDF(slope=0.0),
    PivotedNormalizationTFIDF(slope=1.0),
    BM25(),
    BM25(k1=0.0, b=0.0),
    BM25(k1=2.0, b=1.0),
    DirichletLanguageModel(),
    DirichletLanguageModel(mu=1.0),
]

VOCAB = ["a", "b", "c", "d"]


def exactly_equal(got, expected) -> bool:
    """``==`` plus the same type and repr: an int 0 and a float 0.0, or
    0.0 and -0.0, would serialise differently."""
    return (
        got == expected
        and type(got) is type(expected)
        and repr(got) == repr(expected)
    )


def reference_score(model, keywords, length, tfs, stats):
    query_stats = QueryStatistics.from_keywords(keywords)
    doc_stats = DocumentStatistics(
        length=length, unique_terms=len(tfs), term_frequencies=tfs
    )
    return model.score(query_stats, doc_stats, stats)


def prepared_score(model, keywords, length, tfs, stats):
    query_stats = QueryStatistics.from_keywords(keywords)
    scorer = model.prepare(query_stats, stats)
    return scorer(length, [tfs.get(w, 0) for w in query_stats.term_counts])


@st.composite
def scoring_cases(draw):
    # Repeated query terms, terms missing from df and tc, df == 0 and
    # tf == 0 all come up; lengths start at 1.
    keywords = draw(st.lists(st.sampled_from(VOCAB), max_size=6))
    cardinality = draw(st.integers(1, 10_000))
    total_length = draw(st.integers(cardinality, cardinality * 2_000))
    counts = st.integers(0, cardinality)
    stats = CollectionStatistics(
        cardinality=cardinality,
        total_length=total_length,
        df=draw(st.dictionaries(st.sampled_from(VOCAB), counts)),
        tc=draw(st.dictionaries(st.sampled_from(VOCAB), st.integers(0, 10**6))),
    )
    tfs = draw(
        st.dictionaries(
            st.sampled_from(VOCAB), st.one_of(st.just(0), st.integers(1, 60))
        )
    )
    length = draw(st.one_of(st.just(1), st.integers(1, 5_000)))
    model = draw(st.sampled_from(MODELS))
    return model, keywords, length, tfs, stats


class TestPreparedScorerExactness:
    @settings(max_examples=400, deadline=None)
    @given(case=scoring_cases())
    def test_prepared_equals_reference(self, case):
        model, keywords, length, tfs, stats = case
        assert exactly_equal(
            prepared_score(model, keywords, length, tfs, stats),
            reference_score(model, keywords, length, tfs, stats),
        )

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    @pytest.mark.parametrize(
        "keywords, length, tfs, df, tc",
        [
            (["a", "a", "b"], 40, {"a": 3, "b": 1}, {"a": 5, "b": 9}, {"a": 7}),
            (["a", "b"], 40, {"a": 0, "b": 2}, {"a": 5, "b": 9}, {"a": 7, "b": 11}),
            (["a", "b"], 40, {"a": 4, "b": 2}, {"a": 0, "b": 9}, {"b": 11}),
            (["a"], 1, {"a": 1}, {"a": 1}, {"a": 1}),
            (["a", "c"], 12, {"a": 2, "c": 5}, {"a": 3}, {}),
            ([], 12, {}, {}, {}),
        ],
        ids=["repeated", "tf-zero", "df-zero", "length-one", "missing", "empty"],
    )
    def test_named_edges(self, model, keywords, length, tfs, df, tc):
        stats = CollectionStatistics(
            cardinality=50, total_length=2_000, df=df, tc=tc
        )
        assert exactly_equal(
            prepared_score(model, keywords, length, tfs, stats),
            reference_score(model, keywords, length, tfs, stats),
        )

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_empty_collection_prepares_when_no_term_is_seen(self, model):
        """``avgdl`` is undefined for an empty collection; the reference
        never reads it when every df is 0, so neither may ``prepare``."""
        stats = CollectionStatistics(cardinality=0, total_length=0, df={})
        assert exactly_equal(
            prepared_score(model, ["a", "b"], 7, {"a": 2}, stats),
            reference_score(model, ["a", "b"], 7, {"a": 2}, stats),
        )


class TestForwardTfWalk:
    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 300), unique=True, max_size=80),
        probes=st.lists(st.integers(0, 320), unique=True, max_size=80),
        segment_size=st.sampled_from([2, 3, 4, 64]),
        data=st.data(),
    )
    def test_matches_tf_for(self, ids, probes, segment_size, data):
        ids.sort()
        pairs = [
            (doc_id, data.draw(st.integers(1, 9), label="tf")) for doc_id in ids
        ]
        plist = PostingList.from_pairs("w", pairs, segment_size=segment_size)
        probes.sort()
        tf_of = dict(pairs)
        assert _tf_column(plist, probes) == [
            tf_of.get(doc_id, 0) for doc_id in probes
        ]


def collection_stats(index, keywords):
    unique = list(dict.fromkeys(keywords))
    return CollectionStatistics(
        cardinality=index.num_docs,
        total_length=index.total_length,
        df={w: index.document_frequency(w) for w in unique},
        tc={w: sum(tf for _, tf in index.postings(w)) for w in unique},
    )


def reference_loop(index, ranking, keywords, result_ids, stats):
    """The per-document loop ``score_candidates`` replaced."""
    query_stats = QueryStatistics.from_keywords(keywords)
    unique = list(dict.fromkeys(keywords))
    plists = {w: index.postings(w) for w in unique}
    scored = []
    for doc_id in result_ids:
        doc = index.store.get(doc_id)
        doc_stats = DocumentStatistics(
            length=doc.length,
            unique_terms=doc.unique_terms,
            term_frequencies={
                w: (plists[w].tf_for(doc_id) or 0) for w in unique
            },
        )
        score = ranking.score(query_stats, doc_stats, stats)
        scored.append((doc_id, score, doc.external_id))
    return scored


@pytest.fixture(scope="module")
def indexes(corpus, corpus_index, tmp_path_factory):
    """The corpus index in memory, with four-entry segments, and
    reopened lazily from a v4 block file."""
    path = tmp_path_factory.mktemp("prepared") / "index.bin"
    save_index(corpus_index, path)
    lazy = load_index(path)
    yield {
        "memory": corpus_index,
        "small-segments": corpus.build_index(segment_size=4),
        "lazy": lazy,
    }
    lazy.close()


class TestScoreCandidates:
    @pytest.mark.parametrize("shape", ["memory", "small-segments", "lazy"])
    @pytest.mark.parametrize("model", sorted(ALL_RANKING_FUNCTIONS))
    def test_matches_reference_loop(self, indexes, shape, model):
        index = indexes[shape]
        ranking = ALL_RANKING_FUNCTIONS[model]()
        terms = sorted(index.vocabulary, key=index.document_frequency)
        rng = random.Random(f"{shape}:{model}")
        for _ in range(8):
            keywords = [rng.choice(terms[-200:]) for _ in range(rng.randint(1, 4))]
            # Members of the term lists and documents outside them.
            members = set()
            for w in keywords:
                members.update(doc_id for doc_id, _ in index.postings(w))
            others = rng.sample(range(index.num_docs), 60)
            result_ids = sorted(members | set(others))
            stats = collection_stats(index, keywords)
            assert score_candidates(
                index, ranking, keywords, result_ids, stats
            ) == reference_loop(index, ranking, keywords, result_ids, stats)

    def test_lazy_list_promotes_on_first_read(self, indexes, tmp_path):
        """Gathering tf promotes a fresh lazy list to plain arrays."""
        path = tmp_path / "index.bin"
        save_index(indexes["memory"], path)
        index = load_index(path)
        try:
            term = max(index.vocabulary, key=index.document_frequency)
            plist = index.postings(term)
            first = plist._seg_mins[0]
            assert not plist.materialized
            score_candidates(
                index, PivotedNormalizationTFIDF(), [term], [first],
                collection_stats(index, [term]),
            )
            assert plist.materialized
        finally:
            index.close()


# ---------------------------------------------------------------------------
# Every caller hands score_candidates ascending ids


def spy_on_scoring(monkeypatch, module):
    """Record the candidate ids of every ``score_candidates`` call made
    through ``module``."""
    calls = []
    real = module.score_candidates

    def spy(index, ranking, keywords, result_ids, stats):
        calls.append(list(result_ids))
        return real(index, ranking, keywords, result_ids, stats)

    monkeypatch.setattr(module, "score_candidates", spy)
    return calls


def assert_ascending(calls):
    assert calls and any(calls)
    for ids in calls:
        assert all(a < b for a, b in zip(ids, ids[1:]))


@pytest.fixture(scope="module")
def probe(corpus_index):
    predicate = max(
        corpus_index.predicate_vocabulary, key=corpus_index.predicate_frequency
    )
    term = max(
        list(corpus_index.vocabulary)[:300], key=corpus_index.document_frequency
    )
    return predicate, term


class TestCandidatesArriveAscending:
    @pytest.fixture(scope="class")
    def views_engine(self, corpus_index):
        t_c = max(corpus_index.num_docs // 25, 5)
        catalog, _ = select_views(corpus_index, t_c=t_c, t_v=128)
        return ContextSearchEngine(corpus_index, catalog=catalog)

    @pytest.mark.parametrize("path", ["views", "straightforward"])
    def test_flat_paths(self, monkeypatch, views_engine, probe, path):
        predicate, term = probe
        calls = spy_on_scoring(monkeypatch, sharded_engine_module)
        results = views_engine.search(f"{term} | {predicate}", path=path)
        assert results.report.resolution.path == path
        assert_ascending(calls)

    def test_sharded_shard(self, monkeypatch, corpus_index, probe):
        """A shard gathers its candidates' features (the merge scores
        them), so the ascending ids reach ``gather_features``."""
        predicate, term = probe
        sharded = ShardedInvertedIndex.from_index(corpus_index, 3)
        calls = []
        real = sharded_engine_module.gather_features

        def spy(index, terms, result_ids):
            calls.append(list(result_ids))
            return real(index, terms, result_ids)

        monkeypatch.setattr(sharded_engine_module, "gather_features", spy)
        with ShardedEngine(sharded, executor="serial") as engine:
            engine.search(f"{term} | {predicate}")
        assert len(calls) == 3
        assert_ascending(calls)

    def test_temporal_engine(self, monkeypatch, corpus_index, probe):
        predicate, term = probe
        engine = TemporalSearchEngine(
            corpus_index, NumericAttributeIndex.from_index(corpus_index, "year")
        )
        calls = spy_on_scoring(monkeypatch, temporal_engine_module)
        engine.search(f"{term} | {predicate}", low=1990, high=2010)
        assert_ascending(calls)
