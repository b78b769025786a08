"""Scoring at the shard merge is exact.

A shard's resolve returns its candidates' scoring inputs (global id,
length, external id, one tf column per query term) and the merge scores
them under the merged statistics with the query's prepared scorer.  For
every ranking model, every ``top_k`` and shard count, the hits
and their float scores must be ``==`` to the flat engine's: the prepared
scorer gets the same integer inputs either way.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    ContextSearchEngine,
    ShardedEngine,
    ShardedInvertedIndex,
)
from repro.core.ranking import (
    BM25,
    DirichletLanguageModel,
    PivotedNormalizationTFIDF,
)
from repro.errors import ReproError

MODELS = {
    "tfidf": PivotedNormalizationTFIDF,
    "bm25": BM25,
    "dirichlet": DirichletLanguageModel,
}


def answer(search, query: str, top_k):
    """Hits as ``(doc_id, external_id, score)`` with each score's type,
    or the error as the engines print it."""
    try:
        results = search(query, top_k=top_k)
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"
    return [
        (hit.doc_id, hit.external_id, hit.score, type(hit.score))
        for hit in results.hits
    ]


@pytest.fixture(scope="module")
def pools(corpus_index):
    """Frequent and mid-frequency terms, and the commonest predicates, so
    drawn queries mostly have candidates on every shard."""
    terms = sorted(
        corpus_index.vocabulary,
        key=lambda w: (-corpus_index.document_frequency(w), w),
    )
    predicates = sorted(
        corpus_index.predicate_vocabulary,
        key=lambda p: (-corpus_index.predicate_frequency(p), p),
    )
    return terms[:25] + terms[200:215], predicates[:12]


@pytest.fixture(scope="module")
def flat_engines(corpus_index):
    return {
        name: ContextSearchEngine(corpus_index, ranking=cls())
        for name, cls in MODELS.items()
    }


@pytest.mark.parametrize("num_shards", (2, 3))
def test_hits_and_scores_equal_the_flat_engine(
    corpus_index, pools, flat_engines, num_shards
):
    terms, predicates = pools
    sharded = ShardedInvertedIndex.from_index(corpus_index, num_shards)
    engines = {
        name: ShardedEngine(sharded, ranking=cls())
        for name, cls in MODELS.items()
    }

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        model=st.sampled_from(sorted(MODELS)),
        conventional=st.booleans(),
        top_k=st.sampled_from([None, 10]),
        keywords=st.lists(st.sampled_from(terms), min_size=1, max_size=3),
        context=st.lists(
            st.sampled_from(predicates), min_size=1, max_size=2, unique=True
        ),
    )
    def check(model, conventional, top_k, keywords, context):
        query = f"{' '.join(keywords)} | {' '.join(context)}"
        flat, merged = flat_engines[model], engines[model]
        if conventional:
            flat_search = flat.search_conventional
            merged_search = merged.search_conventional
        else:
            flat_search, merged_search = flat.search, merged.search
        assert answer(merged_search, query, top_k) == answer(
            flat_search, query, top_k
        ), query

    try:
        check()
    finally:
        for engine in engines.values():
            engine.close()
