"""Tests for disjunctive top-k retrieval with MaxScore pruning."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BM25, DirichletLanguageModel, PivotedNormalizationTFIDF
from repro.core.topk import (
    MaxScoreScorer,
    TopKDiagnostics,
    exhaustive_disjunctive,
)
from repro.errors import QueryError


@pytest.fixture(scope="module")
def stats(corpus_engine, corpus_index):
    """Whole-collection statistics for a small set of probe keywords."""

    def make(keywords):
        return corpus_engine._global_statistics(keywords)

    return make


def probe_keywords(corpus_index, count=3, offset=0):
    """Pick content terms with healthy posting lists, deterministically."""
    terms = sorted(
        corpus_index.vocabulary,
        key=lambda w: -corpus_index.document_frequency(w),
    )
    return terms[offset : offset + count]


class TestEquivalenceWithExhaustive:
    @pytest.mark.parametrize("k", [1, 5, 20])
    @pytest.mark.parametrize("ranking", [PivotedNormalizationTFIDF(), BM25()])
    def test_matches_reference(self, corpus_index, stats, k, ranking):
        keywords = probe_keywords(corpus_index, count=3)
        collection_stats = stats(keywords)
        scorer = MaxScoreScorer(corpus_index, keywords, collection_stats, ranking)
        pruned = scorer.top_k(k)
        reference = exhaustive_disjunctive(
            corpus_index, keywords, collection_stats, ranking, k
        )
        assert [s.doc_id for s in pruned] == [s.doc_id for s in reference]
        for a, b in zip(pruned, reference):
            assert a.score == pytest.approx(b.score, abs=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=30),
        offset=st.integers(min_value=0, max_value=40),
        count=st.integers(min_value=1, max_value=4),
    )
    def test_matches_reference_property(
        self, corpus_index, stats, k, offset, count
    ):
        keywords = probe_keywords(corpus_index, count=count, offset=offset)
        if not keywords:
            return
        collection_stats = stats(keywords)
        ranking = PivotedNormalizationTFIDF()
        pruned = MaxScoreScorer(
            corpus_index, keywords, collection_stats, ranking
        ).top_k(k)
        reference = exhaustive_disjunctive(
            corpus_index, keywords, collection_stats, ranking, k
        )
        assert [s.doc_id for s in pruned] == [s.doc_id for s in reference]

    def test_context_filtered_matches_reference(self, corpus_index, stats):
        keywords = probe_keywords(corpus_index, count=2)
        predicate = max(
            corpus_index.predicate_vocabulary,
            key=corpus_index.predicate_frequency,
        )
        collection_stats = stats(keywords)
        ranking = BM25()
        pruned = MaxScoreScorer(
            corpus_index, keywords, collection_stats, ranking,
            predicates=[predicate],
        ).top_k(10)
        reference = exhaustive_disjunctive(
            corpus_index, keywords, collection_stats, ranking, 10,
            context_filter=set(
                corpus_index.predicate_postings(predicate).doc_ids
            ),
        )
        assert [s.doc_id for s in pruned] == [s.doc_id for s in reference]


class TestPruningBehaviour:
    def test_pruning_skips_candidates(self, corpus_index, stats):
        """With a small k and mixed-strength terms, MaxScore must score
        fewer candidates than it sees."""
        keywords = probe_keywords(corpus_index, count=4)
        collection_stats = stats(keywords)
        diagnostics = TopKDiagnostics()
        MaxScoreScorer(
            corpus_index, keywords, collection_stats, PivotedNormalizationTFIDF()
        ).top_k(3, diagnostics=diagnostics)
        assert diagnostics.candidates_seen > 0
        assert (
            diagnostics.candidates_scored + diagnostics.candidates_pruned
            <= diagnostics.candidates_seen
        ) or diagnostics.candidates_pruned > 0

    def test_upper_bounds_dominate_scores(self, corpus_index, stats):
        """Soundness of pruning: no term score exceeds its upper bound."""
        keywords = probe_keywords(corpus_index, count=3)
        collection_stats = stats(keywords)
        ranking = BM25()
        from repro.core.statistics import QueryStatistics

        qs = QueryStatistics.from_keywords(keywords)
        lengths = corpus_index.document_lengths()
        for term in keywords:
            plist = corpus_index.postings(term)
            if not len(plist):
                continue
            bound = ranking.term_upper_bound(
                term, max(plist.tfs), qs, collection_stats
            )
            for doc_id, tf in list(plist)[:200]:
                score = ranking.term_score(
                    term, tf, lengths[doc_id], qs, collection_stats
                )
                assert score <= bound + 1e-9


class TestValidation:
    def test_language_model_rejected(self, corpus_index, stats):
        keywords = probe_keywords(corpus_index, count=2)
        with pytest.raises(QueryError):
            MaxScoreScorer(
                corpus_index,
                keywords,
                stats(keywords),
                DirichletLanguageModel(),
            )

    def test_invalid_k(self, corpus_index, stats):
        keywords = probe_keywords(corpus_index, count=2)
        scorer = MaxScoreScorer(
            corpus_index, keywords, stats(keywords), BM25()
        )
        with pytest.raises(QueryError):
            scorer.top_k(0)

    def test_unknown_terms_empty_result(self, corpus_index, stats):
        scorer = MaxScoreScorer(
            corpus_index, ["zzzznope"], stats(["zzzznope"]), BM25()
        )
        assert scorer.top_k(5) == []


class TestEngineIntegration:
    def test_disjunctive_search_returns_or_matches(self, corpus_engine, corpus_index):
        keywords = probe_keywords(corpus_index, count=2)
        predicate = max(
            corpus_index.predicate_vocabulary,
            key=corpus_index.predicate_frequency,
        )
        results = corpus_engine.search_disjunctive(
            f"{keywords[0]} {keywords[1]} | {predicate}", top_k=10
        )
        assert 0 < len(results.hits) <= 10
        # Every hit is in the context and matches at least one keyword.
        context = set(corpus_index.predicate_postings(predicate).doc_ids)
        for hit in results.hits:
            assert hit.doc_id in context

    def test_disjunctive_superset_of_conjunctive(self, corpus_engine, corpus_index):
        """OR results must include every AND result's documents among the
        candidates (checked via scores: conjunctive hits appear with equal
        or higher rank count in a large-k disjunctive run)."""
        keywords = probe_keywords(corpus_index, count=2)
        predicate = max(
            corpus_index.predicate_vocabulary,
            key=corpus_index.predicate_frequency,
        )
        text = f"{keywords[0]} {keywords[1]} | {predicate}"
        conjunctive = corpus_engine.search(text)
        disjunctive = corpus_engine.search_disjunctive(text, top_k=5000)
        or_ids = {h.doc_id for h in disjunctive.hits}
        for hit in conjunctive.hits:
            assert hit.doc_id in or_ids

    def test_views_path_used_when_covered(self, corpus_index):
        from repro import ContextSearchEngine, select_views

        t_c = corpus_index.num_docs // 20
        catalog, _ = select_views(corpus_index, t_c=t_c, t_v=128)
        engine = ContextSearchEngine(corpus_index, catalog=catalog)
        covered = next(iter(catalog)).keyword_set
        predicate = max(sorted(covered), key=corpus_index.predicate_frequency)
        keywords = probe_keywords(corpus_index, count=2)
        results = engine.search_disjunctive(
            f"{keywords[0]} {keywords[1]} | {predicate}", top_k=10
        )
        assert results.report.resolution.path == "views"


class TestDisjunctiveFallbacks:
    def test_rare_term_fallback_on_views_path(self, corpus_index):
        """search_disjunctive with a catalog whose views lack df columns:
        statistics fall back per keyword, rankings still match the
        view-less engine."""
        from repro import ContextSearchEngine, ViewCatalog, WideSparseTable, materialize_view

        table = WideSparseTable.from_index(corpus_index)
        predicate = max(
            corpus_index.predicate_vocabulary,
            key=corpus_index.predicate_frequency,
        )
        bare_view = materialize_view(table, {predicate}, df_terms=[])
        with_views = ContextSearchEngine(
            corpus_index, catalog=ViewCatalog([bare_view])
        )
        plain = ContextSearchEngine(corpus_index)
        keywords = probe_keywords(corpus_index, count=2)
        text = f"{keywords[0]} {keywords[1]} | {predicate}"
        a = with_views.search_disjunctive(text, top_k=15)
        b = plain.search_disjunctive(text, top_k=15)
        assert a.report.resolution.path == "views"
        assert a.report.resolution.rare_term_fallbacks == 2
        assert a.external_ids() == b.external_ids()
        for ha, hb in zip(a.hits, b.hits):
            assert abs(ha.score - hb.score) < 1e-10

    def test_empty_context_raises(self, corpus_engine, corpus_index):
        from repro.errors import EmptyContextError
        import pytest as _pytest

        keywords = probe_keywords(corpus_index, count=1)
        with _pytest.raises(EmptyContextError):
            corpus_engine.search_disjunctive(f"{keywords[0]} | NoSuchTerm")
