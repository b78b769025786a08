"""Integration tests for the search engine: both paths, both rankings."""

import pytest

from repro import (
    BM25,
    ContextSearchEngine,
    DirichletLanguageModel,
    EmptyContextError,
    QueryError,
    ViewCatalog,
    WideSparseTable,
    build_index,
    materialize_view,
    parse_query,
)

from .conftest import HANDMADE_DOCS


@pytest.fixture(scope="module")
def handmade_catalog(handmade_index):
    table = WideSparseTable.from_index(handmade_index)
    view = materialize_view(
        table,
        {"Diseases", "DigestiveSystem", "Neoplasms"},
        df_terms=list(handmade_index.vocabulary),
        tc_terms=list(handmade_index.vocabulary),
    )
    return ViewCatalog([view])


class TestContextSearch:
    def test_section11_example(self, handmade_engine):
        """The paper's motivating example: in the DigestiveSystem context,
        the leukemia citation (C2) outranks what conventional ranking
        prefers, because leukemia is rarer than pancreas there."""
        ctx = handmade_engine.search("leukemia | DigestiveSystem")
        assert ctx.hits[0].external_id == "C2"

    def test_result_set_equals_conventional(self, handmade_engine):
        """Q_c and Q_t = Q_k ∪ P return the same unranked result."""
        q = parse_query("pancreas | Diseases")
        ctx = handmade_engine.search(q)
        conv = handmade_engine.search_conventional(q)
        assert sorted(h.doc_id for h in ctx.hits) == sorted(
            h.doc_id for h in conv.hits
        )

    def test_scores_differ_between_modes(self, handmade_engine):
        q = parse_query("leukemia | DigestiveSystem")
        ctx = handmade_engine.search(q)
        conv = handmade_engine.search_conventional(q)
        assert ctx.hits[0].score != conv.hits[0].score

    def test_top_k_truncation(self, handmade_engine):
        q = parse_query("leukemia | Diseases")
        full = handmade_engine.search(q)
        top1 = handmade_engine.search(q, top_k=1)
        assert len(top1.hits) == 1
        assert top1.hits[0] == full.hits[0]

    def test_deterministic_tie_break(self, handmade_engine):
        q = parse_query("leukemia | Diseases")
        a = handmade_engine.search(q)
        b = handmade_engine.search(q)
        assert [h.doc_id for h in a.hits] == [h.doc_id for h in b.hits]

    def test_string_queries_accepted(self, handmade_engine):
        assert len(handmade_engine.search("cancer | Neoplasms")) > 0

    def test_empty_context_raises(self, handmade_engine):
        with pytest.raises(EmptyContextError):
            handmade_engine.search("leukemia | Unknown")

    def test_stopword_keyword_raises(self, handmade_engine):
        with pytest.raises(QueryError):
            handmade_engine.search("the | Diseases")

    def test_uncommitted_index_rejected(self):
        from repro.index import InvertedIndex

        with pytest.raises(QueryError):
            ContextSearchEngine(InvertedIndex())

    def test_report_fields(self, handmade_engine):
        r = handmade_engine.search("leukemia | DigestiveSystem")
        assert r.report.resolution.path == "straightforward"
        assert r.report.context_size == 4
        assert r.report.result_size == len(r.hits)
        assert r.report.elapsed_seconds >= 0
        assert r.report.counter.model_cost > 0


class TestViewsPath:
    def test_views_path_used(self, handmade_index, handmade_catalog):
        engine = ContextSearchEngine(handmade_index, catalog=handmade_catalog)
        r = engine.search("leukemia | DigestiveSystem")
        assert r.report.resolution.path == "views"
        assert r.report.resolution.views_used == 1

    def test_views_and_straightforward_scores_identical(
        self, handmade_index, handmade_catalog
    ):
        """The central correctness property: statistics from views are
        exact, so rankings agree bit-for-bit with the straightforward
        plan."""
        with_views = ContextSearchEngine(handmade_index, catalog=handmade_catalog)
        without = ContextSearchEngine(handmade_index)
        for text in (
            "leukemia | DigestiveSystem",
            "pancreas | Diseases",
            "cancer leukemia | Neoplasms",
            "outcomes | Diseases DigestiveSystem",
        ):
            a = with_views.search(text)
            b = without.search(text)
            assert [h.doc_id for h in a.hits] == [h.doc_id for h in b.hits]
            for ha, hb in zip(a.hits, b.hits):
                assert ha.score == pytest.approx(hb.score, abs=1e-12)

    def test_uncovered_context_falls_back(self, handmade_index):
        table = WideSparseTable.from_index(handmade_index)
        view = materialize_view(table, {"Neoplasms"}, df_terms=[])
        engine = ContextSearchEngine(handmade_index, catalog=ViewCatalog([view]))
        r = engine.search("leukemia | DigestiveSystem")
        assert r.report.resolution.path == "straightforward"

    def test_rare_term_fallback_matches_plan(self, handmade_index):
        """A view without df columns still serves the context-level
        statistics; per-keyword df comes from selective intersections and
        must equal the plan's answer."""
        table = WideSparseTable.from_index(handmade_index)
        view = materialize_view(
            table, {"Diseases", "DigestiveSystem", "Neoplasms"}, df_terms=[]
        )
        with_views = ContextSearchEngine(
            handmade_index, catalog=ViewCatalog([view])
        )
        without = ContextSearchEngine(handmade_index)
        a = with_views.search("leukemia | DigestiveSystem")
        b = without.search("leukemia | DigestiveSystem")
        assert a.report.resolution.rare_term_fallbacks == 1
        assert [(h.doc_id, h.score) for h in a.hits] == [
            (h.doc_id, h.score) for h in b.hits
        ]


class TestOtherRankingModels:
    @pytest.mark.parametrize("ranking", [BM25(), DirichletLanguageModel(mu=50)])
    def test_views_agree_with_plan_for_model(
        self, handmade_index, handmade_catalog, ranking
    ):
        with_views = ContextSearchEngine(
            handmade_index, ranking=ranking, catalog=handmade_catalog
        )
        without = ContextSearchEngine(handmade_index, ranking=ranking)
        a = with_views.search("leukemia cancer | Neoplasms")
        b = without.search("leukemia cancer | Neoplasms")
        assert [h.doc_id for h in a.hits] == [h.doc_id for h in b.hits]
        for ha, hb in zip(a.hits, b.hits):
            assert ha.score == pytest.approx(hb.score, abs=1e-12)

    def test_models_produce_different_rankings_somewhere(self, corpus_engine, corpus_index):
        """Sanity: the three models are not secretly the same function."""
        predicate = max(
            corpus_index.predicate_vocabulary,
            key=corpus_index.predicate_frequency,
        )
        term = max(
            list(corpus_index.vocabulary)[:500],
            key=corpus_index.document_frequency,
        )
        tfidf = corpus_engine.search(f"{term} | {predicate}")
        bm25 = ContextSearchEngine(corpus_index, ranking=BM25()).search(
            f"{term} | {predicate}"
        )
        assert tfidf.hits[0].score != bm25.hits[0].score


class TestContextStatisticsHelper:
    def test_against_index_totals(self, handmade_engine, handmade_index):
        stats = handmade_engine.context_statistics(["Diseases"], ["leukemia"])
        assert stats.cardinality == handmade_index.num_docs
        assert stats.total_length == handmade_index.total_length
        assert stats.df_for("leukemia") == handmade_index.document_frequency(
            "leukemia"
        )


class TestIndexGrowth:
    def test_conventional_lm_ranks_like_a_fresh_engine_after_append(self):
        """Whole-collection ``tc`` is cached per index epoch: an engine
        that ranked before ``append_documents`` ranks afterwards exactly
        as a fresh engine over the grown index."""
        ranking = DirichletLanguageModel(mu=50)
        query = "leukemia | Diseases"
        index = build_index(HANDMADE_DOCS[:4])
        engine = ContextSearchEngine(index, ranking=ranking)
        engine.search_conventional(query)
        index.append_documents(HANDMADE_DOCS[4:])
        fresh = ContextSearchEngine(index, ranking=ranking)
        after = engine.search_conventional(query)
        expected = fresh.search_conventional(query)
        assert [(h.doc_id, h.score) for h in after.hits] == [
            (h.doc_id, h.score) for h in expected.hits
        ]
