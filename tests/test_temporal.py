"""Tests for time/range-extended contexts (the Section 7 extension)."""

import pytest

from repro import ContextSearchEngine
from repro.core.statistics import cardinality_spec, df_spec, total_length_spec
from repro.core.query import ContextSpecification
from repro.errors import EmptyContextError, QueryError, ViewNotUsableError
from repro.temporal import (
    NumericAttributeIndex,
    TemporalContextQuery,
    TemporalSearchEngine,
    materialize_temporal_view,
)
from repro.views import WideSparseTable


@pytest.fixture(scope="module")
def years(corpus_index):
    return NumericAttributeIndex.from_index(corpus_index, "year")


@pytest.fixture(scope="module")
def top_predicate(corpus_index):
    return max(
        corpus_index.predicate_vocabulary, key=corpus_index.predicate_frequency
    )


@pytest.fixture(scope="module")
def probe_term(corpus_index):
    return max(
        list(corpus_index.vocabulary)[:300], key=corpus_index.document_frequency
    )


@pytest.fixture(scope="module")
def temporal_view(corpus_index, corpus_table, years, top_predicate, probe_term):
    return materialize_temporal_view(
        corpus_table, years, {top_predicate}, df_terms=[probe_term]
    )


class TestAttributeIndex:
    def test_parses_year_field(self, corpus_index, years):
        assert len(years) == corpus_index.num_docs
        assert years.min_value is not None
        assert 1985 <= years.min_value <= years.max_value <= 2010

    def test_value_and_in_range(self, years):
        value = years.value(0)
        assert years.in_range(0, value, value)
        assert not years.in_range(0, value + 1, None)
        assert years.in_range(0, None, None)

    def test_range_doc_ids_matches_scan(self, years):
        low, high = 1995, 2003
        expected = sorted(
            d for d in range(len(years)) if years.in_range(d, low, high)
        )
        assert years.range_doc_ids(low, high) == expected

    def test_open_ranges(self, years):
        assert years.range_doc_ids(None, None) == sorted(
            d for d in range(len(years)) if years.value(d) is not None
        )

    def test_missing_values(self):
        attr = NumericAttributeIndex.from_values("y", [5, None, 7])
        assert attr.value(1) is None
        assert not attr.in_range(1, None, None)
        assert attr.range_doc_ids(None, None) == [0, 2]

    def test_unknown_docid(self, years):
        with pytest.raises(QueryError):
            years.value(10**9)


class TestTemporalView:
    def test_answers_match_brute_force(
        self, corpus_index, corpus_table, years, temporal_view,
        top_predicate, probe_term,
    ):
        context = ContextSpecification([top_predicate])
        for low, high in ((None, None), (1990, 2000), (2005, None), (None, 1992)):
            expected_docs = [
                row
                for row in corpus_table
                if top_predicate in row.predicates
                and years.in_range(row.doc_id, low, high)
            ]
            values = temporal_view.answer_many(
                [cardinality_spec(), total_length_spec(), df_spec(probe_term)],
                context,
                low,
                high,
            )
            assert values[cardinality_spec()] == len(expected_docs)
            assert values[total_length_spec()] == sum(
                r.length for r in expected_docs
            )
            plist = corpus_index.postings(probe_term)
            expected_df = sum(
                1 for r in expected_docs if plist.contains(r.doc_id)
            )
            assert values[df_spec(probe_term)] == expected_df

    def test_unusable_context_raises(self, temporal_view):
        with pytest.raises(ViewNotUsableError):
            temporal_view.answer_many(
                [cardinality_spec()], ContextSpecification(["Nope"]), None, None
            )

    def test_bucketed_view_alignment(self, corpus_table, years, top_predicate):
        view = materialize_temporal_view(
            corpus_table, years, {top_predicate}, bucket_width=5
        )
        context = ContextSpecification([top_predicate])
        assert view.covers_range_exactly(1990, 1994)
        assert not view.covers_range_exactly(1991, 1994)
        with pytest.raises(ViewNotUsableError):
            view.answer_many([cardinality_spec()], context, 1991, 1994)

    def test_bucketed_view_aligned_answers(
        self, corpus_table, years, top_predicate
    ):
        """Width-5 buckets answer aligned ranges exactly."""
        wide = materialize_temporal_view(
            corpus_table, years, {top_predicate}, bucket_width=5
        )
        fine = materialize_temporal_view(
            corpus_table, years, {top_predicate}, bucket_width=1
        )
        context = ContextSpecification([top_predicate])
        low, high = 1990, 1994
        assert wide.answer_many(
            [cardinality_spec()], context, low, high
        ) == fine.answer_many([cardinality_spec()], context, low, high)
        assert wide.size <= fine.size


class TestTemporalEngine:
    @pytest.fixture(scope="class")
    def engines(self, corpus_index, years, temporal_view):
        with_views = TemporalSearchEngine(
            corpus_index, years, views=[temporal_view]
        )
        plain = TemporalSearchEngine(corpus_index, years)
        return with_views, plain

    def test_views_and_straightforward_agree(
        self, engines, top_predicate, probe_term
    ):
        with_views, plain = engines
        text = f"{probe_term} | {top_predicate}"
        a = with_views.search(text, low=1995, high=2005)
        b = plain.search(text, low=1995, high=2005)
        assert a.report.resolution.path == "views"
        assert b.report.resolution.path == "straightforward"
        assert a.external_ids() == b.external_ids()
        for ha, hb in zip(a.hits, b.hits):
            assert ha.score == pytest.approx(hb.score, abs=1e-10)

    def test_open_range_equals_context_search(
        self, engines, corpus_index, top_predicate, probe_term
    ):
        """With no bounds the temporal context is the plain context, so
        both temporal paths rank exactly like the main engine."""
        flat = ContextSearchEngine(corpus_index)
        terms = sorted(
            list(corpus_index.vocabulary)[:300],
            key=corpus_index.document_frequency,
        )[-3:]
        probes = [f"{probe_term} | {top_predicate}"] + [
            f"{term} {probe_term} | {top_predicate}" for term in terms
        ]
        for text in probes:
            expected = [(h.doc_id, h.external_id, h.score) for h in flat.search(text).hits]
            assert expected
            for engine, path in zip(engines, ("views", "straightforward")):
                results = engine.search(text)
                assert results.report.resolution.path == path
                assert [
                    (h.doc_id, h.external_id, h.score) for h in results.hits
                ] == expected

    def test_range_restricts_results(
        self, engines, years, top_predicate, probe_term
    ):
        with_views, _ = engines
        text = f"{probe_term} | {top_predicate}"
        unrestricted = with_views.search(text)
        restricted = with_views.search(text, low=2000, high=2005)
        assert len(restricted.hits) <= len(unrestricted.hits)
        for hit in restricted.hits:
            assert years.in_range(hit.doc_id, 2000, 2005)

    def test_range_changes_statistics(self, engines, top_predicate, probe_term):
        """The point of the extension: different time windows are
        different contexts with different statistics, hence potentially
        different scores for the same document."""
        with_views, _ = engines
        text = f"{probe_term} | {top_predicate}"
        early = with_views.search(text, low=None, high=1997)
        late = with_views.search(text, low=1998, high=None)
        assert early.report.context_size != late.report.context_size

    def test_empty_range_rejected(self):
        with pytest.raises(QueryError):
            TemporalContextQuery(None, low=5, high=1)

    def test_empty_context_raises(self, engines, top_predicate, probe_term):
        with_views, plain = engines
        with pytest.raises(EmptyContextError):
            plain.search(f"{probe_term} | {top_predicate}", low=3000, high=3001)

    def test_rare_term_fallback(self, corpus_index, years, corpus_table, top_predicate):
        """A view without df columns still serves context-level stats;
        keyword stats fall back and must match the plain path."""
        view = materialize_temporal_view(corpus_table, years, {top_predicate})
        with_views = TemporalSearchEngine(corpus_index, years, views=[view])
        plain = TemporalSearchEngine(corpus_index, years)
        term = max(
            list(corpus_index.vocabulary)[:300],
            key=corpus_index.document_frequency,
        )
        text = f"{term} | {top_predicate}"
        a = with_views.search(text, low=1990, high=2008)
        b = plain.search(text, low=1990, high=2008)
        assert a.report.resolution.rare_term_fallbacks == 1
        assert a.external_ids() == b.external_ids()
        for ha, hb in zip(a.hits, b.hits):
            assert ha.score == pytest.approx(hb.score, abs=1e-10)

    def test_rare_term_fallback_charges_model_cost(
        self, corpus_index, years, corpus_table, temporal_view,
        top_predicate, probe_term,
    ):
        """The fallback walk is charged ``|L_w| · (1 + #predicates)``,
        as on the flat views path; a view carrying the df column is
        charged nothing for it."""
        bare = materialize_temporal_view(corpus_table, years, {top_predicate})
        covered = TemporalSearchEngine(
            corpus_index, years, views=[temporal_view]
        )
        fallback = TemporalSearchEngine(corpus_index, years, views=[bare])
        text = f"{probe_term} | {top_predicate}"
        a = covered.search(text, low=1990, high=2008)
        b = fallback.search(text, low=1990, high=2008)
        assert a.report.resolution.rare_term_fallbacks == 0
        assert b.report.resolution.rare_term_fallbacks == 1
        walked = len(corpus_index.postings(probe_term))
        assert (
            b.report.counter.model_cost - a.report.counter.model_cost
            == walked * (1 + 1)
        )
