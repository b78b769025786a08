"""Tests for the batched query executor.

The batch executor shares context materialisations, prefetches posting
columns, and fans out across threads — none of which may change a single
answer or a single per-query operation count.  The central invariant
(cost-counter parity) is: for every query in a batch, the results AND
the CostCounter must be identical to running that query standalone.
"""

import pytest

from repro import BatchExecutor, ContextSearchEngine
from repro.core.engine import BatchOutcome, BatchReport, SharedContextStore
from repro.errors import QueryError
from repro.index.postings import CostCounter


QUERIES = [
    "leukemia | DigestiveSystem",
    "pancreas | Diseases",
    "leukemia | DigestiveSystem",  # repeated context: shared materialisation
    "cancer | Neoplasms",
    "pancreas leukemia | DigestiveSystem",  # same context again
    "leukemia | Diseases DigestiveSystem",
]


@pytest.fixture
def engine(handmade_index):
    return ContextSearchEngine(handmade_index)


class TestCounterParity:
    """Satellite: per-query counts from concurrent execution must match
    single-query execution exactly."""

    @pytest.mark.parametrize("workers", (1, 4))
    def test_results_and_counters_match_standalone(self, engine, workers):
        report = BatchExecutor(engine, max_workers=workers).run(QUERIES)
        assert all(o.ok for o in report.outcomes)
        for text, outcome in zip(QUERIES, report.outcomes):
            solo = engine.search(text)
            assert solo.external_ids() == outcome.results.external_ids()
            assert solo.report.counter == outcome.results.report.counter
            for a, b in zip(solo.hits, outcome.results.hits):
                assert a.score == pytest.approx(b.score, abs=1e-12)

    def test_conventional_mode_parity(self, engine):
        report = BatchExecutor(engine, max_workers=2).run(
            QUERIES, mode="conventional"
        )
        for text, outcome in zip(QUERIES, report.outcomes):
            solo = engine.search_conventional(text)
            assert solo.external_ids() == outcome.results.external_ids()
            assert solo.report.counter == outcome.results.report.counter

    def test_disjunctive_mode_parity(self, engine):
        report = BatchExecutor(engine, max_workers=2).run(
            QUERIES, top_k=3, mode="disjunctive"
        )
        for text, outcome in zip(QUERIES, report.outcomes):
            solo = engine.search_disjunctive(text, top_k=3)
            assert solo.external_ids() == outcome.results.external_ids()


class TestSharing:
    def test_distinct_contexts_counted(self, engine):
        report = BatchExecutor(engine).run(QUERIES)
        # DigestiveSystem ×3, Diseases, Neoplasms, Diseases+DigestiveSystem
        assert report.distinct_contexts == 4
        assert report.shared_context_hits == 2

    def test_one_context_spelled_two_ways_materialised_once(self, engine):
        report = engine.search_many(
            [
                "leukemia | DigestiveSystem Diseases",
                "pancreas | Diseases DigestiveSystem Diseases",
            ]
        )
        assert all(o.ok for o in report.outcomes)
        assert report.distinct_contexts == 1
        assert report.shared_context_hits == 1

    def test_store_materialises_once(self, engine):
        store = SharedContextStore()
        context = ("DigestiveSystem",)
        first_ids, first_cost = store.materialise(engine.index, context)
        second_ids, second_cost = store.materialise(engine.index, context)
        assert first_ids is second_ids
        assert store.materialisations == 1
        assert store.reuses == 1
        assert first_cost == second_cost


class TestRobustness:
    def test_outcomes_keep_input_order(self, engine):
        report = BatchExecutor(engine, max_workers=4).run(QUERIES)
        assert [o.query for o in report.outcomes] == QUERIES

    def test_failing_query_does_not_abort_batch(self, engine):
        queries = [
            "leukemia | DigestiveSystem",
            "leukemia | NoSuchContextAnywhere",  # empty context
            "pancreas | Diseases",
        ]
        report = BatchExecutor(engine, max_workers=2).run(queries)
        assert [o.ok for o in report.outcomes] == [True, False, True]
        assert "EmptyContextError" in report.outcomes[1].error
        assert len(report.errors) == 1

    def test_malformed_query_captured(self, engine):
        report = BatchExecutor(engine).run(["no separator here"])
        assert not report.outcomes[0].ok
        assert "QueryError" in report.outcomes[0].error

    def test_empty_batch(self, engine):
        report = BatchExecutor(engine).run([])
        assert len(report) == 0
        assert report.aggregate_counter() == CostCounter()

    def test_invalid_workers_rejected(self, engine):
        with pytest.raises(QueryError):
            BatchExecutor(engine, max_workers=0)

    def test_invalid_mode_rejected(self, engine):
        with pytest.raises(QueryError):
            BatchExecutor(engine).run(QUERIES, mode="nonsense")

    def test_aggregate_counter_sums_per_query_counts(self, engine):
        report = BatchExecutor(engine, max_workers=2).run(QUERIES)
        expected = CostCounter()
        for text in QUERIES:
            expected.merge(engine.search(text).report.counter)
        assert report.aggregate_counter() == expected


class TestPrefetch:
    def test_prefetches_analysed_terms(self, engine, monkeypatch):
        """Postings are keyed by analysed terms, so the batch warms the
        stem ``pancrea``, not the surface form ``pancreas``."""
        prefetched = []
        real = engine.index.prefetch

        def spy(terms, predicates=()):
            prefetched.append((list(terms), list(predicates)))
            return real(terms, predicates)

        monkeypatch.setattr(engine.index, "prefetch", spy)
        report = engine.search_many(["pancreas | DigestiveSystem"])
        assert all(o.ok for o in report.outcomes)
        assert prefetched == [(["pancrea"], ["DigestiveSystem"])]
        assert len(real(["pancrea"])["pancrea"]) > 0


class TestReportShapes:
    def test_outcome_flags(self):
        assert BatchOutcome(query="q", results=None, error="boom").ok is False

    def test_report_len_and_fields(self, engine):
        report = BatchExecutor(engine, max_workers=1).run(QUERIES[:2])
        assert isinstance(report, BatchReport)
        assert len(report) == 2
        assert report.mode == "context"
        assert report.workers == 1
        assert report.elapsed_seconds >= 0.0
