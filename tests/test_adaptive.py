"""Continuous workload-adaptive view selection: recorder → reselector → swap.

Covers the whole adaptive loop at every layer: the swappable
:class:`CatalogHandle`, the serving-side :class:`WorkloadRecorder`, the
``workload_from_queries``/``needs_reselection`` selector inputs, the
:class:`IncrementalReselector`'s reuse semantics, catalog hot-swaps on
the flat / sharded / lifecycle engines (mutate-catalog-then-requery must
invalidate plans and caches but never change a ranking), the
:class:`QueryService` integration, and the CLI surface.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest

from repro import (
    AdaptiveConfig,
    AdaptiveSelectionController,
    ContextSearchEngine,
    Document,
    IncrementalReselector,
    ShardedEngine,
    ShardedInvertedIndex,
    ViewCatalog,
    WorkloadRecorder,
    build_index,
    evaluate_coverage,
    fork_available,
    materialize_view,
    needs_reselection,
    replicate_catalog,
    save_catalog,
    workload_from_queries,
)
from repro import cli
from repro.errors import QueryError, SelectionError
from repro.lifecycle import LifecycleEngine, SegmentedIndex
from repro.selection.workload_driven import WorkloadEntry
from repro.service import (
    QueryService,
    Request,
    ServiceConfig,
    ServiceMetrics,
)
from repro.views import CatalogHandle, WideSparseTable
from repro.views.maintenance import MaintenanceReport

from .conftest import HANDMADE_DOCS

QUERY = "pancreas | DigestiveSystem"

GROWTH_DOCS = [
    Document(
        "X1",
        {
            "title": "pancreas imaging advances",
            "abstract": "pancreas scan methods and outcomes",
            "mesh": "Diseases DigestiveSystem",
        },
    ),
    Document(
        "X2",
        {
            "title": "leukemia relapse study",
            "abstract": "leukemia relapse outcomes",
            "mesh": "Diseases Neoplasms",
        },
    ),
]


def hit_tuples(results):
    return [(h.doc_id, h.external_id, h.score) for h in results.hits]


def assert_same_ranking(a, b):
    """Bit-identity up to float noise: same docs, same order, same scores."""
    assert a.external_ids() == b.external_ids()
    for ha, hb in zip(a.hits, b.hits):
        assert ha.score == pytest.approx(hb.score, abs=1e-12)


def digestive_catalog(index, keywords=("pancreas",)) -> ViewCatalog:
    """A one-view catalog covering the ``DigestiveSystem`` context."""
    table = WideSparseTable.from_index(index)
    view = materialize_view(
        table,
        {"DigestiveSystem"},
        df_terms=list(keywords),
        tc_terms=list(keywords),
    )
    return ViewCatalog([view])


def ctx(*predicates):
    return SimpleNamespace(predicates=tuple(predicates))


def make_service(engine, **overrides) -> QueryService:
    return QueryService(engine, ServiceConfig(**overrides))


def run_async(coro):
    return asyncio.run(coro)


def query_request(text, top_k=6, **kwargs) -> Request:
    return Request(op="query", query=text, top_k=top_k, **kwargs)


# ---------------------------------------------------------------------------
# CatalogHandle


class TestCatalogHandle:
    def test_ensure_wraps_and_passes_through(self, handmade_index):
        bare = CatalogHandle.ensure(None)
        assert bare.catalog is None and bare.generation == 0

        catalog = digestive_catalog(handmade_index)
        wrapped = CatalogHandle.ensure(catalog)
        assert wrapped.catalog is catalog

        assert CatalogHandle.ensure(wrapped) is wrapped  # no double-wrap

    def test_swap_bumps_generation(self, handmade_index):
        handle = CatalogHandle()
        catalog = digestive_catalog(handmade_index)
        assert handle.swap(catalog) == 1
        assert handle.swap(None) == 2
        assert handle.catalog is None and handle.generation == 2

    def test_get_reads_pair_consistently(self, handmade_index):
        catalog = digestive_catalog(handmade_index)
        handle = CatalogHandle(catalog, generation=5)
        assert handle.get() == (catalog, 5)

    def test_shared_handle_is_one_swap_point(self, handmade_index):
        handle = CatalogHandle()
        engine = ContextSearchEngine(handmade_index, catalog=handle)
        assert engine.catalog is None
        handle.swap(digestive_catalog(handmade_index))
        assert engine.catalog is handle.catalog
        assert engine.catalog_generation == 1


# ---------------------------------------------------------------------------
# WorkloadRecorder


class TestWorkloadRecorder:
    def test_empty_context_is_skipped(self):
        recorder = WorkloadRecorder()
        recorder.record([])
        assert len(recorder) == 0
        assert recorder.total_recorded == 0
        assert recorder.to_workload() == []

    def test_record_aggregates_and_tracks_context_size(self):
        recorder = WorkloadRecorder()
        recorder.record(["B", "A"], context_size=3)
        recorder.record(["A", "B"], context_size=7)
        recorder.record(["A", "B"], context_size=2)  # max() wins, not last
        [entry] = recorder.to_workload()
        assert entry.predicates == frozenset({"A", "B"})
        assert entry.frequency == 3
        assert entry.context_size == 7
        assert recorder.total_recorded == 3

    def test_capacity_evicts_lowest_weight(self):
        recorder = WorkloadRecorder(capacity=2)
        for _ in range(3):
            recorder.record(["A"])
        recorder.record(["B"])
        recorder.record(["C"])  # overflow: B (weight 1, ties sort first)
        kept = {entry.predicates for entry in recorder.to_workload()}
        assert kept == {frozenset({"A"}), frozenset({"C"})}

    def test_capacity_must_be_positive(self):
        with pytest.raises(SelectionError):
            WorkloadRecorder(capacity=0)

    def test_decay_drops_below_floor(self):
        recorder = WorkloadRecorder()
        recorder.record(["A"])
        recorder.record(["B"])
        recorder.record(["B"])
        recorder.decay(0.04)  # A: 0.04 < floor 0.05; B: 0.08 survives
        [entry] = recorder.to_workload()
        assert entry.predicates == frozenset({"B"})
        assert entry.frequency == 1  # decayed weights floor at frequency 1

    def test_decay_factor_validated(self):
        recorder = WorkloadRecorder()
        for factor in (0.0, -0.5, 1.5):
            with pytest.raises(SelectionError):
                recorder.decay(factor)

    def test_mark_resets_since_mark_only(self):
        recorder = WorkloadRecorder()
        recorder.record(["A"])
        recorder.record(["B"])
        assert recorder.stats()["recorded_since_mark"] == 2
        recorder.mark()
        stats = recorder.stats()
        assert stats["recorded_since_mark"] == 0
        assert stats["total_recorded"] == 2
        assert stats["distinct_contexts"] == 2

    def test_to_workload_deterministic_order(self):
        recorder = WorkloadRecorder()
        recorder.record(["C"])
        recorder.record(["A", "B"])
        recorder.record(["B"])
        predicates = [e.predicates for e in recorder.to_workload()]
        assert predicates == [
            frozenset({"A", "B"}),
            frozenset({"B"}),
            frozenset({"C"}),
        ]


# ---------------------------------------------------------------------------
# workload_from_queries / needs_reselection


class TestWorkloadFromQueries:
    def test_empty_contexts_skipped_and_duplicates_merged(self):
        workload = workload_from_queries(
            [ctx("A"), ctx(), ctx("A"), ctx("B")]
        )
        assert workload == [
            WorkloadEntry(frozenset({"A"}), frequency=2),
            WorkloadEntry(frozenset({"B"}), frequency=1),
        ]

    def test_decay_weights_recency(self):
        # B is 3 steps stale: 0.5^3 rounds to the frequency floor of 1,
        # while the recent A repeats accumulate 1 + 0.5 + 0.25 -> 2.
        workload = workload_from_queries(
            [ctx("B"), ctx("A"), ctx("A"), ctx("A")], decay=0.5
        )
        by_key = {e.predicates: e.frequency for e in workload}
        assert by_key == {frozenset({"A"}): 2, frozenset({"B"}): 1}

    def test_decay_validated(self):
        for decay in (0.0, -1.0, 1.01):
            with pytest.raises(SelectionError):
                workload_from_queries([ctx("A")], decay=decay)

    def test_context_sizes_attach(self):
        workload = workload_from_queries(
            [ctx("A")], context_sizes={frozenset({"A"}): 9}
        )
        assert workload[0].context_size == 9


class TestNeedsReselection:
    def test_views_over_tv_triggers(self):
        report = MaintenanceReport(views_over_tv=[frozenset({"A"})])
        assert needs_reselection(report)

    def test_growth_threshold_is_strict(self):
        over = MaintenanceReport(growth_since_selection=0.25)
        at = MaintenanceReport(growth_since_selection=0.2)
        under = MaintenanceReport(growth_since_selection=0.1)
        assert needs_reselection(over, growth_threshold=0.2)
        assert not needs_reselection(at, growth_threshold=0.2)
        assert not needs_reselection(under, growth_threshold=0.2)


# ---------------------------------------------------------------------------
# IncrementalReselector


class TestIncrementalReselector:
    WORKLOAD = [
        WorkloadEntry(frozenset({"DigestiveSystem"}), frequency=5),
        WorkloadEntry(frozenset({"Diseases", "Neoplasms"}), frequency=3),
    ]

    def test_budget_validated(self):
        with pytest.raises(SelectionError):
            IncrementalReselector(storage_budget=0)

    def test_reselect_builds_catalog_and_report(self, handmade_index):
        reselector = IncrementalReselector(storage_budget=100_000)
        catalog, report = reselector.reselect(
            handmade_index, self.WORKLOAD, trigger="drift"
        )
        assert report.trigger == "drift"
        assert report.num_views == len(catalog) > 0
        assert report.built_views == report.num_views
        assert report.reused_views == 0
        assert report.num_docs == handmade_index.num_docs
        assert report.workload_coverage == pytest.approx(
            evaluate_coverage(report.keyword_sets, self.WORKLOAD)
        )
        summary = report.to_dict()
        assert summary["trigger"] == "drift"
        assert summary["num_views"] == report.num_views

    def test_unchanged_views_are_reused_not_rebuilt(self, handmade_index):
        reselector = IncrementalReselector(storage_budget=100_000)
        first, _ = reselector.reselect(handmade_index, self.WORKLOAD)
        second, report = reselector.reselect(
            handmade_index, self.WORKLOAD, previous_catalog=first
        )
        assert report.reused_views == report.num_views
        assert report.built_views == 0
        previous = {id(view) for view in first}
        assert all(id(view) in previous for view in second)
        assert second is not first  # always a fresh catalog object

    def test_t_c_change_forces_rebuild(self, handmade_index):
        base = IncrementalReselector(storage_budget=100_000)
        first, _ = base.reselect(handmade_index, self.WORKLOAD)
        stricter = IncrementalReselector(storage_budget=100_000, t_c=50)
        _, report = stricter.reselect(
            handmade_index, self.WORKLOAD, previous_catalog=first
        )
        assert report.reused_views == 0
        assert report.built_views == report.num_views

    def test_effective_t_c_tracks_collection(self, handmade_index):
        auto = IncrementalReselector(storage_budget=10)
        assert auto.effective_t_c(handmade_index) == 2  # max(2, 6 // 100)
        pinned = IncrementalReselector(storage_budget=10, t_c=7)
        assert pinned.effective_t_c(handmade_index) == 7


# ---------------------------------------------------------------------------
# Engine-level hot swaps: mutate the catalog, requery, rankings unchanged


class TestFlatEngineSwap:
    def test_swap_flips_path_not_ranking(self, handmade_index):
        engine = ContextSearchEngine(handmade_index)
        before = engine.search(QUERY, top_k=6)
        assert before.report.resolution.path == "straightforward"

        generation = engine.install_catalog(digestive_catalog(handmade_index))
        assert generation == engine.catalog_generation == 1

        after = engine.search(QUERY, top_k=6)
        assert after.report.resolution.path == "views"
        assert_same_ranking(after, before)

        forced = engine.search(QUERY, top_k=6, path="views")
        assert_same_ranking(forced, before)

    def test_swap_to_none_drops_views(self, handmade_index):
        engine = ContextSearchEngine(
            handmade_index, catalog=digestive_catalog(handmade_index)
        )
        assert engine.search(QUERY, top_k=6).report.resolution.path == "views"
        assert engine.install_catalog(None) == 1
        assert engine.catalog is None
        after = engine.search(QUERY, top_k=6)
        assert after.report.resolution.path == "straightforward"


class TestShardedEngineSwap:
    @pytest.fixture()
    def sharded(self, handmade_index):
        return ShardedInvertedIndex.from_index(
            handmade_index, 3, partitioner="hash"
        )

    def test_swap_catalogs_flips_path_not_ranking(
        self, handmade_index, sharded
    ):
        catalog = digestive_catalog(handmade_index)
        with ShardedEngine(sharded, executor="serial") as engine:
            before = engine.search(QUERY, top_k=6)
            assert (
                before.report.resolution.path == "sharded-straightforward"
            )
            generation = engine.install_catalog(
                replicate_catalog(sharded, catalog)
            )
            assert generation == engine.catalog_generation == 1
            after = engine.search(QUERY, top_k=6)
            # Shards whose slice has no matching docs fall back per
            # shard, so the merged label is views or mixed — never pure
            # straightforward.
            assert after.report.resolution.path in (
                "sharded-views",
                "sharded-mixed",
            )
            assert_same_ranking(after, before)

    def test_swap_catalogs_validates_count(self, sharded):
        with ShardedEngine(sharded, executor="serial") as engine:
            with pytest.raises(QueryError):
                engine.install_catalog([None])  # 1 catalog for 3 shards

    @pytest.mark.skipif(
        not fork_available(), reason="fork start method missing"
    )
    def test_fork_backend_refuses_swap(self, sharded):
        with ShardedEngine(sharded, executor="fork") as engine:
            with pytest.raises(QueryError, match="fork"):
                engine.install_catalog(None)


class TestLifecycleEngineSwap:
    def test_install_catalog_is_rank_safe_epoch_bump(self):
        engine = LifecycleEngine(SegmentedIndex())
        try:
            engine.ingest(HANDMADE_DOCS)
            engine.flush()
            before = engine.search(QUERY, top_k=6)
            truth = engine.search(QUERY, top_k=6, path="straightforward")
            assert_same_ranking(before, truth)
            epoch_before = engine.epoch

            reselector = IncrementalReselector(storage_budget=100_000)
            catalog, report = reselector.reselect(
                engine.index.snapshot(),
                [WorkloadEntry(frozenset({"DigestiveSystem"}), frequency=4)],
                trigger="lifecycle",
            )
            generation = engine.install_catalog(
                catalog, info=report.to_dict()
            )
            assert generation == engine.catalog_generation == 1
            assert engine.epoch > epoch_before  # version-boundary install
            assert engine.last_reselection["trigger"] == "lifecycle"

            after = engine.search(QUERY, top_k=6)
            assert_same_ranking(after, before)
        finally:
            engine.close()

    def test_maintenance_hooks_fire_on_flush_and_compact(self):
        engine = LifecycleEngine(SegmentedIndex())
        try:
            events = []
            engine.add_maintenance_hook(events.append)
            engine.ingest(HANDMADE_DOCS[:3])
            engine.flush()
            engine.ingest(HANDMADE_DOCS[3:])
            engine.flush()
            engine.compact(full=True)
            assert events == ["flush", "flush", "compact"]
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# QueryService: swap invalidates served results, metrics expose the loop


class TestQueryServiceSwap:
    def test_swap_invalidates_cached_results_not_rankings(self):
        engine = ContextSearchEngine(build_index(HANDMADE_DOCS))
        service = make_service(engine)
        try:
            before = run_async(service.handle_request(query_request(QUERY)))
            cached = run_async(service.handle_request(query_request(QUERY)))
            assert cached["cached"] is True

            engine.install_catalog(digestive_catalog(engine.index))
            assert service.catalog_generation == 1

            after = run_async(service.handle_request(query_request(QUERY)))
        finally:
            service.close()
        assert "cached" not in after  # generation is part of the epoch
        assert service.result_cache.metrics.stale_drops == 1
        assert after["report"]["resolution"]["path"] == "views"
        assert [h["doc"] for h in after["hits"]] == [
            h["doc"] for h in before["hits"]
        ]
        assert [h["score"] for h in after["hits"]] == pytest.approx(
            [h["score"] for h in before["hits"]], abs=1e-12
        )

    def test_recorder_sees_hits_and_misses(self):
        engine = ContextSearchEngine(build_index(HANDMADE_DOCS))
        service = make_service(engine)
        service.recorder = WorkloadRecorder()
        try:
            run_async(service.handle_request(query_request(QUERY)))
            hit = run_async(service.handle_request(query_request(QUERY)))
            assert hit["cached"] is True
        finally:
            service.close()
        # A cache hit is still demand signal: both servings recorded.
        assert service.recorder.total_recorded == 2
        [entry] = service.recorder.to_workload()
        assert entry.predicates == frozenset({"DigestiveSystem"})
        assert entry.frequency == 2
        assert entry.context_size > 0

    def test_metrics_and_healthz_surface_adaptive_state(self):
        engine = ContextSearchEngine(build_index(HANDMADE_DOCS))
        service = make_service(engine)
        controller = AdaptiveSelectionController(
            engine,
            IncrementalReselector(storage_budget=100_000),
            config=AdaptiveConfig(min_queries=1),
            metrics=service.metrics,
        )
        service.recorder = controller.recorder
        service.adaptive = controller
        try:
            run_async(service.handle_request(query_request(QUERY)))
            report = controller.run_once(trigger="drift")
            assert report is not None
            run_async(service.handle_request(query_request(QUERY)))

            metrics = run_async(service.handle_request(Request(op="metrics")))
            health = run_async(service.handle_request(Request(op="healthz")))
        finally:
            service.close()
        assert metrics["catalog_generation"] == 1
        assert metrics["paths"]["straightforward"] == 1
        assert metrics["paths"]["views"] == 1
        assert metrics["adaptive"]["reselections"] == 1
        assert metrics["adaptive"]["catalog_generation"] == 1
        assert health["catalog_generation"] == 1
        assert health["adaptive"]["reselections"] == 1
        assert health["adaptive"]["last_reselection"]["trigger"] == "drift"


class TestServiceMetricsPaths:
    def test_observe_path_buckets(self):
        metrics = ServiceMetrics()
        metrics.observe_path(None)  # timeouts/errors: no path, no count
        for path in (
            "views",
            "sharded-views",
            "straightforward",
            "sharded-straightforward",
            "sharded-mixed",
            "conventional",
        ):
            metrics.observe_path(path)
        paths = metrics.snapshot()["paths"]
        assert paths["views"] == 2
        assert paths["straightforward"] == 2
        assert paths["mixed"] == 1
        assert paths["conventional"] == 1
        # Conventional-mode queries never had a view to hit; they are
        # excluded from the denominator.
        assert paths["view_hit_rate"] == pytest.approx(2 / 5)

    def test_observe_reselection(self):
        metrics = ServiceMetrics()
        metrics.observe_reselection(3, {"trigger": "growth"})
        adaptive = metrics.snapshot()["adaptive"]
        assert adaptive["reselections"] == 1
        assert adaptive["catalog_generation"] == 3
        assert adaptive["last_reselection"]["trigger"] == "growth"


# ---------------------------------------------------------------------------
# AdaptiveSelectionController


class TestAdaptiveController:
    @staticmethod
    def controller(engine, **config):
        return AdaptiveSelectionController(
            engine,
            IncrementalReselector(storage_budget=100_000),
            config=AdaptiveConfig(**config),
        )

    def test_coverage_trigger(self):
        engine = ContextSearchEngine(build_index(HANDMADE_DOCS))
        controller = self.controller(engine, min_queries=1)
        controller.recorder.record(["DigestiveSystem"], context_size=3)
        # No catalog installed -> coverage 0 < threshold.
        assert controller.should_reselect() == "coverage"

    def test_coverage_needs_min_queries(self):
        engine = ContextSearchEngine(build_index(HANDMADE_DOCS))
        controller = self.controller(engine, min_queries=5)
        controller.recorder.record(["DigestiveSystem"])
        assert controller.should_reselect() is None

    def test_growth_trigger(self):
        engine = ContextSearchEngine(build_index(HANDMADE_DOCS))
        controller = self.controller(engine, min_queries=10**6)
        assert controller.should_reselect() is None
        engine.index.append_documents(GROWTH_DOCS)  # 2/6 > 0.2
        assert controller.should_reselect() == "growth"

    def test_run_once_installs_marks_and_reports(self):
        engine = ContextSearchEngine(build_index(HANDMADE_DOCS))
        controller = self.controller(engine, min_queries=1)
        controller.recorder.record(["DigestiveSystem"], context_size=3)
        before = engine.search(QUERY, top_k=6)

        report = controller.run_once()
        assert report is not None and report.trigger == "coverage"
        assert engine.catalog is not None
        assert engine.catalog_generation == 1
        assert controller.reselections == 1
        assert controller.last_report is report
        assert controller.recorder.stats()["recorded_since_mark"] == 0

        after = engine.search(QUERY, top_k=6)
        assert after.report.resolution.path == "views"
        assert_same_ranking(after, before)

        # Covered workload + no growth: the loop settles.
        assert controller.should_reselect() is None
        info = controller.info()
        assert info["catalog_generation"] == 1
        assert info["reselections"] == 1
        assert info["last_reselection"]["trigger"] == "coverage"
        assert info["last_error"] is None
        assert info["recorder"]["distinct_contexts"] == 1

    def test_run_once_with_empty_recorder_is_a_noop(self):
        engine = ContextSearchEngine(build_index(HANDMADE_DOCS))
        controller = self.controller(engine)
        assert controller.run_once(trigger="manual") is None
        assert engine.catalog_generation == 0

    def test_sharded_needs_reference_index(self, handmade_index):
        sharded = ShardedInvertedIndex.from_index(
            handmade_index, 2, partitioner="hash"
        )
        with ShardedEngine(sharded, executor="serial") as engine:
            with pytest.raises(QueryError, match="reference"):
                self.controller(engine)

    def test_sharded_with_reference_reselects_per_shard(
        self, handmade_index
    ):
        sharded = ShardedInvertedIndex.from_index(
            handmade_index, 2, partitioner="hash"
        )
        with ShardedEngine(sharded, executor="serial") as engine:
            controller = AdaptiveSelectionController(
                engine,
                IncrementalReselector(storage_budget=100_000),
                config=AdaptiveConfig(min_queries=1),
                reference_index=handmade_index,
            )
            controller.recorder.record(["DigestiveSystem"], context_size=3)
            before = engine.search(QUERY, top_k=6)
            report = controller.run_once(trigger="drift")
            assert report is not None
            assert engine.catalog_generation == 1
            after = engine.search(QUERY, top_k=6)
            assert after.report.resolution.path in (
                "sharded-views",
                "sharded-mixed",
            )
            assert_same_ranking(after, before)

    @pytest.mark.skipif(
        not fork_available(), reason="fork start method missing"
    )
    def test_fork_backend_rejected_at_construction(self, handmade_index):
        sharded = ShardedInvertedIndex.from_index(
            handmade_index, 2, partitioner="hash"
        )
        with ShardedEngine(sharded, executor="fork") as engine:
            with pytest.raises(QueryError, match="fork"):
                AdaptiveSelectionController(
                    engine,
                    IncrementalReselector(storage_budget=10),
                    reference_index=handmade_index,
                )

    def test_engine_without_swap_entry_point_rejected(self):
        with pytest.raises(QueryError, match="swap"):
            AdaptiveSelectionController(
                SimpleNamespace(), IncrementalReselector(storage_budget=10)
            )

    def test_config_validation(self):
        with pytest.raises(QueryError):
            AdaptiveConfig(interval_seconds=0)
        with pytest.raises(QueryError):
            AdaptiveConfig(min_queries=0)
        with pytest.raises(QueryError):
            AdaptiveConfig(coverage_threshold=1.5)
        with pytest.raises(QueryError):
            AdaptiveConfig(decay=0.0)

    def test_start_stop_and_maintenance_wake(self):
        engine = LifecycleEngine(SegmentedIndex())
        try:
            engine.ingest(HANDMADE_DOCS)
            engine.flush()
            controller = self.controller(engine, interval_seconds=60.0)
            controller.start()
            try:
                assert controller.running
                # A lifecycle flush wakes the thread through the hook.
                engine.ingest(GROWTH_DOCS)
                engine.flush()
                assert controller._wake.is_set() or controller.running
            finally:
                controller.stop()
            assert not controller.running
        finally:
            engine.close()

    def test_adaptive_beats_static_under_drift(self, corpus42, corpus42_index):
        """Select on one workload phase, then serve a drifted phase three
        times over: the adaptive engine reselects after the first pass
        and answers more of the phase from views than the static engine,
        with rankings equal throughout."""
        from repro import generate_performance_workload
        from repro.views import ViewSizeEstimator, WideSparseTable

        index = corpus42_index
        t_c = index.num_docs // 100
        train, drifted = (
            generate_performance_workload(
                corpus42, index, t_c=t_c, kind="large",
                keyword_counts=(2, 3), queries_per_count=8, seed=seed,
            ).all_queries()
            for seed in (101, 505)
        )
        workload = workload_from_queries(
            [wq.query for wq in train],
            context_sizes={
                frozenset(wq.query.predicates): wq.context_size
                for wq in train
            },
        )
        # Budget: 1.2x what covering the training phase outright costs.
        table = WideSparseTable.from_index(index)
        estimator = ViewSizeEstimator(table, seed=0)
        budget = 1 + int(1.2 * sum(
            estimator.exact(frozenset(entry.predicates)) for entry in workload
        ))
        reselector = IncrementalReselector(storage_budget=budget)
        catalog, _ = reselector.reselect(index, workload, trigger="init")
        static = ContextSearchEngine(index, catalog=catalog)
        adaptive = ContextSearchEngine(index, catalog=catalog)
        config = AdaptiveConfig(min_queries=1, decay=0.3)
        controller = AdaptiveSelectionController(
            adaptive, reselector, config=config
        )
        view_hits = {"static": 0, "adaptive": 0}
        for i, wq in enumerate(drifted * 3):
            if i == len(drifted):
                controller.run_once(trigger="drift")
            controller.recorder.record(wq.query.predicates, wq.context_size)
            rs = static.search(wq.query, top_k=10)
            ra = adaptive.search(wq.query, top_k=10)
            assert hit_tuples(rs) == hit_tuples(ra)
            view_hits["static"] += rs.report.resolution.path == "views"
            view_hits["adaptive"] += ra.report.resolution.path == "views"
        assert adaptive.catalog_generation == 1
        assert view_hits["adaptive"] > view_hits["static"], view_hits


# ---------------------------------------------------------------------------
# CLI


class TestCLIAdaptive:
    def test_adaptive_knob_requires_adaptive(self, capsys):
        code = cli.main(
            ["serve", "--index", "missing.idx", "--adaptive-interval", "5"]
        )
        assert code == 2
        assert "--adaptive-interval requires --adaptive" in (
            capsys.readouterr().err
        )

    def test_save_catalog_requires_adaptive(self, capsys):
        code = cli.main(
            ["serve", "--index", "missing.idx", "--save-catalog", "c.json.gz"]
        )
        assert code == 2
        assert "--save-catalog requires --adaptive" in capsys.readouterr().err

    def test_info_needs_a_target(self, capsys):
        assert cli.main(["info"]) == 2
        assert "--index and/or --catalog" in capsys.readouterr().err

    def test_info_reports_catalog_provenance(
        self, tmp_path, capsys, handmade_index
    ):
        import json

        path = tmp_path / "catalog.json.gz"
        save_catalog(
            digestive_catalog(handmade_index),
            path,
            generation=3,
            selection={"trigger": "drift", "num_views": 1},
        )
        assert cli.main(["info", "--catalog", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["catalog"]["num_views"] == 1
        assert payload["catalog"]["generation"] == 3
        assert payload["catalog"]["selection"]["trigger"] == "drift"
