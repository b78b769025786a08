"""The planner stack: logical plans, cost-based path choice, operators.

Three properties carry the refactor:

1. **choice is invisible** — forcing any feasible physical path returns
   the identical ranked answer (scores compared with ``==``, never
   approximately), on the flat and the sharded engine;
2. **choice is justified** — the optimizer's predicted costs are sound
   upper bounds on the actual counted operations of the chosen path, and
   the chosen path's actual cost beats (or stays within a documented
   tolerance of) the rejected path's actual cost;
3. **one scoring loop** — the shared scoring module reproduces, float
   for float, an independent re-derivation of every score from the
   statistics framework (the pre-refactor engines' inlined loops).
"""

from __future__ import annotations

import pytest

from repro import (
    BatchExecutor,
    ContextSearchEngine,
    QueryError,
    ShardedEngine,
    ShardedInvertedIndex,
    parse_query,
    replicate_catalog,
    select_views,
)
from repro.core.logical import (
    ALL_MODES,
    MODE_CONTEXT,
    MODE_CONVENTIONAL,
    MODE_DISJUNCTIVE,
    compile_query,
)
from repro.core.operators import StatsMerge
from repro.core.optimizer import (
    PATH_PER_SHARD,
    PATH_STRAIGHTFORWARD,
    PATH_VIEWS,
    Optimizer,
)
from repro.core.ranking import ALL_RANKING_FUNCTIONS
from repro.core.scoring import rank_candidates, score_candidates
from repro.core.statistics import (
    UNIQUE_TERMS,
    DocumentStatistics,
    QueryStatistics,
    StatisticSpec,
    cardinality_spec,
    df_spec,
)
from repro.index.searcher import BooleanSearcher


def hit_tuples(results):
    """The full bit-identity signature of a ranked answer."""
    return [(h.doc_id, h.external_id, h.score) for h in results.hits]


@pytest.fixture(scope="module")
def catalog(corpus_index):
    t_c = max(corpus_index.num_docs // 25, 5)
    catalog, _ = select_views(corpus_index, t_c=t_c, t_v=128)
    assert len(catalog) > 0
    return catalog


@pytest.fixture(scope="module")
def planner_engine(corpus_index, catalog):
    return ContextSearchEngine(corpus_index, catalog=catalog)


@pytest.fixture(scope="module")
def queries(corpus_index):
    """A spread of corpus queries: frequent/rare terms, 1–2 predicates."""
    predicates = sorted(
        corpus_index.predicate_vocabulary,
        key=corpus_index.predicate_frequency,
        reverse=True,
    )
    terms = sorted(
        corpus_index.vocabulary,
        key=corpus_index.document_frequency,
        reverse=True,
    )
    return [
        parse_query(f"{terms[0]} | {predicates[0]}"),
        parse_query(f"{terms[5]} {terms[20]} | {predicates[1]}"),
        parse_query(f"{terms[50]} | {predicates[0]} {predicates[2]}"),
        parse_query(f"{terms[200]} {terms[2]} | {predicates[3]}"),
        parse_query(f"{terms[400]} | {predicates[1]}"),
    ]


# ---------------------------------------------------------------------------
# Layer 1: logical plans


class TestLogicalPlans:
    def test_all_modes_compile(self, queries):
        specs = (cardinality_spec(), df_spec("x"))
        for mode in ALL_MODES:
            plan = compile_query(queries[0], specs, mode, top_k=10)
            assert plan.mode == mode
            assert plan.specs == specs
            assert plan.top_k == 10

    def test_unknown_mode_rejected(self, queries):
        with pytest.raises(QueryError, match="unknown evaluation mode"):
            compile_query(queries[0], (), "fuzzy")

    def test_context_tree_shape(self, queries):
        plan = compile_query(queries[0], (cardinality_spec(),), MODE_CONTEXT)
        ops = [node.op for node in plan.root.walk()]
        assert ops[0] == "top-k"
        assert "resolve-statistics" in ops
        assert "materialise-context" in ops
        assert "intersect" in ops

    def test_mode_specific_candidates(self, queries):
        specs = (cardinality_spec(),)
        disj = compile_query(queries[0], specs, MODE_DISJUNCTIVE)
        conv = compile_query(queries[0], specs, MODE_CONVENTIONAL)
        assert any(n.op == "disjunctive-scan" for n in disj.root.walk())
        assert any(n.op == "global-statistics" for n in conv.root.walk())
        assert not any(n.op == "materialise-context" for n in conv.root.walk())

    def test_render_mentions_query_terms(self, queries):
        plan = compile_query(queries[0], (cardinality_spec(),), MODE_CONTEXT)
        text = plan.render()
        assert queries[0].keywords[0] in text
        assert queries[0].predicates[0] in text


# ---------------------------------------------------------------------------
# Layer 2: the optimizer


class TestOptimizer:
    def _specs(self, engine, query):
        analyzed = engine._analyze(query)
        return analyzed, engine.ranking.required_collection_specs(
            analyzed.keywords
        )

    def test_two_candidates_priced(self, planner_engine, queries):
        analyzed, specs = self._specs(planner_engine, queries[0])
        plan = planner_engine.runtime.optimizer.plan(analyzed, specs)
        names = {c.name for c in plan.candidates}
        assert names == {PATH_VIEWS, PATH_STRAIGHTFORWARD}
        assert plan.chosen in names
        chosen = plan.candidate(plan.chosen)
        assert chosen.feasible
        assert chosen.predicted_cost >= 0

    def test_chosen_is_cheapest_feasible(self, planner_engine, queries):
        for query in queries:
            analyzed, specs = self._specs(planner_engine, query)
            plan = planner_engine.runtime.optimizer.plan(analyzed, specs)
            feasible = [c for c in plan.candidates if c.feasible]
            best = min(c.predicted_cost for c in feasible)
            assert plan.candidate(plan.chosen).predicted_cost == best

    def test_no_catalog_means_straightforward(self, corpus_index, queries):
        opt = Optimizer(corpus_index, catalog=None)
        engine = ContextSearchEngine(corpus_index)
        analyzed = engine._analyze(queries[0])
        specs = engine.ranking.required_collection_specs(analyzed.keywords)
        plan = opt.plan(analyzed, specs)
        assert plan.chosen == PATH_STRAIGHTFORWARD
        views = plan.candidate(PATH_VIEWS)
        assert not views.feasible
        assert "catalog" in views.reason

    def test_forcing_infeasible_path_raises(self, corpus_index, queries):
        engine = ContextSearchEngine(corpus_index)  # no catalog
        with pytest.raises(QueryError, match="not available"):
            engine.search(queries[0], path=PATH_VIEWS)

    def test_forcing_unknown_path_raises(self, planner_engine, queries):
        with pytest.raises(QueryError, match="unknown path"):
            planner_engine.search(queries[0], path="quantum")

    def test_conventional_mode_single_candidate(self, planner_engine, queries):
        analyzed, _ = self._specs(planner_engine, queries[0])
        plan = planner_engine.runtime.optimizer.plan(
            analyzed, (), mode=MODE_CONVENTIONAL
        )
        assert [c.name for c in plan.candidates] == ["conventional"]
        with pytest.raises(QueryError, match="no alternative paths"):
            planner_engine.runtime.optimizer.plan(
                analyzed, (), mode=MODE_CONVENTIONAL, force=PATH_VIEWS
            )

    def test_forced_plan_is_marked(self, planner_engine, queries):
        analyzed, specs = self._specs(planner_engine, queries[0])
        plan = planner_engine.runtime.optimizer.plan(
            analyzed, specs, force=PATH_STRAIGHTFORWARD
        )
        assert plan.forced
        assert plan.chosen == PATH_STRAIGHTFORWARD

    def test_render_reports_decision(self, planner_engine, queries):
        results = planner_engine.explain(queries[0], top_k=5)
        plan = results.report.plan
        text = plan.render()
        assert "chosen:" in text
        assert "predicted model cost:" in text
        assert "actual:" in text  # bound to the live counter
        for candidate in plan.candidates:
            assert candidate.name in text


# ---------------------------------------------------------------------------
# Invisibility: forcing any feasible path returns the identical answer


class TestPathForcingIdentity:
    def _forced(self, engine, query, path, **kwargs):
        try:
            return engine.search(query, path=path, **kwargs)
        except QueryError as exc:
            if "not available" in str(exc):
                return None
            raise

    def test_flat_engine_paths_identical(self, planner_engine, queries):
        for query in queries:
            auto = planner_engine.search(query)
            for path in (PATH_VIEWS, PATH_STRAIGHTFORWARD):
                forced = self._forced(planner_engine, query, path)
                if forced is None:
                    continue
                assert hit_tuples(forced) == hit_tuples(auto)
                assert forced.report.plan.forced
                assert forced.report.plan.chosen == path

    def test_flat_disjunctive_paths_identical(self, planner_engine, queries):
        for query in queries[:3]:
            auto = planner_engine.search_disjunctive(query, top_k=10)
            for path in (PATH_VIEWS, PATH_STRAIGHTFORWARD):
                try:
                    forced = planner_engine.search_disjunctive(
                        query, top_k=10, path=path
                    )
                except QueryError:
                    continue
                assert hit_tuples(forced) == hit_tuples(auto)

    def test_sharded_engine_paths_identical(
        self, corpus_index, catalog, planner_engine, queries
    ):
        sharded = ShardedInvertedIndex.from_index(corpus_index, 3)
        engine = ShardedEngine(
            sharded,
            catalogs=replicate_catalog(sharded, catalog),
            executor="serial",
        )
        try:
            for query in queries:
                flat = planner_engine.search(query)
                for path in ("auto", PATH_VIEWS, PATH_STRAIGHTFORWARD):
                    result = engine.search(query, path=path)
                    assert hit_tuples(result) == hit_tuples(flat)
        finally:
            engine.close()

    def test_sharded_force_views_without_catalogs_raises(self, corpus_index):
        sharded = ShardedInvertedIndex.from_index(corpus_index, 2)
        with ShardedEngine(sharded, executor="serial") as engine:
            with pytest.raises(QueryError, match="views"):
                engine.search("anything | whatever", path=PATH_VIEWS)


# ---------------------------------------------------------------------------
# Justification: predicted costs bound actuals; the choice pays off


class TestOptimizerCostProperty:
    # The straightforward candidate is priced with Proposition 3.1's
    # worst-case bound while the views candidate is priced near-exactly,
    # so on queries where the bound is loose the optimizer may pick views
    # even though straightforward would have run cheaper.  The tolerance
    # below documents how loose that asymmetry is allowed to get before
    # we call the model broken.
    TOLERANCE = 3.0

    def test_straightforward_prediction_tracks_actual_cost(
        self, planner_engine, queries
    ):
        """Forcing the straightforward path keeps actual operations within
        the repo's established 2x slack of the Proposition 3.1 estimate
        (the same factor test_properties.py grants the raw plan — the
        estimate bounds entry *touches* per component, while the model
        cost also prices skip evaluations).  The views candidate is priced
        near-exactly rather than as a worst case, so no analogous claim is
        made for it; the comparative test below keeps its pricing honest."""
        for query in queries:
            results = planner_engine.search(query, path=PATH_STRAIGHTFORWARD)
            plan = results.report.plan
            predicted = plan.candidate(PATH_STRAIGHTFORWARD).predicted_cost
            assert results.report.counter.model_cost <= 2 * predicted

    def test_chosen_path_beats_rejected_within_tolerance(
        self, planner_engine, queries
    ):
        for query in queries:
            auto = planner_engine.search(query)
            chosen = auto.report.plan.chosen
            rejected = (
                PATH_STRAIGHTFORWARD if chosen == PATH_VIEWS else PATH_VIEWS
            )
            try:
                other = planner_engine.search(query, path=rejected)
            except QueryError:
                continue  # rejected path infeasible: nothing to compare
            actual_chosen = auto.report.counter.model_cost
            actual_rejected = other.report.counter.model_cost
            assert actual_chosen <= max(
                self.TOLERANCE * actual_rejected, actual_rejected + 16
            ), (
                f"{query}: chose {chosen} at {actual_chosen} ops but "
                f"{rejected} ran at {actual_rejected}"
            )


# ---------------------------------------------------------------------------
# One scoring loop, bit-identical to first principles


class TestScoringBitIdentity:
    def _rederive(self, index, ranking, keywords, predicates, top_k=None):
        """Recompute the ranking straight from the statistics framework —
        the exact loop both engines inlined before the refactor."""
        searcher = BooleanSearcher(index)
        result_ids = searcher.search_conjunction(
            list(keywords), list(predicates)
        )
        engine = ContextSearchEngine(index, ranking=ranking)
        stats = engine.context_statistics(list(predicates), keywords)
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
            scored.append((score, doc_id, doc.external_id))
        scored.sort(key=lambda hit: (-hit[0], hit[1]))
        return scored[:top_k] if top_k is not None else scored

    def test_engine_matches_first_principles(self, planner_engine, queries):
        index = planner_engine.index
        ranking = planner_engine.ranking
        for query in queries:
            analyzed = planner_engine._analyze(query)
            expected = self._rederive(
                index, ranking, analyzed.keywords, analyzed.predicates
            )
            got = planner_engine.search(query)
            assert [
                (s, d, e) for s, d, e in expected
            ] == [(h.score, h.doc_id, h.external_id) for h in got.hits]

    @pytest.mark.parametrize("shape", ["flat", "sharded"])
    @pytest.mark.parametrize("model", ["bm25", "dirichlet-lm"])
    def test_every_model_matches_first_principles(
        self, corpus_index, catalog, queries, model, shape
    ):
        """The other ranking models, end to end: the flat engine over its
        catalog and a three-shard engine over replicated catalogs rank
        exactly like the per-document reference loop."""
        ranking = ALL_RANKING_FUNCTIONS[model]()
        flat = ContextSearchEngine(corpus_index, catalog=catalog, ranking=ranking)
        if shape == "flat":
            engine = flat
        else:
            sharded = ShardedInvertedIndex.from_index(corpus_index, 3)
            engine = ShardedEngine(
                sharded,
                ranking=ranking,
                catalogs=replicate_catalog(sharded, catalog),
                executor="serial",
            )
        try:
            for query in queries:
                analyzed = flat._analyze(query)
                expected = self._rederive(
                    corpus_index, ranking, analyzed.keywords, analyzed.predicates
                )
                got = engine.search(query)
                assert expected == [
                    (h.score, h.doc_id, h.external_id) for h in got.hits
                ]
        finally:
            if shape == "sharded":
                engine.close()

    def test_scoring_module_matches_engines(self, handmade_engine):
        """score_candidates + rank_candidates is exactly the engine's
        ranking (same floats, same tie-breaks)."""
        query = handmade_engine._analyze(parse_query("leukemia | Diseases"))
        results = handmade_engine.search(query)
        stats = handmade_engine.context_statistics(
            list(query.predicates), query.keywords
        )
        searcher = BooleanSearcher(handmade_engine.index)
        ids = searcher.search_conjunction(
            list(query.keywords), list(query.predicates)
        )
        scored = score_candidates(
            handmade_engine.index,
            handmade_engine.ranking,
            query.keywords,
            ids,
            stats,
        )
        ranked = rank_candidates(
            [(score, doc_id, ext) for doc_id, score, ext in scored]
        )
        assert ranked == [(h.score, h.doc_id, h.external_id) for h in results.hits]

    def test_rank_candidates_tie_breaks_on_id(self):
        ranked = rank_candidates(
            [(1.0, 9, "D9"), (2.0, 5, "D5"), (1.0, 2, "D2")], top_k=2
        )
        assert ranked == [(2.0, 5, "D5"), (1.0, 2, "D2")]


# ---------------------------------------------------------------------------
# The unified report


class TestUnifiedReport:
    def test_flat_report_carries_plan(self, planner_engine, queries):
        results = planner_engine.search(queries[0])
        report = results.report
        assert report.plan is not None
        assert report.plan.actual is report.counter
        assert report.per_shard is None
        assert report.path == report.resolution.path
        assert report.predicted_cost == report.plan.predicted_cost

    def test_sharded_report_per_shard_breakdown(
        self, corpus_index, catalog, queries
    ):
        sharded = ShardedInvertedIndex.from_index(corpus_index, 3)
        engine = ShardedEngine(
            sharded,
            catalogs=replicate_catalog(sharded, catalog),
            executor="serial",
        )
        try:
            report = engine.search(queries[0]).report
            assert report.plan is not None
            assert report.plan.chosen == PATH_PER_SHARD
            assert len(report.per_shard) == 3
            assert len(report.plan.shard_choices) == 3
            for shard in report.per_shard:
                assert shard.path in ("views", "straightforward")
                assert shard.counter.model_cost >= 0
            # Per-shard counters partition the merged counter exactly.
            assert report.counter.model_cost == sum(
                s.counter.model_cost for s in report.per_shard
            )
            assert "per-shard choices" in report.plan.render()
        finally:
            engine.close()

    def test_batch_reports_carry_plans(self, planner_engine, queries):
        executor = BatchExecutor(planner_engine, max_workers=2)
        sources = [
            f"{' '.join(q.keywords)} | {' '.join(q.predicates)}"
            for q in queries
        ]
        report = executor.run(sources, top_k=5)
        assert all(o.ok for o in report.outcomes)
        for outcome, query in zip(report.outcomes, queries):
            assert outcome.results.report.plan is not None
            solo = planner_engine.search(query, top_k=5)
            assert hit_tuples(outcome.results) == hit_tuples(solo)
            # Shared materialisation replays costs: batch accounting
            # equals standalone accounting.
            assert (
                outcome.results.report.counter.model_cost
                == solo.report.counter.model_cost
            )


# ---------------------------------------------------------------------------
# StatsMerge (the scatter-gather merge operator)


class TestStatsMerge:
    def test_merge_sums_partitions(self):
        a, b = cardinality_spec(), df_spec("t")
        merged = StatsMerge.merge([{a: 3, b: 1}, {a: 4, b: 0}], [a, b])
        assert merged == {a: 7, b: 1}
        assert StatsMerge.cardinality_of(merged, [a, b]) == 7

    def test_utc_rejected(self):
        with pytest.raises(QueryError, match="not additive"):
            StatsMerge.check_additive([StatisticSpec(UNIQUE_TERMS)])


# ---------------------------------------------------------------------------
# The explain CLI


class TestExplainCLI:
    @pytest.fixture()
    def artefacts(self, tmp_path, corpus_index, catalog):
        from repro.storage import save_catalog, save_index

        index_path = str(tmp_path / "index.json.gz")
        catalog_path = str(tmp_path / "catalog.json.gz")
        save_index(corpus_index, index_path)
        save_catalog(catalog, catalog_path)
        return index_path, catalog_path

    def test_explain_prints_decision(self, artefacts, queries, capsys):
        from repro.cli import main

        index_path, catalog_path = artefacts
        code = main(
            [
                "explain",
                str(queries[0]),
                "--index",
                index_path,
                "--catalog",
                catalog_path,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chosen:" in out
        assert "predicted model cost:" in out
        assert "actual: model_cost=" in out
        assert "views" in out and "straightforward" in out

    def test_explain_forced_path(self, artefacts, queries, capsys):
        from repro.cli import main

        index_path, _ = artefacts
        code = main(
            [
                "explain",
                str(queries[0]),
                "--index",
                index_path,
                "--path",
                "straightforward",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chosen: straightforward (forced)" in out

    def test_explain_sharded_lists_shards(self, artefacts, queries, capsys):
        from repro.cli import main

        index_path, catalog_path = artefacts
        code = main(
            [
                "explain",
                str(queries[0]),
                "--index",
                index_path,
                "--catalog",
                catalog_path,
                "--shards",
                "2",
                "--executor",
                "serial",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "per-shard execution:" in out
        assert "shard 0:" in out and "shard 1:" in out
