"""Staged re-execution of a query through the layers' public functions.

The engines run parse, plan, statistics resolution, intersection and
scoring inside one ``search()`` call, with no clock between them.  To
time the layers from outside, the traced run executes each request again
as an explicit pipeline over the same public operators the engines are
built from, with a span around each call.  The staged ranking must equal
the engine's, which is what makes the stage times attributable to it.

A step with no span (building statistic specs, wrapping statistics,
assembling hits) stays in the root span's self time and is reported as
``unattributed_ms``; nothing is reached through private attributes.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.core.logical import MODE_CONTEXT, MODE_DISJUNCTIVE
from repro.core.operators import (
    ContextMaterialise,
    ExecutionContext,
    MaxScoreTopK,
    SelectiveFirstIntersect,
    ViewScan,
)
from repro.core.optimizer import PATH_VIEWS, Optimizer
from repro.core.plan import StraightforwardPlan
from repro.core.query import (
    ContextQuery,
    ContextSpecification,
    KeywordQuery,
    parse_query,
)
from repro.core.scoring import rank_candidates, score_candidates
from repro.core.sharded_engine import ShardMergePlan
from repro.core.statistics import CollectionStatistics
from repro.core.topk import TopKDiagnostics
from repro.errors import ReproError

from measure import Tracer
from pools import (
    DISJUNCTIVE_TOP_K,
    Outcome,
    Request,
    analyzed_terms,
    error_outcome,
)

Hits = List[Tuple[str, float]]
Counts = Dict[str, float]

# Span names: the module whose public function the span wraps.
ROOT = "staged"
PARSE = "core.query.parse"
ANALYZE = "index.analysis.analyze"
PLAN = "core.optimizer.plan"
VIEWS = "views.resolve"
MATERIALISE = "index.intersection.materialise"
AGGREGATE = "core.plan.aggregate"
CONJUNCTION = "index.searcher.conjunction"
RANK = "core.scoring.rank"
TOPK = "core.topk.run"
SHARD_RESOLVE = "core.sharded_engine.resolve"
SHARD_SCORE = "core.sharded_engine.score"
SHARD_MERGE = "core.sharded_engine.merge"


def attempt(
    stages, tracer: Tracer, qid, request, top_k
) -> Tuple[Outcome, Counts, float]:
    """``stages.run`` as an outcome, with its counts and milliseconds; a
    query error closes its spans."""
    t0 = time.perf_counter()
    try:
        hits, counts = stages.run(tracer, qid, request, top_k)
    except ReproError as exc:
        tracer.abandon()
        return error_outcome(exc), {}, (time.perf_counter() - t0) * 1000.0
    return ("ok", hits), counts, (time.perf_counter() - t0) * 1000.0


def _analyzed_query(tracer: Tracer, qid: int, index, text: str):
    tracer.begin(PARSE, qid)
    parsed = parse_query(text)
    tracer.end()
    tracer.begin(ANALYZE, qid)
    keywords, predicates = analyzed_terms(index, parsed)
    query = ContextQuery(
        KeywordQuery(keywords), ContextSpecification(predicates)
    )
    tracer.end()
    return query


class FlatStages:
    """The flat engine's pipeline, one public call per span."""

    def __init__(self, engine):
        index = engine.index
        self.index = index
        self.ranking = engine.ranking
        self.optimizer = Optimizer(index, engine.catalog_handle)
        self.view_scan = ViewScan(engine.catalog_handle, index)
        self.materialise = ContextMaterialise(index)
        self.plan = StraightforwardPlan(index)
        self.conjunction = SelectiveFirstIntersect(index)
        self.topk = MaxScoreTopK(index, engine.ranking)

    def run(
        self, tracer: Tracer, qid: int, request: Request, top_k=None
    ) -> Tuple[Hits, Counts]:
        """Execute one request stage by stage; returns the ranking and
        the counts read at the stage boundaries."""
        disjunctive = request.mode == MODE_DISJUNCTIVE
        mode = MODE_DISJUNCTIVE if disjunctive else MODE_CONTEXT
        tracer.begin(ROOT, qid)
        query = _analyzed_query(tracer, qid, self.index, request.text)
        specs = self.ranking.required_collection_specs(query.keywords)
        ctx = ExecutionContext()

        tracer.begin(PLAN, qid)
        plan = self.optimizer.plan(query, specs, mode=mode)
        tracer.end()

        values = result_ids = None
        if plan.chosen == PATH_VIEWS:
            tracer.begin(VIEWS, qid)
            values = self.view_scan.run(
                ctx, query, specs,
                usable=plan.candidate(PATH_VIEWS).assignment,
            )
            tracer.end()
        if values is None:
            tracer.begin(MATERIALISE, qid)
            context_ids = self.materialise.run(ctx, query.predicates)
            tracer.end()
            tracer.begin(AGGREGATE, qid)
            execution = self.plan.execute(
                query, specs, ctx.counter, context_ids=context_ids
            )
            tracer.end()
            values, result_ids = (
                execution.statistic_values, execution.result_ids
            )
        elif not disjunctive:
            tracer.begin(CONJUNCTION, qid)
            result_ids = self.conjunction.run(
                ctx, query.keywords, query.predicates
            )
            tracer.end()
        stats = CollectionStatistics.from_values(values)

        counts = {
            "views.hit": 1.0 if ctx.resolution.path == "views" else 0.0,
            "views.tuples_scanned": ctx.resolution.view_tuples_scanned,
        }
        if disjunctive:
            diagnostics = TopKDiagnostics()
            tracer.begin(TOPK, qid)
            scored = self.topk.run(
                ctx, query.keywords, query.predicates, stats,
                DISJUNCTIVE_TOP_K, diagnostics=diagnostics,
            )
            tracer.end()
            hits = [
                (self.index.store.get(s.doc_id).external_id, s.score)
                for s in scored
            ]
            counts["core.topk.candidates_scored"] = (
                diagnostics.candidates_scored
            )
            counts["core.topk.blocks_considered"] = (
                diagnostics.blocks_considered
            )
            counts["core.topk.blocks_skipped"] = diagnostics.blocks_skipped
        else:
            tracer.begin(RANK, qid)
            scored = score_candidates(
                self.index, self.ranking, query.keywords, result_ids, stats
            )
            ranked = rank_candidates(
                [(score, doc_id, ext) for doc_id, score, ext in scored], top_k
            )
            tracer.end()
            hits = [(ext, score) for score, _, ext in ranked]
            counts["core.scoring.candidates"] = len(result_ids)
        counts["index.intersection.entries_scanned"] = (
            ctx.counter.entries_scanned
        )
        counts["index.intersection.segments_skipped"] = (
            ctx.counter.segments_skipped
        )
        tracer.end()
        return hits, counts


class ShardedStages:
    """The two-phase scatter-gather driven in-process over the same
    partitions the workers serve: per-shard compute and merge, no wire."""

    def __init__(self, sharded_index, runtimes, ranking):
        self.sharded_index = sharded_index
        self.runtimes = runtimes
        self.ranking = ranking
        self.index = sharded_index.shards[0].index  # analyzers are shared

    def run(
        self, tracer: Tracer, qid: int, request: Request, top_k: int
    ) -> Tuple[Hits, Counts]:
        disjunctive = request.mode == MODE_DISJUNCTIVE
        mode = MODE_DISJUNCTIVE if disjunctive else MODE_CONTEXT
        tracer.begin(ROOT, qid)
        query = _analyzed_query(tracer, qid, self.index, request.text)
        keywords, predicates = tuple(query.keywords), tuple(query.predicates)

        tracer.begin(SHARD_MERGE, qid)
        merge = ShardMergePlan(self.ranking, mode, top_k)
        specs = merge.add_query(qid, query)
        tracer.end()

        phase1 = []
        for runtime in self.runtimes:
            tracer.begin(SHARD_RESOLVE, qid)
            if disjunctive:
                output = runtime.stats_many(
                    [(qid, keywords, predicates, specs, True, None)]
                )[0]
            else:
                output = runtime.resolve_many(
                    [(qid, keywords, predicates, specs, None)]
                )[0]
            tracer.end()
            phase1.append(output)

        tracer.begin(SHARD_MERGE, qid)
        for shard_id, output in enumerate(phase1):
            if disjunctive:
                _, values, path, predicted, counter = output
                merge.add_resolution(
                    qid, shard_id, values, path, predicted, counter
                )
            else:
                _, values, num_results, path, predicted, counter = output
                merge.add_resolution(
                    qid, shard_id, values, path, predicted, counter,
                    num_results,
                )
        error = merge.complete_resolution(qid)
        if error is not None:
            raise error
        values = merge.merged_values(qid)
        if disjunctive:
            bounds = merge.term_bounds(qid, self.sharded_index.max_tf)
            shared = {qid: merge.shared_threshold()}
        tracer.end()

        phase2 = []
        for runtime in self.runtimes:
            tracer.begin(SHARD_SCORE, qid)
            if disjunctive:
                output = runtime.topk_many(
                    [(qid, keywords, predicates, values, merge.top_k,
                      bounds, True)],
                    shared,
                )[0]
            else:
                output = runtime.score_many([(qid, values, top_k)])[0]
            tracer.end()
            phase2.append(output)

        tracer.begin(SHARD_MERGE, qid)
        for shard_id, output in enumerate(phase2):
            if disjunctive:
                _, hits, counter, diagnostics = output
                merge.add_topk(qid, shard_id, hits, counter, diagnostics, True)
            else:
                merge.add_hits(qid, output[1])
        results = merge.finish(qid)
        tracer.end()
        tracer.end()
        return [(hit.external_id, hit.score) for hit in results.hits], {}
