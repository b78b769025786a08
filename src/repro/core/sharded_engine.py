"""Parallel query execution over a sharded index, bit-identical to serial.

The sharded engine runs every evaluation mode of
:class:`~repro.core.engine.ContextSearchEngine` as a two-phase
scatter-gather over the shards of a
:class:`~repro.index.sharded.ShardedInvertedIndex`.  Sharding is a
*partitioned execution strategy over the shared planner stack*, not a
separate engine: each :class:`ShardRuntime` owns the same physical
operators (:mod:`repro.core.operators`) over its sub-index and its own
:class:`~repro.core.optimizer.Optimizer` over its per-shard catalog, so
every shard makes a local cost-based views-vs-straightforward choice and
the parent merges with :class:`~repro.core.operators.StatsMerge`:

1. **resolve** — each shard plans and answers the query's
   collection-statistic specs over *its* sub-collection and stashes its
   local unranked result;
2. **merge** — the parent sums the partial aggregates (every supported
   statistic of Table 1 is additive over documents; the one non-additive
   statistic, ``utc``, is rejected up front);
3. **score** — the merged global statistics are broadcast back and every
   shard scores its stashed candidates with them through the one shared
   scoring loop (:mod:`repro.core.scoring`).  Scores are pure functions
   of integer statistics and per-document values, so each document's
   score is the exact float the single-shard engine computes; the final
   sort on ``(-score, global docid)`` then reproduces the single-shard
   ranking including tie-breaks.

Every report carries the per-shard breakdown
(:class:`~repro.core.report.ShardReport` — chosen path, predicted cost,
observed counter per shard) and an aggregate
:class:`~repro.core.optimizer.ExplainedPlan` whose ``shard_choices``
record each shard's decision (``cli explain`` prints both).

Disjunctive top-k additionally shares an adaptive threshold
(:class:`~repro.core.topk.SharedTopKThreshold`) across shards and hands
all shards the *global* per-term score bounds, so per-shard MaxScore
prunes identically to (and merges bit-identically with) the single-shard
scorer.

Three execution backends: ``serial`` (in-process loop), ``thread``
(pool; parallel I/O but GIL-bound for pure-python scan work), ``fork``
(one dedicated forked worker process per shard — true CPU parallelism;
the default where ``fork`` is available).  Backends never change
results, only wall-clock.

Known limitation: :class:`~repro.core.stats_cache.CachingSearchEngine`
wraps ``ContextSearchEngine`` internals and cannot wrap this engine;
sharded deployments should cache at a layer above ``search_many``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import EmptyContextError, QueryError, ReproError
from ..index.postings import CostCounter
from ..index.sharded import IndexShard, ShardedInvertedIndex
from ..views.catalog import ViewCatalog
from .backend import VersionAuthority, VersionVector
from .engine import (
    BatchOutcome,
    BatchReport,
    ExecutionReport,
    SearchHit,
    SearchResults,
)
from .logical import MODE_CONTEXT, MODE_CONVENTIONAL, MODE_DISJUNCTIVE, compile_query
from .operators import (
    ExecutionContext,
    MaxScoreTopK,
    SelectiveFirstIntersect,
    StatsMerge,
    StraightforwardResolve,
    ViewScan,
)
from .optimizer import (
    FORCEABLE_PATHS,
    PATH_AUTO,
    PATH_PER_SHARD,
    PATH_VIEWS,
    ExplainedPlan,
    Optimizer,
    PathCandidate,
    selective_first_bound,
)
from .query import (
    ContextQuery,
    ContextSpecification,
    KeywordQuery,
    analyze_keyword,
    analyze_query,
    parse_query,
)
from .ranking import DEFAULT_RANKING_FUNCTION, RankingFunction
from .report import ShardReport
from .scoring import rank_candidates, score_candidates
from .statistics import (
    TERM_COUNT,
    CollectionStatistics,
    QueryStatistics,
    StatisticSpec,
)
from .topk import SharedTopKThreshold

# A scored candidate crossing the shard boundary: (score, global docid,
# external id).  Sorting tuples of this shape on (-score, gid) is the
# single-shard (-score, doc_id) order because gid IS the single-shard
# internal docid.
_Hit = Tuple[float, int, str]


class ShardRuntime:
    """Everything one shard needs to evaluate its slice of a query.

    One planner stack per shard: the runtime's :class:`Optimizer` plans
    over the shard's sub-index and per-shard catalog, and the physical
    operators it drives are the same classes the flat engine drives —
    there is no shard-specific resolution or scoring code.

    Lives on both sides of the process boundary: the parent builds the
    runtimes, and the fork backend's per-shard worker inherits them via
    the module registry.  Phase-1 calls stash the shard's local result
    set keyed by query id; the matching phase-2 call pops it — which is
    why the fork backend dedicates one worker process per shard (both
    phases of a shard must land in the same address space).
    """

    def __init__(
        self,
        shard: IndexShard,
        ranking: RankingFunction,
        catalog: Optional[ViewCatalog],
        use_skips: bool = True,
    ):
        from ..views.handle import CatalogHandle

        self.shard_id = shard.shard_id
        self.index = shard.index
        self.global_ids = shard.global_ids
        self.ranking = ranking
        # One swappable handle per shard, shared by this runtime's
        # optimizer and view-scan operator: the parent's catalog hot-swap
        # retargets both with a single assignment.
        self.catalog_handle = CatalogHandle.ensure(catalog)
        self.optimizer = Optimizer(shard.index, self.catalog_handle)
        self._op_conjunction = SelectiveFirstIntersect(
            shard.index, use_skips=use_skips
        )
        self._op_view_scan = ViewScan(
            self.catalog_handle, shard.index, use_skips=use_skips
        )
        self._op_straightforward = StraightforwardResolve(
            shard.index, use_skips=use_skips
        )
        self._op_topk = MaxScoreTopK(shard.index, ranking)
        # Back-compat handles (diagnostics and older call sites).
        self.searcher = self._op_conjunction.searcher
        self.plan = self._op_straightforward.plan
        self._stash: Dict[int, Tuple[Tuple[str, ...], List[int]]] = {}

    @property
    def catalog(self) -> Optional[ViewCatalog]:
        """This shard's current catalog, read through its handle."""
        return self.catalog_handle.catalog

    # -- phase 1: per-shard statistics ----------------------------------

    def resolve_many(self, tasks: Sequence[tuple]) -> List[tuple]:
        """Plan, resolve statistics, and stash the local conjunctive result.

        ``tasks``: ``(qid, keywords, predicates, specs, force)`` per
        query (``force`` pins the path shard-locally when feasible).
        Returns ``(qid, values, num_results, path, predicted, counter)``;
        an empty local context yields all-zero values (the additive
        identity) and an empty result — the *global* emptiness check
        happens after the merge, in the parent.
        """
        out = []
        for qid, keywords, predicates, specs, force in tasks:
            counter = CostCounter()
            ctx = ExecutionContext(counter=counter)
            query = _rebuild_query(keywords, predicates)
            plan = self._plan(query, specs, MODE_CONTEXT, force)
            try:
                values, result_ids = self._execute_resolution(
                    ctx, plan, query, specs
                )
                path = ctx.resolution.path
            except EmptyContextError:
                values = StatsMerge.zero(specs)
                result_ids = []
                path = "straightforward"
            self._stash[qid] = (tuple(keywords), result_ids)
            out.append(
                (qid, values, len(result_ids), path, plan.predicted_cost, counter)
            )
        return out

    def stats_many(self, tasks: Sequence[tuple]) -> List[tuple]:
        """Statistics only (no result stash) — disjunctive & diagnostics.

        ``tasks``: ``(qid, keywords, predicates, specs, use_views, force)``
        (``use_views=False`` bypasses the optimizer entirely: the
        straightforward plan is the ground truth diagnostics compare
        views against).  Returns ``(qid, values, path, predicted, counter)``.
        """
        out = []
        for qid, keywords, predicates, specs, use_views, force in tasks:
            counter = CostCounter()
            ctx = ExecutionContext(counter=counter)
            query = _rebuild_query(keywords, predicates)
            predicted = 0
            try:
                if use_views:
                    plan = self._plan(query, specs, MODE_DISJUNCTIVE, force)
                    predicted = plan.predicted_cost
                    values, _ = self._execute_resolution(
                        ctx, plan, query, specs, want_result=False
                    )
                    path = ctx.resolution.path
                else:
                    execution = self.plan.execute(query, specs, counter)
                    values, path = execution.statistic_values, "straightforward"
            except EmptyContextError:
                values = StatsMerge.zero(specs)
                path = "straightforward"
            out.append((qid, values, path, predicted, counter))
        return out

    # -- phase 2: scoring with merged global statistics -----------------

    def score_many(self, tasks: Sequence[tuple]) -> List[tuple]:
        """Score the stashed results under merged statistics.

        ``tasks``: ``(qid, values, top_k)``; ``values=None`` means the
        query died in the merge (globally empty context) and the stash
        entry is just discarded.  Returns ``(qid, hits)`` with hits
        sorted ``(-score, gid)`` and truncated to ``top_k`` — any global
        top-k document is necessarily in its shard's local top-k, so
        truncation loses nothing.
        """
        out = []
        for qid, values, top_k in tasks:
            keywords, result_ids = self._stash.pop(qid, ((), []))
            if values is None:
                continue
            stats = CollectionStatistics.from_values(values)
            hits = self._score(keywords, result_ids, stats, top_k)
            out.append((qid, hits))
        return out

    # -- stateless variants (the wire path) ------------------------------

    def resolve_stateless(
        self,
        qid: int,
        keywords: Tuple[str, ...],
        predicates: Tuple[str, ...],
        specs: Tuple[StatisticSpec, ...],
        force: Optional[str],
    ) -> Tuple[tuple, List[int]]:
        """One phase-1 resolution with the local result *returned*, not
        stashed.  The cluster's shard workers use this shape: candidates
        travel to the router and back, so phase 2 can land on any
        replica of the group (replicas are bit-identical copies, so
        local docids agree) — failover between phases is then trivially
        correct, where the in-process stash requires process affinity.
        """
        out = self.resolve_many([(qid, keywords, predicates, specs, force)])[0]
        _, result_ids = self._stash.pop(qid)
        return out, list(result_ids)

    def score_stateless(
        self,
        keywords: Sequence[str],
        result_ids: Sequence[int],
        values: Dict[StatisticSpec, float],
        top_k: Optional[int],
    ) -> List[_Hit]:
        """Phase-2 scoring for candidates shipped with the task."""
        stats = CollectionStatistics.from_values(values)
        return self._score(keywords, result_ids, stats, top_k)

    def conventional_many(self, tasks: Sequence[tuple]) -> List[tuple]:
        """Single-phase conventional baseline ``Q_t = Q_k ∪ P``.

        Whole-collection statistics do not depend on per-shard work, so
        the parent precomputes them and one dispatch both filters and
        scores.  ``tasks``: ``(qid, keywords, predicates, stats, top_k)``.
        Returns ``(qid, hits, num_results, predicted, counter)``.
        """
        out = []
        for qid, keywords, predicates, stats, top_k in tasks:
            counter = CostCounter()
            ctx = ExecutionContext(counter=counter)
            predicted = selective_first_bound(self.index, keywords, predicates)
            result_ids = self._op_conjunction.run(
                ctx, list(keywords), list(predicates)
            )
            hits = self._score(keywords, result_ids, stats, top_k)
            out.append((qid, hits, len(result_ids), predicted, counter))
        return out

    def topk_many(
        self,
        tasks: Sequence[tuple],
        shared_by_qid: Optional[Dict[int, SharedTopKThreshold]] = None,
    ) -> List[tuple]:
        """Per-shard disjunctive MaxScore with globally shared bounds.

        ``tasks``: ``(qid, keywords, predicates, values, k, term_bounds,
        block_max)``.  ``term_bounds`` are computed by the parent from
        *global* max tf, so every shard's scorer orders and prunes
        against the same bounds the single-shard scorer would; with
        ``block_max`` each shard additionally derives per-block bounds
        from its local block max-tf metadata (capped by the global term
        bounds — a pure local pruning accelerator).  ``shared_by_qid``
        carries live :class:`SharedTopKThreshold` objects when shards
        run in the same address space (serial/thread backends); the fork
        backend omits it — threshold sharing is a pruning accelerator,
        never a correctness requirement.  Returns ``(qid, hits, counter,
        topk_diag)`` with ``topk_diag`` the shard's
        :class:`~repro.core.topk.TopKDiagnostics` as a plain dict.
        """
        from .topk import TopKDiagnostics

        out = []
        for qid, keywords, predicates, values, k, term_bounds, block_max in tasks:
            counter = CostCounter()
            ctx = ExecutionContext(counter=counter)
            if values is None:
                continue
            stats = CollectionStatistics.from_values(values)
            shared = shared_by_qid.get(qid) if shared_by_qid else None
            diagnostics = TopKDiagnostics()
            scored = self._op_topk.run(
                ctx,
                keywords,
                predicates,
                stats,
                k,
                term_bounds=term_bounds,
                shared=shared,
                diagnostics=diagnostics,
                block_max=block_max,
            )
            hits = [
                (
                    s.score,
                    self.global_ids[s.doc_id],
                    self.index.store.get(s.doc_id).external_id,
                )
                for s in scored
            ]
            out.append((qid, hits, counter, diagnostics.to_dict()))
        return out

    # -- internals ------------------------------------------------------

    def _plan(
        self,
        query: ContextQuery,
        specs: Sequence[StatisticSpec],
        mode: str,
        force: Optional[str],
    ) -> ExplainedPlan:
        """Shard-local path choice.

        A forced path that is infeasible on *this* shard (its catalog
        may cover less than a sibling's) falls back to cost-based choice
        rather than failing the whole batch — the parent has already
        validated that the force is globally satisfiable, and per-shard
        fallback never changes results.
        """
        try:
            return self.optimizer.plan(query, specs, mode=mode, force=force)
        except QueryError:
            if force in (None, PATH_AUTO):
                raise
            return self.optimizer.plan(query, specs, mode=mode)

    def _execute_resolution(
        self,
        ctx: ExecutionContext,
        plan: ExplainedPlan,
        query: ContextQuery,
        specs: Sequence[StatisticSpec],
        want_result: bool = True,
    ) -> Tuple[Dict[StatisticSpec, float], List[int]]:
        """Run the planned path through the shared operators."""
        if plan.chosen == PATH_VIEWS:
            chosen = plan.candidate(PATH_VIEWS)
            values = self._op_view_scan.run(
                ctx, query, specs, usable=chosen.assignment if chosen else None
            )
            if values is not None:
                result_ids = (
                    self._op_conjunction.run(
                        ctx, query.keywords, query.predicates
                    )
                    if want_result
                    else []
                )
                return values, result_ids
        execution = self._op_straightforward.run(ctx, query, specs)
        return execution.statistic_values, execution.result_ids

    def _score(
        self,
        keywords: Sequence[str],
        result_ids: Sequence[int],
        stats: CollectionStatistics,
        top_k: Optional[int],
    ) -> List[_Hit]:
        """The shared scoring loop with global ids in the sort key."""
        scored = score_candidates(
            self.index, self.ranking, list(keywords), result_ids, stats
        )
        return rank_candidates(
            [
                (score, self.global_ids[doc_id], ext)
                for doc_id, score, ext in scored
            ],
            top_k,
        )


def _rebuild_query(
    keywords: Sequence[str], predicates: Sequence[str]
) -> ContextQuery:
    """Reassemble an analysed query shipped across the shard boundary."""
    return ContextQuery(
        KeywordQuery(list(keywords)), ContextSpecification(list(predicates))
    )


# -- transport-agnostic merge --------------------------------------------------


class _QueryMerge:
    """Per-query accumulation state inside a :class:`ShardMergePlan`."""

    __slots__ = (
        "query", "specs", "values", "report", "paths", "result_size", "hits",
    )

    def __init__(self, query, specs, values, report):
        self.query = query
        self.specs = specs
        self.values = values
        self.report = report
        self.paths: set = set()
        self.result_size = 0
        self.hits: List[_Hit] = []


class ShardMergePlan:
    """Everything rank-affecting about merging per-shard scatter output.

    Both gather transports drive one of these per batch and feed it the
    same runtime output tuples: the in-process :class:`ShardedEngine`
    backends straight from :class:`ShardRuntime`, the cluster router
    (:mod:`repro.service.cluster`) as decoded from worker replies.
    Additive :class:`StatsMerge` accumulation, the global
    context-emptiness check, global per-term score bounds, the shared
    top-k threshold construction, and the final ``(-score, gid)`` rank
    all live here — so the local and over-the-wire paths cannot
    drift apart: identical shard outputs merge to bit-identical
    rankings regardless of transport.

    The caller owns dispatch and failure bookkeeping; this object owns
    merge state keyed by query id.  Calls per query, by mode:

    - context: ``add_query`` → ``add_resolution``\\* → ``complete_resolution``
      → ``add_hits``\\* → ``finish``
    - conventional: ``add_query`` → ``add_conventional``\\* → ``finish``
    - disjunctive: ``add_query`` → ``add_resolution``\\* →
      ``complete_resolution`` → ``term_bounds`` → ``add_topk``\\* → ``finish``

    Shard outputs must be fed in ascending shard order (both transports
    gather everything, then fold 0..N-1) so reports are deterministic;
    the merged statistics are integer sums and the final sort key is
    total, so rankings do not depend on fold order.
    """

    def __init__(
        self,
        ranking: RankingFunction,
        mode: str,
        top_k: Optional[int],
        forced: bool = False,
    ):
        if mode not in (MODE_CONTEXT, MODE_CONVENTIONAL, MODE_DISJUNCTIVE):
            raise QueryError(f"unknown batch mode: {mode!r}")
        self.ranking = ranking
        self.mode = mode
        # Disjunctive top-k has no "all results" shape; default k=10
        # exactly as the single-shard engine does.
        self.top_k = (
            (10 if top_k is None else top_k)
            if mode == MODE_DISJUNCTIVE
            else top_k
        )
        self.forced = forced
        self._queries: Dict[int, _QueryMerge] = {}

    # -- registration ----------------------------------------------------

    def add_query(
        self, qid: int, query: ContextQuery
    ) -> Tuple[StatisticSpec, ...]:
        """Register one analysed query and return its additive spec tuple.

        Raises :class:`QueryError` for statistic specs that cannot merge
        additively and for disjunctive mode under a non-decomposable
        ranking model — the same validation whichever transport runs it.
        """
        if self.mode == MODE_DISJUNCTIVE and not self.ranking.decomposable:
            raise QueryError(
                f"ranking model {self.ranking.name!r} does not support "
                "MaxScore pruning (non-zero score for absent terms)"
            )
        specs: Tuple[StatisticSpec, ...] = ()
        if self.mode != MODE_CONVENTIONAL:
            specs = tuple(
                self.ranking.required_collection_specs(query.keywords)
            )
            StatsMerge.check_additive(specs)
        report = ExecutionReport(per_shard=[])
        spec_list = list(specs)
        mode, top_k = self.mode, self.top_k
        report.plan = ExplainedPlan(
            logical=lambda: compile_query(query, spec_list, mode, top_k),
            candidates=[PathCandidate(PATH_PER_SHARD, True, 0)],
            chosen=PATH_PER_SHARD,
            forced=self.forced,
            shard_choices=[],
        )
        report.plan.actual = report.counter
        if self.mode == MODE_CONVENTIONAL:
            report.resolution.path = "conventional"
        self._queries[qid] = _QueryMerge(
            query, specs, StatsMerge.zero(specs), report
        )
        return specs

    def specs(self, qid: int) -> Tuple[StatisticSpec, ...]:
        return self._queries[qid].specs

    def query(self, qid: int) -> ContextQuery:
        return self._queries[qid].query

    # -- phase 1: additive statistics ------------------------------------

    def add_resolution(
        self,
        qid: int,
        shard_id: int,
        values: Dict[StatisticSpec, float],
        path: str,
        predicted: int,
        counter: CostCounter,
        num_results: int = 0,
    ) -> None:
        """Fold one shard's phase-1 slice: partial aggregates + report."""
        state = self._queries[qid]
        StatsMerge.accumulate(state.values, values)
        state.result_size += num_results
        state.paths.add(path)
        self._record_shard(
            state.report, shard_id, path, predicted, num_results, counter
        )

    def complete_resolution(self, qid: int) -> Optional[EmptyContextError]:
        """The global emptiness check, after every shard has reported.

        Returns the :class:`EmptyContextError` the caller should record
        (a locally empty shard contributes the additive identity, so
        only the *merged* cardinality decides), or ``None`` with the
        report's context size and resolution path filled in.
        """
        state = self._queries[qid]
        cardinality = StatsMerge.cardinality_of(state.values, state.specs)
        if cardinality <= 0:
            return EmptyContextError(
                f"context {state.query.context} matches no documents"
            )
        state.report.context_size = cardinality
        if self.mode == MODE_CONTEXT:
            state.report.result_size = state.result_size
        state.report.resolution.path = _merge_paths(state.paths)
        return None

    def merged_values(self, qid: int) -> Dict[StatisticSpec, float]:
        """The merged additive statistic values (broadcast in phase 2)."""
        return self._queries[qid].values

    def merged_statistics(self, qid: int) -> CollectionStatistics:
        return CollectionStatistics.from_values(self._queries[qid].values)

    def term_bounds(self, qid: int, max_tf_of) -> Dict[str, float]:
        """Global per-term score upper bounds for every shard's scorer.

        ``max_tf_of(term)`` must return the *collection-wide* max term
        frequency (the sharded index's accessor locally; the max over
        per-shard maxima at the router — the same integer).  Identical
        bounds give every shard the same term ordering, hence the same
        per-document float summation order, hence bit-identical scores.
        """
        state = self._queries[qid]
        stats = CollectionStatistics.from_values(state.values)
        query_stats = QueryStatistics.from_keywords(state.query.keywords)
        bounds: Dict[str, float] = {}
        for term in dict.fromkeys(state.query.keywords):
            max_tf = max_tf_of(term)
            if max_tf > 0:
                bounds[term] = self.ranking.term_upper_bound(
                    term, max_tf, query_stats, stats
                )
        return bounds

    def shared_threshold(self) -> SharedTopKThreshold:
        """A live cross-shard threshold (same-address-space gathers only;
        a pruning accelerator, never a correctness requirement)."""
        return SharedTopKThreshold(self.top_k if self.top_k else 10)

    @staticmethod
    def merge_collection_stats(parts: Sequence[dict]) -> CollectionStatistics:
        """Exact additive merge of per-shard whole-collection statistics
        (conventional mode).  ``parts`` hold ``num_docs``,
        ``total_length``, and per-term ``df``/``tc`` integer maps; sums
        over shards equal the single-shard accessors exactly."""
        df: Dict[str, int] = {}
        tc: Dict[str, int] = {}
        num_docs = 0
        total_length = 0
        for part in parts:
            num_docs += int(part["num_docs"])
            total_length += int(part["total_length"])
            for term, count in part.get("df", {}).items():
                df[term] = df.get(term, 0) + int(count)
            for term, count in part.get("tc", {}).items():
                tc[term] = tc.get(term, 0) + int(count)
        return CollectionStatistics(
            cardinality=num_docs, total_length=total_length, df=df, tc=tc
        )

    # -- phase 2: scored candidates --------------------------------------

    def add_hits(self, qid: int, hits: Sequence[_Hit]) -> None:
        """Context mode: one shard's scored candidates (report already
        folded in phase 1)."""
        self._queries[qid].hits.extend(hits)

    def add_conventional(
        self,
        qid: int,
        shard_id: int,
        hits: Sequence[_Hit],
        num_results: int,
        predicted: int,
        counter: CostCounter,
    ) -> None:
        """Conventional mode's single phase: hits + per-shard report."""
        state = self._queries[qid]
        state.hits.extend(hits)
        state.report.result_size += num_results
        self._record_shard(
            state.report, shard_id, "conventional", predicted, num_results,
            counter,
        )

    def add_topk(
        self,
        qid: int,
        shard_id: int,
        hits: Sequence[_Hit],
        counter: CostCounter,
        topk_diag: dict,
        block_max: bool,
    ) -> None:
        """Disjunctive phase 2: per-shard top-k hits + summed diagnostics."""
        state = self._queries[qid]
        state.hits.extend(hits)
        report = state.report
        report.counter.merge(counter)
        report.per_shard[shard_id].counter.merge(counter)
        report.per_shard[shard_id].result_size += len(hits)
        if report.topk is None:
            report.topk = dict(topk_diag, block_max=block_max)
        else:
            for key, value in topk_diag.items():
                report.topk[key] += value

    def finish(self, qid: int) -> SearchResults:
        """Rank the merged candidates — the single sort both transports
        share: ``(-score, gid)`` reproduces single-shard tie-breaks."""
        state = self._queries.pop(qid)
        hits = rank_candidates(state.hits, self.top_k)
        if self.mode == MODE_DISJUNCTIVE:
            state.report.result_size = len(hits)
        return SearchResults(
            hits=[
                SearchHit(doc_id=gid, external_id=ext, score=score)
                for score, gid, ext in hits
            ],
            report=state.report,
        )

    # -- internals -------------------------------------------------------

    @staticmethod
    def _record_shard(
        report: ExecutionReport,
        shard_id: int,
        path: str,
        predicted: int,
        num_results: int,
        counter: CostCounter,
    ) -> None:
        """Fold one shard's slice into the parent report and plan."""
        report.counter.merge(counter)
        report.per_shard.append(
            ShardReport(
                shard_id=shard_id,
                path=path,
                predicted_cost=predicted,
                result_size=num_results,
                counter=counter,
            )
        )
        plan = report.plan
        plan.shard_choices.append((shard_id, path, predicted))
        plan.candidates[0].predicted_cost += predicted


# -- execution backends --------------------------------------------------------


class _SerialBackend:
    """Run every shard's slice in the calling thread (reference backend)."""

    name = "serial"
    shares_memory = True

    def __init__(self, runtimes: Sequence[ShardRuntime], max_workers=None):
        self._runtimes = list(runtimes)

    def map(self, method: str, payloads: Sequence[list], **kwargs) -> List[list]:
        return [
            getattr(runtime, method)(payload, **kwargs)
            for runtime, payload in zip(self._runtimes, payloads)
        ]

    def close(self) -> None:
        pass


class _ThreadBackend:
    """One pool thread per shard slice; shards share the parent's memory."""

    name = "thread"
    shares_memory = True

    def __init__(
        self, runtimes: Sequence[ShardRuntime], max_workers: Optional[int] = None
    ):
        self._runtimes = list(runtimes)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers or len(self._runtimes)
        )

    def map(self, method: str, payloads: Sequence[list], **kwargs) -> List[list]:
        futures = [
            self._pool.submit(getattr(runtime, method), payload, **kwargs)
            for runtime, payload in zip(self._runtimes, payloads)
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        self._pool.shutdown(wait=True)


# Fork-backend plumbing: workers inherit the parent's runtimes through this
# module-level registry, captured at fork time.  Entries are registered
# BEFORE any worker process exists and the runtimes' index state is
# immutable afterwards, so parent and children stay consistent; only the
# per-query stash diverges, and it lives exclusively in the worker.
_FORK_REGISTRY: Dict[int, List[ShardRuntime]] = {}
_FORK_KEYS = itertools.count()


def _fork_call(key: int, shard_id: int, method: str, payload: list) -> list:
    runtime = _FORK_REGISTRY[key][shard_id]
    return getattr(runtime, method)(payload)


def fork_available() -> bool:
    """Whether the copy-on-write fork backend can run on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


class _ForkBackend:
    """One dedicated forked worker process per shard.

    Dedicated (max_workers=1) executors give each shard task affinity:
    phase 1 and phase 2 of the same shard always execute in the same
    process, which the cross-phase stash requires.  Fork (not spawn)
    start: children get the built indexes by copy-on-write page sharing
    instead of pickling gigabytes of postings.
    """

    name = "fork"
    shares_memory = False

    def __init__(
        self, runtimes: Sequence[ShardRuntime], max_workers=None
    ):
        if not fork_available():
            raise QueryError("fork start method unavailable on this platform")
        self._key = next(_FORK_KEYS)
        _FORK_REGISTRY[self._key] = list(runtimes)
        context = multiprocessing.get_context("fork")
        self._pools = [
            ProcessPoolExecutor(max_workers=1, mp_context=context)
            for _ in runtimes
        ]

    def map(self, method: str, payloads: Sequence[list], **kwargs) -> List[list]:
        # kwargs carry live in-memory objects (shared thresholds) that
        # cannot cross a process boundary; callers never pass them to this
        # backend, and dropping them is always result-preserving.
        futures = [
            pool.submit(_fork_call, self._key, shard_id, method, payload)
            for shard_id, (pool, payload) in enumerate(zip(self._pools, payloads))
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)
        _FORK_REGISTRY.pop(self._key, None)


_BACKENDS = {
    "serial": _SerialBackend,
    "thread": _ThreadBackend,
    "fork": _ForkBackend,
}


def _pick_backend(executor: str):
    if executor == "auto":
        return _ForkBackend if fork_available() else _ThreadBackend
    cls = _BACKENDS.get(executor)
    if cls is None:
        raise QueryError(
            f"unknown executor {executor!r} (have auto, {sorted(_BACKENDS)})"
        )
    return cls


# -- the engine ----------------------------------------------------------------


class ShardedEngine:
    """Context-sensitive search over a sharded index, results bit-identical
    to :class:`~repro.core.engine.ContextSearchEngine` on the same corpus.

    ``catalogs`` (optional) is one :class:`ViewCatalog` per shard — see
    :func:`repro.views.sharding.materialize_sharded_catalogs`.  ``executor``
    selects the backend (``auto``/``serial``/``thread``/``fork``); call
    :meth:`close` (or use as a context manager) to release worker pools.
    """

    def __init__(
        self,
        sharded_index: ShardedInvertedIndex,
        ranking: Optional[RankingFunction] = None,
        catalogs: Optional[Sequence[Optional[ViewCatalog]]] = None,
        executor: str = "auto",
        max_workers: Optional[int] = None,
        use_skips: bool = True,
    ):
        if not sharded_index.committed:
            raise QueryError("all shards must be committed before searching")
        if catalogs is not None and len(catalogs) != sharded_index.num_shards:
            raise QueryError(
                f"{len(catalogs)} catalogs for {sharded_index.num_shards} shards"
            )
        self.sharded_index = sharded_index
        self.ranking = ranking if ranking is not None else DEFAULT_RANKING_FUNCTION
        self.runtimes = [
            ShardRuntime(
                shard,
                self.ranking,
                catalogs[i] if catalogs is not None else None,
                use_skips=use_skips,
            )
            for i, shard in enumerate(sharded_index.shards)
        ]
        self._backend = _pick_backend(executor)(self.runtimes, max_workers)
        self._authority = VersionAuthority(
            epoch_source=lambda: self.sharded_index.epoch
        )
        self.last_reselection: Optional[dict] = None
        self._global_tc_cache: Dict[str, int] = {}
        # Analyzers are configuration, identical across shards; shard 0's
        # stand in for the collection's.
        self._analyzer = sharded_index.shards[0].index.analyzer
        self._predicate_analyzer = sharded_index.shards[0].index.predicate_analyzer

    # -- lifecycle ------------------------------------------------------

    @property
    def executor_name(self) -> str:
        return self._backend.name

    @property
    def epoch(self) -> int:
        """Global mutation counter over all shard sub-indexes."""
        return self.sharded_index.epoch

    @property
    def catalog_generation(self) -> int:
        """How many hot-swaps the per-shard catalogs have seen."""
        return self._authority.catalog_generation

    @property
    def version(self) -> VersionVector:
        """The engine's :class:`~repro.core.backend.VersionVector`."""
        return self._authority.vector()

    @property
    def supports_hot_swap(self) -> bool:
        """Fork workers hold copy-on-write runtimes captured at fork
        time — a parent-side swap can never reach them, so that shape
        refuses hot-swaps loudly rather than serve a stale catalog."""
        return self._backend.shares_memory

    # The adaptive controller must not reselect over a shard's partial
    # index: view definitions are chosen against whole-collection
    # statistics (then materialised per shard), so it needs the original
    # unsharded index.
    needs_reference_index = True

    def install_catalog(
        self,
        catalog: Union[ViewCatalog, Sequence[Optional[ViewCatalog]], None],
        info: Optional[dict] = None,
        generation: Optional[int] = None,
    ) -> int:
        """Atomically install a catalog across all shards.

        ``catalog`` may be a whole-collection :class:`ViewCatalog` (its
        view *definitions* are re-materialised per shard — exact because
        df/tc aggregate distributively over shards), a sequence of one
        pre-materialised catalog per shard, or ``None`` to drop every
        shard's catalog.  Bumps and returns the catalog generation.
        """
        if not self.supports_hot_swap:
            raise QueryError(
                f"catalog hot-swap is not supported on the "
                f"{self._backend.name!r} executor: forked shard workers "
                "hold copy-on-write runtimes captured at fork time and "
                "would keep serving the old catalog (use the serial or "
                "thread executor for adaptive selection)"
            )
        if isinstance(catalog, ViewCatalog):
            from ..views.sharding import (
                catalog_definitions,
                materialize_sharded_catalogs,
            )

            catalogs: Optional[Sequence[Optional[ViewCatalog]]] = (
                materialize_sharded_catalogs(
                    self.sharded_index, catalog_definitions(catalog)
                )
            )
        else:
            catalogs = catalog
        if catalogs is not None and len(catalogs) != self.sharded_index.num_shards:
            raise QueryError(
                f"{len(catalogs)} catalogs for {self.sharded_index.num_shards} shards"
            )
        for i, runtime in enumerate(self.runtimes):
            runtime.catalog_handle.swap(
                catalogs[i] if catalogs is not None else None
            )
        self.last_reselection = dict(info) if info else None
        return self._authority.bump_catalog(generation)

    def swap_catalogs(
        self, catalogs: Optional[Sequence[Optional[ViewCatalog]]]
    ) -> int:
        """Deprecated alias for :meth:`install_catalog` with one
        pre-materialised catalog per shard."""
        return self.install_catalog(catalogs)

    def close(self) -> None:
        """Release backend worker pools and shard index resources
        (idempotent)."""
        self._backend.close()
        closer = getattr(self.sharded_index, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public API -----------------------------------------------------

    def search(
        self,
        query: Union[ContextQuery, str],
        top_k: Optional[int] = None,
        path: str = PATH_AUTO,
    ) -> SearchResults:
        """Context-sensitive ``Q_c = Q_k | P`` across all shards.

        ``path`` forces each shard's physical path where feasible
        (shards whose catalog cannot serve a forced ``views`` path fall
        back locally); forcing never changes results.
        """
        return self._single(query, top_k, "context", path)

    def search_conventional(
        self, query: Union[ContextQuery, str], top_k: Optional[int] = None
    ) -> SearchResults:
        """The conventional baseline ``Q_t = Q_k ∪ P`` across all shards."""
        return self._single(query, top_k, "conventional")

    def search_disjunctive(
        self,
        query: Union[ContextQuery, str],
        top_k: int = 10,
        path: str = PATH_AUTO,
        block_max: bool = True,
    ) -> SearchResults:
        """OR-semantics context-sensitive top-k across all shards."""
        return self._single(query, top_k, "disjunctive", path, block_max)

    def explain(
        self,
        query: Union[ContextQuery, str],
        top_k: Optional[int] = None,
        mode: str = MODE_CONTEXT,
        path: str = PATH_AUTO,
        block_max: bool = True,
    ) -> SearchResults:
        """Evaluate and return results whose report carries the aggregate
        plan (per-shard choices, predicted vs. actual counts)."""
        if mode == MODE_CONVENTIONAL:
            return self.search_conventional(query, top_k=top_k)
        if mode == MODE_DISJUNCTIVE:
            return self.search_disjunctive(
                query,
                top_k=top_k if top_k is not None else 10,
                path=path,
                block_max=block_max,
            )
        return self.search(query, top_k=top_k, path=path)

    def search_many(
        self,
        queries: Iterable[Union[ContextQuery, str]],
        top_k: Optional[int] = None,
        mode: str = "context",
        path: str = PATH_AUTO,
        block_max: bool = True,
    ) -> BatchReport:
        """Evaluate a workload with one scatter-gather round per phase.

        The batch shape is what makes sharding pay at serving time: a
        batch of B queries costs two dispatches per shard (one per phase),
        not 2·B, so per-task overhead amortises across the workload.
        Outcomes come back in input order; per-query failures (empty
        context, stopword-only keywords, …) are recorded, never raised.
        """
        if mode not in ("context", "conventional", "disjunctive"):
            raise QueryError(f"unknown batch mode: {mode!r}")
        queries = list(queries)
        started = time.perf_counter()
        results = self._execute_batch(queries, top_k, mode, path, block_max)
        elapsed = time.perf_counter() - started
        outcomes = []
        for query, result in zip(queries, results):
            text = query if isinstance(query, str) else str(query)
            if isinstance(result, ReproError):
                outcomes.append(
                    BatchOutcome(
                        query=text, error=f"{type(result).__name__}: {result}"
                    )
                )
            else:
                outcomes.append(BatchOutcome(query=text, results=result))
        return BatchReport(
            outcomes=outcomes,
            mode=mode,
            workers=self.sharded_index.num_shards,
            elapsed_seconds=elapsed,
        )

    def context_statistics(
        self,
        context: Union[ContextSpecification, Sequence[str]],
        keywords: Sequence[str] = (),
    ) -> CollectionStatistics:
        """Merged global context statistics (straightforward plan, no views)."""
        if not isinstance(context, ContextSpecification):
            context = ContextSpecification(context)
        analyzed = [analyze_keyword(self._analyzer, w) for w in keywords]
        keywords = analyzed or ["__none__"]
        specs = self.ranking.required_collection_specs(keywords)
        StatsMerge.check_additive(specs)
        tasks = [
            (0, tuple(keywords), tuple(context.predicates), tuple(specs), False, None)
        ]
        shard_outputs = self._backend.map(
            "stats_many", [list(tasks)] * self.sharded_index.num_shards
        )
        merged = StatsMerge.merge([out[0][1] for out in shard_outputs], specs)
        if StatsMerge.cardinality_of(merged, specs) <= 0:
            raise EmptyContextError(f"context {context} matches no documents")
        return CollectionStatistics.from_values(merged)

    # -- batch execution internals --------------------------------------

    def _single(
        self,
        query: Union[ContextQuery, str],
        top_k: Optional[int],
        mode: str,
        path: str = PATH_AUTO,
        block_max: bool = True,
    ) -> SearchResults:
        result = self._execute_batch([query], top_k, mode, path, block_max)[0]
        if isinstance(result, ReproError):
            raise result
        return result

    def _validate_path(self, path: str) -> Optional[str]:
        """Parent-side force validation (shards then apply it locally)."""
        if path in (None, PATH_AUTO):
            return None
        if path not in FORCEABLE_PATHS:
            raise QueryError(
                f"unknown path {path!r} (have {PATH_AUTO}, "
                f"{', '.join(FORCEABLE_PATHS)})"
            )
        if path == PATH_VIEWS and all(
            runtime.catalog is None or len(runtime.catalog) == 0
            for runtime in self.runtimes
        ):
            raise QueryError(
                "path 'views' is not available: no shard has a view catalog"
            )
        return path

    def _execute_batch(
        self,
        queries: Sequence[Union[ContextQuery, str]],
        top_k: Optional[int],
        mode: str,
        path: str = PATH_AUTO,
        block_max: bool = True,
    ) -> List[Union[SearchResults, ReproError]]:
        started = time.perf_counter()
        force = self._validate_path(path)
        num_shards = self.sharded_index.num_shards
        results: List[Optional[Union[SearchResults, ReproError]]] = [None] * len(
            queries
        )

        # Parse + analyse in the parent; failures claim their slot now.
        # All merge state for the batch lives in the shared plan object.
        plan = ShardMergePlan(
            self.ranking, mode, top_k, forced=force is not None
        )
        analyzed: Dict[int, ContextQuery] = {}
        specs_by_qid: Dict[int, Tuple[StatisticSpec, ...]] = {}
        for qid, query in enumerate(queries):
            try:
                parsed = parse_query(query) if isinstance(query, str) else query
                analyzed_query = analyze_query(
                    parsed, self._analyzer, self._predicate_analyzer
                )
                specs_by_qid[qid] = plan.add_query(qid, analyzed_query)
                analyzed[qid] = analyzed_query
            except ReproError as exc:
                results[qid] = exc

        if mode == "context":
            self._run_context(
                analyzed, specs_by_qid, plan, top_k, results, num_shards, force
            )
        elif mode == "conventional":
            self._run_conventional(analyzed, plan, top_k, results, num_shards)
        else:
            self._run_disjunctive(
                analyzed, specs_by_qid, plan, results, num_shards, force,
                block_max,
            )

        elapsed = time.perf_counter() - started
        for result in results:
            if isinstance(result, SearchResults):
                # Shards run interleaved, so per-query wall-clock is not
                # observable; every report carries the batch wall-clock.
                result.report.elapsed_seconds = elapsed
        return results  # type: ignore[return-value]

    def _run_context(
        self, analyzed, specs_by_qid, plan, top_k, results, num_shards, force
    ):
        phase1 = [
            (
                qid,
                tuple(query.keywords),
                tuple(query.predicates),
                specs_by_qid[qid],
                force,
            )
            for qid, query in analyzed.items()
        ]
        if not phase1:
            return
        shard_outputs = self._backend.map(
            "resolve_many", [list(phase1)] * num_shards
        )
        for shard_id, output in enumerate(shard_outputs):
            # Shard order: deterministic merges.
            for qid, values, num_results, path, predicted, counter in output:
                plan.add_resolution(
                    qid, shard_id, values, path, predicted, counter, num_results
                )

        phase2 = []
        for qid in analyzed:
            error = plan.complete_resolution(qid)
            if error is not None:
                results[qid] = error
                phase2.append((qid, None, top_k))  # discard the stash
                continue
            phase2.append((qid, plan.merged_values(qid), top_k))
        shard_outputs = self._backend.map("score_many", [list(phase2)] * num_shards)
        for output in shard_outputs:
            for qid, hits in output:
                if not isinstance(results[qid], ReproError):
                    plan.add_hits(qid, hits)
        for qid in analyzed:
            if not isinstance(results[qid], ReproError):
                results[qid] = plan.finish(qid)

    def _run_conventional(self, analyzed, plan, top_k, results, num_shards):
        tasks = []
        for qid, query in analyzed.items():
            stats = self._global_statistics(query.keywords)
            tasks.append(
                (qid, tuple(query.keywords), tuple(query.predicates), stats, top_k)
            )
        if not tasks:
            return
        shard_outputs = self._backend.map(
            "conventional_many", [list(tasks)] * num_shards
        )
        for shard_id, output in enumerate(shard_outputs):
            for qid, hits, num_results, predicted, counter in output:
                plan.add_conventional(
                    qid, shard_id, hits, num_results, predicted, counter
                )
        for qid in analyzed:
            results[qid] = plan.finish(qid)

    def _run_disjunctive(
        self, analyzed, specs_by_qid, plan, results, num_shards, force,
        block_max=True,
    ):
        k = plan.top_k
        phase1 = [
            (
                qid,
                tuple(query.keywords),
                tuple(query.predicates),
                specs_by_qid[qid],
                True,
                force,
            )
            for qid, query in analyzed.items()
        ]
        if not phase1:
            return
        shard_outputs = self._backend.map("stats_many", [list(phase1)] * num_shards)
        for shard_id, output in enumerate(shard_outputs):
            for qid, values, path, predicted, counter in output:
                plan.add_resolution(qid, shard_id, values, path, predicted, counter)

        phase2 = []
        shared_by_qid: Dict[int, SharedTopKThreshold] = {}
        for qid, query in analyzed.items():
            error = plan.complete_resolution(qid)
            if error is not None:
                results[qid] = error
                continue
            bounds = plan.term_bounds(qid, self.sharded_index.max_tf)
            shared_by_qid[qid] = plan.shared_threshold()
            phase2.append(
                (
                    qid,
                    tuple(query.keywords),
                    tuple(query.predicates),
                    plan.merged_values(qid),
                    k,
                    bounds,
                    block_max,
                )
            )
        if not phase2:
            return
        kwargs = (
            {"shared_by_qid": shared_by_qid}
            if self._backend.shares_memory
            else {}
        )
        shard_outputs = self._backend.map(
            "topk_many", [list(phase2)] * num_shards, **kwargs
        )
        live = {entry[0] for entry in phase2}
        for shard_id, output in enumerate(shard_outputs):
            for qid, hits, counter, topk_diag in output:
                plan.add_topk(qid, shard_id, hits, counter, topk_diag, block_max)
        for qid in live:
            results[qid] = plan.finish(qid)

    # -- merge helpers ---------------------------------------------------

    @staticmethod
    def _check_additive(specs: Sequence[StatisticSpec]) -> None:
        """Back-compat alias for :meth:`StatsMerge.check_additive`."""
        StatsMerge.check_additive(specs)

    def _global_statistics(self, keywords: Sequence[str]) -> CollectionStatistics:
        """Whole-collection ``S_c(D)`` via exact per-shard sums."""
        df = {w: self.sharded_index.document_frequency(w) for w in keywords}
        wants_tc = any(
            spec.kind == TERM_COUNT
            for spec in self.ranking.required_collection_specs(keywords)
        )
        tc = {w: self._global_tc(w) for w in keywords} if wants_tc else {}
        return CollectionStatistics(
            cardinality=self.sharded_index.num_docs,
            total_length=self.sharded_index.total_length,
            df=df,
            tc=tc,
        )

    def _global_tc(self, term: str) -> int:
        cached = self._global_tc_cache.get(term)
        if cached is None:
            cached = self.sharded_index.term_count(term)
            self._global_tc_cache[term] = cached
        return cached


def _merge_paths(paths: set) -> str:
    """Collapse per-shard resolution paths into one report label."""
    if paths == {"views"}:
        return "sharded-views"
    if paths == {"straightforward"} or not paths:
        return "sharded-straightforward"
    return "sharded-mixed"
