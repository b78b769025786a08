"""Parallel query execution over a sharded index, bit-identical to serial.

The sharded engine runs every evaluation mode of
:class:`~repro.core.engine.ContextSearchEngine` as a scatter-gather
over the shards of a
:class:`~repro.index.sharded.ShardedInvertedIndex`.  Sharding is a
*partitioned execution strategy over the shared planner stack*, not a
separate engine: each shard runs a :class:`ShardRuntime` — the one
per-partition evaluator, which the flat engine runs over its whole
index — owning the physical operators (:mod:`repro.core.operators`)
over its sub-index and its own :class:`~repro.core.optimizer.Optimizer`
over its per-shard catalog, so every shard makes a local cost-based
views-vs-straightforward choice and the parent merges with
:class:`~repro.core.operators.StatsMerge`:

1. **resolve** — each shard plans and answers the query's
   collection-statistic specs over *its* sub-collection and returns
   them with its candidates' scoring inputs: global id, length, external
   id and one tf column per query term;
2. **merge** — the parent sums the partial aggregates (every supported
   statistic of Table 1 is additive over documents; the one non-additive
   statistic, ``utc``, is rejected up front);
3. **score** — the parent scores every shard's candidate columns under
   the merged global statistics through the one shared scoring loop
   (:mod:`repro.core.scoring`).  Scores are pure functions of integer
   statistics and per-document values, so each document's score is the
   exact float the single-shard engine computes; the final sort on
   ``(-score, global docid)`` then reproduces the single-shard ranking
   including tie-breaks.

Context and conventional queries therefore cost one shard exchange.
Disjunctive top-k costs two: MaxScore needs the global statistics and
per-term bounds before any shard can prune.

Every shard op is stateless, and each mode's merge is written once, as
the :meth:`ShardMergePlan.fold` generator.  Two callers run it: this
module's :class:`ShardedEngine` over an in-process backend, and the
cluster router over the wire.

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
(forked worker processes, one pool per shard — true CPU parallelism;
the default where ``fork`` is available).  Backends never change
results, only wall-clock.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import EmptyContextError, QueryError, ReproError
from ..index.inverted_index import InvertedIndex
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
from .scoring import (
    gather_features,
    rank_candidates,
    score_candidates,
    score_columns,
)
from .statistics import (
    TERM_COUNT,
    CollectionStatistics,
    QueryStatistics,
    StatisticSpec,
)
from .topk import SharedTopKThreshold, TopKDiagnostics

# A scored candidate crossing the shard boundary: (score, global docid,
# external id).  Sorting tuples of this shape on (-score, gid) is the
# single-shard (-score, doc_id) order because gid IS the single-shard
# internal docid.
_Hit = Tuple[float, int, str]

# The stateless shard ops, named as the cluster wire names them, and the
# ShardRuntime method serving each.  Every mode starts with a resolve;
# ShardMergePlan.fold yields the disjunctive top-k.  The in-process
# backends call the method, the router sends the op.
OP_SHARD_RESOLVE = "shard_resolve"
OP_SHARD_TOPK = "shard_topk"
SHARD_OP_METHODS = {
    OP_SHARD_RESOLVE: "resolve",
    OP_SHARD_TOPK: "topk_many",
}


class ShardRuntime:
    """The one per-partition evaluator: plans, resolves, counts and scores.

    A partition is one shard of a sharded index, or a whole flat index
    (:class:`~repro.core.engine.ContextSearchEngine` evaluates through a
    runtime over its index).  The runtime's :class:`Optimizer` plans
    over the partition's index and catalog, and
    :meth:`_execute_resolution` is the one place that runs the chosen
    views-or-straightforward path (Theorems 4.1/4.2).  The pieces the
    flat engine drives take the caller's
    :class:`~repro.core.operators.ExecutionContext`, so batch context
    sharing and thread budgets reach the operators.

    Lives on both sides of the process boundary: the parent builds the
    runtimes, the fork backend's per-shard worker inherits them via the
    module registry, and a cluster shard worker serves one.  Its shard
    ops (:data:`SHARD_OP_METHODS`) are stateless — every input arrives
    with the task, and a resolve returns everything the merge needs to
    score its candidates — so concurrent batches never see each other
    and any replica can serve any phase.  Only
    :meth:`resolve_many`/:meth:`score_many` keep a per-qid stash, for
    the staged benchmark that drives one query at a time.
    """

    def __init__(
        self,
        shard: Union[IndexShard, InvertedIndex],
        ranking: RankingFunction,
        catalog: Optional[ViewCatalog],
    ):
        from ..views.handle import CatalogHandle

        if isinstance(shard, IndexShard):
            self.shard_id, self.index = shard.shard_id, shard.index
            self.global_ids = shard.global_ids
        else:
            # A whole flat index: its docids are already global.  It has
            # no id column, because a flat index grows after commit
            # (append_documents) and lifecycle snapshots have docid gaps.
            self.shard_id, self.index, self.global_ids = 0, shard, None
        index = self.index
        self.ranking = ranking
        # One swappable handle per partition, shared by this runtime's
        # optimizer and view-scan operator: a catalog hot-swap retargets
        # both with a single assignment.
        self.catalog_handle = CatalogHandle.ensure(catalog)
        self.optimizer = Optimizer(index, self.catalog_handle)
        self._op_conjunction = SelectiveFirstIntersect(index)
        self._op_view_scan = ViewScan(self.catalog_handle, index)
        self._op_straightforward = StraightforwardResolve(index)
        self._op_topk = MaxScoreTopK(index, ranking)
        self.plan = self._op_straightforward.plan
        self._stash: Dict[int, Tuple[Tuple[str, ...], List[int]]] = {}
        self._tc_cache: Dict[str, Tuple[int, int]] = {}

    @property
    def catalog(self) -> Optional[ViewCatalog]:
        """This shard's current catalog, read through its handle."""
        return self.catalog_handle.catalog

    # -- phase 1: per-shard statistics ----------------------------------

    def resolve(self, tasks: Sequence[tuple]) -> List[tuple]:
        """Phase 1 of every mode, stateless: the ``shard_resolve`` op.

        ``tasks``: ``(qid, keywords, predicates, mode, force)`` per
        analysed query (``force`` pins the path shard-locally when
        feasible).  Each row is ``(qid, keywords, predicates, *slice)``
        with the shard's slice by mode — exactly the wire entry:

        - context: ``values, num_results, path, predicted, counter``,
          then the candidates' features;
        - disjunctive: ``values, path, predicted, counter, max_tf``;
        - conventional: the shard's whole-collection statistics part,
          ``num_results, predicted, counter``, then the features of the
          conjunction ``Q_k ∪ P``.

        The features (:meth:`_features`) are four columns, one entry per
        candidate: global ids, lengths, external ids, and the tf columns
        of the query's ``term_counts``.  The merge scores them, so no
        second exchange is needed.  An empty local context yields
        all-zero values (the additive identity) and no candidates; the
        *global* emptiness check happens after the merge.
        """
        out = []
        for qid, keywords, predicates, mode, force in tasks:
            keywords, predicates = tuple(keywords), tuple(predicates)
            if mode == MODE_CONVENTIONAL:
                counter = CostCounter()
                result_ids = self._op_conjunction.run(
                    ExecutionContext(counter=counter),
                    list(keywords), list(predicates),
                )
                row = (
                    self._collection_part(keywords),
                    len(result_ids),
                    selective_first_bound(self.index, keywords, predicates),
                    counter,
                ) + self._features(keywords, result_ids)
            else:
                specs = tuple(self.ranking.required_collection_specs(keywords))
                values, result_ids, path, predicted, counter = (
                    self._resolve_local(keywords, predicates, specs, mode, force)
                )
                if mode == MODE_DISJUNCTIVE:
                    max_tf = {
                        term: self.index.postings(term).max_tf
                        for term in dict.fromkeys(keywords)
                    }
                    row = (values, path, predicted, counter, max_tf)
                else:
                    row = (
                        values, len(result_ids), path, predicted, counter,
                    ) + self._features(keywords, result_ids)
            out.append((qid, keywords, predicates) + row)
        return out

    def _features(
        self, keywords: Sequence[str], result_ids: Sequence[int]
    ) -> Tuple[List[int], List[int], List[str], List[List[int]]]:
        """The candidates' scoring inputs as columns: ``(global ids,
        lengths, external ids, tf columns)``."""
        lengths, external_ids, tfs = gather_features(
            self.index, QueryStatistics.from_keywords(keywords).term_counts,
            result_ids,
        )
        gids = self.global_ids
        if gids is None:  # a whole index: its ids are already global
            ids = list(result_ids)
        else:
            ids = [gids[doc_id] for doc_id in result_ids]
        return ids, lengths, external_ids, tfs

    def resolve_many(self, tasks: Sequence[tuple]) -> List[tuple]:
        """Context phase 1 that stashes the local result set by ``qid``
        for :meth:`score_many` (the staged benchmark's per-shard path).

        ``tasks``: ``(qid, keywords, predicates, specs, force)``.
        Returns ``(qid, values, num_results, path, predicted, counter)``.
        """
        out = []
        for qid, keywords, predicates, specs, force in tasks:
            values, result_ids, path, predicted, counter = self._resolve_local(
                keywords, predicates, specs, MODE_CONTEXT, force
            )
            self._stash[qid] = (tuple(keywords), result_ids)
            out.append((qid, values, len(result_ids), path, predicted, counter))
        return out

    def stats_many(self, tasks: Sequence[tuple]) -> List[tuple]:
        """Statistics only, no candidates.

        ``tasks``: ``(qid, keywords, predicates, specs, use_views, force)``
        (``use_views=False`` bypasses the optimizer entirely: the
        straightforward plan is the ground truth diagnostics compare
        views against).  Returns ``(qid, values, path, predicted, counter)``.
        """
        out = []
        for qid, keywords, predicates, specs, use_views, force in tasks:
            if use_views:
                values, _, path, predicted, counter = self._resolve_local(
                    keywords, predicates, specs, MODE_DISJUNCTIVE, force
                )
            else:
                counter, predicted = CostCounter(), 0
                query = _rebuild_query(keywords, predicates)
                try:
                    execution = self.plan.execute(query, specs, counter)
                    values = execution.statistic_values
                except EmptyContextError:
                    values = StatsMerge.zero(specs)
                path = "straightforward"
            out.append((qid, values, path, predicted, counter))
        return out

    def score_many(self, tasks: Sequence[tuple]) -> List[tuple]:
        """Score the candidates :meth:`resolve_many` stashed under the
        merged statistics (the staged benchmark's phase 2).

        ``tasks``: ``(qid, values, top_k)``; ``values=None`` just
        discards the stash entry.  Returns ``(qid, hits)`` with hits
        sorted ``(-score, gid)`` and truncated to ``top_k`` — any global
        top-k document is necessarily in its shard's local top-k.
        """
        out = []
        for qid, values, top_k in tasks:
            keywords, result_ids = self._stash.pop(qid, ((), []))
            if values is not None:
                stats = CollectionStatistics.from_values(values)
                out.append((qid, self._score(keywords, result_ids, stats, top_k)))
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
        out = []
        for qid, keywords, predicates, values, k, term_bounds, block_max in tasks:
            if values is None:
                continue
            counter = CostCounter()
            hits, diagnostics = self._topk(
                ExecutionContext(counter=counter),
                keywords,
                predicates,
                CollectionStatistics.from_values(values),
                k,
                term_bounds=term_bounds,
                shared=shared_by_qid.get(qid) if shared_by_qid else None,
                block_max=block_max,
            )
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

    def _resolve_local(
        self,
        keywords: Sequence[str],
        predicates: Sequence[str],
        specs: Sequence[StatisticSpec],
        mode: str,
        force: Optional[str],
    ) -> tuple:
        """Plan and resolve one query's statistics over this shard.

        Returns ``(values, result_ids, path, predicted, counter)``; the
        local result set is materialised in context mode only.
        """
        counter = CostCounter()
        ctx = ExecutionContext(counter=counter)
        query = _rebuild_query(keywords, predicates)
        plan = self._plan(query, specs, mode, force)
        try:
            values, result_ids = self._execute_resolution(
                ctx, plan, query, specs, want_result=mode == MODE_CONTEXT
            )
            path = ctx.resolution.path
        except EmptyContextError:
            values, result_ids, path = StatsMerge.zero(specs), [], "straightforward"
        return values, result_ids, path, plan.predicted_cost, counter

    def _collection_part(self, keywords: Sequence[str]) -> dict:
        """This partition's additive summands of the whole-collection
        statistics ``S_c(D)`` (conventional mode), summed exactly by
        :meth:`ShardMergePlan.merge_collection_stats`.  ``tc`` is only
        gathered when the ranking model requests it (language models):
        it costs a posting-list scan per keyword."""
        part = {
            "num_docs": self.index.num_docs,
            "total_length": self.index.total_length,
            "df": {w: self.index.document_frequency(w) for w in keywords},
        }
        if any(
            spec.kind == TERM_COUNT
            for spec in self.ranking.required_collection_specs(keywords)
        ):
            part["tc"] = {w: self._term_count(w) for w in keywords}
        return part

    def _term_count(self, term: str) -> int:
        """``tc(term)`` over this partition, cached until the index
        changes (the cache is checked against the index epoch)."""
        epoch = self.index.epoch
        cached = self._tc_cache.get(term)
        if cached is None or cached[0] != epoch:
            cached = (epoch, sum(tf for _, tf in self.index.postings(term)))
            self._tc_cache[term] = cached
        return cached[1]

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
        gids = self.global_ids
        if gids is None:  # a whole index: its ids are already global
            hits = [(score, doc_id, ext) for doc_id, score, ext in scored]
        else:
            hits = [(score, gids[doc_id], ext) for doc_id, score, ext in scored]
        return rank_candidates(hits, top_k)

    def _conventional(
        self,
        ctx: ExecutionContext,
        keywords: Sequence[str],
        predicates: Sequence[str],
        stats: CollectionStatistics,
        top_k: Optional[int],
    ) -> Tuple[List[_Hit], int]:
        """``Q_t = Q_k ∪ P`` over this partition under whole-collection
        ``stats``: the ranked hits and the unranked result count."""
        result_ids = self._op_conjunction.run(ctx, list(keywords), list(predicates))
        return self._score(keywords, result_ids, stats, top_k), len(result_ids)

    def _topk(
        self,
        ctx: ExecutionContext,
        keywords: Sequence[str],
        predicates: Sequence[str],
        stats: CollectionStatistics,
        k: int,
        term_bounds: Optional[Dict[str, float]] = None,
        shared: Optional[SharedTopKThreshold] = None,
        block_max: bool = True,
    ) -> Tuple[List[_Hit], TopKDiagnostics]:
        """Disjunctive MaxScore over this partition: best-first hits and
        the scorer's diagnostics."""
        diagnostics = TopKDiagnostics()
        scored = self._op_topk.run(
            ctx, keywords, predicates, stats, k, term_bounds=term_bounds,
            shared=shared, diagnostics=diagnostics, block_max=block_max,
        )
        store = self.index.store
        gids = self.global_ids
        if gids is None:  # a whole index: its ids are already global
            hits = [(s.score, s.doc_id, store.get(s.doc_id).external_id) for s in scored]
        else:
            hits = [
                (s.score, gids[s.doc_id], store.get(s.doc_id).external_id)
                for s in scored
            ]
        return hits, diagnostics


def _score_features(
    score, ids: Sequence[int], lengths: Sequence[int],
    external_ids: Sequence[str], tfs: Sequence[Sequence[int]],
) -> List[_Hit]:
    """One shard's candidate columns (:meth:`ShardRuntime._features`)
    scored by the query's prepared scorer, as unsorted hits."""
    return list(zip(score_columns(score, lengths, tfs), ids, external_ids))


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

    Both callers run one of these per batch through :meth:`fold`: the
    in-process :class:`ShardedEngine` over its backend, the cluster
    router (:mod:`repro.service.cluster`) over the wire.  Additive
    :class:`StatsMerge` accumulation, the global context-emptiness
    check, the scoring of every shard's candidate columns (context and
    conventional), global per-term score bounds and the disjunctive
    phase-2 tasks, and the final ``(-score, gid)`` rank all live here —
    so the local and over-the-wire paths cannot drift apart: identical
    shard outputs merge to bit-identical rankings regardless of
    transport.

    The caller owns phase 1 (who analyses the query), dispatch and
    failure bookkeeping; this object owns merge state keyed by query
    id.  Calls per query, by mode (:meth:`fold` makes them):

    - context: ``add_query`` → ``add_resolution``\\* → ``complete_resolution``
      → ``add_hits``\\* → ``finish``
    - conventional: ``add_query`` → ``add_conventional``\\* → ``finish``
    - disjunctive: ``add_query`` → ``add_resolution``\\* →
      ``complete_resolution`` → ``term_bounds`` → ``add_topk``\\* → ``finish``

    Shard outputs are folded in ascending shard order so reports are
    deterministic; the merged statistics are integer sums and the final
    sort key is total, so rankings do not depend on fold order.
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

    # -- the fold --------------------------------------------------------

    def fold(
        self,
        live: Sequence[int],
        resolved: Sequence[Dict[int, tuple]],
        block_max: bool = True,
    ):
        """The batch's merge after phase 1, as a generator both callers run.

        ``live`` are the registered qids; ``resolved`` holds one
        ``{qid: row}`` per shard, ``row`` the :meth:`ShardRuntime.resolve`
        tuple after its qid.  Context and conventional batches finish
        here, without yielding: the rows carry the candidates' features.
        A disjunctive batch yields ``(OP_SHARD_TOPK, per-shard tasks,
        qids)`` once; the caller sends back one ``{qid: row}`` per shard
        (the op's reply after the qid).  Returns ``{qid: SearchResults |
        ReproError}``.
        """
        outcomes: Dict[int, Union[SearchResults, ReproError]] = {}
        if self.mode == MODE_CONVENTIONAL:
            # Whole-collection statistics are exact sums of the shards'
            # parts, and the candidates came with them.
            for qid in live:
                stats = self.merge_collection_stats(
                    [rows[qid][2] for rows in resolved]
                )
                score = self._prepare(qid, stats)
                for shard_id, rows in enumerate(resolved):
                    _, _, _, num_results, predicted, counter, *features = (
                        rows[qid]
                    )
                    self.add_conventional(
                        qid, shard_id, _score_features(score, *features),
                        num_results, predicted, counter,
                    )
                outcomes[qid] = self.finish(qid)
            return outcomes

        context = self.mode == MODE_CONTEXT
        for shard_id, rows in enumerate(resolved):
            for qid in live:
                if context:
                    _, _, values, num_results, path, predicted, counter = (
                        rows[qid][:7]
                    )
                else:
                    _, _, values, path, predicted, counter, _ = rows[qid]
                    num_results = 0
                self.add_resolution(
                    qid, shard_id, values, path, predicted, counter, num_results
                )
        survivors = []
        for qid in live:
            error = self.complete_resolution(qid)
            if error is None:
                survivors.append(qid)
            else:
                outcomes[qid] = error
        if not survivors:
            return outcomes

        if context:
            # Every shard's candidates, scored here under the merged
            # statistics: the same integer inputs the shard would use.
            for qid in survivors:
                score = self._prepare(
                    qid, CollectionStatistics.from_values(self.merged_values(qid))
                )
                for rows in resolved:
                    self.add_hits(qid, _score_features(score, *rows[qid][7:]))
        else:
            tasks = []
            for qid in survivors:
                # The collection-wide max tf is the max over per-shard
                # maxima, hence the same bounds and term orderings on
                # every shard.
                max_tfs = [rows[qid][-1] for rows in resolved]
                bounds = self.term_bounds(
                    qid, lambda term: max(m.get(term, 0) for m in max_tfs)
                )
                query = self.query(qid)
                tasks.append(
                    (
                        qid,
                        query.keywords,
                        query.predicates,
                        self.merged_values(qid),
                        self.top_k,
                        bounds,
                        block_max,
                    )
                )
            replies = yield OP_SHARD_TOPK, [tasks] * len(resolved), survivors
            for shard_id, rows in enumerate(replies):
                for qid in survivors:
                    self.add_topk(qid, shard_id, *rows[qid], block_max)
        for qid in survivors:
            outcomes[qid] = self.finish(qid)
        return outcomes

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
        """The merged additive statistic values."""
        return self._queries[qid].values

    def _prepare(self, qid: int, stats: CollectionStatistics):
        """The query's prepared scorer under the merged ``stats``."""
        query_stats = QueryStatistics.from_keywords(self.query(qid).keywords)
        return self.ranking.prepare(query_stats, stats)

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

    # -- scored candidates -----------------------------------------------

    def add_hits(self, qid: int, hits: Sequence[_Hit]) -> None:
        """Context mode: one shard's scored candidates (report already
        folded at the resolve)."""
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
        """Conventional mode: one shard's scored candidates + its
        report slice."""
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
    # Shard slices that run at once.
    workers = 1

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
        self.workers = _fan_out(len(self._runtimes), max_workers)
        # Sized as asked, not as ``workers``: concurrent callers (server
        # threads) each map one slice per shard into the same pool.
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
# immutable afterwards, so parent and children stay consistent.
_FORK_REGISTRY: Dict[int, List[ShardRuntime]] = {}
_FORK_KEYS = itertools.count()


def _fork_call(key: int, shard_id: int, method: str, payload: list) -> list:
    runtime = _FORK_REGISTRY[key][shard_id]
    return getattr(runtime, method)(payload)


def fork_available() -> bool:
    """Whether the copy-on-write fork backend can run on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


class _ForkBackend:
    """Forked worker processes: one single-process pool per shard, or
    ``max_workers`` pools with shard ``i`` on pool ``i % max_workers``.

    Every shard op is stateless, so affinity is not needed for
    correctness; a fixed pool per shard keeps each shard's runtime (and
    its per-term cache) warm in one child.  Fork (not spawn) start: children
    get the built indexes by copy-on-write page sharing instead of
    pickling gigabytes of postings; per-query inputs and outputs,
    candidate features included, are pickled.
    """

    name = "fork"
    shares_memory = False

    def __init__(
        self, runtimes: Sequence[ShardRuntime], max_workers=None
    ):
        if not fork_available():
            raise QueryError("fork start method unavailable on this platform")
        self.workers = _fan_out(len(runtimes), max_workers)
        self._key = next(_FORK_KEYS)
        _FORK_REGISTRY[self._key] = list(runtimes)
        context = multiprocessing.get_context("fork")
        self._pools = [
            ProcessPoolExecutor(max_workers=1, mp_context=context)
            for _ in range(self.workers)
        ]

    def map(self, method: str, payloads: Sequence[list], **kwargs) -> List[list]:
        # kwargs carry live in-memory objects (shared thresholds) that
        # cannot cross a process boundary; callers never pass them to this
        # backend, and dropping them is always result-preserving.
        pools = self._pools
        futures = [
            pools[shard_id % len(pools)].submit(
                _fork_call, self._key, shard_id, method, payload
            )
            for shard_id, payload in enumerate(payloads)
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)
        _FORK_REGISTRY.pop(self._key, None)


def _fan_out(num_shards: int, max_workers: Optional[int]) -> int:
    """Shard slices of one call a parallel backend runs at once: one per
    shard, capped at ``max_workers``."""
    if max_workers is None:
        return num_shards
    if max_workers < 1:
        raise QueryError(f"max_workers must be >= 1, got {max_workers}")
    return min(max_workers, num_shards)


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

    # The engine shape, as healthz and the CLI report it.
    kind = "sharded"

    def __init__(
        self,
        sharded_index: ShardedInvertedIndex,
        ranking: Optional[RankingFunction] = None,
        catalogs: Optional[Sequence[Optional[ViewCatalog]]] = None,
        executor: str = "auto",
        max_workers: Optional[int] = None,
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
            )
            for i, shard in enumerate(sharded_index.shards)
        ]
        self._backend = _pick_backend(executor)(self.runtimes, max_workers)
        # Shard slices one call runs at once (BatchReport.workers), fixed
        # with the backend at construction.
        self._workers = self._backend.workers
        self._authority = VersionAuthority(
            epoch_source=lambda: self.sharded_index.epoch
        )
        self.last_reselection: Optional[dict] = None
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
        max_workers: Optional[int] = None,
    ) -> BatchReport:
        """Evaluate a workload with one scatter-gather round per phase.

        The batch shape is what makes sharding pay at serving time: a
        batch of B queries costs one dispatch per shard per phase (one
        phase, two for disjunctive), not one per query, so per-task
        overhead amortises across the workload.
        Outcomes come back in input order; per-query failures (empty
        context, stopword-only keywords, …) are recorded, never raised.
        ``max_workers`` is accepted for the shared batch signature and
        ignored: the fan-out is the shard backend's, fixed at
        construction, and the report's ``workers`` is that fan-out (1
        for the serial backend).
        """
        if mode not in ("context", "conventional", "disjunctive"):
            raise QueryError(f"unknown batch mode: {mode!r}")
        queries = list(queries)
        started = time.perf_counter()
        results = self._execute_batch(queries, top_k, mode, path)
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
            workers=self._workers,
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
        results: List[Optional[Union[SearchResults, ReproError]]] = [None] * len(
            queries
        )

        # Phase 1 input: parse + analyse in the parent; failures claim
        # their slot now.  All merge state for the batch lives in the
        # plan object, so concurrent batches share nothing.
        plan = ShardMergePlan(
            self.ranking, mode, top_k, forced=force is not None
        )
        tasks = []
        for qid, query in enumerate(queries):
            try:
                parsed = parse_query(query) if isinstance(query, str) else query
                analyzed = analyze_query(
                    parsed, self._analyzer, self._predicate_analyzer
                )
                plan.add_query(qid, analyzed)
                tasks.append(
                    (qid, analyzed.keywords, analyzed.predicates, mode, force)
                )
            except ReproError as exc:
                results[qid] = exc

        if tasks:
            fold = plan.fold(
                [task[0] for task in tasks],
                self._map(OP_SHARD_RESOLVE, [tasks] * len(self.runtimes)),
                block_max,
            )
            replies = None
            try:
                while True:
                    op, shard_tasks, qids = fold.send(replies)
                    kwargs = {}
                    if op == OP_SHARD_TOPK and self._backend.shares_memory:
                        # Live cross-shard thresholds: a pruning
                        # accelerator for same-address-space backends.
                        kwargs["shared_by_qid"] = {
                            qid: plan.shared_threshold() for qid in qids
                        }
                    replies = self._map(op, shard_tasks, **kwargs)
            except StopIteration as done:
                for qid, outcome in done.value.items():
                    results[qid] = outcome

        elapsed = time.perf_counter() - started
        for result in results:
            if isinstance(result, SearchResults):
                # Shards run interleaved, so per-query wall-clock is not
                # observable; every report carries the batch wall-clock.
                result.report.elapsed_seconds = elapsed
        return results  # type: ignore[return-value]

    def _map(self, op: str, tasks: Sequence[list], **kwargs) -> List[dict]:
        """Run one shard op on every shard; ``{qid: row after qid}`` each."""
        outputs = self._backend.map(SHARD_OP_METHODS[op], tasks, **kwargs)
        return [{row[0]: row[1:] for row in output} for output in outputs]


def _merge_paths(paths: set) -> str:
    """Collapse per-shard resolution paths into one report label."""
    if paths == {"views"}:
        return "sharded-views"
    if paths == {"straightforward"} or not paths:
        return "sharded-straightforward"
    return "sharded-mixed"
