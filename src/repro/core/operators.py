"""Physical operators (planner layer 3): how a chosen path executes.

Composable execution primitives shared by every entry point.  The flat
:class:`~repro.core.engine.ContextSearchEngine`, the
:class:`~repro.core.sharded_engine.ShardedEngine`'s per-shard runtimes,
and the batch executor all drive the same operator objects through one
:class:`ExecutionContext` that carries the query's
:class:`~repro.index.postings.CostCounter`, resolution report, the
batch's shared context materialisations, and thread budget.  Sharding is
a *partitioned-execution strategy over these operators*, not a separate
engine: a shard runtime holds one operator set over its sub-index and
the parent merges with :class:`StatsMerge`.

Operators:

* :class:`ViewScan` — resolve statistics from covering views, rare
  keywords falling back through :class:`SelectiveFirstIntersect`;
* :class:`ContextMaterialise` — ``L_m1 ∩ … ∩ L_mc`` (shared-store aware);
* :class:`StraightforwardResolve` — the full Figure 3 plan;
* :class:`SelectiveFirstIntersect` — selective-first conjunctions and
  rare-term statistics;
* :class:`StatsMerge` — exact additive merge of per-partition statistics;
* :class:`SegmentStatsResolve` — the straightforward plan per snapshot
  segment, merged with :class:`StatsMerge` (segment-granularity
  scatter-gather for the segmented index lifecycle);
* :class:`MaxScoreTopK` — disjunctive document-at-a-time top-k.

Every operator charges all work to ``ctx.counter``, which is what makes
the optimizer's predicted-vs-actual report (``cli explain``) honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..errors import EmptyContextError, QueryError
from ..index.intersection import intersect_many
from ..index.inverted_index import InvertedIndex
from ..index.postings import CostCounter
from ..index.searcher import BooleanSearcher
from ..views.catalog import ViewCatalog
from ..views.rewrite import ResolutionReport, compute_rare_term_statistics
from .plan import PlanExecution, StraightforwardPlan
from .query import ContextQuery
from ..index.aggregation import aggregate_count, aggregate_sum
from .statistics import (
    CARDINALITY,
    TOTAL_LENGTH,
    UNIQUE_TERMS,
    CollectionStatistics,
    StatisticSpec,
)


@dataclass
class ExecutionContext:
    """Everything one query evaluation carries through the operators.

    ``counter`` and ``resolution`` are the query's live report fields;
    ``shared_contexts`` is the per-batch materialisation store (queries
    sharing a context intersect it once); ``max_workers`` is the thread
    budget parallel operators may consume.
    """

    counter: CostCounter = field(default_factory=CostCounter)
    resolution: ResolutionReport = field(default_factory=ResolutionReport)
    shared_contexts: Optional[Any] = None
    max_workers: Optional[int] = None


class SelectiveFirstIntersect:
    """Selective-first conjunctions: result sets and rare-term statistics.

    The "ordinary text-search" operator: free to start from the most
    selective list across keywords and predicates, which pure context
    materialisation cannot (Section 3.1).
    """

    def __init__(self, index: InvertedIndex):
        self.index = index
        self.searcher = BooleanSearcher(index)

    def run(
        self,
        ctx: ExecutionContext,
        keywords: Sequence[str],
        predicates: Sequence[str],
    ) -> List[int]:
        """The unranked result ``σ_{Q_k}(D) ∩ σ_P(D)``."""
        return self.searcher.search_conjunction(
            list(keywords), list(predicates), ctx.counter
        )

    def statistics(
        self,
        ctx: ExecutionContext,
        query: ContextQuery,
        specs: Sequence[StatisticSpec],
    ) -> Dict[StatisticSpec, int]:
        """Rare-keyword ``df``/``tc`` via ``L_w ∩ L_m1 ∩ … ∩ L_mc``."""
        return compute_rare_term_statistics(
            self.index, query, specs, ctx.counter
        )


class ViewScan:
    """Resolve collection statistics from covering materialized views.

    Returns ``None`` when no view is usable (the optimizer should have
    predicted that, but per-shard catalogs can diverge from the parent's
    view of feasibility, so execution re-checks).  Fills the resolution
    report's views accounting and routes unresolved (rare-keyword) specs
    through :class:`SelectiveFirstIntersect`.
    """

    def __init__(self, catalog, index: InvertedIndex):
        from ..views.handle import CatalogHandle

        self.handle = CatalogHandle.ensure(catalog)
        self.fallback = SelectiveFirstIntersect(index)

    @property
    def catalog(self) -> Optional[ViewCatalog]:
        """The current catalog, read through the swappable handle."""
        return self.handle.catalog

    def run(
        self,
        ctx: ExecutionContext,
        query: ContextQuery,
        specs: Sequence[StatisticSpec],
        usable: Optional[Mapping[StatisticSpec, Any]] = None,
    ) -> Optional[Dict[StatisticSpec, float]]:
        # One handle read per query: the grabbed object stays consistent
        # for this evaluation even if a swap lands mid-flight.
        catalog = self.handle.catalog
        if catalog is None or len(catalog) == 0:
            return None
        values, unresolved, views_used = catalog.resolve(
            specs, query.context, ctx.counter, usable=usable
        )
        if not views_used:
            return None
        resolution = ctx.resolution
        resolution.path = "views"
        resolution.views_used = len(views_used)
        resolution.view_tuples_scanned = sum(v.size for v in views_used)
        resolution.specs_from_views = len(values)
        if unresolved:
            values.update(self.fallback.statistics(ctx, query, unresolved))
            resolution.rare_term_fallbacks = len(
                {spec.term for spec in unresolved}
            )
            resolution.specs_from_fallback = len(unresolved)
        return values


class ContextMaterialise:
    """Materialise ``σ_P(D) = L_m1 ∩ … ∩ L_mc`` (Figure 3's bottom).

    When the context carries a shared materialisation store (batch
    execution), each distinct context is intersected once per batch and
    its recorded cost replayed into every using query's counter, so
    per-query accounting equals standalone execution.
    """

    def __init__(self, index: InvertedIndex):
        self.index = index

    def run(
        self, ctx: ExecutionContext, predicates: Sequence[str]
    ) -> List[int]:
        if ctx.shared_contexts is not None:
            context_ids, recorded = ctx.shared_contexts.materialise(
                self.index, predicates
            )
            ctx.counter.merge(recorded)
            return context_ids
        return intersect_many(
            [self.index.predicate_postings(m) for m in predicates],
            ctx.counter,
        )


class StraightforwardResolve:
    """The full Figure 3 plan as one operator.

    Context materialisation runs through :class:`ContextMaterialise`
    (hence through the batch's shared store when one is present), then
    the aggregations and per-keyword context intersections produce the
    statistics with the unranked result as a by-product.
    """

    def __init__(self, index: InvertedIndex):
        self.materialise = ContextMaterialise(index)
        self.plan = StraightforwardPlan(index)

    def run(
        self,
        ctx: ExecutionContext,
        query: ContextQuery,
        specs: Sequence[StatisticSpec],
    ) -> PlanExecution:
        ctx.resolution.path = "straightforward"
        context_ids = self.materialise.run(ctx, query.predicates)
        precomputed = None
        if ctx.shared_contexts is not None and context_ids:
            # Keyword-independent aggregates are shared across the batch
            # exactly like the materialisation: computed once, recorded
            # cost replayed into every using query's counter.
            precomputed = {}
            lengths = self.plan.index.document_lengths()
            computers = {
                CARDINALITY: lambda c: aggregate_count(context_ids, c),
                TOTAL_LENGTH: lambda c: aggregate_sum(context_ids, lengths, c),
                UNIQUE_TERMS: lambda c: self.plan._unique_terms(
                    context_ids, c
                ),
            }
            for spec in specs:
                compute = computers.get(spec.kind)
                if compute is None:
                    continue
                value, recorded = ctx.shared_contexts.aggregate(
                    query.predicates, spec.kind, compute
                )
                precomputed[spec] = value
                ctx.counter.merge(recorded)
        return self.plan.execute(
            query,
            specs,
            ctx.counter,
            context_ids=context_ids,
            precomputed=precomputed,
        )


class StatsMerge:
    """Exact merge of per-partition statistics (scatter-gather phase 2).

    Every supported Table 1 statistic is additive over disjoint document
    partitions; the one that is not (``utc``, a distinct-count) is
    rejected up front by :meth:`check_additive`.
    """

    @staticmethod
    def check_additive(specs: Sequence[StatisticSpec]) -> None:
        """Reject the one Table 1 statistic that does not sum over shards.

        ``utc(D_P)`` is a distinct-count: partition vocabularies overlap,
        so per-partition values cannot be merged exactly without shipping
        the vocabularies themselves.  No built-in ranking model requests
        it; a custom model that does must run on the single-shard engine.
        """
        for spec in specs:
            if spec.kind == UNIQUE_TERMS:
                raise QueryError(
                    "unique-term count (utc) is not additive across shards; "
                    "use the single-shard engine for rankings that need it"
                )

    @staticmethod
    def zero(specs: Sequence[StatisticSpec]) -> Dict[StatisticSpec, float]:
        """The additive identity (what an empty partition contributes)."""
        return {spec: 0 for spec in specs}

    @staticmethod
    def accumulate(
        merged: Dict[StatisticSpec, float],
        values: Mapping[StatisticSpec, float],
    ) -> None:
        """Fold one partition's values into the running merge, in place."""
        for spec, value in values.items():
            merged[spec] += value

    @classmethod
    def merge(
        cls,
        per_partition: Sequence[Mapping[StatisticSpec, float]],
        specs: Sequence[StatisticSpec],
    ) -> Dict[StatisticSpec, float]:
        """Sum per-partition values over all partitions."""
        merged = cls.zero(specs)
        for values in per_partition:
            cls.accumulate(merged, values)
        return merged

    @staticmethod
    def cardinality_of(
        values: Mapping[StatisticSpec, float], specs: Sequence[StatisticSpec]
    ) -> int:
        """The merged ``|D_P|`` (0 when no cardinality spec was requested)."""
        for spec in specs:
            if spec.kind == CARDINALITY:
                return int(values[spec])
        return 0


class SegmentStatsResolve:
    """Per-segment straightforward resolve, merged with :class:`StatsMerge`.

    The segment-granularity twin of the sharded scatter-gather: a
    snapshot's segments hold disjoint ascending docid ranges, so the
    straightforward plan can run *per segment* and the per-segment
    statistics merge exactly (every supported Table 1 statistic is
    additive over disjoint partitions; the non-additive ``utc`` is
    rejected up front).  Result docids concatenate in segment order,
    which *is* global docid order — bit-identical to the flat plan over
    the whole snapshot.

    ``snapshot`` is anything exposing ``partitions()`` returning
    index-like per-partition views
    (:meth:`repro.lifecycle.snapshot.Snapshot.partitions`).
    """

    def __init__(self, snapshot):
        self.snapshot = snapshot

    def run(
        self,
        ctx: ExecutionContext,
        query: ContextQuery,
        specs: Sequence[StatisticSpec],
    ) -> PlanExecution:
        StatsMerge.check_additive(specs)
        ctx.resolution.path = "straightforward"
        merged = StatsMerge.zero(specs)
        result_ids: List[int] = []
        context_size = 0
        matched = False
        for view in self.snapshot.partitions():
            plan = StraightforwardPlan(view)
            try:
                execution = plan.execute(query, specs, ctx.counter)
            except EmptyContextError:
                # The context is simply absent from this segment — it
                # contributes the additive identity, not an error.
                continue
            matched = True
            context_size += execution.context_size
            StatsMerge.accumulate(merged, execution.statistic_values)
            result_ids.extend(execution.result_ids)
        if not matched:
            raise EmptyContextError(
                f"context {query.context} matches no documents"
            )
        return PlanExecution(result_ids, merged, context_size, ctx.counter)


class MaxScoreTopK:
    """Disjunctive document-at-a-time top-k with MaxScore pruning.

    Wraps :class:`~repro.core.topk.MaxScoreScorer` as an operator:
    ``term_bounds`` and ``shared`` let a sharded caller impose global
    score bounds and a cross-shard threshold (pruning accelerators,
    never correctness requirements).
    """

    def __init__(self, index: InvertedIndex, ranking):
        self.index = index
        self.ranking = ranking

    def run(
        self,
        ctx: ExecutionContext,
        keywords: Sequence[str],
        predicates: Sequence[str],
        collection_stats: CollectionStatistics,
        k: int,
        term_bounds: Optional[Mapping[str, float]] = None,
        shared: Optional[Any] = None,
        diagnostics: Optional[Any] = None,
        block_max: bool = True,
    ):
        from .topk import MaxScoreScorer

        scorer = MaxScoreScorer(
            self.index,
            list(keywords),
            collection_stats,
            self.ranking,
            predicates=predicates,
            term_bounds=term_bounds,
            block_max=block_max,
        )
        return scorer.top_k(k, ctx.counter, diagnostics, shared=shared)
