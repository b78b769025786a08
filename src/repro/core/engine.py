"""The context-sensitive search engine (Sections 3, 4, 6.3).

:class:`ContextSearchEngine` evaluates context-sensitive queries through
the three planner layers, driven by one
:class:`~repro.core.sharded_engine.ShardRuntime` over the whole index
(the same per-partition evaluator every shard runs):

1. the **logical plan** (:mod:`repro.core.logical`) compiles the query
   into a backend-agnostic tree;
2. the **optimizer** (:mod:`repro.core.optimizer`) prices the physical
   paths — view scan vs. the Figure 3 straightforward plan — with the
   Section 3.2 cost model and picks the cheapest (``path=`` forces one);
3. the **operators** (:mod:`repro.core.operators`) execute the choice
   through one :class:`~repro.core.operators.ExecutionContext`.

Path choice never changes rankings (view statistics are exact), only
cost; every report carries the optimizer's
:class:`~repro.core.optimizer.ExplainedPlan` with predicted vs. actual
operation counts (``cli explain``).

It also evaluates the **conventional baseline** ``Q_t = Q_k ∪ P`` (same
unranked result, whole-collection statistics, predicates as pure boolean
filters), which Sections 6.1 and 6.3 compare against.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import EmptyContextError, QueryError, ReproError
from ..index.intersection import intersect_many
from ..index.inverted_index import InvertedIndex
from ..index.postings import CostCounter
from .logical import MODE_CONTEXT, MODE_CONVENTIONAL, MODE_DISJUNCTIVE
from .operators import ExecutionContext
from .optimizer import PATH_AUTO, ExplainedPlan
from .query import (
    ContextQuery,
    ContextSpecification,
    KeywordQuery,
    analyze_keyword,
    analyze_query,
    parse_query,
)
from .ranking import DEFAULT_RANKING_FUNCTION, RankingFunction
from .report import ExecutionReport
from .statistics import CollectionStatistics, StatisticSpec

__all__ = [
    "BatchExecutor",
    "BatchOutcome",
    "BatchReport",
    "ContextSearchEngine",
    "ExecutionReport",
    "SearchHit",
    "SearchResults",
    "SharedContextStore",
]


@dataclass(frozen=True)
class SearchHit:
    """One ranked result."""

    doc_id: int
    external_id: str
    score: float


@dataclass
class SearchResults:
    """Ranked hits plus the execution report."""

    hits: List[SearchHit]
    report: ExecutionReport

    def __len__(self) -> int:
        return len(self.hits)

    def external_ids(self) -> List[str]:
        """Ranked external document ids (the evaluation-facing view)."""
        return [hit.external_id for hit in self.hits]


class ContextSearchEngine:
    """Evaluates context-sensitive queries and the conventional baseline.

    All per-partition work — planning, views-or-straightforward
    resolution, whole-collection statistics, scoring — runs in
    ``self.runtime``, a :class:`~repro.core.sharded_engine.ShardRuntime`
    over the whole index, under this engine's per-query
    :class:`~repro.core.operators.ExecutionContext`.  The engine keeps
    the public API and assembles each query's report.
    """

    # The engine shape, as healthz and the CLI report it.
    kind = "flat"

    def __init__(
        self,
        index: InvertedIndex,
        ranking: Optional[RankingFunction] = None,
        catalog: Optional["ViewCatalog"] = None,
        use_skips: bool = True,
    ):
        from .sharded_engine import ShardRuntime

        if not index.committed:
            raise QueryError("index must be committed before searching")
        self.index = index
        self.ranking = ranking if ranking is not None else DEFAULT_RANKING_FUNCTION
        self.use_skips = use_skips
        # The runtime owns the optimizer, the operators and the one
        # swappable catalog handle they share: swapping the handle is
        # the adaptive-selection hot-swap.
        self.runtime = ShardRuntime(index, self.ranking, catalog, use_skips)
        # Plain aliases of the runtime's pieces (wrappers, tests and
        # benchmarks read them; ``_plan`` plans through ``self.optimizer``,
        # so assigning a different optimizer here redirects planning).
        self.catalog_handle = self.runtime.catalog_handle
        self.optimizer = self.runtime.optimizer
        self.searcher = self.runtime.searcher
        self.plan = self.runtime.plan
        # Provenance of the most recent catalog install (reselection
        # pass summary) — surfaced by healthz/info alongside the
        # version vector.
        self.last_reselection: Optional[dict] = None

    # -- public API ---------------------------------------------------------

    def close(self) -> None:
        """Release the underlying index's resources (idempotent).

        For mmap-backed flat indexes this unmaps the block file; for
        lifecycle snapshots it drops compiled-posting caches.  The
        serving layer calls this on retired engines after epoch bumps.
        """
        closer = getattr(self.index, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "ContextSearchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def epoch(self) -> int:
        """The index's mutation counter (cache keys derive from this)."""
        return self.index.epoch

    @property
    def catalog(self) -> Optional["ViewCatalog"]:
        """The current catalog, read through the swappable handle."""
        return self.catalog_handle.catalog

    @property
    def catalog_generation(self) -> int:
        """How many hot-swaps the catalog has seen (serving caches fold
        this into their epoch so a swap invalidates cached results)."""
        return self.catalog_handle.generation

    @property
    def version(self) -> "VersionVector":
        """This engine's coherence token (see :mod:`repro.core.backend`).

        The flat engine has no replica placement, so the placement
        component is always 0.
        """
        from .backend import VersionVector

        return VersionVector(
            epoch=self.epoch,
            catalog_generation=self.catalog_handle.generation,
        )

    def install_catalog(
        self,
        catalog: Optional["ViewCatalog"],
        info: Optional[dict] = None,
        generation: Optional[int] = None,
    ) -> int:
        """Atomically install a fully built catalog; returns the new
        generation (the :class:`~repro.core.backend.SearchBackend`
        entry point, shared by all engine shapes).

        Rankings are unchanged by construction (views are exact), so the
        swap only redirects *how* statistics are resolved.  In-flight
        queries that already grabbed the old catalog finish against it.
        ``info`` records the install's provenance (a reselection pass
        summary); ``generation`` adopts an externally assigned
        generation (cluster installs ship the router's).
        """
        new_generation = self.catalog_handle.swap(
            catalog, generation=generation
        )
        self.last_reselection = dict(info) if info else None
        return new_generation

    def search(
        self,
        query: Union[ContextQuery, str],
        top_k: Optional[int] = None,
        path: str = PATH_AUTO,
    ) -> SearchResults:
        """Evaluate ``Q_c = Q_k | P`` with context-sensitive ranking.

        ``path`` forces the physical path (``"views"``/
        ``"straightforward"``) instead of cost-based selection; forcing
        never changes the ranking, only the work done to produce it.
        """
        return self._search_impl(query, top_k, None, path=path)

    def explain(
        self,
        query: Union[ContextQuery, str],
        top_k: Optional[int] = None,
        mode: str = MODE_CONTEXT,
        path: str = PATH_AUTO,
        block_max: bool = True,
    ) -> SearchResults:
        """Evaluate ``query`` in ``mode`` and return results whose report
        carries the optimizer's :class:`ExplainedPlan` (predicted vs.
        actual operation counts).  All modes record plans; this helper
        just names the intent and dispatches on ``mode``."""
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
        mode: str = MODE_CONTEXT,
        path: str = PATH_AUTO,
        max_workers: Optional[int] = None,
    ) -> "BatchReport":
        """Evaluate a workload as one batch (the engine-wide batch entry
        point): a :class:`BatchExecutor` with ``max_workers`` threads,
        sharing context materialisations and posting columns."""
        return BatchExecutor(self, max_workers=max_workers).run(
            queries, top_k=top_k, mode=mode, path=path
        )

    def _search_impl(
        self,
        query: Union[ContextQuery, str],
        top_k: Optional[int],
        shared_contexts: Optional["SharedContextStore"],
        path: str = PATH_AUTO,
        max_workers: Optional[int] = None,
    ) -> SearchResults:
        """The :meth:`search` body, parameterised over context sharing.

        ``shared_contexts`` (batch execution) replaces the plan's bottom
        intersection with a per-batch materialisation store; the recorded
        materialisation cost is replayed into this query's counter so the
        per-query accounting is identical to standalone execution.
        """
        query = self._coerce(query)
        started = time.perf_counter()
        report = ExecutionReport()
        analyzed = self._analyze(query)

        specs = self.ranking.required_collection_specs(analyzed.keywords)
        values, result_ids = self._resolve_statistics(
            analyzed, specs, report, shared_contexts, path, max_workers
        )
        collection_stats = self._nonempty_statistics(values, analyzed, report)
        hits = self.runtime._score(
            analyzed.keywords, result_ids, collection_stats, top_k
        )
        report.result_size = len(result_ids)
        return self._results(hits, report, started)

    def search_conventional(
        self,
        query: Union[ContextQuery, str],
        top_k: Optional[int] = None,
    ) -> SearchResults:
        """Evaluate the baseline ``Q_t = Q_k ∪ P``.

        Identical unranked result; ranking uses whole-collection statistics
        and the predicates contribute nothing to scores (Section 6.1's
        conventional ranking).
        """
        query = self._coerce(query)
        started = time.perf_counter()
        report = ExecutionReport()
        report.resolution.path = "conventional"
        analyzed = self._analyze(query)

        specs = self.ranking.required_collection_specs(analyzed.keywords)
        self._plan(report, analyzed, specs, MODE_CONVENTIONAL, PATH_AUTO)
        hits, report.result_size = self.runtime._conventional(
            self._context(report),
            analyzed.keywords,
            analyzed.predicates,
            self._global_statistics(analyzed.keywords),
            top_k,
        )
        return self._results(hits, report, started)

    def search_disjunctive(
        self,
        query: Union[ContextQuery, str],
        top_k: int = 10,
        path: str = PATH_AUTO,
        block_max: bool = True,
    ) -> SearchResults:
        """OR-semantics context-sensitive search with MaxScore pruning.

        Returns the ``top_k`` documents *in the context* that match at
        least one keyword, ranked context-sensitively.  Collection
        statistics resolve exactly as in :meth:`search` (optimizer-chosen
        path; ``path=`` forces one); the candidate scan then runs
        document-at-a-time over the keyword posting lists with a lazy
        context-membership filter, so on the views path the context is
        never materialised at all.

        ``block_max`` toggles block-max skipping (per-block score upper
        bounds over the skip-table blocks); rankings are bit-identical
        either way — the knob exists for A/B and ablation runs.

        Requires a ``decomposable`` ranking model (TF-IDF, BM25);
        language models raise :class:`~repro.errors.QueryError`.
        """
        query = self._coerce(query)
        started = time.perf_counter()
        report = ExecutionReport()
        analyzed = self._analyze(query)

        specs = self.ranking.required_collection_specs(analyzed.keywords)
        values = self._resolve_statistics_only(analyzed, specs, report, path)
        collection_stats = self._nonempty_statistics(values, analyzed, report)
        hits, diagnostics = self.runtime._topk(
            self._context(report),
            analyzed.keywords,
            analyzed.predicates,
            collection_stats,
            top_k,
            block_max=block_max,
        )
        report.topk = dict(diagnostics.to_dict(), block_max=block_max)
        report.result_size = len(hits)
        return self._results(hits, report, started)

    def context_statistics(
        self, context: Union[ContextSpecification, Sequence[str]], keywords: Sequence[str] = ()
    ) -> CollectionStatistics:
        """Collection statistics of a context (diagnostics/tests helper).

        Always computed via the straightforward plan, bypassing views, so
        it doubles as the ground truth views are checked against.
        """
        if not isinstance(context, ContextSpecification):
            context = ContextSpecification(context)
        analyzed = [analyze_keyword(self.index.analyzer, w) for w in keywords]
        keywords = analyzed or ["__none__"]
        probe = ContextQuery(KeywordQuery(keywords), context)
        specs = self.ranking.required_collection_specs(keywords)
        execution = self.plan.execute(probe, specs)
        return CollectionStatistics.from_values(execution.statistic_values)

    # -- internals ------------------------------------------------------------

    def _coerce(self, query: Union[ContextQuery, str]) -> ContextQuery:
        if isinstance(query, str):
            return parse_query(query)
        return query

    def _analyze(self, query: ContextQuery) -> ContextQuery:
        """Run query terms through the index's analyzers."""
        return analyze_query(
            query, self.index.analyzer, self.index.predicate_analyzer
        )

    def _resolve_statistics(
        self,
        query: ContextQuery,
        specs: Sequence[StatisticSpec],
        report: ExecutionReport,
        shared_contexts: Optional["SharedContextStore"] = None,
        path: str = PATH_AUTO,
        max_workers: Optional[int] = None,
    ) -> Tuple[Dict[StatisticSpec, float], List[int]]:
        """Collection statistics and the unranked result set, through the
        runtime's planned path.  With ``shared_contexts`` the
        straightforward path reuses the batch's materialisation of this
        context and replays its recorded cost into this query's counter.
        """
        plan = self._plan(report, query, specs, MODE_CONTEXT, path)
        return self.runtime._execute_resolution(
            self._context(report, shared_contexts, max_workers),
            plan, query, specs,
        )

    def _resolve_statistics_only(
        self,
        query: ContextQuery,
        specs: Sequence[StatisticSpec],
        report: ExecutionReport,
        path: str = PATH_AUTO,
    ) -> Dict[StatisticSpec, float]:
        """Statistics without the conjunctive result set (disjunctive
        top-k builds its own candidate stream)."""
        plan = self._plan(report, query, specs, MODE_DISJUNCTIVE, path)
        return self.runtime._execute_resolution(
            self._context(report), plan, query, specs, want_result=False
        )[0]

    def _global_statistics(self, keywords: Sequence[str]) -> CollectionStatistics:
        """``S_c(D)``: the whole-collection statistics (conventional mode),
        read from the runtime's collection part."""
        from .sharded_engine import ShardMergePlan

        return ShardMergePlan.merge_collection_stats(
            [self.runtime._collection_part(keywords)]
        )

    def _plan(
        self,
        report: ExecutionReport,
        query: ContextQuery,
        specs: Sequence[StatisticSpec],
        mode: str,
        path: str,
    ) -> ExplainedPlan:
        """Plan on the runtime's optimizer and bind the plan to the
        report.  An infeasible forced path raises :class:`QueryError`."""
        plan = self.optimizer.plan(query, specs, mode=mode, force=path)
        report.plan = plan
        plan.actual = report.counter
        return plan

    @staticmethod
    def _context(
        report: ExecutionReport, shared_contexts=None, max_workers=None
    ) -> ExecutionContext:
        return ExecutionContext(
            counter=report.counter,
            resolution=report.resolution,
            shared_contexts=shared_contexts,
            max_workers=max_workers,
        )

    @staticmethod
    def _nonempty_statistics(
        values: Dict[StatisticSpec, float],
        query: ContextQuery,
        report: ExecutionReport,
    ) -> CollectionStatistics:
        """``S_c(D_P)`` from resolved values; an empty context raises."""
        stats = CollectionStatistics.from_values(values)
        if stats.cardinality <= 0:
            raise EmptyContextError(f"context {query.context} matches no documents")
        report.context_size = stats.cardinality
        return stats

    @staticmethod
    def _results(hits, report: ExecutionReport, started: float) -> SearchResults:
        """Wrap the runtime's ``(score, doc_id, external_id)`` hits."""
        report.elapsed_seconds = time.perf_counter() - started
        return SearchResults(
            hits=[
                SearchHit(doc_id=doc_id, external_id=ext, score=score)
                for score, doc_id, ext in hits
            ],
            report=report,
        )


# -- batched execution ---------------------------------------------------------


class SharedContextStore:
    """Per-batch store of materialised contexts, keyed canonically.

    The key is the analysed query's ``predicates`` tuple, which
    :class:`~repro.core.query.ContextSpecification` already stores sorted
    and de-duplicated, so one context spelled two ways shares one entry.

    Many workload queries share a context (the paper's usage model: a
    specialist works inside one context for a session), so a batch
    materialises each distinct context exactly once.  The first query to
    need a context computes it under a per-key lock and records the
    :class:`CostCounter` of that intersection; every query (including the
    first) then has the recorded cost merged into its own counter, so
    per-query accounting is exactly what standalone execution would have
    charged while the work happens once.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, ...], Tuple[List[int], CostCounter]] = {}
        self._aggregates: Dict[tuple, Tuple[float, CostCounter]] = {}
        self._locks: Dict[tuple, threading.Lock] = {}
        self._registry_lock = threading.Lock()
        self.materialisations = 0
        self.reuses = 0
        self.aggregations = 0
        self.aggregate_reuses = 0

    def materialise(
        self,
        index: InvertedIndex,
        predicates: Tuple[str, ...],
        use_skips: bool = True,
    ) -> Tuple[List[int], CostCounter]:
        """The context's docids plus the recorded materialisation cost."""
        with self._registry_lock:
            lock = self._locks.setdefault(predicates, threading.Lock())
        with lock:
            entry = self._entries.get(predicates)
            if entry is None:
                counter = CostCounter()
                context_ids = intersect_many(
                    [index.predicate_postings(m) for m in predicates],
                    counter,
                    use_skips=use_skips,
                )
                entry = (context_ids, counter)
                self._entries[predicates] = entry
                self.materialisations += 1
            else:
                self.reuses += 1
            return entry

    def aggregate(
        self,
        predicates: Tuple[str, ...],
        kind: str,
        compute: Callable[[CostCounter], float],
    ) -> Tuple[float, CostCounter]:
        """A keyword-independent context aggregate, computed once per batch.

        Context aggregations (``|D_P|``, ``len(D_P)``, ``utc(D_P)``)
        depend only on the context, not the keywords, so queries sharing
        a context share these exactly like the materialisation itself:
        ``compute`` runs once against a fresh :class:`CostCounter`, and
        the recorded cost is replayed into every using query's counter
        (the caller merges it), keeping per-query accounting identical
        to standalone execution while the scan happens once.
        """
        key = (predicates, kind)
        with self._registry_lock:
            lock = self._locks.setdefault(key, threading.Lock())
        with lock:
            entry = self._aggregates.get(key)
            if entry is None:
                counter = CostCounter()
                entry = (compute(counter), counter)
                self._aggregates[key] = entry
                self.aggregations += 1
            else:
                self.aggregate_reuses += 1
            return entry

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class BatchOutcome:
    """One query's slot in a batch: results or the error that stopped it."""

    query: str
    results: Optional[SearchResults] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the query produced results."""
        return self.results is not None


@dataclass
class BatchReport:
    """Everything a batch run produced, in input order."""

    outcomes: List[BatchOutcome]
    mode: str
    workers: int
    elapsed_seconds: float = 0.0
    distinct_contexts: int = 0
    shared_context_hits: int = 0

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def errors(self) -> List[BatchOutcome]:
        """The outcomes that failed."""
        return [o for o in self.outcomes if not o.ok]

    def aggregate_counter(self) -> CostCounter:
        """Summed per-query counters (as-if-sequential work).

        Because shared materialisations replay their recorded cost into
        every query that uses them, this total equals what running each
        query standalone would have charged — the batch's actual saving
        shows up in ``elapsed_seconds`` and ``shared_context_hits``.
        """
        total = CostCounter()
        for outcome in self.outcomes:
            if outcome.results is not None:
                total.merge(outcome.results.report.counter)
        return total


class BatchExecutor:
    """Evaluates a workload of context queries as one batch.

    Per-query evaluation routes through the same planner stack as
    standalone :meth:`ContextSearchEngine.search` — the optimizer picks
    each query's path; the batch adds three sharing levers, all
    answer-preserving:

    * **shared context materialisations** — each distinct context is
      intersected once per batch (:class:`SharedContextStore`, reached
      through the ContextMaterialise operator), with the recorded cost
      replayed into every using query's counter;
    * **shared decoded postings** — all analysed keyword/predicate
      posting columns the workload touches are prefetched once up front
      (:meth:`InvertedIndex.prefetch`), so the batch pins each column a
      single time instead of per query;
    * **thread fan-out** — queries run concurrently on a
      :class:`~concurrent.futures.ThreadPoolExecutor`; evaluation is
      read-only over the index so no locking is needed beyond the
      materialisation store.  The pool size is also the per-query
      :class:`~repro.core.operators.ExecutionContext` thread budget.
    """

    def __init__(
        self, engine: ContextSearchEngine, max_workers: Optional[int] = None
    ):
        if max_workers is not None and max_workers < 1:
            raise QueryError(f"max_workers must be >= 1, got {max_workers}")
        self.engine = engine
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)

    # -- public API ---------------------------------------------------------

    def run(
        self,
        queries: Iterable[Union[ContextQuery, str]],
        top_k: Optional[int] = None,
        mode: str = "context",
        path: str = PATH_AUTO,
    ) -> BatchReport:
        """Evaluate every query; outcomes come back in input order.

        ``mode`` selects the evaluation path: ``"context"``
        (context-sensitive ranking), ``"conventional"`` (the baseline),
        or ``"disjunctive"`` (OR-semantics top-k).  ``path`` forces the
        physical path for every query in the batch (the query service's
        degradation lever: forcing skips candidate pricing, and never
        changes rankings).  A failing query (empty context,
        stopword-only keywords, …) records its error and never aborts
        the batch.
        """
        if mode not in ("context", "conventional", "disjunctive"):
            raise QueryError(f"unknown batch mode: {mode!r}")
        queries = list(queries)
        started = time.perf_counter()
        shared = SharedContextStore() if mode == "context" else None
        self._prefetch(queries)

        outcomes: List[Optional[BatchOutcome]] = [None] * len(queries)
        if len(queries) <= 1 or self.max_workers == 1:
            for i, query in enumerate(queries):
                outcomes[i] = self._evaluate(query, top_k, mode, shared, path)
        else:
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                futures = {
                    pool.submit(
                        self._evaluate, query, top_k, mode, shared, path
                    ): i
                    for i, query in enumerate(queries)
                }
                for future, i in futures.items():
                    outcomes[i] = future.result()

        report = BatchReport(
            outcomes=[o for o in outcomes if o is not None],
            mode=mode,
            workers=self.max_workers,
            elapsed_seconds=time.perf_counter() - started,
        )
        if shared is not None:
            report.distinct_contexts = len(shared)
            report.shared_context_hits = shared.reuses
        return report

    # -- internals ----------------------------------------------------------

    def _evaluate(
        self,
        query: Union[ContextQuery, str],
        top_k: Optional[int],
        mode: str,
        shared: Optional[SharedContextStore],
        path: str = PATH_AUTO,
    ) -> BatchOutcome:
        text = query if isinstance(query, str) else str(query)
        try:
            if mode == "conventional":
                results = self.engine.search_conventional(query, top_k=top_k)
            elif mode == "disjunctive":
                results = self.engine.search_disjunctive(
                    query, top_k=top_k if top_k is not None else 10, path=path
                )
            else:
                results = self.engine._search_impl(
                    query, top_k, shared, path=path,
                    max_workers=self.max_workers,
                )
            return BatchOutcome(query=text, results=results)
        except ReproError as exc:
            return BatchOutcome(query=text, error=f"{type(exc).__name__}: {exc}")

    def _prefetch(self, queries: Sequence[Union[ContextQuery, str]]) -> None:
        """Pin every posting column the workload touches, once.

        Postings are keyed by analysed terms (``pancreas`` is stored as
        ``pancrea``), so each query goes through the engine's analyzers
        before its terms are prefetched.
        """
        keywords: List[str] = []
        predicates: List[str] = []
        for query in queries:
            try:
                analyzed = self.engine._analyze(self.engine._coerce(query))
            except ReproError:
                continue  # the per-query evaluation will surface the error
            keywords.extend(analyzed.keywords)
            predicates.extend(analyzed.predicates)
        self.engine.index.prefetch(
            dict.fromkeys(keywords), dict.fromkeys(predicates)
        )
