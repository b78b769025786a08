"""Search over time-extended contexts (the Section 7 range extension).

A :class:`TemporalContextQuery` is ``Q_k | P ∧ attribute ∈ [low, high]``:
the context is the documents satisfying the predicates *and* the range.
Evaluation mirrors the main engine: statistics come from a usable
temporal view when one exists, otherwise from a straightforward plan
that materialises the range-filtered context.  Query analysis
(:func:`~repro.core.query.analyze_query`) and scoring
(:mod:`repro.core.scoring`) are the main engine's own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.engine import ExecutionReport, SearchHit, SearchResults
from ..core.query import ContextQuery, ContextSpecification, analyze_query, parse_query
from ..core.ranking import DEFAULT_RANKING_FUNCTION, RankingFunction
from ..core.scoring import rank_candidates, score_candidates
from ..core.statistics import (
    CARDINALITY,
    DOC_FREQUENCY,
    TERM_COUNT,
    TOTAL_LENGTH,
    CollectionStatistics,
    StatisticSpec,
)
from ..errors import EmptyContextError, QueryError
from ..index.inverted_index import InvertedIndex
from ..index.searcher import BooleanSearcher
from ..views.rewrite import rare_term_statistics
from .attributes import NumericAttributeIndex
from .views import TemporalView


@dataclass(frozen=True)
class TemporalContextQuery:
    """``Q_k | P ∧ low <= attribute <= high`` (``None`` bounds are open)."""

    query: ContextQuery
    low: Optional[int] = None
    high: Optional[int] = None

    def __post_init__(self):
        if (
            self.low is not None
            and self.high is not None
            and self.low > self.high
        ):
            raise QueryError(
                f"empty range: low={self.low} > high={self.high}"
            )

    @property
    def keywords(self) -> Tuple[str, ...]:
        return self.query.keywords

    @property
    def predicates(self) -> Tuple[str, ...]:
        return self.query.predicates

    def __str__(self) -> str:
        low = "-inf" if self.low is None else self.low
        high = "+inf" if self.high is None else self.high
        return f"{self.query} ∧ [{low}, {high}]"


class TemporalSearchEngine:
    """Context-sensitive search with range-extended context specifications."""

    def __init__(
        self,
        index: InvertedIndex,
        attributes: NumericAttributeIndex,
        ranking: Optional[RankingFunction] = None,
        views: Sequence[TemporalView] = (),
    ):
        if not index.committed:
            raise QueryError("index must be committed before searching")
        self.index = index
        self.attributes = attributes
        self.ranking = ranking if ranking is not None else DEFAULT_RANKING_FUNCTION
        self.views: List[TemporalView] = list(views)
        self.searcher = BooleanSearcher(index)

    def add_view(self, view: TemporalView) -> None:
        self.views.append(view)

    def search(
        self,
        query: Union[TemporalContextQuery, str],
        low: Optional[int] = None,
        high: Optional[int] = None,
        top_k: Optional[int] = None,
    ) -> SearchResults:
        """Evaluate a temporal context query.

        Accepts either a :class:`TemporalContextQuery` or the plain
        ``"w1 w2 | m1 m2"`` syntax plus ``low``/``high`` bounds.
        """
        if isinstance(query, str):
            query = TemporalContextQuery(parse_query(query), low, high)
        started = time.perf_counter()
        report = ExecutionReport()
        analyzed = TemporalContextQuery(
            analyze_query(
                query.query, self.index.analyzer, self.index.predicate_analyzer
            ),
            query.low,
            query.high,
        )

        specs = self.ranking.required_collection_specs(analyzed.keywords)
        values, result_ids = self._resolve(analyzed, specs, report)
        stats = CollectionStatistics.from_values(values)
        if stats.cardinality <= 0:
            raise EmptyContextError(
                f"temporal context {analyzed} matches no documents"
            )
        report.context_size = stats.cardinality

        scored = score_candidates(
            self.index, self.ranking, analyzed.keywords, result_ids, stats
        )
        hits = [
            SearchHit(doc_id=doc_id, external_id=ext, score=score)
            for score, doc_id, ext in rank_candidates(
                [(score, doc_id, ext) for doc_id, score, ext in scored], top_k
            )
        ]
        report.result_size = len(result_ids)
        report.elapsed_seconds = time.perf_counter() - started
        return SearchResults(hits=hits, report=report)

    # -- internals ------------------------------------------------------------

    def _find_view(
        self,
        specs: Sequence[StatisticSpec],
        context: ContextSpecification,
        low: Optional[int],
        high: Optional[int],
    ) -> Optional[TemporalView]:
        """Smallest view usable for the context-level specs and range."""
        context_specs = [
            s for s in specs if s.kind in (CARDINALITY, TOTAL_LENGTH)
        ]
        best: Optional[TemporalView] = None
        for view in self.views:
            if all(
                view.is_usable_for(s, context, low, high)
                for s in context_specs
            ):
                if best is None or view.size < best.size:
                    best = view
        return best

    def _resolve(
        self,
        query: TemporalContextQuery,
        specs: Sequence[StatisticSpec],
        report: ExecutionReport,
    ) -> Tuple[Dict[StatisticSpec, float], List[int]]:
        context = query.query.context
        view = self._find_view(specs, context, query.low, query.high)
        if view is not None:
            report.resolution.path = "views"
            report.resolution.views_used = 1
            report.resolution.view_tuples_scanned = view.size
            answerable = [s for s in specs if view.has_column_for(s)]
            values: Dict[StatisticSpec, float] = dict(
                view.answer_many(
                    answerable, context, query.low, query.high, report.counter
                )
            )
            leftovers = [s for s in specs if s not in values]
            if leftovers:
                values.update(
                    rare_term_statistics(
                        self.index,
                        query.predicates,
                        leftovers,
                        report.counter,
                        lambda d: self.attributes.in_range(
                            d, query.low, query.high
                        ),
                    )
                )
                report.resolution.rare_term_fallbacks = len(
                    {s.term for s in leftovers}
                )
            result_ids = self._range_filter(
                self.searcher.search_conjunction(
                    query.keywords, query.predicates, report.counter
                ),
                query,
            )
            return values, result_ids

        # Straightforward: materialise the range-filtered context.
        report.resolution.path = "straightforward"
        context_ids = self._range_filter(
            self.searcher.search_context(query.predicates, report.counter),
            query,
        )
        if not context_ids:
            raise EmptyContextError(
                f"temporal context {query} matches no documents"
            )
        lengths = self.index.document_lengths()
        values = {}
        context_set = set(context_ids)
        for spec in specs:
            if spec.kind == CARDINALITY:
                values[spec] = len(context_ids)
            elif spec.kind == TOTAL_LENGTH:
                values[spec] = sum(lengths[d] for d in context_ids)
        report.counter.model_cost += 2 * len(context_ids)
        for term in dict.fromkeys(query.keywords):
            plist = self.index.postings(term)
            df = tc = 0
            for doc_id, tf in plist:
                if doc_id in context_set:
                    df += 1
                    tc += tf
            report.counter.entries_scanned += len(plist)
            report.counter.model_cost += len(plist)
            for spec in specs:
                if spec.term == term and spec.kind == DOC_FREQUENCY:
                    values[spec] = df
                elif spec.term == term and spec.kind == TERM_COUNT:
                    values[spec] = tc
        result_ids = [
            d
            for d in self.searcher.search_conjunction(
                query.keywords, query.predicates, report.counter
            )
            if d in context_set
        ]
        return values, result_ids

    def _range_filter(
        self, doc_ids: Sequence[int], query: TemporalContextQuery
    ) -> List[int]:
        if query.low is None and query.high is None:
            return list(doc_ids)
        return [
            d
            for d in doc_ids
            if self.attributes.in_range(d, query.low, query.high)
        ]
