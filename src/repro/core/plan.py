"""The straightforward execution plan (Section 3.1, Figure 3).

Evaluates a context-sensitive query with no materialized views:

1. intersect the predicate lists to materialise the context
   ``L_m1 ∩ … ∩ L_mc`` (cannot start from a selective keyword — every
   context document is needed for the aggregations);
2. aggregate ``γ_count`` and ``γ_sum(len)`` over the context for
   ``|D_P|`` and ``len(D_P)``;
3. intersect the context with each keyword list for ``df(w_i, D_P)``
   (and sum matched tfs when ``tc(w_i, D_P)`` is requested);
4. the top-level intersection of step 3's outputs is the unranked result.

The plan's :class:`CostCounter` records both actual entries touched and
the paper's analytic model cost, which benches report side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import EmptyContextError
from ..index.aggregation import aggregate_count, aggregate_sum
from ..index.intersection import intersect_many
from ..index.inverted_index import InvertedIndex
from ..index.kernels import intersect_ids_with_tfs
from ..index.postings import CostCounter, PostingList
from .query import ContextQuery
from .statistics import (
    CARDINALITY,
    DOC_FREQUENCY,
    TERM_COUNT,
    TOTAL_LENGTH,
    UNIQUE_TERMS,
    StatisticSpec,
)


@dataclass
class PlanExecution:
    """Everything the straightforward plan produced for one query."""

    result_ids: List[int]
    statistic_values: Dict[StatisticSpec, float]
    context_size: int
    counter: CostCounter = field(default_factory=CostCounter)


def _intersect_with_context(
    context_ids: Sequence[int],
    plist: PostingList,
    counter: Optional[CostCounter],
    want_tc: bool,
) -> tuple:
    """Intersect a materialised context with one keyword list.

    Returns ``(matched_ids, df, tc)`` where ``tc`` is the summed tf of the
    keyword over matched documents (0 when ``want_tc`` is false).  This is
    the ``L_w ∩ L_m1 ∩ L_m2`` operator of Figure 3 with an optional SUM
    piggybacked on the same scan, evaluated by the adaptive array kernel.
    """
    matched, tc_total = intersect_ids_with_tfs(
        context_ids, plist, counter=None, want_tc=want_tc
    )
    if counter is not None:
        # Same accounting as the sequential formulation: one touched entry
        # per context document, plus the analytic scan model.
        n = len(plist.doc_ids)
        counter.entries_scanned += len(context_ids)
        counter.model_cost += len(context_ids) + min(len(context_ids), n)
    return matched, len(matched), tc_total


class StraightforwardPlan:
    """Figure 3 evaluated directly over the inverted index."""

    def __init__(self, index: InvertedIndex):
        self.index = index

    def execute(
        self,
        query: ContextQuery,
        specs: Sequence[StatisticSpec],
        counter: Optional[CostCounter] = None,
        context_ids: Optional[Sequence[int]] = None,
        precomputed: Optional[Dict[StatisticSpec, float]] = None,
    ) -> PlanExecution:
        """Run the full plan: context, aggregations, per-keyword stats, result.

        ``context_ids`` may carry an already-materialised context (the
        batch executor shares one materialisation across queries with the
        same predicates); the plan then skips the bottom intersection and
        charges nothing for it — the caller owns replaying the recorded
        materialisation cost so per-query accounting stays exact.
        ``precomputed`` extends the same contract to keyword-independent
        aggregates (``|D_P|``, ``len(D_P)``, ``utc(D_P)``): values present
        there are taken as-is and their scans skipped, with the caller
        again owning the cost replay.

        Raises :class:`EmptyContextError` when the context matches nothing —
        context statistics (and therefore ranking) are undefined there.
        """
        counter = counter if counter is not None else CostCounter()
        precomputed = precomputed or {}

        if context_ids is None:
            predicate_lists = [
                self.index.predicate_postings(m) for m in query.predicates
            ]
            context_ids = intersect_many(predicate_lists, counter)
        if not context_ids:
            raise EmptyContextError(
                f"context {query.context} matches no documents"
            )

        values: Dict[StatisticSpec, float] = {}
        lengths = self.index.document_lengths()
        want_tc_terms = {
            spec.term for spec in specs if spec.kind == TERM_COUNT
        }
        df_terms = {spec.term for spec in specs if spec.kind == DOC_FREQUENCY}

        for spec in specs:
            if spec in precomputed:
                values[spec] = precomputed[spec]
            elif spec.kind == CARDINALITY:
                values[spec] = aggregate_count(context_ids, counter)
            elif spec.kind == TOTAL_LENGTH:
                values[spec] = aggregate_sum(context_ids, lengths, counter)
            elif spec.kind == UNIQUE_TERMS:
                values[spec] = self._unique_terms(context_ids, counter)

        # One context scan per distinct keyword computes df and (when
        # requested) tc together, and doubles as the matched-docs input to
        # the final conjunction.
        per_keyword_matches: Dict[str, List[int]] = {}
        for term in dict.fromkeys(query.keywords):
            plist = self.index.postings(term)
            matched, df, tc_total = _intersect_with_context(
                context_ids, plist, counter, want_tc=term in want_tc_terms
            )
            per_keyword_matches[term] = matched
            if term in df_terms:
                values[StatisticSpec(DOC_FREQUENCY, term)] = df
            if term in want_tc_terms:
                values[StatisticSpec(TERM_COUNT, term)] = tc_total

        result_ids = self._final_conjunction(per_keyword_matches)
        return PlanExecution(
            result_ids=result_ids,
            statistic_values=values,
            context_size=len(context_ids),
            counter=counter,
        )

    def _final_conjunction(
        self, per_keyword_matches: Dict[str, List[int]]
    ) -> List[int]:
        """Top operator of Figure 3: intersect the per-keyword match sets."""
        ordered = sorted(per_keyword_matches.values(), key=len)
        if not ordered:
            return []
        result = set(ordered[0])
        for matched in ordered[1:]:
            result.intersection_update(matched)
            if not result:
                break
        return sorted(result)

    def _unique_terms(
        self, context_ids: Sequence[int], counter: CostCounter
    ) -> int:
        """``utc(D_P)``: distinct searchable terms across the context.

        Requires touching every context document's token sets — the most
        expensive Table 1 statistic, provided for completeness.
        """
        vocab: set = set()
        for doc_id in context_ids:
            doc = self.index.store.get(doc_id)
            for name in self.index.searchable_fields:
                vocab.update(doc.field_tokens.get(name, ()))
        counter.entries_scanned += len(context_ids)
        counter.model_cost += len(context_ids)
        return len(vocab)
