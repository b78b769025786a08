"""Query-time statistic resolution helpers (Sections 4.1, 6.2).

The catalog handles the view-rewriting half (``P ⊆ K`` → scan ``V_K``).
This module implements the other half of Section 6.2's storage rule: a
view only stores ``df(w, ·)`` columns for keywords with ``|L_w| ≥ T_C``,
so statistics for *rare* keywords are computed at query time with a
selective-first intersection — cheap precisely because the keyword list
is short (``|L_w| < T_C`` bounds the work; skip pointers do the rest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.query import ContextQuery
from ..core.statistics import DOC_FREQUENCY, TERM_COUNT, StatisticSpec
from ..errors import QueryError
from ..index.inverted_index import InvertedIndex
from ..index.postings import CostCounter, PostingCursor, PostingList


@dataclass
class ResolutionReport:
    """How one query's collection statistics were obtained.

    ``path`` is ``"views"`` (some view covered the context),
    ``"straightforward"`` (full Figure 3 plan), or ``"mixed"`` is never
    needed — rare-keyword fallbacks still count as the views path, which
    is exactly the configuration Figure 7 measures.
    """

    path: str = "straightforward"
    views_used: int = 0
    view_tuples_scanned: int = 0
    rare_term_fallbacks: int = 0
    specs_from_views: int = 0
    specs_from_fallback: int = 0


def compute_rare_term_statistics(
    index: InvertedIndex,
    query: ContextQuery,
    specs: Sequence[StatisticSpec],
    counter: Optional[CostCounter] = None,
) -> Dict[StatisticSpec, int]:
    """Compute ``df``/``tc`` specs by intersecting ``L_w`` with the context lists.

    Evaluates ``L_w ∩ L_m1 ∩ … ∩ L_mc`` starting from ``L_w`` (the most
    selective list by assumption) — the paper's example of why the
    ``L_m1 ∩ L_m2`` intersection need not be enforced in the plan when a
    view already supplies the context-level statistics.  Work is bounded
    by ``|L_w| · (1 + #predicates)`` entry touches plus skipped segments —
    the ``|L_i| + |L_i| · M0`` regime of Section 3.2.2 — which is the
    model cost charged.

    Only ``df``/``tc`` specs are accepted: other kinds have no
    selective-first shortcut and must go through views or the full plan.
    """
    values = rare_term_statistics(index, query.predicates, specs, counter, None)
    if counter is not None:
        terms = {spec.term for spec in specs}
        walked = sum(len(index.postings(term)) for term in terms)
        counter.model_cost += walked * (1 + len(query.predicates))
    return values


def rare_term_statistics(
    index: InvertedIndex,
    predicates: Sequence[str],
    specs: Sequence[StatisticSpec],
    counter: Optional[CostCounter],
    keep: Optional[Callable[[int], bool]],
) -> Dict[StatisticSpec, int]:
    """``df``/``tc`` per keyword by :func:`selective_intersection`, with
    no model cost charged; ``keep`` (a docid test, such as the temporal
    engine's range, or None) drops keyword postings before any predicate
    probe."""
    by_term: Dict[str, List[StatisticSpec]] = {}
    for spec in specs:
        if spec.kind not in (DOC_FREQUENCY, TERM_COUNT):
            raise QueryError(
                f"rare-term fallback cannot compute {spec.column_name()!r}"
            )
        by_term.setdefault(spec.term, []).append(spec)
    predicate_lists = [index.predicate_postings(m) for m in predicates]
    values: Dict[StatisticSpec, int] = {}
    for term, term_specs in by_term.items():
        matched = selective_intersection(
            index.postings(term), predicate_lists, counter, keep
        )
        df = len(matched)
        tc = sum(tf for _, tf in matched)
        for spec in term_specs:
            values[spec] = df if spec.kind == DOC_FREQUENCY else tc
    return values


def selective_intersection(
    keyword_list: PostingList,
    predicate_lists: Sequence[PostingList],
    counter: Optional[CostCounter],
    keep: Optional[Callable[[int], bool]],
) -> List[Tuple[int, int]]:
    """Walk the keyword list, seeking one forward cursor per predicate list.

    Returns matched ``(docid, tf)`` pairs; every keyword posting walked
    is charged as one scanned entry, and the cursors charge their seeks.
    """
    cursors = [PostingCursor(plist) for plist in predicate_lists]
    matched: List[Tuple[int, int]] = []
    for doc_id, tf in keyword_list:
        if counter is not None:
            counter.entries_scanned += 1
        if keep is not None and not keep(doc_id):
            continue
        for cursor in cursors:
            if cursor.seek(doc_id, counter) != doc_id:
                break
        else:
            matched.append((doc_id, tf))
    return matched
