"""Incremental workload-driven reselection (the continuous half of §5/§7).

The offline selectors (:mod:`~repro.selection.hybrid`,
:mod:`~repro.selection.workload_driven`) answer "which views, given this
collection and this workload" once.  :class:`IncrementalReselector`
re-answers it continuously: fed the live recorder's rolling workload, it
runs the greedy workload-driven selector under a storage budget and
materialises the chosen views — **reusing** any view from the previous
catalog whose definition ``(keyword_set, df_terms, tc_terms)`` is
unchanged instead of rebuilding it.

Reuse is sound because views are exact and incrementally maintained:
a reused view object has had every ingest/delete applied to it
(:func:`~repro.views.maintenance.maintain_catalog`), so it equals what a
fresh materialisation over the current collection would produce.  Only
genuinely new keyword sets pay a wide-table scan.

The output is a *new* :class:`~repro.views.catalog.ViewCatalog` object —
never a mutation of the old one — so in-flight queries holding the old
catalog keep a consistent view, and the planner's per-catalog coverage
cache starts empty (stale-plan invalidation by construction).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import SelectionError
from ..views.catalog import ViewCatalog
from ..views.estimator import ViewSizeEstimator
from ..views.view import materialize_many
from ..views.wide_table import WideSparseTable
from .workload_driven import (
    WorkloadEntry,
    evaluate_coverage,
    workload_driven_selection,
)

__all__ = ["IncrementalReselector", "ReselectionReport"]


@dataclass
class ReselectionReport:
    """What one reselection pass chose, reused, and rebuilt."""

    trigger: str = "manual"
    num_views: int = 0
    reused_views: int = 0
    built_views: int = 0
    storage_used: int = 0
    storage_budget: int = 0
    workload_coverage: float = 0.0
    distinct_contexts: int = 0
    num_docs: int = 0
    elapsed_seconds: float = 0.0
    keyword_sets: List[FrozenSet[str]] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-safe summary for ``info``/``healthz``/metrics payloads."""
        return {
            "trigger": self.trigger,
            "num_views": self.num_views,
            "reused_views": self.reused_views,
            "built_views": self.built_views,
            "storage_used": self.storage_used,
            "storage_budget": self.storage_budget,
            "workload_coverage": round(self.workload_coverage, 4),
            "distinct_contexts": self.distinct_contexts,
            "num_docs": self.num_docs,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }


class IncrementalReselector:
    """Re-runs workload-driven selection, reusing unchanged views.

    Parameters
    ----------
    storage_budget:
        The space constraint, in view tuples (the ``ViewSize`` unit).
    t_c:
        The frequent-term threshold for ``df`` parameter columns
        (Section 6.2's storage rule); ``None`` derives ``max(2, 1% of
        the collection)`` at each reselection, tracking collection
        growth.
    include_tc_columns:
        Also store ``tc`` columns for frequent terms (language-model
        rankings need them; TF-IDF/BM25 do not).
    base_keyword_sets:
        Keyword sets that are always materialised regardless of the
        workload (e.g. a guarantee-based catalog's sets) — the hybrid
        "guarantee floor + workload-driven working set" deployment.
    """

    def __init__(
        self,
        storage_budget: int,
        t_c: Optional[int] = None,
        include_tc_columns: bool = False,
        base_keyword_sets: Iterable[FrozenSet[str]] = (),
    ):
        if storage_budget < 1:
            raise SelectionError(
                f"storage budget must be >= 1, got {storage_budget}"
            )
        self.storage_budget = storage_budget
        self.t_c = t_c
        self.include_tc_columns = include_tc_columns
        self.base_keyword_sets = [frozenset(ks) for ks in base_keyword_sets]

    def effective_t_c(self, index) -> int:
        if self.t_c is not None:
            return self.t_c
        return max(2, index.num_docs // 100)

    def reselect(
        self,
        index,
        workload: Sequence[WorkloadEntry],
        previous_catalog: Optional[ViewCatalog] = None,
        trigger: str = "manual",
    ) -> Tuple[ViewCatalog, ReselectionReport]:
        """One full selection pass over the current collection.

        ``index`` is any committed index-like (a flat
        :class:`~repro.index.inverted_index.InvertedIndex` or a lifecycle
        snapshot).  Returns the new catalog plus the pass report; the
        caller installs the catalog through its engine's swap entry point.
        """
        started = time.perf_counter()
        table = WideSparseTable.from_index(index)
        estimator = ViewSizeEstimator(table, seed=0)

        selection = workload_driven_selection(
            list(workload), estimator, storage_budget=self.storage_budget
        )
        chosen: List[FrozenSet[str]] = list(self.base_keyword_sets)
        for ks in selection.keyword_sets:
            if ks not in chosen:
                chosen.append(ks)

        t_c = self.effective_t_c(index)
        frequent = frozenset(
            w for w in index.vocabulary if index.document_frequency(w) >= t_c
        )
        tc_terms = frequent if self.include_tc_columns else frozenset()

        # Reuse views whose full definition is unchanged: they are exact
        # for the current collection because incremental maintenance has
        # applied every mutation to them.
        previous = {}
        if previous_catalog is not None:
            previous = {view.keyword_set: view for view in previous_catalog}
        reusable = {}
        for ks in chosen:
            view = previous.get(ks)
            if (
                view is not None
                and view.df_terms == frequent
                and view.tc_terms == tc_terms
            ):
                reusable[ks] = view
        # Everything else is built in one pass over the table.
        to_build = [ks for ks in chosen if ks not in reusable]
        fresh = dict(
            zip(
                to_build,
                materialize_many(
                    table, [(ks, frequent, tc_terms) for ks in to_build]
                ),
            )
        )
        views = [reusable[ks] if ks in reusable else fresh[ks] for ks in chosen]
        reused, built = len(chosen) - len(to_build), len(to_build)

        catalog = ViewCatalog(views)
        report = ReselectionReport(
            trigger=trigger,
            num_views=len(views),
            reused_views=reused,
            built_views=built,
            storage_used=sum(view.size for view in views),
            storage_budget=self.storage_budget,
            workload_coverage=evaluate_coverage(chosen, list(workload)),
            distinct_contexts=len(workload),
            num_docs=index.num_docs,
            elapsed_seconds=time.perf_counter() - started,
            keyword_sets=chosen,
        )
        return catalog, report
