"""The hybrid view selector (Section 5.3) and the end-to-end pipeline.

The decomposition pass quickly splits the KAG into pieces, most of which
become single views; the residues — dense clique-like pieces too large
for one view — are handed to the data-mining pass (miner + Algorithm 1),
which is affordable there because residues are much smaller than the
original keyword set.

:func:`select_views` is the library's one-call entry point: it builds the
transaction DB, the KAG, runs the chosen strategy, materialises every
selected view (with ``df``/``tc`` columns for frequent content keywords
per Section 6.2's storage rule), and returns a ready
:class:`~repro.views.catalog.ViewCatalog`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from ..errors import SelectionError
from ..index.inverted_index import InvertedIndex
from ..views.catalog import ViewCatalog
from ..views.estimator import ViewSizeEstimator
from ..views.view import materialize_many
from ..views.wide_table import WideSparseTable
from .decomposition import decomposition_select
from .greedy import ViewSizeFn, greedy_view_selection, remove_subsumed
from .kag import KeywordAssociationGraph
from .mining.eclat import eclat
from .mining.itemsets import TransactionDatabase


@dataclass
class SelectionReport:
    """What a selection run did — the Section 6.2 table's raw material."""

    strategy: str
    t_c: int
    t_v: int
    num_views: int = 0
    views_from_decomposition: int = 0
    views_from_mining: int = 0
    dense_residues: int = 0
    separators_computed: int = 0
    supports_computed: int = 0
    mining_work_units: int = 0
    keyword_sets: List[FrozenSet[str]] = field(default_factory=list)


def max_combination_size(t_v: int) -> int:
    """Largest ``|P|`` with ``ViewSize(V_P) ≤ T_V`` guaranteed a priori.

    ``ViewSize ≤ 2^|K|``, so capping mined combinations at
    ``floor(log2 T_V)`` keywords guarantees Algorithm 1's input assumption
    (the paper's "upper bound on the number of keywords").
    """
    if t_v < 2:
        raise SelectionError(f"T_V must be >= 2, got {t_v}")
    return max(1, int(math.log2(t_v)))


def mining_based_selection(
    db: TransactionDatabase,
    view_size: ViewSizeFn,
    t_c: int,
    t_v: int,
    max_size: Optional[int] = None,
    budget: Optional[int] = None,
) -> SelectionReport:
    """Pure bottom-up selection: mine all high-support combinations, cover.

    Uses Eclat (the fastest of the three miners on these densities); the
    Apriori/FP-growth infeasibility comparison lives in the benches, not
    on this API path.
    """
    max_size = max_size if max_size is not None else max_combination_size(t_v)
    mined = eclat(db, min_support=t_c, max_size=max_size, budget=budget)
    combos = mined.maximal_itemsets()
    keyword_sets = greedy_view_selection(combos, view_size, t_v)
    report = SelectionReport(strategy="mining", t_c=t_c, t_v=t_v)
    report.mining_work_units = mined.work_units
    report.views_from_mining = len(keyword_sets)
    report.num_views = len(keyword_sets)
    report.keyword_sets = keyword_sets
    return report


def hybrid_selection(
    db: TransactionDatabase,
    view_size: ViewSizeFn,
    t_c: int,
    t_v: int,
    replicate: str = "support",
    max_size: Optional[int] = None,
    max_trials: Optional[int] = 16,
    kag: Optional[KeywordAssociationGraph] = None,
) -> SelectionReport:
    """Section 5.3: decomposition first, mining on the dense residues.

    ``max_trials`` caps Algorithm 2's sweep positions per separator
    (the paper sweeps all ``n``; 16 evenly-spaced positions select the
    same views at a fraction of the max-flow cost on our graph sizes —
    pass ``None`` for the faithful full sweep).
    """
    max_size = max_size if max_size is not None else max_combination_size(t_v)
    if kag is None:
        kag = KeywordAssociationGraph.from_transactions(db, t_c)
    support_fn = db.support if replicate == "support" else None
    decomposition = decomposition_select(
        kag,
        view_size,
        t_v,
        t_c,
        replicate=replicate,
        support_fn=support_fn,
        max_trials=max_trials,
    )
    report = SelectionReport(strategy="hybrid", t_c=t_c, t_v=t_v)
    report.separators_computed = decomposition.stats.separators_computed
    report.supports_computed = decomposition.stats.supports_computed
    report.dense_residues = len(decomposition.dense_residues)

    keyword_sets: List[FrozenSet[str]] = list(decomposition.covered)
    report.views_from_decomposition = len(keyword_sets)

    for residue in decomposition.dense_residues:
        projected = db.project(residue)
        mined = eclat(projected, min_support=t_c, max_size=max_size)
        report.mining_work_units += mined.work_units
        combos = mined.maximal_itemsets()
        if not combos:
            continue
        residue_views = greedy_view_selection(combos, view_size, t_v)
        report.views_from_mining += len(residue_views)
        keyword_sets.extend(residue_views)

    # Deduplicate and drop keyword sets subsumed by larger selected sets.
    keyword_sets = remove_subsumed(keyword_sets)
    report.keyword_sets = keyword_sets
    report.num_views = len(keyword_sets)
    return report


def decomposition_only_selection(
    db: TransactionDatabase,
    view_size: ViewSizeFn,
    t_c: int,
    t_v: int,
    replicate: str = "always",
    max_trials: Optional[int] = None,
) -> SelectionReport:
    """Pure top-down selection; dense residues become (oversized) views.

    Kept as an ablation arm: shows why the hybrid exists — residues that
    are cliques above ``T_V`` violate the view-size constraint here.
    """
    kag = KeywordAssociationGraph.from_transactions(db, t_c)
    decomposition = decomposition_select(
        kag, view_size, t_v, t_c, replicate=replicate,
        support_fn=db.support, max_trials=max_trials,
    )
    keyword_sets = remove_subsumed(
        list(decomposition.covered) + list(decomposition.dense_residues)
    )
    report = SelectionReport(strategy="decomposition", t_c=t_c, t_v=t_v)
    report.separators_computed = decomposition.stats.separators_computed
    report.supports_computed = decomposition.stats.supports_computed
    report.dense_residues = len(decomposition.dense_residues)
    report.views_from_decomposition = len(keyword_sets)
    report.num_views = len(keyword_sets)
    report.keyword_sets = keyword_sets
    return report


_STRATEGIES = {
    "mining": mining_based_selection,
    "hybrid": hybrid_selection,
}


def select_views(
    index: InvertedIndex,
    t_c: int,
    t_v: int,
    strategy: str = "hybrid",
    include_tc_columns: bool = False,
    estimator: Optional[ViewSizeEstimator] = None,
    **strategy_kwargs,
) -> tuple:
    """End-to-end: select keyword sets and materialise the view catalog.

    Parameters
    ----------
    index:
        A committed :class:`InvertedIndex`.
    t_c:
        Context-size threshold (absolute document count).  Contexts at or
        above it are guaranteed view coverage (Problem 5.1).
    t_v:
        View-size threshold (non-empty tuples per view).
    strategy:
        ``"hybrid"`` (Section 5.3, the paper's implementation) or
        ``"mining"`` (pure Section 5.1).
    include_tc_columns:
        Also materialise ``tc(w, ·)`` columns (needed by the Dirichlet
        language model; the paper's TF-IDF setup needs only ``df``).
    estimator:
        Optional pre-built view-size oracle (reused across selections in
        sweeps).

    Returns ``(catalog, report)``.
    """
    if strategy not in _STRATEGIES:
        raise SelectionError(
            f"unknown strategy {strategy!r}; expected one of {sorted(_STRATEGIES)}"
        )
    table = WideSparseTable.from_index(index)
    db = TransactionDatabase(table.predicate_sets())
    if estimator is None:
        estimator = ViewSizeEstimator(table)

    report = _STRATEGIES[strategy](db, estimator, t_c, t_v, **strategy_kwargs)

    # Section 6.2 storage rule: df columns only for frequent content terms.
    frequent_terms = [
        w for w in index.vocabulary if index.document_frequency(w) >= t_c
    ]
    tc_terms = frequent_terms if include_tc_columns else ()
    catalog = ViewCatalog(
        materialize_many(
            table,
            [(ks, frequent_terms, tc_terms) for ks in report.keyword_sets],
        )
    )
    return catalog, report
