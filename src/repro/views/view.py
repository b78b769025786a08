"""Materialized views ``V_K`` (Section 4.1–4.3).

A view groups the wide sparse table by a keyword subset ``K`` and stores,
per non-empty group, the aggregated parameter columns:

* ``count``   — COUNT(*)            (answers ``|D_P|``)
* ``sum_len`` — SUM(len(d))         (answers ``len(D_P)``)
* ``df[w]``   — COUNT(docs with w)  (answers ``df(w, D_P)``)
* ``tc[w]``   — SUM(tf(w, d))       (answers ``tc(w, D_P)``)

``df``/``tc`` columns exist only for the *frequent* content keywords the
builder was given (Section 6.2's storage rule: only ``|L_w| ≥ T_C``).
Groups are keyed by the subset of ``K`` present in the group's documents —
the sparse encoding of the 0/1 tuple — so ``ViewSize`` (the number of
non-empty tuples) is simply the number of stored groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence

try:  # numpy is optional: answer_many falls back to a python column scan
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatched tests
    _np = None

from ..errors import ViewError, ViewNotUsableError
from ..index.inverted_index import InvertedIndex
from ..index.postings import CostCounter
from ..core.query import ContextSpecification
from ..core.statistics import (
    CARDINALITY,
    DOC_FREQUENCY,
    TERM_COUNT,
    TOTAL_LENGTH,
    StatisticSpec,
)
from .wide_table import WideSparseTable


@dataclass
class GroupTuple:
    """One non-empty tuple of ``V_K``: the aggregates of one partition."""

    count: int = 0
    sum_len: int = 0
    df: Dict[str, int] = field(default_factory=dict)
    tc: Dict[str, int] = field(default_factory=dict)


# numpy's int64 bitmask path only holds this many keyword bits; wider
# views (or a numpy-less interpreter) use the python-int column scan.
_NUMPY_MASK_BITS = 63


class _ViewColumns:
    """Column-major image of a view's groups for batched answering.

    One parallel row per group: an integer bitmask of the group's keyword
    pattern plus the count/sum_len/df/tc parameter columns.  A context
    ``P ⊆ K`` becomes a mask, and the groups containing ``P`` are exactly
    those with ``pattern & wanted == wanted`` — a single vectorised
    compare + masked column sum on the numpy path, or one python loop per
    batch (instead of one per spec) on the fallback path.
    """

    def __init__(self, view: "MaterializedView"):
        terms = sorted(view.keyword_set)
        self.bit_for: Dict[str, int] = {t: 1 << i for i, t in enumerate(terms)}
        patterns: List[int] = []
        counts: List[int] = []
        sum_lens: List[int] = []
        df_cols: Dict[str, List[int]] = {t: [] for t in view.df_terms}
        tc_cols: Dict[str, List[int]] = {t: [] for t in view.tc_terms}
        for pattern, group in view.groups.items():
            mask = 0
            for t in pattern:
                mask |= self.bit_for[t]
            patterns.append(mask)
            counts.append(group.count)
            sum_lens.append(group.sum_len)
            for t, col in df_cols.items():
                col.append(group.df.get(t, 0))
            for t, col in tc_cols.items():
                col.append(group.tc.get(t, 0))
        self.use_numpy = _np is not None and len(terms) <= _NUMPY_MASK_BITS
        if self.use_numpy:
            self.patterns = _np.asarray(patterns, dtype=_np.int64)
            self.counts = _np.asarray(counts, dtype=_np.int64)
            self.sum_lens = _np.asarray(sum_lens, dtype=_np.int64)
            self.df_cols = {
                t: _np.asarray(col, dtype=_np.int64) for t, col in df_cols.items()
            }
            self.tc_cols = {
                t: _np.asarray(col, dtype=_np.int64) for t, col in tc_cols.items()
            }
        else:
            self.patterns = patterns
            self.counts = counts
            self.sum_lens = sum_lens
            self.df_cols = df_cols
            self.tc_cols = tc_cols

    def _column(self, spec: StatisticSpec):
        if spec.kind == CARDINALITY:
            return self.counts
        if spec.kind == TOTAL_LENGTH:
            return self.sum_lens
        if spec.kind == DOC_FREQUENCY:
            return self.df_cols[spec.term]
        return self.tc_cols[spec.term]

    def answer_many(
        self, specs: Sequence[StatisticSpec], wanted: FrozenSet[str]
    ) -> Dict[StatisticSpec, int]:
        wanted_mask = 0
        for t in wanted:
            wanted_mask |= self.bit_for[t]
        if self.use_numpy:
            mask = (self.patterns & wanted_mask) == wanted_mask
            return {
                spec: int(self._column(spec)[mask].sum()) for spec in specs
            }
        totals = {spec: 0 for spec in specs}
        columns = [(spec, self._column(spec)) for spec in specs]
        for row, pattern in enumerate(self.patterns):
            if pattern & wanted_mask == wanted_mask:
                for spec, col in columns:
                    totals[spec] += col[row]
        return totals


class MaterializedView:
    """An immutable view ``V_K`` answering statistics for any ``P ⊆ K``."""

    def __init__(
        self,
        keyword_set: Iterable[str],
        groups: Mapping[FrozenSet[str], GroupTuple],
        df_terms: Iterable[str] = (),
        tc_terms: Iterable[str] = (),
    ):
        self.keyword_set: FrozenSet[str] = frozenset(keyword_set)
        if not self.keyword_set:
            raise ViewError("a view must group by at least one keyword")
        self.groups: Dict[FrozenSet[str], GroupTuple] = dict(groups)
        self.df_terms: FrozenSet[str] = frozenset(df_terms)
        self.tc_terms: FrozenSet[str] = frozenset(tc_terms)
        # Lazily-built column-major image used by answer_many; must be
        # dropped (invalidate_columns) whenever self.groups mutates.
        self._columns: Optional[_ViewColumns] = None

    def invalidate_columns(self) -> None:
        """Drop the columnar cache after a mutation of ``groups``.

        Incremental maintenance (:func:`repro.views.maintenance.apply_document`)
        edits group tuples in place; the next ``answer_many`` rebuilds the
        columns from the mutated groups.
        """
        self._columns = None

    # -- size & storage ---------------------------------------------------

    @property
    def size(self) -> int:
        """``ViewSize(V_K)``: the number of non-empty tuples."""
        return len(self.groups)

    @property
    def num_parameter_columns(self) -> int:
        """count + sum_len + one df column per frequent term + tc columns."""
        return 2 + len(self.df_terms) + len(self.tc_terms)

    def storage_bytes(self, bytes_per_cell: int = 8) -> int:
        """Estimated storage: tuples × (keyword bitmap + parameter cells).

        Keyword columns are charged one bit each (rounded up to bytes);
        parameter cells ``bytes_per_cell`` each, matching the paper's
        back-of-envelope 14.3 MB-per-view style of accounting.
        """
        bitmap_bytes = (len(self.keyword_set) + 7) // 8
        row_bytes = bitmap_bytes + self.num_parameter_columns * bytes_per_cell
        return self.size * row_bytes

    # -- usability (Theorem 4.1) -------------------------------------------

    def covers_context(self, context: ContextSpecification) -> bool:
        """Condition 2 of Theorem 4.1: ``P ⊆ K``."""
        return context.is_covered_by(self.keyword_set)

    def has_column_for(self, spec: StatisticSpec) -> bool:
        """Condition 1 of Theorem 4.1: the parameter column exists."""
        if spec.kind in (CARDINALITY, TOTAL_LENGTH):
            return True
        if spec.kind == DOC_FREQUENCY:
            return spec.term in self.df_terms
        if spec.kind == TERM_COUNT:
            return spec.term in self.tc_terms
        return False

    def is_usable_for(
        self, spec: StatisticSpec, context: ContextSpecification
    ) -> bool:
        """Full usability test of Theorem 4.1."""
        return self.has_column_for(spec) and self.covers_context(context)

    # -- answering (the rewritten aggregation of Section 4.1) ---------------

    def answer(
        self,
        spec: StatisticSpec,
        context: ContextSpecification,
        counter: Optional[CostCounter] = None,
    ) -> int:
        """Answer one statistic by scanning the view's tuples.

        Sums the spec's parameter column over every group whose keyword
        pattern has all of ``P`` set — the rewritten query
        ``SELECT Agg(ContxPara) FROM V_K WHERE m_j1 = 1 AND …``.
        """
        return self.answer_many([spec], context, counter)[spec]

    def answer_many(
        self,
        specs: Sequence[StatisticSpec],
        context: ContextSpecification,
        counter: Optional[CostCounter] = None,
    ) -> Dict[StatisticSpec, int]:
        """Answer a batch of statistics in a single scan of the view.

        Complexity is ``O(ViewSize)`` regardless of the context size —
        Theorem 4.2's guarantee, and the reason large contexts are cheap
        once covered.  The scan runs over a lazily-built column-major
        image of the groups: a vectorised bitmask compare + masked column
        sums when numpy is available (and ``|K|`` fits an int64 mask), a
        python column loop otherwise.  Both paths return exactly what the
        tuple-scan reference (:meth:`_answer_many_reference`) returns, and
        the :class:`CostCounter` charge is the reference's — one scanned
        entry and one unit of model cost per view tuple — regardless of
        which path ran.
        """
        for spec in specs:
            if not self.is_usable_for(spec, context):
                raise ViewNotUsableError(
                    f"view over {sorted(self.keyword_set)} cannot answer "
                    f"{spec.column_name()} for context {context}"
                )
        if self._columns is None:
            self._columns = _ViewColumns(self)
        totals = self._columns.answer_many(specs, context.as_set())
        if counter is not None:
            counter.entries_scanned += self.size
            counter.model_cost += self.size
        return totals

    def _answer_many_reference(
        self,
        specs: Sequence[StatisticSpec],
        context: ContextSpecification,
        counter: Optional[CostCounter] = None,
    ) -> Dict[StatisticSpec, int]:
        """Tuple-scan reference implementation (ground truth for tests)."""
        for spec in specs:
            if not self.is_usable_for(spec, context):
                raise ViewNotUsableError(
                    f"view over {sorted(self.keyword_set)} cannot answer "
                    f"{spec.column_name()} for context {context}"
                )
        wanted = context.as_set()
        totals: Dict[StatisticSpec, int] = {spec: 0 for spec in specs}
        for pattern, group in self.groups.items():
            if not wanted <= pattern:
                continue
            for spec in specs:
                if spec.kind == CARDINALITY:
                    totals[spec] += group.count
                elif spec.kind == TOTAL_LENGTH:
                    totals[spec] += group.sum_len
                elif spec.kind == DOC_FREQUENCY:
                    totals[spec] += group.df.get(spec.term, 0)
                elif spec.kind == TERM_COUNT:
                    totals[spec] += group.tc.get(spec.term, 0)
        if counter is not None:
            counter.entries_scanned += self.size
            counter.model_cost += self.size
        return totals

    def __repr__(self) -> str:
        return (
            f"MaterializedView(|K|={len(self.keyword_set)}, size={self.size}, "
            f"df_cols={len(self.df_terms)})"
        )


def materialize_view(
    table: WideSparseTable,
    keyword_set: Iterable[str],
    df_terms: Iterable[str] = (),
    tc_terms: Iterable[str] = (),
) -> MaterializedView:
    """Build ``V_K`` from the wide sparse table, one view at a time.

    One table scan assigns every document to its group and accumulates
    COUNT/SUM(len); then one posting-list scan per ``df``/``tc`` term
    fills the term parameter columns (the posting list *is* the sparse
    ``tf(d, w)`` column of ``T``).  The reference builder:
    :func:`materialize_many` must produce exactly these groups.
    """
    keyword_set = frozenset(keyword_set)
    df_terms = frozenset(df_terms)
    tc_terms = frozenset(tc_terms)
    groups: Dict[FrozenSet[str], GroupTuple] = {}

    keys = table.group_keys(keyword_set)
    for row in table:
        key = keys[row.doc_id]
        group = groups.get(key)
        if group is None:
            group = groups[key] = GroupTuple()
        group.count += 1
        group.sum_len += row.length

    index: InvertedIndex = table.index
    for term in df_terms | tc_terms:
        # The bulk reader: a lazy v4 list is read without being promoted.
        doc_ids, tfs = index.postings(term).columns()
        for doc_id, tf in zip(doc_ids, tfs):
            group = groups[keys[doc_id]]
            if term in df_terms:
                group.df[term] = group.df.get(term, 0) + 1
            if term in tc_terms:
                group.tc[term] = group.tc.get(term, 0) + tf

    return MaterializedView(keyword_set, groups, df_terms, tc_terms)


# Cells (int64) per group-id gather in materialize_many: 128 KiB, glibc's
# default mmap threshold.  Larger temporaries are mmapped, and freeing one
# raises the allocator's threshold so later ones stay on the heap; a
# worker's resident set then keeps megabytes after the build (measured).
_GATHER_CELLS = 1 << 14


def _binned(gids, rows, cols, num_bins, weights=None):
    """Per-bin COUNT (and SUM of ``weights``) over ``gids[rows][:, cols]``.

    ``weights`` has one entry per column.  Gathers at most
    :data:`_GATHER_CELLS` cells at a time.  Float weights are exact here:
    every sum stays far below 2**53.
    """
    np = _np
    counts = np.zeros(num_bins, dtype=np.int64)
    sums = None if weights is None else np.zeros(num_bins)
    step = max(1, _GATHER_CELLS // max(1, len(cols)))
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        bins = gids[chunk[:, None], cols].ravel()
        counts += np.bincount(bins, minlength=num_bins)
        if weights is not None:
            sums += np.bincount(
                bins, weights=np.tile(weights, len(chunk)), minlength=num_bins
            )
    return counts, None if sums is None else sums.astype(np.int64)


def materialize_many(
    table: WideSparseTable,
    definitions: Iterable[Sequence[Iterable[str]]],
) -> List[MaterializedView]:
    """Build every ``(keyword_set, df_terms, tc_terms)`` view in one pass.

    ``V_K`` is a GROUP BY with distributive COUNT/SUM columns, so all the
    views of a catalog build as one columnar aggregate:

    * each view gets a docid-indexed group-id column (from
      :meth:`WideSparseTable.group_keys`), offset so that every view's
      groups own a disjoint range of one shared bin space;
    * COUNT and SUM(len) are a ``bincount`` each over the live rows of
      every view at once;
    * each distinct df/tc term's posting list is read once per table
      (:meth:`~repro.index.postings.PostingList.columns` — a lazy v4 list
      decodes each block once and stays lazy), and a ``bincount`` over
      the group ids of its docids, in every view carrying the term, gives
      df; the same bins weighted by tf give tc;
    * a gather larger than :data:`_GATHER_CELLS` is split across views
      into several ``bincount`` calls summed into the same bins;
    * group tuples are filled from the nonzero bins only.

    Returns views positionally aligned with ``definitions``, each with
    exactly the groups :func:`materialize_view` builds.  Without numpy
    this is :func:`materialize_view` per definition.
    """
    definitions = [
        (frozenset(keywords), frozenset(df_terms), frozenset(tc_terms))
        for keywords, df_terms, tc_terms in definitions
    ]
    if _np is None or not definitions:
        return [materialize_view(table, *definition) for definition in definitions]
    np = _np

    live = np.fromiter((row.doc_id for row in table), dtype=np.int64)
    lengths = np.fromiter((row.length for row in table), dtype=np.int64)
    # gids[v, d]: view v's bin for the document with docid d.  Docids
    # without a live row keep bin 0; no posting list ever names them.
    gids = np.zeros((len(definitions), table.num_slots), dtype=np.int64)
    groups: List[GroupTuple] = []  # one per bin, across all views
    group_keys: List[List[FrozenSet[str]]] = []
    for v, (keywords, _, _) in enumerate(definitions):
        keys = table.group_keys(keywords)
        codes: Dict[FrozenSet[str], int] = {}
        offset = len(groups)
        gids[v, live] = np.fromiter(
            (codes.setdefault(keys[d], len(codes)) for d in live.tolist()),
            dtype=np.int64,
            count=len(live),
        ) + offset
        group_keys.append(list(codes))
        groups.extend(GroupTuple() for _ in codes)
    num_bins = len(groups)

    all_views = np.arange(len(definitions))
    counts, sum_lens = _binned(gids, all_views, live, num_bins, lengths)
    for group, count, sum_len in zip(groups, counts.tolist(), sum_lens.tolist()):
        group.count = count
        group.sum_len = sum_len

    bin_view = np.repeat(all_views, [len(keys) for keys in group_keys])
    index: InvertedIndex = table.index
    terms = sorted(frozenset().union(*(df | tc for _, df, tc in definitions)))
    for term in terms:
        in_df = np.fromiter((term in df for _, df, _ in definitions), dtype=bool)
        in_tc = np.fromiter((term in tc for _, _, tc in definitions), dtype=bool)
        views = np.flatnonzero(in_df | in_tc)
        doc_ids, tfs = index.postings(term).columns()
        if not len(doc_ids):
            continue
        hits, tc_sums = _binned(
            gids,
            views,
            np.asarray(doc_ids, dtype=np.int64),
            num_bins,
            np.asarray(tfs, dtype=np.int64) if in_tc.any() else None,
        )
        nonzero = np.flatnonzero(hits)
        df_bins = nonzero[in_df[bin_view[nonzero]]]
        for b, df in zip(df_bins.tolist(), hits[df_bins].tolist()):
            groups[b].df[term] = df
        if tc_sums is not None:
            tc_bins = nonzero[in_tc[bin_view[nonzero]]]
            for b, tc in zip(tc_bins.tolist(), tc_sums[tc_bins].tolist()):
                groups[b].tc[term] = tc

    views_out: List[MaterializedView] = []
    offset = 0
    for (keywords, df_terms, tc_terms), keys in zip(definitions, group_keys):
        views_out.append(
            MaterializedView(
                keywords,
                dict(zip(keys, groups[offset : offset + len(keys)])),
                df_terms,
                tc_terms,
            )
        )
        offset += len(keys)
    return views_out
