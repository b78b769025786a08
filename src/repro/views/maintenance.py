"""Incremental maintenance of materialized views under inserts and deletes.

The paper materialises views once over a static collection; a production
deployment must survive a growing *and shrinking* corpus.  Because every
view column is a *distributive* aggregate (COUNT, SUM), both directions
maintain views exactly with per-document deltas — no rescan of the
collection:

* the document's group key is its predicate set restricted to ``K``;
* COUNT(*) and SUM(len) update in O(1);
* each ``df``/``tc`` column updates from the document's term frequencies;
* deletion (:func:`retract_document`) applies the exact reverse delta,
  dropping a group tuple when its count reaches zero — so a view after
  any add/delete interleaving equals the view materialised from scratch
  over the surviving documents (the lifecycle tests assert this).

The segment lifecycle drives this module at segment granularity:
:func:`segment_delta` folds one sealed segment's live documents into a
catalog in a single pass (:func:`apply_segment_delta`), which is how a
lifecycle engine keeps its catalog exact across flushes without
re-materialising.

What incremental maintenance *cannot* preserve is the selection-time
guarantee: as the collection grows, context sizes drift across ``T_C``
and new group patterns can push a view past ``T_V``.
:class:`MaintenanceReport` surfaces both so operators know when to
re-run view selection, and :func:`needs_reselection` encodes the
re-selection policy.

Maintenance invalidates nothing itself: every mutation it follows moves
the engine's :class:`~repro.core.backend.VersionVector`, and every cache
above the views (the serving result cache, the router's) is guarded by
that one token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence

from ..index.documents import StoredDocument
from ..index.inverted_index import InvertedIndex
from .catalog import ViewCatalog
from .view import GroupTuple, MaterializedView


@dataclass
class MaintenanceReport:
    """What a maintenance pass did, and whether guarantees still hold."""

    documents_applied: int = 0
    views_updated: int = 0
    new_group_tuples: int = 0
    views_over_tv: List[FrozenSet[str]] = field(default_factory=list)
    growth_since_selection: float = 0.0

    def merge(self, other: "MaintenanceReport") -> None:
        self.documents_applied += other.documents_applied
        self.views_updated += other.views_updated
        self.new_group_tuples += other.new_group_tuples
        self.views_over_tv.extend(other.views_over_tv)


def document_delta(
    index: InvertedIndex, stored: StoredDocument
) -> tuple:
    """Extract the (predicates, length, term→tf) delta of one stored doc."""
    predicates = frozenset(
        stored.field_tokens.get(index.predicate_field, ())
    )
    tf_counts: Dict[str, int] = {}
    for name in index.searchable_fields:
        for token in stored.field_tokens.get(name, ()):
            tf_counts[token] = tf_counts.get(token, 0) + 1
    return predicates, stored.length, tf_counts


def apply_document(
    view: MaterializedView,
    predicates: FrozenSet[str],
    length: int,
    term_frequencies: Mapping[str, int],
) -> bool:
    """Fold one inserted document into ``view``.

    Returns ``True`` when the document created a brand-new group tuple
    (the event that can grow ``ViewSize`` past ``T_V``).
    """
    key = predicates & view.keyword_set
    group = view.groups.get(key)
    created = group is None
    if created:
        group = view.groups[key] = GroupTuple()
    group.count += 1
    group.sum_len += length
    for term, tf in term_frequencies.items():
        if term in view.df_terms:
            group.df[term] = group.df.get(term, 0) + 1
        if term in view.tc_terms:
            group.tc[term] = group.tc.get(term, 0) + tf
    # The columnar answer_many image is now stale; drop it so the next
    # batched answer rebuilds from the mutated groups.
    view.invalidate_columns()
    return created


def retract_document(
    view: MaterializedView,
    predicates: FrozenSet[str],
    length: int,
    term_frequencies: Mapping[str, int],
) -> bool:
    """Remove one document's contribution from ``view`` (exact reverse
    of :func:`apply_document`).

    Returns ``True`` when the document's group tuple emptied out and was
    dropped.  Retracting a document that was never applied corrupts the
    view silently where it can and raises where it cannot (count
    underflow) — callers own exactly-once delivery, same as application.
    """
    key = predicates & view.keyword_set
    group = view.groups.get(key)
    if group is None or group.count <= 0:
        raise ValueError(
            f"cannot retract from empty group {sorted(key)!r}: "
            "document was never applied to this view"
        )
    group.count -= 1
    group.sum_len -= length
    for term, tf in term_frequencies.items():
        if term in view.df_terms and term in group.df:
            remaining = group.df[term] - 1
            if remaining > 0:
                group.df[term] = remaining
            else:
                del group.df[term]
        if term in view.tc_terms and term in group.tc:
            remaining = group.tc[term] - tf
            if remaining > 0:
                group.tc[term] = remaining
            else:
                del group.tc[term]
    removed = group.count == 0
    if removed:
        del view.groups[key]
    view.invalidate_columns()
    return removed


def retract_views(
    views: Iterable[MaterializedView],
    index,
    removed_documents: Sequence[StoredDocument],
) -> MaintenanceReport:
    """Retract a batch of deleted documents from every view.

    ``removed_documents`` are the stored forms captured *before* the
    delete (the lifecycle engine looks them up from its snapshot first);
    ``index`` is anything exposing ``searchable_fields`` and
    ``predicate_field``.
    """
    views = list(views)
    report = MaintenanceReport(documents_applied=len(removed_documents))
    deltas = [document_delta(index, stored) for stored in removed_documents]
    for view in views:
        for predicates, length, tf_counts in deltas:
            retract_document(view, predicates, length, tf_counts)
        if deltas:
            report.views_updated += 1
    return report


def retract_catalog(
    catalog: ViewCatalog,
    index,
    removed_documents: Sequence[StoredDocument],
) -> MaintenanceReport:
    """Retract deleted documents from every catalog view."""
    return retract_views(list(catalog), index, removed_documents)


def segment_delta(index, segment, tombstones=frozenset()) -> list:
    """Per-document deltas of one sealed segment's live documents.

    ``segment`` is a :class:`~repro.lifecycle.segment.Segment`;
    ``tombstones`` filters documents deleted after sealing.  The result
    feeds :func:`apply_segment_delta` (or, reversed, retraction).
    """
    return [
        document_delta(index, stored)
        for stored in segment.live_documents(set(tombstones))
    ]


def apply_segment_delta(
    catalog: ViewCatalog,
    index,
    segment,
    tombstones=frozenset(),
    t_v: Optional[int] = None,
) -> MaintenanceReport:
    """Fold one segment's live documents into every catalog view.

    The lifecycle's per-segment maintenance unit: a catalog bootstrapped
    empty absorbs each sealed segment exactly once and stays equal to a
    from-scratch materialisation over the live collection.
    """
    deltas = segment_delta(index, segment, tombstones)
    report = MaintenanceReport(documents_applied=len(deltas))
    for view in catalog:
        for predicates, length, tf_counts in deltas:
            if apply_document(view, predicates, length, tf_counts):
                report.new_group_tuples += 1
        if deltas:
            report.views_updated += 1
        if t_v is not None and view.size > t_v:
            report.views_over_tv.append(view.keyword_set)
    return report


def maintain_views(
    views: Iterable[MaterializedView],
    index: InvertedIndex,
    new_documents: Sequence[StoredDocument],
    t_v: Optional[int] = None,
) -> MaintenanceReport:
    """Apply a batch of inserted documents to every view.

    ``new_documents`` are the stored docs returned by
    :meth:`InvertedIndex.append_documents`; applying the same batch twice
    double-counts, so callers own exactly-once delivery.
    """
    views = list(views)
    report = MaintenanceReport(documents_applied=len(new_documents))
    deltas = [document_delta(index, stored) for stored in new_documents]
    for view in views:
        changed = False
        for predicates, length, tf_counts in deltas:
            if apply_document(view, predicates, length, tf_counts):
                report.new_group_tuples += 1
            changed = True
        if changed:
            report.views_updated += 1
        if t_v is not None and view.size > t_v:
            report.views_over_tv.append(view.keyword_set)
    return report


def maintain_catalog(
    catalog: ViewCatalog,
    index: InvertedIndex,
    new_documents: Sequence[StoredDocument],
    t_v: Optional[int] = None,
    baseline_num_docs: Optional[int] = None,
) -> MaintenanceReport:
    """Maintain every catalog view; compute collection growth if given a
    baseline (the document count at selection time)."""
    report = maintain_views(list(catalog), index, new_documents, t_v=t_v)
    if baseline_num_docs:
        report.growth_since_selection = (
            index.num_docs - baseline_num_docs
        ) / baseline_num_docs
    return report


def needs_reselection(
    report: MaintenanceReport, growth_threshold: float = 0.2
) -> bool:
    """Whether view selection should be re-run.

    Two triggers: any view exceeded ``T_V`` (the Theorem 4.2 cost bound
    no longer holds for it), or the collection has grown enough that
    ``T_C``-relative coverage is stale (contexts formerly below the
    threshold may now be above it with no covering view).
    """
    if report.views_over_tv:
        return True
    return report.growth_since_selection > growth_threshold
