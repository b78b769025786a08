"""Snapshot-isolated reads over a set of immutable segments.

A :class:`Snapshot` is the read contract of the segment lifecycle: an
immutable triple of *(segment list, tombstone set, version)* captured at
one :class:`~repro.lifecycle.version.VersionClock` tick.  Every query
runs start-to-finish against one snapshot, so concurrent flushes,
deletes, and compactions can never expose a half-applied mutation —
the serving layer swaps whole snapshots, never patches one.

The snapshot presents the exact read interface of
:class:`~repro.index.inverted_index.InvertedIndex` (postings, predicate
postings, store, collection statistics), so the entire query stack —
engines, operators, scorers, the boolean searcher, even the sharded
redistributor — runs over it unchanged.  Posting lists are *compiled on
first touch* per term: segments hold disjoint ascending docid ranges, so
compilation is concatenation of per-segment columns with tombstoned
entries filtered out.  When a term lives in a single segment untouched
by tombstones, the segment's own frozen list is returned zero-copy.

Bit-identity argument (why a snapshot ranks exactly like a from-scratch
rebuild of its live documents): scores depend only on per-document
term statistics and live-collection aggregates, both of which the
snapshot reproduces exactly; tie-breaks order by ascending docid, and
global docids are arrival positions, so the *relative* order of live
documents matches the dense ids a rebuild would assign.  Deleted ids
appear in no posting list, so the gaps are unobservable.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import IndexError_
from ..index.analysis import Analyzer
from ..index.documents import StoredDocument
from ..index.postings import PostingList
from .segment import Segment

__all__ = ["Snapshot"]


class _SnapshotStore:
    """Read-only document store over the snapshot's live documents."""

    def __init__(self, snapshot: "Snapshot"):
        self._docs: Dict[int, StoredDocument] = {}
        self._by_external: Dict[str, StoredDocument] = {}
        self._ordered: List[StoredDocument] = []
        for segment in snapshot.segments:
            for doc in segment.live_documents(snapshot.tombstones):
                self._docs[doc.internal_id] = doc
                self._by_external[doc.external_id] = doc
                self._ordered.append(doc)
        self._lengths: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self._ordered)

    def __iter__(self) -> Iterator[StoredDocument]:
        return iter(self._ordered)

    def get(self, internal_id: int) -> StoredDocument:
        doc = self._docs.get(internal_id)
        if doc is None:
            raise IndexError_(f"unknown internal docid: {internal_id}")
        return doc

    def by_external_id(self, external_id: str) -> Optional[StoredDocument]:
        return self._by_external.get(external_id)

    def lengths(self) -> List[int]:
        """Dense ``len(d)`` column indexed by *global* docid.

        Tombstoned docids hold 0 — harmless, because deleted ids never
        appear in any posting list and therefore are never looked up.
        """
        if self._lengths is None:
            size = self._ordered[-1].internal_id + 1 if self._ordered else 0
            column = [0] * size
            for doc in self._ordered:
                column[doc.internal_id] = doc.length
            self._lengths = column
        return self._lengths


class _SegmentPartition:
    """One segment presented as a partition index for plan execution.

    :class:`~repro.core.operators.SegmentStatsResolve` runs the
    straightforward plan per segment and merges with ``StatsMerge`` —
    this view gives the plan the index interface it expects, scoped to
    one segment's documents.  Posting lists are the segment's own frozen
    columns (zero copy) unless tombstones land inside the segment, in
    which case the touched term's list is filtered on access.
    """

    committed = True

    def __init__(self, snapshot: "Snapshot", position: int, segment: Segment):
        self._snapshot = snapshot
        self._segment = segment
        self._dirty = position in snapshot._dirty_segments
        self._filtered: Dict[Tuple[str, str], PostingList] = {}
        self.analyzer = snapshot.analyzer
        self.predicate_analyzer = snapshot.predicate_analyzer
        self.searchable_fields = snapshot.searchable_fields
        self.predicate_field = snapshot.predicate_field
        self.segment_size = snapshot.segment_size

    @property
    def store(self):
        # Global docids: the snapshot's store resolves any live document,
        # including this segment's.
        return self._snapshot.store

    def document_lengths(self) -> List[int]:
        # Dense by global docid, so per-segment plans can index it with
        # the segment's own (global) postings directly.
        return self._snapshot.document_lengths()

    def _resolve(self, term: str, space: str) -> PostingList:
        plist = getattr(self._segment, space).get(term)
        if plist is None or not len(plist):
            return self._snapshot._empty
        if not self._dirty:
            return plist
        key = (space, term)
        filtered = self._filtered.get(key)
        if filtered is None:
            tombstones = self._snapshot.tombstones
            ids = array("q")
            tfs = array("q")
            for doc_id, tf in zip(plist.doc_ids, plist.tfs):
                if doc_id not in tombstones:
                    ids.append(doc_id)
                    tfs.append(tf)
            if not ids:
                filtered = self._snapshot._empty
            else:
                filtered = PostingList.from_arrays(
                    term, ids, tfs,
                    segment_size=self.segment_size, validate=False,
                )
            self._filtered[key] = filtered
        return filtered

    def postings(self, term: str) -> PostingList:
        return self._resolve(term, "content")

    def predicate_postings(self, term: str) -> PostingList:
        return self._resolve(term, "predicates")

    def document_frequency(self, term: str) -> int:
        return len(self.postings(term))

    def predicate_frequency(self, term: str) -> int:
        return len(self.predicate_postings(term))

    @property
    def num_docs(self) -> int:
        return len(self._segment.live_documents(self._snapshot.tombstones))

    def __repr__(self) -> str:
        return f"_SegmentPartition({self._segment.segment_id!r})"


class Snapshot:
    """An immutable, versioned read view over segments + tombstones."""

    def __init__(
        self,
        segments: Sequence[Segment],
        tombstones: FrozenSet[int],
        version: int,
        analyzer: Analyzer,
        predicate_analyzer: Analyzer,
        searchable_fields: Sequence[str],
        predicate_field: str,
        segment_size: int,
    ):
        self.segments: Tuple[Segment, ...] = tuple(segments)
        for before, after in zip(self.segments, self.segments[1:]):
            if after.min_doc_id <= before.max_doc_id:
                raise IndexError_(
                    f"snapshot segments out of order: {after.segment_id!r} "
                    f"does not follow {before.segment_id!r}"
                )
        self.tombstones = tombstones
        self.version = version
        self.analyzer = analyzer
        self.predicate_analyzer = predicate_analyzer
        self.searchable_fields = tuple(searchable_fields)
        self.predicate_field = predicate_field
        self.segment_size = segment_size
        # Which segments any tombstone actually lands in, precomputed so
        # the per-term compile can take the zero-copy path for the rest.
        self._dirty_segments = frozenset(
            idx
            for idx, segment in enumerate(self.segments)
            if any(
                segment.min_doc_id <= t <= segment.max_doc_id
                for t in tombstones
            )
        )
        self.store = _SnapshotStore(self)
        self._total_length = sum(doc.length for doc in self.store)
        self._content_cache: Dict[str, PostingList] = {}
        self._predicate_cache: Dict[str, PostingList] = {}
        self._empty = PostingList.from_pairs("", (), segment_size=segment_size)

    # -- index interface: statistics -------------------------------------

    committed = True

    @property
    def epoch(self) -> int:
        """The snapshot's version — the single epoch source caches read."""
        return self.version

    def __len__(self) -> int:
        return len(self.store)

    @property
    def num_docs(self) -> int:
        """Live ``|D|``: sealed documents minus tombstoned ones."""
        return len(self.store)

    @property
    def total_length(self) -> int:
        """Live ``len(D)``."""
        return self._total_length

    def document_frequency(self, term: str) -> int:
        return len(self.postings(term))

    def predicate_frequency(self, term: str) -> int:
        return len(self.predicate_postings(term))

    def document_lengths(self) -> List[int]:
        return self.store.lengths()

    def average_document_length(self) -> float:
        if not self.store:
            return 0.0
        return self._total_length / len(self.store)

    @property
    def vocabulary(self) -> Sequence[str]:
        terms = set()
        for segment in self.segments:
            terms.update(segment.content)
        return tuple(terms)

    @property
    def predicate_vocabulary(self) -> Sequence[str]:
        terms = set()
        for segment in self.segments:
            terms.update(segment.predicates)
        return tuple(terms)

    # -- index interface: postings ---------------------------------------

    def postings(self, term: str) -> PostingList:
        """Compiled content posting list for ``term`` across all segments."""
        plist = self._content_cache.get(term)
        if plist is None:
            plist = self._compile(term, "content")
            self._content_cache[term] = plist
        return plist

    def predicate_postings(self, term: str) -> PostingList:
        """Compiled predicate posting list for ``term``."""
        plist = self._predicate_cache.get(term)
        if plist is None:
            plist = self._compile(term, "predicates")
            self._predicate_cache[term] = plist
        return plist

    def prefetch(
        self, terms: Iterable[str], predicates: Iterable[str] = ()
    ) -> Dict[str, PostingList]:
        """Compile many lists in one pass (batch-executor warm-up)."""
        fetched = {term: self.postings(term) for term in terms}
        for term in predicates:
            fetched[term] = self.predicate_postings(term)
        return fetched

    def _compile(self, term: str, space: str) -> PostingList:
        """Concatenate ``term``'s per-segment columns, minus tombstones.

        Segments cover disjoint ascending docid ranges, so the
        concatenation is already sorted — ``from_arrays`` adopts it
        without validation.  Single clean contributor → zero copy.
        """
        contributors: List[Tuple[int, PostingList]] = []
        for idx, segment in enumerate(self.segments):
            plist = getattr(segment, space).get(term)
            if plist is not None and len(plist):
                contributors.append((idx, plist))
        if not contributors:
            return self._empty
        if len(contributors) == 1:
            idx, plist = contributors[0]
            if idx not in self._dirty_segments:
                return plist
        ids = array("q")
        tfs = array("q")
        tombstones = self.tombstones
        for idx, plist in contributors:
            # Bulk columns: a lazy v4 list decodes without promoting.
            list_ids, list_tfs = plist.columns()
            if idx in self._dirty_segments:
                for doc_id, tf in zip(list_ids, list_tfs):
                    if doc_id not in tombstones:
                        ids.append(doc_id)
                        tfs.append(tf)
            else:
                ids.extend(list_ids)
                tfs.extend(list_tfs)
        if not ids:
            return self._empty
        return PostingList.from_arrays(
            term, ids, tfs, segment_size=self.segment_size, validate=False
        )

    def close(self) -> None:
        """Drop this snapshot's compiled-posting caches (idempotent).

        Snapshots own no file handles — segments do — so closing one
        only releases the memory its per-term compile cache pinned.
        The serving layer calls this on superseded snapshots after an
        epoch bump; in-flight queries holding references to already
        compiled lists are unaffected (the lists are plain arrays).
        """
        self._content_cache.clear()
        self._predicate_cache.clear()

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def partitions(self) -> List[_SegmentPartition]:
        """Per-segment index views for partitioned statistics resolution.

        Consumed by :class:`~repro.core.operators.SegmentStatsResolve`:
        each view scopes the straightforward plan to one segment, and
        the per-segment results merge exactly because every supported
        statistic is additive over the disjoint docid ranges.
        """
        return [
            _SegmentPartition(self, position, segment)
            for position, segment in enumerate(self.segments)
        ]

    # -- diagnostics ------------------------------------------------------

    def segment_summary(self) -> List[Dict[str, object]]:
        """Per-segment description for ``info``/health endpoints."""
        summary = []
        for segment in self.segments:
            live = len(segment.live_documents(self.tombstones))
            summary.append(
                {
                    "segment_id": segment.segment_id,
                    "docs": segment.num_docs,
                    "live_docs": live,
                    "doc_id_range": [segment.min_doc_id, segment.max_doc_id],
                    "total_length": segment.total_length,
                    "ephemeral": segment.ephemeral,
                }
            )
        return summary

    def __repr__(self) -> str:
        return (
            f"Snapshot(version={self.version}, segments={len(self.segments)}, "
            f"live_docs={len(self.store)}, tombstones={len(self.tombstones)})"
        )
