"""Posting lists with skip pointers over columnar array storage (Section 3.2.1).

An inverted-list entry is a ``<docid, tf>`` pair; lists are ordered by
docid so two lists can be merge-joined.  Lists are partitioned into
segments of ``M0`` entries and a skip pointer is kept per segment,
exactly the structure the paper's cost model is written against:

    cost(L_i ∩ L_j) = M0 · (N_i^o + N_j^o)

where ``N^o`` counts segments whose docid ranges overlap the other list.

Storage layout: the docid and tf columns are ``array('q')`` (signed
64-bit, contiguous C buffers), not Python lists.  The skip table is
likewise three parallel ``array('q')`` columns (segment start index,
segment min docid, segment max docid).  Every seek through the skip
table goes through one :class:`PostingCursor`: a ``bisect`` over the
segment max-docid buffer, then one over a single segment of the docid
buffer.  ``contains`` and ``tf_for`` are one seek on a fresh cursor.
The galloping intersection kernels in :mod:`repro.index.kernels` probe
the flat docid buffer directly.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

DEFAULT_SEGMENT_SIZE = 64

_EMPTY_COLUMN = array("q")


@dataclass
class CostCounter:
    """Accumulates the observable work of list operations.

    ``entries_scanned``
        posting entries actually visited (or probed) by merges and
        aggregations.
    ``segments_skipped``
        whole segments jumped over via skip pointers or galloping leaps.
    ``model_cost``
        the paper's analytic cost ``M0 · (N_i^o + N_j^o)`` summed over all
        intersections charged to this counter (aggregations charge their
        scan length).  Benches report this next to wall-clock time.
    """

    entries_scanned: int = 0
    segments_skipped: int = 0
    model_cost: int = 0

    def merge(self, other: "CostCounter") -> None:
        """Fold another counter's totals into this one."""
        self.entries_scanned += other.entries_scanned
        self.segments_skipped += other.segments_skipped
        self.model_cost += other.model_cost

    def copy(self) -> "CostCounter":
        """An independent counter with the same totals."""
        return CostCounter(
            entries_scanned=self.entries_scanned,
            segments_skipped=self.segments_skipped,
            model_cost=self.model_cost,
        )

    def reset(self) -> None:
        """Zero all totals."""
        self.entries_scanned = 0
        self.segments_skipped = 0
        self.model_cost = 0


class PostingList:
    """An immutable-after-freeze inverted list with per-segment skips.

    Built incrementally by the indexer via :meth:`append` (docids must
    arrive in strictly increasing order), then :meth:`freeze` computes the
    skip table.  Reads before ``freeze`` are not supported.  Bulk
    construction from already-sorted columns goes through
    :meth:`from_arrays`, which skips per-element Python work.
    """

    __slots__ = (
        "term",
        "doc_ids",
        "tfs",
        "segment_size",
        "_skip_starts",
        "_seg_mins",
        "_seg_maxes",
        "_seg_max_tfs",
        "_max_tf",
        "_frozen",
    )

    def __init__(self, term: str, segment_size: int = DEFAULT_SEGMENT_SIZE):
        if segment_size < 2:
            raise ValueError(f"segment_size must be >= 2, got {segment_size}")
        self.term = term
        self.doc_ids: array = array("q")
        self.tfs: array = array("q")
        self.segment_size = segment_size
        self._skip_starts: array = _EMPTY_COLUMN
        self._seg_mins: array = _EMPTY_COLUMN
        self._seg_maxes: array = _EMPTY_COLUMN
        self._seg_max_tfs: array = _EMPTY_COLUMN
        self._max_tf = 0
        self._frozen = False

    # -- construction --------------------------------------------------

    def append(self, doc_id: int, tf: int) -> None:
        """Append one posting; docids must be strictly increasing."""
        if self._frozen:
            raise RuntimeError(f"posting list for {self.term!r} is frozen")
        if self.doc_ids and doc_id <= self.doc_ids[-1]:
            raise ValueError(
                f"docids must be strictly increasing: {doc_id} after {self.doc_ids[-1]}"
            )
        if tf <= 0:
            raise ValueError(f"tf must be positive, got {tf}")
        self.doc_ids.append(doc_id)
        self.tfs.append(tf)

    def freeze(self, max_tf: Optional[int] = None) -> "PostingList":
        """Finalise the list and build the skip table; returns self.

        ``max_tf`` lets a caller that already knows the maximum term
        frequency (the wire codec carries it) skip deriving it.  The
        per-segment maxima are computed here — one C-level slice+max per
        segment — and when ``max_tf`` is absent it is derived from them
        instead of a second full scan.
        """
        if not self._frozen:
            n = len(self.doc_ids)
            seg = self.segment_size
            self._skip_starts = array("q", range(0, n, seg))
            self._seg_mins = array(
                "q", (self.doc_ids[start] for start in self._skip_starts)
            )
            self._seg_maxes = array(
                "q",
                (self.doc_ids[min(start + seg, n) - 1] for start in self._skip_starts),
            )
            tfs = self.tfs
            self._seg_max_tfs = array(
                "q", (max(tfs[start : start + seg]) for start in self._skip_starts)
            )
            if max_tf is not None:
                self._max_tf = max_tf
            else:
                self._max_tf = max(self._seg_max_tfs) if self._seg_max_tfs else 0
            self._frozen = True
        return self

    @classmethod
    def from_pairs(
        cls,
        term: str,
        pairs: Iterable[Tuple[int, int]],
        segment_size: int = DEFAULT_SEGMENT_SIZE,
    ) -> "PostingList":
        """Build and freeze a list from ``(docid, tf)`` pairs (sorted)."""
        plist = cls(term, segment_size=segment_size)
        for doc_id, tf in pairs:
            plist.append(doc_id, tf)
        return plist.freeze()

    @classmethod
    def from_arrays(
        cls,
        term: str,
        doc_ids: Sequence[int],
        tfs: Sequence[int],
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        validate: bool = True,
        max_tf: Optional[int] = None,
    ) -> "PostingList":
        """Build and freeze a list from parallel docid/tf columns.

        The columns are adopted wholesale (one C-level copy into
        ``array('q')``), so this is the fast path for bulk construction —
        codec decodes and kernel outputs use it instead of per-element
        :meth:`append`.  The same invariants are enforced — docids
        strictly increasing, tfs positive — unless ``validate=False``,
        the trusted path for columns this library produced itself
        (segment builds and compaction, snapshot compilation), where the
        per-element check would dominate load time.
        """
        plist = cls(term, segment_size=segment_size)
        ids = doc_ids if isinstance(doc_ids, array) else array("q", doc_ids)
        freqs = tfs if isinstance(tfs, array) else array("q", tfs)
        if len(ids) != len(freqs):
            raise ValueError(
                f"column length mismatch: {len(ids)} docids vs {len(freqs)} tfs"
            )
        if validate:
            previous = None
            for doc_id in ids:
                if previous is not None and doc_id <= previous:
                    raise ValueError(
                        f"docids must be strictly increasing: {doc_id} after {previous}"
                    )
                previous = doc_id
            if freqs and min(freqs) <= 0:
                raise ValueError("tf must be positive")
        plist.doc_ids = ids
        plist.tfs = freqs
        return plist.freeze(max_tf=max_tf)

    def extend(self, pairs: Iterable[Tuple[int, int]]) -> "PostingList":
        """Append postings to a frozen list and rebuild the skip table.

        Because internal docids are assigned in insertion order, new
        documents always append at the tail, so incremental index updates
        never need to rewrite existing entries — only the skip table is
        recomputed (O(#segments)).  Returns self.
        """
        self._frozen = False
        try:
            for doc_id, tf in pairs:
                self.append(doc_id, tf)
        finally:
            # Leave the list frozen and internally consistent even if a
            # bad pair aborted the append loop part-way.
            self._frozen = False
            self.freeze()
        return self

    # -- reads ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(zip(self.doc_ids, self.tfs))

    def __repr__(self) -> str:
        return f"PostingList(term={self.term!r}, len={len(self)})"

    def columns(self) -> Tuple[Sequence[int], Sequence[int]]:
        """The whole ``(doc_ids, tfs)`` columns, for bulk consumers."""
        return self.doc_ids, self.tfs

    @property
    def max_tf(self) -> int:
        """Largest tf in the list (0 when empty), computed at freeze time.

        Top-k scorers derive per-term score upper bounds from this; caching
        it here removes an O(list length) scan per query term per query.
        """
        self._require_frozen()
        return self._max_tf

    @property
    def num_segments(self) -> int:
        """Number of skip segments (``ceil(len / M0)``)."""
        return len(self._skip_starts)

    @property
    def block_max_tfs(self) -> Sequence[int]:
        """Largest tf per skip segment, one entry per segment.

        Block-max top-k converts these into per-block score upper bounds;
        the blocks are exactly the skip segments of
        :meth:`segment_bounds`, so a scorer can skip straight to a
        segment boundary when the summed block bounds cannot beat the
        current threshold.
        """
        self._require_frozen()
        return self._seg_max_tfs

    def segment_bounds(self) -> Sequence[Tuple[int, int]]:
        """Return ``(start index, max docid)`` per segment (frozen lists)."""
        self._require_frozen()
        return tuple(zip(self._skip_starts, self._seg_maxes))

    def contains(self, doc_id: int) -> bool:
        """Membership test through a fresh cursor (no cost accounting)."""
        return PostingCursor(self).seek(doc_id) == doc_id

    def tf_for(self, doc_id: int) -> Optional[int]:
        """Return the stored tf for ``doc_id`` or ``None`` if absent."""
        cursor = PostingCursor(self)
        return cursor.tf if cursor.seek(doc_id) == doc_id else None

    def overlapping_segments(self, other: "PostingList") -> int:
        """Count this list's segments whose docid range overlaps ``other``.

        This is the ``N_i^o`` quantity of the paper's intersection cost
        model.  Segments are docid-ordered, so the overlapping ones form a
        contiguous run found with two binary searches over the skip
        columns — O(log #segments) work.
        """
        self._require_frozen()
        other._require_frozen()
        if not self._seg_maxes or not other._seg_maxes:
            return 0
        # The skip columns hold both ends, so a lazy list stays lazy.
        other_min, other_max = other._seg_mins[0], other._seg_maxes[-1]
        # First segment whose max reaches other's range, and first segment
        # whose min is already past it.
        lo = bisect_left(self._seg_maxes, other_min)
        hi = bisect_right(self._seg_mins, other_max)
        return max(0, hi - lo)

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise RuntimeError(
                f"posting list for {self.term!r} must be frozen before reads"
            )


# ``PostingCursor.doc`` once the cursor has passed the last entry: larger
# than any int64 docid, so every target compares at or below it.
END_OF_LIST = 1 << 63


class PostingCursor:
    """A forward cursor over one frozen posting list: the one seek
    through its skip table.

    :meth:`seek` is the access method the paper's cost model is written
    against (Section 3.2.1): jump whole segments through the segment
    max-docid column, then bisect inside the one landing segment.  On a
    lazily decoded list the first entry read decodes the whole list
    once (see :class:`LazyPostingList`); later seeks decode nothing.
    Cost accounting is the sequential merge's: one skipped segment per
    skip-pointer jump, one scanned entry per entry passed over inside
    the landing segment, and one per :meth:`advance`.  A target at or
    below ``doc`` is free: the cursor never moves back.

    ``doc`` is the current docid (:data:`END_OF_LIST` once exhausted),
    ``pos`` its index, ``block`` the segment holding ``pos`` (``len //
    M0`` once exhausted) and ``block_max_doc`` that segment's last docid.
    The columns are captured when the cursor is made, so a cursor lives
    for one query's read of one list.
    """

    __slots__ = (
        "doc",
        "pos",
        "block",
        "block_max_doc",
        "_block_end",
        "_ids",
        "_tfs",
        "_seg_maxes",
        "_size",
        "_n",
    )

    def __init__(self, plist: PostingList):
        plist._require_frozen()
        self._ids = plist.doc_ids
        self._tfs = plist.tfs
        self._seg_maxes = plist._seg_maxes
        self._size = plist.segment_size
        self._n = len(self._ids)
        self.pos = self.block = 0
        self._block_end = min(self._n, self._size)
        if self._n:
            # The skip table holds the first docid: no block is decoded
            # until the cursor reads an entry.
            self.doc = plist._seg_mins[0]
            self.block_max_doc = self._seg_maxes[0]
        else:
            self.doc = self.block_max_doc = END_OF_LIST

    @property
    def tf(self) -> int:
        """The tf of the current entry (the cursor must not be exhausted)."""
        return self._tfs[self.pos]

    def advance(self, counter: Optional[CostCounter] = None) -> int:
        """Step to the next entry and return its docid."""
        if counter is not None:
            counter.entries_scanned += 1
        pos = self.pos + 1
        if pos >= self._n:
            return self._exhaust()
        self.pos = pos
        doc = self.doc = self._ids[pos]
        if doc > self.block_max_doc:
            self.block += 1
            self.block_max_doc = self._seg_maxes[self.block]
            self._block_end = min(self._n, pos + self._size)
        return doc

    def seek(self, target: int, counter: Optional[CostCounter] = None) -> int:
        """Move to the first entry with docid >= ``target``; return its
        docid, or :data:`END_OF_LIST` when there is none."""
        doc = self.doc
        if target <= doc:
            return doc
        start = self.pos
        if target > self.block_max_doc:
            seg_maxes = self._seg_maxes
            block = self.block
            landing = bisect_left(seg_maxes, target, block + 1)
            if landing == len(seg_maxes):
                # Past the last docid: a merge would scan the rest of
                # the last segment before running out.
                landing -= 1
                if counter is not None:
                    counter.segments_skipped += landing - block
                    counter.entries_scanned += self._n - max(
                        start, landing * self._size
                    )
                return self._exhaust()
            if counter is not None:
                counter.segments_skipped += landing - block
            self.block = landing
            self.block_max_doc = seg_maxes[landing]
            start = landing * self._size
            self._block_end = min(self._n, start + self._size)
        # The current segment's last docid reaches the target, so the
        # bisect lands inside it.
        pos = self.pos = bisect_left(self._ids, target, start, self._block_end)
        if counter is not None:
            counter.entries_scanned += pos - start
        doc = self.doc = self._ids[pos]
        return doc

    def _exhaust(self) -> int:
        self.pos = self._n
        self.block = self._n // self._size
        self.doc = self.block_max_doc = END_OF_LIST
        return END_OF_LIST


class LazyColumn:
    """Read-only sequence view over one column of a block-compressed list.

    Quacks like the ``array('q')`` columns it replaces for every read
    the engine performs — ``len``, indexing (including negative),
    slicing, iteration, ``bisect`` probes.  ``len`` is metadata; the
    first element read promotes the owning :class:`LazyPostingList`
    (every block decodes once into ``array('q')`` columns installed on
    the list), and every read, including those through a view captured
    before the promotion, forwards to the owner's arrays.  Deliberately
    *not* an ``array`` subclass: the intersection kernels test
    ``isinstance(x, array)`` to choose their dense C paths and must fall
    back to the index-probe path here.
    """

    __slots__ = ("_owner", "_select")

    def __init__(self, owner: "LazyPostingList", select: int):
        self._owner = owner
        self._select = select

    def _column(self) -> array:
        arrays = self._owner._arrays
        if arrays is None:
            arrays = self._owner._promote()
        return arrays[self._select]

    def __len__(self) -> int:
        return self._owner._count

    def __getitem__(self, index):
        return self._column()[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._column())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        try:
            if len(other) != len(self):
                return False
        except TypeError:
            return NotImplemented
        return all(a == b for a, b in zip(self, other))

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"LazyColumn({'doc_ids' if self._select == 0 else 'tfs'} of "
            f"{self._owner.term!r}, len={len(self)})"
        )


# Serialises promotions so two readers of one list decode it once.
_PROMOTE_LOCK = threading.Lock()


class LazyPostingList(PostingList):
    """A frozen posting list whose columns decode on first element read.

    Constructed straight from persisted metadata — posting count,
    cached ``max_tf``, and the per-segment skip/block-max columns — so
    every bounds read (score bounds, block-max skipping, segment
    overlap counting) runs without touching the compressed payload.
    The first element read promotes the list: ``loader(block_index) ->
    (ids, tfs)``, typically a closure over an mmap-backed block file,
    runs once per block and the two ``array('q')`` columns replace the
    :class:`LazyColumn` views.  The loader is never cleared: it holds
    the block file, whose mapping ``close()`` releases either way, and
    ``columns()`` on an unpromoted list still decodes without pinning.
    """

    __slots__ = ("_count", "_loader", "_arrays")

    def __init__(
        self,
        term: str,
        count: int,
        segment_size: int,
        max_tf: int,
        seg_mins: array,
        seg_maxes: array,
        seg_max_tfs: array,
        loader,
    ):
        super().__init__(term, segment_size=segment_size)
        self._count = count
        self._loader = loader
        self._arrays: Optional[Tuple[array, array]] = None
        self._skip_starts = array("q", range(0, count, segment_size))
        if not (
            len(seg_mins)
            == len(seg_maxes)
            == len(seg_max_tfs)
            == len(self._skip_starts)
        ):
            raise ValueError(
                f"skip metadata for {term!r} does not match "
                f"{len(self._skip_starts)} segments"
            )
        self._seg_mins = seg_mins
        self._seg_maxes = seg_maxes
        self._seg_max_tfs = seg_max_tfs
        self._max_tf = max_tf
        self.doc_ids = LazyColumn(self, 0)
        self.tfs = LazyColumn(self, 1)
        self._frozen = True

    @property
    def materialized(self) -> bool:
        """True once the list has been promoted to plain arrays."""
        return self._arrays is not None

    def _promote(self) -> Tuple[array, array]:
        """Decode the whole list once and install its arrays.

        ``_arrays`` is one assignment, so a :class:`LazyColumn` never
        sees one column promoted and the other not; the plain
        ``doc_ids``/``tfs`` attributes follow for readers that fetch
        them afresh.
        """
        with _PROMOTE_LOCK:
            arrays = self._arrays
            if arrays is None:
                arrays = self._arrays = self.columns()
                self.doc_ids, self.tfs = arrays
        return arrays

    def columns(self) -> Tuple[Sequence[int], Sequence[int]]:
        """The whole columns: the promoted arrays, or else every block
        decoded, in order, into fresh ``array('q')`` columns.

        One loader call per block — each runs the block file's frame and
        skip-metadata checks — and an unpromoted list stays lazy: a bulk
        reader (view materialisation) gets the columns without pinning
        them on the list.
        """
        arrays = self._arrays
        if arrays is not None:
            return arrays
        ids = array("q")
        tfs = array("q")
        for block in range(len(self._skip_starts)):
            block_ids, block_tfs = self._loader(block)
            ids.extend(block_ids)
            tfs.extend(block_tfs)
        return ids, tfs

    def extend(self, pairs: Iterable[Tuple[int, int]]) -> "PostingList":
        self._promote()
        super().extend(pairs)
        self._count = len(self.doc_ids)
        return self


EMPTY_POSTING_LIST = PostingList.from_pairs("", ())
