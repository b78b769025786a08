"""Array intersection kernels: galloping probes and dense C-path merges.

The merge operators in :mod:`repro.index.intersection` used to advance
cursors one posting at a time in Python, so interpreter overhead swamped
the asymptotics the paper's cost model describes.  These kernels work
directly over the columnar ``array('q')`` docid buffers of
:class:`~repro.index.postings.PostingList` and pick a strategy by list
shape:

* **galloping** (exponential probe + ``bisect``) when one list is at
  least :data:`GALLOP_RATIO` times longer than the other — the regime
  where the paper's skip pointers pay off (Section 3.2.2), except the
  probe sequence adapts to the data instead of a fixed ``M0`` stride;
* **dense merge** when the lists are comparably sized — a C-speed sorted
  set intersection, since no sublinear strategy exists once most
  segments overlap.

Cost accounting is aggregate, not per-element, so observing work does not
re-introduce the per-element Python loop the kernels exist to remove:
galloping charges its probe count as ``entries_scanned`` and whole
segments leapt over as ``segments_skipped``; the dense path charges one
scanned entry per posting on each side, the work a streaming merge would
do.  The analytic ``M0 · (N_i^o + N_j^o)`` model cost is charged by the
callers in :mod:`repro.index.intersection`, unchanged.

All kernels are pure functions over sorted integer sequences; they never
require the inputs to be ``array`` instances (any random-access sorted
sequence works), which keeps them reusable for materialised docid lists.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

try:  # numpy is optional: the dense kernel falls back to set operations
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via _dense_set tests
    _np = None

from .postings import CostCounter, PostingCursor, PostingList

# One list must be this many times longer than the other before galloping
# beats the dense C-path merge (measured crossovers on CPython 3.11).
# The numpy dense kernel is so much faster than the set-based one that
# pure-Python galloping only wins on far more extreme asymmetry.
GALLOP_RATIO = 8
NUMPY_GALLOP_RATIO = 256


def gallop_search(
    ids: Sequence[int], target: int, position: int
) -> Tuple[int, int]:
    """First index >= ``target`` in sorted ``ids``, probing from ``position``.

    Exponential (galloping) probe: double the step until the window
    brackets the target, then binary-search inside the window.  Returns
    ``(index, probes)`` where ``probes`` counts comparisons made — the
    observable work charged as scanned entries.
    """
    n = len(ids)
    lo = position
    probes = 1
    if lo >= n or ids[lo] >= target:
        return lo, probes
    step = 1
    while lo + step < n and ids[lo + step] < target:
        lo += step
        step <<= 1
        probes += 1
    hi = min(lo + step, n)
    index = bisect_left(ids, target, lo + 1, hi)
    probes += max(1, (hi - lo - 1).bit_length())
    return index, probes


def gallop_intersect(
    short_ids: Sequence[int],
    long_ids: Sequence[int],
    segment_size: int,
    counter: Optional[CostCounter] = None,
) -> List[int]:
    """Intersect by galloping through ``long_ids`` for each short docid.

    ``segment_size`` is the long list's ``M0``; leaps are converted into
    skipped whole segments for the counter so the observable accounting
    stays comparable with the skip-pointer merge it replaces.
    """
    result: List[int] = []
    append = result.append
    j = 0
    n_long = len(long_ids)
    probes_total = 0
    for doc_id in short_ids:
        if j >= n_long:
            break
        j, probes = gallop_search(long_ids, doc_id, j)
        probes_total += probes
        if j < n_long and long_ids[j] == doc_id:
            append(doc_id)
            j += 1
    if counter is not None:
        counter.entries_scanned += len(short_ids) + probes_total
        # Every long-list entry never probed was leapt over; charge the
        # whole segments among them as skipped.
        counter.segments_skipped += max(0, (n_long - probes_total)) // segment_size
    return result


def dense_intersect(
    a_ids: Sequence[int],
    b_ids: Sequence[int],
    counter: Optional[CostCounter] = None,
) -> List[int]:
    """C-path merge for comparably-sized lists.

    When both columns are real ``array`` buffers and numpy is available,
    ``np.intersect1d`` runs over zero-copy ``int64`` views of the posting
    columns (docids are strictly increasing, so ``assume_unique`` holds);
    otherwise a sorted set intersection.  Either way the work happens in
    C and the charge is one scanned entry per posting on each side —
    exactly what a streaming two-pointer merge over both lists would
    touch.
    """
    if counter is not None:
        counter.entries_scanned += len(a_ids) + len(b_ids)
    if (
        _np is not None
        and isinstance(a_ids, array)
        and isinstance(b_ids, array)
    ):
        return _np.intersect1d(
            _np.asarray(a_ids), _np.asarray(b_ids), assume_unique=True
        ).tolist()
    if len(a_ids) > len(b_ids):
        a_ids, b_ids = b_ids, a_ids
    return sorted(set(a_ids).intersection(b_ids))


def adaptive_intersect(
    a_ids: Sequence[int],
    b_ids: Sequence[int],
    segment_a: int,
    segment_b: int,
    counter: Optional[CostCounter] = None,
) -> List[int]:
    """Shape-dispatched intersection of two sorted docid columns.

    Galloping (driving the shorter list) when the length ratio exceeds
    the dense kernel's measured crossover — :data:`NUMPY_GALLOP_RATIO`
    when the numpy buffer path applies, :data:`GALLOP_RATIO` for the
    set-based fallback — and the dense C-path merge otherwise.  Disjoint
    docid ranges short-circuit to an empty result for free — the skip
    columns already told the cost model the overlap is zero.
    """
    na, nb = len(a_ids), len(b_ids)
    if not na or not nb:
        return []
    if a_ids[-1] < b_ids[0] or b_ids[-1] < a_ids[0]:
        return []
    ratio = (
        NUMPY_GALLOP_RATIO
        if _np is not None
        and isinstance(a_ids, array)
        and isinstance(b_ids, array)
        else GALLOP_RATIO
    )
    if na * ratio <= nb:
        return gallop_intersect(a_ids, b_ids, segment_b, counter)
    if nb * ratio <= na:
        return gallop_intersect(b_ids, a_ids, segment_a, counter)
    return dense_intersect(a_ids, b_ids, counter)


def intersect_ids_with_tfs(
    ids: Sequence[int],
    plist: PostingList,
    counter: Optional[CostCounter] = None,
    want_tc: bool = False,
) -> Tuple[List[int], int]:
    """Intersect a materialised docid list with a posting list.

    Returns ``(matched_ids, tc_total)`` where ``tc_total`` sums the tf of
    matched documents (0 unless ``want_tc``).  This is the
    ``L_w ∩ context`` operator of Figure 3 with the SUM piggybacked: the
    match set is computed by the adaptive kernel, then the tfs are read
    by one forward cursor, which decodes each block of a lazy list at
    most once.
    """
    matched = adaptive_intersect(
        ids, plist.doc_ids, plist.segment_size, plist.segment_size, counter
    )
    tc_total = 0
    if want_tc:
        cursor = PostingCursor(plist)
        for doc_id in matched:
            cursor.seek(doc_id)
            tc_total += cursor.tf
    return matched, tc_total
