"""Inverted-list intersection operators (Section 3).

Implements the conjunctions the paper's cost model describes, plus the
multi-way operator used by query plans.  Every operator threads an
optional :class:`CostCounter` so callers can observe both real work
(entries scanned, segments skipped) and the analytic cost
``M0 · (N_i^o + N_j^o)``.

Three pairwise kernels coexist:

* :func:`intersect` (``use_skips=True``) — the default hot path; an
  adaptive array kernel (galloping ``bisect`` probes for asymmetric
  lists, a C-speed dense merge otherwise) from
  :mod:`repro.index.kernels`;
* :func:`intersect_skip_merge` — the skip-pointer merge join the paper
  analyses, advancing cursors one segment/entry at a time; kept as the
  reference implementation and the "before" arm of the kernel
  microbenchmark;
* :func:`intersect` (``use_skips=False``) — the plain two-pointer merge,
  kept for the skip-pointer ablation bench.

All three return identical results on identical inputs (property-tested)
and charge the same analytic model cost.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .kernels import adaptive_intersect
from .postings import END_OF_LIST, CostCounter, PostingCursor, PostingList


def model_intersection_cost(a: PostingList, b: PostingList) -> int:
    """The paper's analytic intersection cost ``M0 · (N_a^o + N_b^o)``.

    The paper writes the formula with a single global segment size
    ``M0``.  When the two lists are built with different segment sizes,
    each side's scan work is bounded by *its own* segment granularity:
    a merge visits at most ``M0_a`` entries in each of ``a``'s
    overlapping segments and at most ``M0_b`` entries in each of ``b``'s,
    so the cost generalises to

        M0_a · N_a^o  +  M0_b · N_b^o

    which degenerates to the paper's formula when ``M0_a == M0_b``.
    Each list is always charged at its own segment size — never the
    other list's (tested in ``tests/test_intersection.py::TestModelCost``).
    """
    return (
        a.segment_size * a.overlapping_segments(b)
        + b.segment_size * b.overlapping_segments(a)
    )


def intersect(
    a: PostingList,
    b: PostingList,
    counter: Optional[CostCounter] = None,
    use_skips: bool = True,
) -> List[int]:
    """Return sorted docids present in both lists.

    With ``use_skips`` the adaptive array kernel runs: galloping
    (exponential-probe ``bisect``) through the longer list when one side
    is much shorter — the optimisation whose payoff the paper analyses in
    Section 3.2.2 — and a dense C-path merge when the lists are
    comparable.  With ``use_skips=False`` it is a plain two-pointer
    merge, kept for the skip-pointer ablation bench.  Both charge the
    analytic model cost identically.
    """
    if counter is not None:
        counter.model_cost += model_intersection_cost(a, b)
    if use_skips:
        return adaptive_intersect(
            a.doc_ids, b.doc_ids, a.segment_size, b.segment_size, counter
        )
    result: List[int] = []
    i = j = 0
    na, nb = len(a.doc_ids), len(b.doc_ids)
    a_ids, b_ids = a.doc_ids, b.doc_ids
    while i < na and j < nb:
        da, db = a_ids[i], b_ids[j]
        if da == db:
            result.append(da)
            i += 1
            j += 1
            if counter is not None:
                counter.entries_scanned += 2
        elif da < db:
            i += 1
            if counter is not None:
                counter.entries_scanned += 1
        else:
            j += 1
            if counter is not None:
                counter.entries_scanned += 1
    return result


def intersect_skip_merge(
    a: PostingList,
    b: PostingList,
    counter: Optional[CostCounter] = None,
) -> List[int]:
    """The skip-pointer merge join of Section 3.2.1 (reference kernel).

    Advances two cursors, leaping whole segments via the skip table when
    one side falls behind.  This was the default evaluation path before
    the array kernels; it remains the analytically-faithful reference the
    property tests compare against and the baseline the kernel
    microbenchmark times.
    """
    if counter is not None:
        counter.model_cost += model_intersection_cost(a, b)
    result: List[int] = []
    ca, cb = PostingCursor(a), PostingCursor(b)
    da, db = ca.doc, cb.doc
    while da != END_OF_LIST and db != END_OF_LIST:
        if da == db:
            result.append(da)
            da = ca.advance(counter)
            db = cb.advance(counter)
        elif da < db:
            da = ca.seek(db, counter)
        else:
            db = cb.seek(da, counter)
    return result


def intersect_ids(
    ids: Sequence[int],
    plist: PostingList,
    counter: Optional[CostCounter] = None,
) -> List[int]:
    """Intersect an already-materialised sorted docid list with a posting list.

    Used for the upper operators of the Figure 3 plan, where the context
    ``L_m1 ∩ L_m2`` has been materialised and is further intersected with
    each keyword list.  Runs the adaptive array kernel over the
    materialised column and the list's docid column.
    """
    result = adaptive_intersect(
        ids, plist.doc_ids, plist.segment_size, plist.segment_size, None
    )
    if counter is not None:
        # Charge the materialised side like a segment-less list: every id
        # examined is an entry touched; model cost approximates M0 *
        # overlapping segments of plist plus the ids scan.
        counter.entries_scanned += len(ids)
        counter.model_cost += len(ids) + min(len(ids), len(plist.doc_ids))
    return result


def intersect_many(
    lists: Sequence[PostingList],
    counter: Optional[CostCounter] = None,
    use_skips: bool = True,
) -> List[int]:
    """Conjunctive intersection of any number of posting lists.

    Starts from the most selective (shortest) list — the standard
    optimisation the paper notes conventional evaluation enjoys — and
    folds the rest in ascending length order.
    """
    if not lists:
        return []
    ordered = sorted(lists, key=len)
    if len(ordered) == 1:
        if counter is not None:
            counter.entries_scanned += len(ordered[0])
        return list(ordered[0].doc_ids)
    result = intersect(ordered[0], ordered[1], counter, use_skips=use_skips)
    for plist in ordered[2:]:
        if not result:
            break
        result = intersect_ids(result, plist, counter)
    return result


def union_many(lists: Sequence[PostingList]) -> List[int]:
    """Sorted union of posting lists' docids (used by workload tooling)."""
    seen: set = set()
    for plist in lists:
        seen.update(plist.doc_ids)
    return sorted(seen)
