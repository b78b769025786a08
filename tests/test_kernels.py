"""Property tests: every intersection kernel computes the same answer.

Three pairwise kernels coexist (adaptive array kernel, skip-pointer
merge, naive two-pointer merge) plus the dense/galloping primitives they
dispatch to — including the set-based fallback that runs when numpy is
absent.  All of them must agree bit-for-bit on any pair of sorted docid
lists; hypothesis drives the general case and the edge regimes (empty,
disjoint, subset, heavy asymmetry) are pinned explicitly.
"""

from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index import kernels
from repro.index.intersection import intersect, intersect_skip_merge
from repro.index.kernels import (
    GALLOP_RATIO,
    adaptive_intersect,
    dense_intersect,
    gallop_intersect,
    gallop_search,
    intersect_ids_with_tfs,
)
from repro.index.postings import CostCounter, PostingList


def make_list(ids, segment_size=4):
    return PostingList.from_pairs(
        "t", [(i, 1) for i in ids], segment_size=segment_size
    )


sorted_ids = st.lists(
    st.integers(min_value=0, max_value=3_000), unique=True, max_size=300
).map(sorted)


def all_kernel_results(ids_a, ids_b, segment_size=4):
    """Run every pairwise kernel over the same inputs."""
    a, b = make_list(ids_a, segment_size), make_list(ids_b, segment_size)
    return {
        "adaptive": intersect(a, b, CostCounter(), use_skips=True),
        "skip_merge": intersect_skip_merge(a, b, CostCounter()),
        "naive": intersect(a, b, CostCounter(), use_skips=False),
        "gallop_ab": gallop_intersect(
            a.doc_ids, b.doc_ids, segment_size, CostCounter()
        ),
        "dense": dense_intersect(a.doc_ids, b.doc_ids, CostCounter()),
    }


class TestKernelAgreement:
    @given(sorted_ids, sorted_ids)
    def test_all_kernels_agree(self, ids_a, ids_b):
        expected = sorted(set(ids_a) & set(ids_b))
        for name, result in all_kernel_results(ids_a, ids_b).items():
            assert list(result) == expected, name

    @given(sorted_ids)
    def test_empty_side(self, ids):
        for name, result in all_kernel_results([], ids).items():
            assert list(result) == [], name

    @given(sorted_ids)
    def test_self_intersection_is_identity(self, ids):
        for name, result in all_kernel_results(ids, ids).items():
            assert list(result) == ids, name

    def test_disjoint_ranges(self):
        a, b = list(range(0, 50)), list(range(100, 150))
        for name, result in all_kernel_results(a, b).items():
            assert list(result) == [], name

    def test_interleaved_disjoint(self):
        a, b = list(range(0, 100, 2)), list(range(1, 100, 2))
        for name, result in all_kernel_results(a, b).items():
            assert list(result) == [], name

    def test_strict_subset(self):
        big = list(range(0, 400, 2))
        small = big[:: GALLOP_RATIO * 2]  # forces the galloping regime
        for name, result in all_kernel_results(small, big).items():
            assert list(result) == small, name

    @given(sorted_ids, sorted_ids)
    def test_argument_order_irrelevant(self, ids_a, ids_b):
        a, b = make_list(ids_a), make_list(ids_b)
        assert intersect(a, b) == intersect(b, a)

    @given(sorted_ids, sorted_ids)
    def test_set_fallback_agrees_with_numpy_path(self, ids_a, ids_b):
        a = array("q", ids_a)
        b = array("q", ids_b)
        with_numpy = dense_intersect(a, b)
        saved = kernels._np
        kernels._np = None
        try:
            without_numpy = dense_intersect(a, b)
        finally:
            kernels._np = saved
        assert list(with_numpy) == list(without_numpy)


class TestGallopSearch:
    @given(sorted_ids, st.integers(min_value=0, max_value=3_000))
    def test_finds_leftmost_geq(self, ids, target):
        index, probes = gallop_search(ids, target, 0)
        assert probes >= 1
        assert all(v < target for v in ids[:index])
        assert all(v >= target for v in ids[index:])

    @given(sorted_ids, st.data())
    def test_start_position_respected(self, ids, data):
        if not ids:
            return
        position = data.draw(
            st.integers(min_value=0, max_value=len(ids) - 1)
        )
        target = data.draw(st.integers(min_value=0, max_value=3_000))
        index, _ = gallop_search(ids, target, position)
        assert index >= position
        assert all(v < target for v in ids[position:index])
        assert index == len(ids) or ids[index] >= target


class TestCounters:
    def test_gallop_charges_probes_and_skips(self):
        long_ids = array("q", range(10_000))
        short_ids = array("q", range(0, 10_000, 1_000))
        counter = CostCounter()
        gallop_intersect(short_ids, long_ids, 64, counter)
        assert counter.entries_scanned >= len(short_ids)
        # Galloping leaps nearly the whole long list; almost every
        # segment of it must be accounted as skipped.
        assert counter.segments_skipped > 0
        assert counter.entries_scanned < len(long_ids) // 2

    def test_dense_charges_both_sides(self):
        counter = CostCounter()
        dense_intersect(array("q", range(100)), array("q", range(100)), counter)
        assert counter.entries_scanned == 200

    def test_adaptive_disjoint_ranges_charge_nothing(self):
        counter = CostCounter()
        result = adaptive_intersect(
            array("q", range(10)), array("q", range(50, 60)), 4, 4, counter
        )
        assert result == []
        assert counter.entries_scanned == 0


class TestIntersectIdsWithTfs:
    @given(sorted_ids, sorted_ids)
    def test_matches_and_tc(self, ids, plist_ids):
        doc_ids = array("q", plist_ids)
        tfs = array("q", [i % 7 + 1 for i in range(len(plist_ids))])
        plist = PostingList.from_arrays("w", doc_ids, tfs, segment_size=4)
        matched, tc = intersect_ids_with_tfs(
            ids, plist, CostCounter(), want_tc=True
        )
        expected = sorted(set(ids) & set(plist_ids))
        assert list(matched) == expected
        assert tc == sum(
            tfs[plist_ids.index(doc_id)] for doc_id in expected
        )

    def test_tc_skipped_unless_requested(self):
        doc_ids = array("q", [1, 2, 3])
        tfs = array("q", [5, 6, 7])
        plist = PostingList.from_arrays("w", doc_ids, tfs, segment_size=4)
        matched, tc = intersect_ids_with_tfs([1, 3], plist)
        assert list(matched) == [1, 3]
        assert tc == 0
