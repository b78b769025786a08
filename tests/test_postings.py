"""Unit and property tests for posting lists and skip pointers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.postings import CostCounter, PostingCursor, PostingList


def make_list(ids, segment_size=4):
    return PostingList.from_pairs("t", [(i, 1) for i in ids], segment_size=segment_size)


sorted_ids = st.lists(
    st.integers(min_value=0, max_value=10_000), unique=True, max_size=300
).map(sorted)


class TestConstruction:
    def test_append_requires_increasing_ids(self):
        plist = PostingList("w")
        plist.append(3, 1)
        with pytest.raises(ValueError):
            plist.append(3, 1)
        with pytest.raises(ValueError):
            plist.append(1, 1)

    def test_tf_must_be_positive(self):
        plist = PostingList("w")
        with pytest.raises(ValueError):
            plist.append(1, 0)

    def test_frozen_rejects_append(self):
        plist = make_list([1, 2])
        with pytest.raises(RuntimeError):
            plist.append(5, 1)

    def test_reads_require_freeze(self):
        plist = PostingList("w")
        plist.append(1, 2)
        with pytest.raises(RuntimeError):
            plist.contains(1)

    def test_freeze_idempotent(self):
        plist = make_list([1, 2, 3])
        assert plist.freeze() is plist

    def test_segment_size_validation(self):
        with pytest.raises(ValueError):
            PostingList("w", segment_size=1)

    def test_iteration_yields_pairs(self):
        plist = PostingList.from_pairs("w", [(1, 3), (5, 2)])
        assert list(plist) == [(1, 3), (5, 2)]

    def test_empty_list(self):
        plist = make_list([])
        assert len(plist) == 0
        assert plist.num_segments == 0
        assert not plist.contains(7)


class TestSegments:
    def test_segment_bounds(self):
        plist = make_list(list(range(0, 20, 2)), segment_size=4)
        bounds = plist.segment_bounds()
        assert bounds[0] == (0, 6)  # ids 0,2,4,6
        assert bounds[1] == (4, 14)  # ids 8,10,12,14
        assert bounds[-1][1] == 18

    def test_num_segments_ceil(self):
        assert make_list(list(range(9)), segment_size=4).num_segments == 3

    @given(sorted_ids)
    def test_segments_cover_all_entries(self, ids):
        plist = make_list(ids, segment_size=5)
        covered = set()
        bounds = plist.segment_bounds()
        for idx, (start, _) in enumerate(bounds):
            end = bounds[idx + 1][0] if idx + 1 < len(bounds) else len(ids)
            covered.update(range(start, end))
        assert covered == set(range(len(ids)))


class TestLookups:
    @given(sorted_ids, st.integers(min_value=0, max_value=10_000))
    def test_contains_matches_set(self, ids, probe):
        plist = make_list(ids)
        assert plist.contains(probe) == (probe in set(ids))

    def test_tf_for(self):
        plist = PostingList.from_pairs("w", [(1, 3), (4, 7)])
        assert plist.tf_for(1) == 3
        assert plist.tf_for(4) == 7
        assert plist.tf_for(2) is None

    # The skip-to cases run on PostingCursor.seek, the one skip-table seek.

    @given(sorted_ids, st.integers(min_value=0, max_value=10_000))
    def test_skip_to_finds_first_geq(self, ids, target):
        plist = make_list(ids, segment_size=3)
        cursor = PostingCursor(plist)
        cursor.seek(target)
        pos = cursor.pos
        # Everything before pos is < target; pos itself is >= target.
        assert all(doc_id < target for doc_id in ids[:pos])
        if pos < len(ids):
            assert ids[pos] >= target

    def test_skip_to_counts_skipped_segments(self):
        plist = make_list(list(range(100)), segment_size=10)
        counter = CostCounter()
        PostingCursor(plist).seek(95, counter)
        assert counter.segments_skipped >= 8

    def test_skip_to_from_midpoint(self):
        ids = list(range(0, 60, 3))
        plist = make_list(ids, segment_size=4)
        cursor = PostingCursor(plist)
        cursor.seek(ids[5])
        assert cursor.pos == 5
        cursor.seek(45)
        assert ids[cursor.pos] == 45


class TestOverlap:
    def test_disjoint_ranges_no_overlap(self):
        a = make_list(list(range(0, 20)), segment_size=4)
        b = make_list(list(range(100, 120)), segment_size=4)
        assert a.overlapping_segments(b) == 0
        assert b.overlapping_segments(a) == 0

    def test_full_overlap(self):
        a = make_list(list(range(0, 40)), segment_size=4)
        b = make_list([0, 39], segment_size=4)  # spans a's whole range
        assert a.overlapping_segments(b) == a.num_segments

    def test_partial_overlap(self):
        a = make_list(list(range(0, 100)), segment_size=10)  # 10 segments
        b = make_list(list(range(45, 55)), segment_size=10)
        # Only segments covering ids 45-55 overlap b's range.
        assert a.overlapping_segments(b) == 2

    @given(sorted_ids, sorted_ids)
    def test_overlap_bounded_by_num_segments(self, ids_a, ids_b):
        a, b = make_list(ids_a), make_list(ids_b)
        assert 0 <= a.overlapping_segments(b) <= a.num_segments


class TestCostCounter:
    def test_merge(self):
        a = CostCounter(entries_scanned=3, segments_skipped=1, model_cost=10)
        b = CostCounter(entries_scanned=2, segments_skipped=4, model_cost=5)
        a.merge(b)
        assert (a.entries_scanned, a.segments_skipped, a.model_cost) == (5, 5, 15)

    def test_reset(self):
        counter = CostCounter(entries_scanned=3, model_cost=7)
        counter.reset()
        assert counter.entries_scanned == 0
        assert counter.model_cost == 0


class TestMaxTf:
    """max_tf is cached at freeze time (no per-query O(len) scan)."""

    def test_equals_scan_of_tfs(self):
        plist = PostingList.from_pairs("t", [(1, 2), (4, 7), (9, 3)])
        assert plist.max_tf == 7 == max(plist.tfs)

    def test_empty_list_is_zero(self):
        assert PostingList.from_pairs("t", []).max_tf == 0

    def test_from_arrays_path(self):
        plist = PostingList.from_arrays("t", [2, 5, 11], [1, 9, 4])
        assert plist.max_tf == 9

    def test_requires_frozen(self):
        plist = PostingList("t")
        plist.append(1, 5)
        with pytest.raises(RuntimeError, match="frozen"):
            plist.max_tf

    def test_extend_recomputes(self):
        plist = PostingList.from_pairs("t", [(1, 2), (3, 4)])
        assert plist.max_tf == 4
        plist.extend([(7, 11), (9, 1)])
        assert plist.max_tf == 11
