"""Regression test: seeking an exhausted cursor on segment-aligned lists.

Found by the full reproduction runner: when a posting list's length is an
exact multiple of the segment size, advancing a cursor already at
``len(list)`` computed a segment index one past the skip table and
crashed.  The fixture reproduces the original failing shape (cursor
walked to the end by a prior selective intersection, then asked to
advance again).  The cases run on :class:`PostingCursor`, the one
skip-table seek.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.postings import END_OF_LIST, CostCounter, PostingCursor, PostingList


def cursor_at(plist, position):
    """A cursor on ``plist`` moved to ``position`` (``len`` = exhausted)."""
    cursor = PostingCursor(plist)
    if position < len(plist):
        cursor.seek(plist.doc_ids[position])
    else:
        cursor.seek(END_OF_LIST)
    assert cursor.pos == position
    return cursor


class TestExhaustedCursor:
    @pytest.mark.parametrize("length", [4, 8, 64, 128])
    def test_segment_aligned_lengths(self, length):
        plist = PostingList.from_pairs(
            "t", [(i, 1) for i in range(length)], segment_size=4
        )
        # Cursor at the very end; any further target must be a no-op.
        cursor = cursor_at(plist, length)
        counter = CostCounter()
        assert cursor.seek(10**9, counter) == END_OF_LIST
        assert cursor.pos == length
        assert counter == CostCounter()

    def test_unaligned_length(self):
        plist = PostingList.from_pairs(
            "t", [(i, 1) for i in range(10)], segment_size=4
        )
        cursor = cursor_at(plist, 10)
        cursor.seek(99)
        assert cursor.pos == 10

    def test_empty_list(self):
        plist = PostingList.from_pairs("t", [], segment_size=4)
        cursor = PostingCursor(plist)
        assert cursor.seek(5) == END_OF_LIST
        assert cursor.pos == 0

    @given(
        length=st.integers(min_value=0, max_value=200),
        position=st.integers(min_value=0, max_value=220),
        target=st.integers(min_value=0, max_value=500),
    )
    def test_never_crashes_and_postcondition_holds(self, length, position, target):
        plist = PostingList.from_pairs(
            "t", [(i * 2, 1) for i in range(length)], segment_size=4
        )
        position = min(position, length)  # valid cursor positions
        cursor = cursor_at(plist, position)
        cursor.seek(target)
        new_position = cursor.pos
        assert position <= new_position <= length
        # Everything passed over is below the target...
        assert all(doc_id < target for doc_id in plist.doc_ids[position:new_position])
        # ...and the landing entry (if any) is the first >= target.
        if new_position < length:
            assert plist.doc_ids[new_position] >= target

    def test_original_failure_shape(self):
        """The selective-intersection pattern that triggered the crash."""
        from repro.views.rewrite import selective_intersection

        predicate = PostingList.from_pairs(
            "m", [(i, 1) for i in range(64)], segment_size=64
        )
        keyword = PostingList.from_pairs("w", [(63, 1), (100, 2)])
        matched = selective_intersection(keyword, [predicate], None, None)
        assert matched == [(63, 1)]
