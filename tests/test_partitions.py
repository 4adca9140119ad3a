import pytest
from hypothesis import given

from fockweyl.partitions import (Box, Partition, addable_boxes,
                                 addable_row_indices, all_partitions, color,
                                 content, corners, n_left, n_right,
                                 removable_boxes)

from conftest import diagram_boxes, partitions


# Colors of the 36 boxes of (7,6,6,5,5,3,3,1) at ell=3, frozen from the
# reference diagram (row 1 at the top, leftmost column first).
FIGURE_COLORS = {
    1: [0, 1, 2, 0, 1, 2, 0],
    2: [2, 0, 1, 2, 0, 1],
    3: [1, 2, 0, 1, 2, 0],
    4: [0, 1, 2, 0, 1],
    5: [2, 0, 1, 2, 0],
    6: [1, 2, 0],
    7: [0, 1, 2],
    8: [2],
}


class TestContentColor:
    def test_corner(self):
        assert content(Box(1, 1)) == 0
        assert color(Box(1, 1), 3) == 0

    def test_deep_row(self):
        assert content(Box(8, 1)) == -7
        assert color(Box(8, 1), 3) == 2

    def test_wide_row(self):
        assert content(Box(2, 10)) == 8

    def test_color_needs_ell(self):
        with pytest.raises(ValueError):
            color(Box(1, 1), 1)

    def test_figure_golden(self):
        lam = Partition((7, 6, 6, 5, 5, 3, 3, 1))
        assert lam.size == 36
        seen = 0
        for b in diagram_boxes(lam):
            assert color(b, 3) == FIGURE_COLORS[b.row][b.col - 1]
            seen += 1
        assert seen == 36


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_add_remove_round_trip(self):
        for lam in all_partitions(8):
            for b in addable_boxes(lam):
                assert lam.add_box(b).remove_box(b) == lam


class TestAddableRemovable:
    def test_empty(self):
        assert addable_boxes(Partition(())) == [Box(1, 1)]
        assert color(Box(1, 1), 2) == 0

    def test_single_box_color_filter(self):
        lam = Partition((1,))
        addable = of_color(addable_boxes(lam), 2, 1)
        assert addable == [Box(1, 2), Box(2, 1)]
        assert [content(b) for b in addable] == [1, -1]
        assert of_color(removable_boxes(lam), 2, 1) == []

    def test_ordering_decreasing_content(self):
        lam = Partition((4, 2, 2, 1))
        for boxes in (addable_boxes(lam), removable_boxes(lam)):
            cs = [content(b) for b in boxes]
            assert cs == sorted(cs, reverse=True)

    @given(partitions())
    def test_counting_invariant(self, lam):
        assert len(addable_boxes(lam)) == len(removable_boxes(lam)) + 1

    @given(partitions())
    def test_distinct_contents(self, lam):
        boxes = addable_boxes(lam) + removable_boxes(lam)
        cs = [content(b) for b in boxes]
        assert len(set(cs)) == len(cs)


class TestBoxStatistics:
    def test_empty(self):
        assert n_left(Partition(()), Box(1, 1), 2) == 0

    def test_single_below(self):
        assert n_left(Partition((1,)), Box(2, 1), 2) == -1

    def test_single_right(self):
        assert n_left(Partition((1,)), Box(1, 2), 2) == 0

    def test_not_addable(self):
        with pytest.raises(ValueError):
            n_left(Partition((1,)), Box(3, 1), 2)

    def test_left_right_split(self):
        # everything visible exactly once: n_left + n_right = |R| - |A| + 1
        for lam in all_partitions(8):
            for ell in (2, 3):
                for b in addable_boxes(lam):
                    i = color(b, ell)
                    total = (len(of_color(removable_boxes(lam), ell, i))
                             - len(of_color(addable_boxes(lam), ell, i)) + 1)
                    assert n_left(lam, b, ell) + n_right(lam, b, ell) == total


class TestAddableRows:
    def test_empty(self):
        assert addable_row_indices(Partition(()), 3) == [1]

    def test_single(self):
        assert addable_row_indices(Partition((1,)), 3) == [1, 2]

    def test_figure_partition(self):
        lam = Partition((10, 10, 8, 8, 8, 6, 6, 6, 6, 1, 1))
        assert addable_row_indices(lam, 12) == [1, 3, 6, 10, 12]

    def test_rank_too_small(self):
        with pytest.raises(ValueError):
            addable_row_indices(Partition((1, 1)), 2)

    def test_first_row_always_addable(self):
        for lam in all_partitions(6):
            assert addable_row_indices(lam, len(lam) + 1)[0] == 1

    def test_rows_match_addable_boxes(self):
        for lam in all_partitions(6):
            rows = addable_row_indices(lam, len(lam) + 1)
            boxes = addable_boxes(lam)
            assert rows == sorted(b.row for b in boxes)


def brute_addable(lam, ell, color_filter=None):
    """Boxes outside lam whose upper and left neighbours are inside it."""
    width = lam[0] if lam else 0
    boxes = [Box(r, c) for r in range(1, len(lam) + 2)
             for c in range(1, width + 2)
             if not lam.contains(Box(r, c))
             and (r == 1 or lam.contains(Box(r - 1, c)))
             and (c == 1 or lam.contains(Box(r, c - 1)))]
    return _by_content(boxes, ell, color_filter)


def brute_removable(lam, ell, color_filter=None):
    """Boxes of lam whose lower and right neighbours are outside it."""
    boxes = [b for b in diagram_boxes(lam)
             if not lam.contains(Box(b.row + 1, b.col))
             and not lam.contains(Box(b.row, b.col + 1))]
    return _by_content(boxes, ell, color_filter)


def of_color(boxes, ell, color_filter):
    """The boxes of one color mod ell, in their order; all for None."""
    if color_filter is None:
        return boxes
    return [b for b in boxes if (b.col - b.row) % ell == color_filter % ell]


def _by_content(boxes, ell, color_filter):
    return sorted(of_color(boxes, ell, color_filter), key=lambda b: b.row - b.col)


def brute_n(lam, new_box, ell, side):
    i = (new_box.col - new_box.row) % ell
    c0 = new_box.col - new_box.row
    rem = sum(1 for b in brute_removable(lam, ell, i)
              if side * (b.col - b.row - c0) > 0)
    add = sum(1 for b in brute_addable(lam, ell, i)
              if side * (b.col - b.row - c0) > 0)
    return rem - add


class TestOnePassScans:
    """The one-pass box scans against a reference built on `contains`."""

    def test_boxes_match_reference(self):
        for lam in all_partitions(8):
            for ell in range(2, 6):
                for f in (None, *range(ell), ell + 1, -1):
                    assert (of_color(addable_boxes(lam), ell, f)
                            == brute_addable(lam, ell, f))
                    assert (of_color(removable_boxes(lam), ell, f)
                            == brute_removable(lam, ell, f))

    def test_left_right_match_reference(self):
        for lam in all_partitions(8):
            for ell in range(2, 6):
                for b in brute_addable(lam, ell):
                    assert n_left(lam, b, ell) == brute_n(lam, b, ell, 1)
                    assert n_right(lam, b, ell) == brute_n(lam, b, ell, -1)

    @pytest.mark.parametrize("ell", [1, 0, -3])
    def test_statistics_below_two_raise(self, ell):
        # the box lists take no ell; the statistics read it through color
        for lam in (Partition(()), Partition((1,)), Partition((3, 1))):
            for b in addable_boxes(lam):
                for stat in (n_left, n_right):
                    with pytest.raises(ValueError, match="ell must be >= 2"):
                        stat(lam, b, ell)

    def test_no_filter_ignores_ell(self):
        lam = Partition((3, 1))
        assert addable_boxes(lam) == [Box(1, 4), Box(2, 2), Box(3, 1)]
        assert removable_boxes(lam) == [Box(1, 3), Box(2, 1)]


class TestCorners:
    def test_empty(self):
        assert corners(Partition(())) == [Box(1, 1)]

    def test_staircase(self):
        assert corners(Partition((2, 1))) == [
            Box(1, 3), Box(1, 2), Box(2, 2), Box(2, 1), Box(3, 1)]

    def test_alternation_and_reference(self):
        # addable first and last, alternating, strictly decreasing content,
        # and its even and odd positions are the reference box lists
        for lam in all_partitions(8):
            walk = corners(lam)
            addable, removable = walk[::2], walk[1::2]
            assert len(walk) % 2 == 1
            assert all(lam.contains(b) for b in removable)
            assert not any(lam.contains(b) for b in addable)
            cs = [content(b) for b in walk]
            assert all(a > b for a, b in zip(cs, cs[1:]))
            assert addable == brute_addable(lam, 2)
            assert removable == brute_removable(lam, 2)
            assert addable_boxes(lam) == addable
            assert removable_boxes(lam) == removable
