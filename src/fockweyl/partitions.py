"""Partitions, boxes, contents and colors, and the left/right box statistics.

Convention (pinned): the content of the box in row r, column c is c - r, and
"left of" means strictly greater content.  This orientation reproduces the
color diagrams and hook-ratio factorizations used throughout the test suite.
"""

from __future__ import annotations

from typing import NamedTuple


class Box(NamedTuple):
    row: int
    col: int


class Partition(tuple):
    """Weakly decreasing sequence of positive integers (empty allowed)."""

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def part(self, r: int) -> int:
        """The r-th part (1-indexed), zero beyond the last row."""
        return self[r - 1] if 1 <= r <= len(self) else 0

    def contains(self, b: Box) -> bool:
        return 1 <= b.col <= self.part(b.row)

    def add_box(self, b: Box) -> "Partition":
        if not is_addable(self, b):
            raise ValueError(f"box {b} is not addable to {self}")
        parts = list(self)
        if b.row == len(self) + 1:
            parts.append(1)
        else:
            parts[b.row - 1] += 1
        return Partition(parts)

    def remove_box(self, b: Box) -> "Partition":
        if not is_removable(self, b):
            raise ValueError(f"box {b} is not removable from {self}")
        parts = list(self)
        parts[b.row - 1] -= 1
        if parts and parts[-1] == 0:
            parts.pop()
        return Partition(parts)

    def boxes(self):
        for r, p in enumerate(self, start=1):
            for c in range(1, p + 1):
                yield Box(r, c)

    def to_json(self):
        return list(self)

    @classmethod
    def from_json(cls, data):
        return cls(data)

    def __repr__(self):
        return f"Partition({tuple(self)})"


def content(b: Box) -> int:
    return b.col - b.row


def color(b: Box, ell: int) -> int:
    """Residue of the content mod ell, as a canonical representative 0..ell-1."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return content(b) % ell


def is_addable(lam: Partition, b: Box) -> bool:
    if b.col != lam.part(b.row) + 1:
        return False
    return b.row == 1 or lam.part(b.row) < lam.part(b.row - 1)


def is_removable(lam: Partition, b: Box) -> bool:
    if b.col != lam.part(b.row) or b.col == 0:
        return False
    return lam.part(b.row) > lam.part(b.row + 1)


def _wanted_color(ell: int, color_filter: int | None):
    """The color a box must have to pass the filter, or None for any."""
    if color_filter is None:
        return None
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return color_filter % ell


def addable_boxes(lam: Partition, ell: int, color_filter: int | None = None):
    """Addable boxes, ordered by decreasing content, optionally one color only.

    One pass over the parts, padded with a zero row: row r takes a box at
    column part(r) + 1 when it is the first row or shorter than the row above.
    """
    want = _wanted_color(ell, color_filter)
    parts = lam + (0,)
    out = []
    for r, (above, p) in enumerate(zip((parts[0] + 1,) + parts, parts), 1):
        if p < above and (want is None or (p + 1 - r) % ell == want):
            out.append(Box(r, p + 1))
    return out


def removable_boxes(lam: Partition, ell: int, color_filter: int | None = None):
    """Removable boxes, ordered by decreasing content, optionally one color only.

    One pass over the parts, padded with a zero row: row r gives up its last
    box when it is longer than the row below.
    """
    want = _wanted_color(ell, color_filter) if lam else None
    parts = lam + (0,)
    out = []
    for r, (p, below) in enumerate(zip(parts, parts[1:]), 1):
        if p > below and (want is None or (p - r) % ell == want):
            out.append(Box(r, p))
    return out


def _n_side(lam: Partition, new_box: Box, ell: int, side: int) -> int:
    """Removable-minus-addable count of the boxes of new_box's color whose
    content is greater (side 1) or smaller (side -1) than new_box's."""
    if not is_addable(lam, new_box):
        raise ValueError(f"box {new_box} is not addable to {lam}")
    i = color(new_box, ell)
    c0 = content(new_box) * side
    return (sum(content(b) * side > c0 for b in removable_boxes(lam, ell, i))
            - sum(content(b) * side > c0 for b in addable_boxes(lam, ell, i)))


def n_left(lam: Partition, new_box: Box, ell: int) -> int:
    """Removable-minus-addable count of same-color boxes left of new_box.

    "Left" means strictly greater content.  new_box must be addable; its own
    color fixes the filter.
    """
    return _n_side(lam, new_box, ell, 1)


def n_right(lam: Partition, new_box: Box, ell: int) -> int:
    """Same as n_left with "right": strictly smaller content."""
    return _n_side(lam, new_box, ell, -1)


def addable_row_indices(lam: Partition, n_rank: int) -> list[int]:
    """Rows k <= n_rank where a box can be added; requires n_rank > #parts."""
    if n_rank <= len(lam):
        raise ValueError(f"rank {n_rank} too small for {lam}")
    return [r for r in range(1, n_rank + 1)
            if is_addable(lam, Box(r, lam.part(r) + 1))]


def all_partitions(max_size: int):
    """All partitions of size 0..max_size, by size then largest part first."""
    for n in range(max_size + 1):
        yield from partitions_of(n)


def partitions_of(n: int, max_part: int | None = None):
    if n == 0:
        yield Partition(())
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield Partition((first,) + tuple(rest))
