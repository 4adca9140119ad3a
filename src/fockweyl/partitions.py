"""Partitions, boxes, contents and colors, and the left/right box statistics.

Convention (pinned): the content of the box in row r, column c is c - r, and
"left of" means strictly greater content.  This orientation reproduces the
color diagrams and hook-ratio factorizations used throughout the test suite.

Along lam's rim, by decreasing content, the addable and removable boxes
alternate, from an addable box to an addable box.  `corners` lists them in
that order in one pass over the parts.  The box lists are its even and odd
positions, n_left and n_right count one color along it, and the Fock columns
(`fock._columns`) walk it.
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


def corners(lam: Partition) -> list:
    """lam's addable and removable boxes by decreasing content: addable boxes
    at the even positions, removable boxes at the odd ones.

    One pass over the parts, padded with a zero row.  The first addable box
    ends row 1; each row r longer than the row below gives its last box, then
    the next addable box, at the end of row r + 1.
    """
    parts = lam + (0,)
    out = [Box(1, parts[0] + 1)]
    for r, (p, below) in enumerate(zip(parts, parts[1:]), 1):
        if p > below:
            out += Box(r, p), Box(r + 1, below + 1)
    return out


def addable_boxes(lam: Partition) -> list:
    """Addable boxes, ordered by decreasing content."""
    return corners(lam)[::2]


def removable_boxes(lam: Partition) -> list:
    """Removable boxes, ordered by decreasing content."""
    return corners(lam)[1::2]


def _n_side(lam: Partition, new_box: Box, ell: int, side: int) -> int:
    """Removable-minus-addable count of the boxes of new_box's color whose
    content is greater (side 1) or smaller (side -1) than new_box's, in one
    pass over lam's corners."""
    if not is_addable(lam, new_box):
        raise ValueError(f"box {new_box} is not addable to {lam}")
    i = color(new_box, ell)
    c0 = content(new_box) * side
    return sum(1 if j % 2 else -1 for j, b in enumerate(corners(lam))
               if color(b, ell) == i and content(b) * side > c0)


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
    """Rows k <= n_rank where a box can be added, the rows of lam's addable
    corners; requires n_rank > #parts."""
    if n_rank <= len(lam):
        raise ValueError(f"rank {n_rank} too small for {lam}")
    return [b.row for b in addable_boxes(lam)]


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
