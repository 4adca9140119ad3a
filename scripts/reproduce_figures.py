#!/usr/bin/env python3
"""Print the two reference computations the test suite freezes as goldens:
the color diagram of (7,6,6,5,5,3,3,1) at ell=3, and the evaluated Jantzen
number of the 11-row partition at row 6, rendered as a q-integer ratio.
"""

from fockweyl.partitions import Partition, Box, color, content, addable_boxes, removable_boxes
from fockweyl.ring import render_q_integers
from fockweyl.verma import hook_factors


def color_diagram(lam, ell):
    lam = Partition(lam)
    print(f"colors of {','.join(map(str, lam))} at ell={ell}:")
    for r in range(1, len(lam) + 1):
        row = " ".join(str(color(Box(r, c), ell)) for c in range(1, lam.part(r) + 1))
        print(f"  row {r:>2}: {row}")
    print()


def jantzen_evaluation(lam, k):
    lam = Partition(lam)
    rendered = render_q_integers(*hook_factors(lam, k))
    print(f"evaluated Jantzen number for {','.join(map(str, lam))}, row {k}:")
    above = [b for b in removable_boxes(lam) if b.row < k]
    below = [b for b in addable_boxes(lam) if b.row < k]
    new_box = Box(k, lam.part(k) + 1)
    print(f"  removable above: {[(b.row, b.col) for b in above]}")
    print(f"  addable above:   {[(b.row, b.col) for b in below]}")
    print(f"  new box content: {content(new_box)}")
    print(f"  value: {rendered}")
    print()


if __name__ == "__main__":
    color_diagram((7, 6, 6, 5, 5, 3, 3, 1), 3)
    jantzen_evaluation((10, 10, 8, 8, 8, 6, 6, 6, 6, 1, 1), 6)
