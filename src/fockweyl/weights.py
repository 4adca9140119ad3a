"""Integral gl_N weights in the epsilon basis, roots, and root-lattice tests."""

from __future__ import annotations

from functools import lru_cache


class Weight:
    """Integral weight (c_1, ..., c_N) in the orthonormal epsilon basis.

    Immutable, and hashed as `hash((coords,))`, which is the same in every
    run, so the order of a set or dict of weights, and of any report built
    from one, does not move.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(int(c) for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.coords,))

    def __reduce__(self):
        return Weight, (self.coords,)

    def __repr__(self):
        return f"Weight(coords={self.coords!r})"

    @classmethod
    def zero(cls, n: int) -> "Weight":
        return cls((0,) * n)

    @classmethod
    def eps(cls, i: int, n: int) -> "Weight":
        """The i-th coordinate weight (1-indexed)."""
        if not 1 <= i <= n:
            raise ValueError(f"eps index {i} out of range for rank {n}")
        return cls(tuple(1 if j == i else 0 for j in range(1, n + 1)))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def _check(self, other: "Weight"):
        if self.rank != other.rank:
            raise ValueError("weight rank mismatch")

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "Weight":
        return Weight(tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def alpha_coords(self):
        """Coordinates in the simple-root basis, or None if not in the root lattice."""
        if sum(self.coords) != 0:
            return None
        acc = 0
        out = []
        for c in self.coords[:-1]:
            acc += c
            out.append(acc)
        return tuple(out)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def alpha(i: int, n: int) -> Weight:
    """Simple root eps_i - eps_{i+1} (1 <= i <= n-1)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple root index {i} out of range for rank {n}")
    return Weight.eps(i, n) - Weight.eps(i + 1, n)


@lru_cache(maxsize=None)
def positive_roots(n: int) -> tuple[Weight, ...]:
    """All eps_i - eps_j with i < j, ordered lexicographically by (i, j)."""
    return tuple(Weight.eps(i, n) - Weight.eps(j, n)
                 for i in range(1, n + 1) for j in range(i + 1, n + 1))


def from_alpha_coords(ac, n: int) -> Weight:
    """Inverse of Weight.alpha_coords for rank n."""
    coords = []
    prev = 0
    for c in list(ac) + [0]:
        coords.append(c - prev)
        prev = c
    return Weight(tuple(coords[:n]))


def words_with_counts(counts) -> list[tuple[int, ...]]:
    """All words with counts[i] copies of the letter i + 1, lexicographically."""
    if not any(counts):
        return [()]
    out = []
    for i, c in enumerate(counts):
        if c:
            rest = list(counts)
            rest[i] -= 1
            out.extend((i + 1,) + w for w in words_with_counts(rest))
    return out


def good_words(counts) -> list[tuple[int, ...]]:
    """The good words with counts[i] copies of the letter i + 1, sorted; []
    outside Q+.  On the reversed alphabet N-1 < .. < 1 the good Lyndon words
    of sl_N are the intervals (b, b-1, .., a), and a good word concatenates
    them in non-increasing order (b ascending, then the longer first): one per
    Kostant partition, a basis of U^- there (Lalonde-Ram 1995, Leclerc 2004)."""
    if any(c < 0 for c in counts):
        return []

    def grow(left, spans, least):
        # each multiset once: intervals by increasing (a, b), a the least letter
        if not any(left):
            yield tuple(c for b, a in sorted(spans)
                        for c in range(b, a - 1, -1))
            return
        a = next(i for i, c in enumerate(left, 1) if c)
        for b in range(a, a + (left[a - 1:] + [0]).index(0)):
            if (a, b) >= least:
                yield from grow(
                    left[:a - 1] + [c - 1 for c in left[a - 1:b]] + left[b:],
                    spans + [(b, a)], (a, b))

    return sorted(grow(list(counts), [], (0, 0)))
