"""The v-deformed Fock space: box-adding/removing operators with power-of-v
matrix entries, the diagonal operator completing them to a quantum affine
sl_ell action, and an exhaustive relation checker.

The generators' columns at a basis ket |lam> are one table per (lam, ell),
`_columns`: for every color i, the columns of E_i and F_i, tuples of
(partition, v-exponent), and the K_i exponent d_i = #addable_i - #removable_i.
A table is built in two walks along lam's addable and removable boxes and
kept in a cache bounded at 512 tables; applying E_i, F_i or K_i to a vector
shifts each term's coefficient along its ket's column.

Every nonzero matrix entry is a single power of v, so `check_relations`
composes each side of a relation as an integer combination of kets v^e |mu>,
a dict from (mu, e) to int, and builds a `FockVector` only to render a
counterexample.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .ring import LaurentQ, q_int
from .sparse import SparseVector
from .partitions import (Partition, addable_boxes, removable_boxes,
                         all_partitions, color)


class FockVector(SparseVector):
    """Finite formal sum of partitions with Laurent-in-v coefficients."""

    __slots__ = ()
    _key = Partition

    def _coerce(self, c):
        if not isinstance(c, LaurentQ):
            c = LaurentQ({0: c}, "v")
        if c.var != "v":
            raise ValueError("Fock coefficients must be in v")
        return c

    def _space(self):
        return ()

    @classmethod
    def ket(cls, lam) -> "FockVector":
        return cls({Partition(lam): LaurentQ.one("v")})

    @classmethod
    def zero(cls) -> "FockVector":
        return cls()

    def sorted_terms(self):
        """Deterministic order: by size, then parts lexicographically."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0].size, kv[0]))

    def render(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for lam, c in self.sorted_terms():
            ket = "|" + (",".join(str(p) for p in lam) if lam else "0") + ">"
            mono = c.as_monomial()
            if mono is not None:
                e, v = mono
                head = ""
                if e:
                    head = ("v" if e == 1 else f"v^{e}") + "*"
                if v == 1:
                    chunks.append(head + ket)
                elif v == -1:
                    chunks.append("-" + head + ket)
                else:
                    chunks.append(f"{v}*" + head + ket)
            else:
                chunks.append(f"({c.to_text()})*" + ket)
        out = chunks[0]
        for ch in chunks[1:]:
            out += " - " + ch[1:] if ch.startswith("-") else " + " + ch
        return out

    def to_json(self):
        return [{"partition": list(lam), "coeff": c.to_json()}
                for lam, c in self.sorted_terms()]

    def __repr__(self):
        return f"FockVector({self.render()})"


class _Columns(NamedTuple):
    """The generators' columns at one ket |lam>, indexed by color i."""

    E: tuple  # E[i]: the column of E_i, a tuple of (mu, e) for v^e |mu>
    F: tuple  # F[i]: the column of F_i, likewise
    d: tuple  # d[i] = #addable_i - #removable_i: K_i |lam> = v^d[i] |lam>


@lru_cache(maxsize=512)
def _columns(lam: Partition, ell: int) -> _Columns:
    """Columns of E_i and F_i and the K_i exponent at |lam>, for every color.

    lam's boundary, by decreasing content, alternates addable and removable
    boxes, from an addable box to an addable box.  One walk forward keeps,
    per color, addable minus removable boxes of larger content: -n_left at an
    addable box.  One walk back keeps the same count over smaller content:
    at a removable box b it is -n_right(mu, b), mu = lam - b, read off lam,
    since mu and lam differ only at b and at the boxes next to it, whose
    colors i +- 1 are not b's color i.  Kept in a cache bounded at 512
    (lam, ell) tables.
    """
    add, rem = addable_boxes(lam, ell), removable_boxes(lam, ell)
    walk = add + rem
    walk[::2], walk[1::2] = add, rem
    colors = [color(b, ell) for b in walk]
    E = [[] for _ in range(ell)]
    F = [[] for _ in range(ell)]
    d = [0] * ell
    for j, (b, i) in enumerate(zip(walk, colors)):
        if j % 2:
            d[i] -= 1
        else:
            F[i].append((lam.add_box(b), -d[i]))
            d[i] += 1
    below = [0] * ell
    for j in range(len(walk) - 1, -1, -1):
        b, i = walk[j], colors[j]
        if j % 2:
            E[i].append((lam.remove_box(b), below[i]))
            below[i] -= 1
        else:
            below[i] += 1
    return _Columns(tuple(tuple(reversed(col)) for col in E),
                    tuple(map(tuple, F)), tuple(d))


def _apply(op: str, i: int, x: FockVector, ell: int, sign: int = 1) -> FockVector:
    """E_i, F_i or K_i (op "E", "F" or "K") on x: each term's coefficient is
    shifted along its ket's column, read from the (lam, ell) table."""
    out = FockVector()
    for lam, c in x.terms.items():
        cols = _columns(lam, ell)
        if op == "K":
            col = ((lam, cols.d[i % ell]),)
        else:
            col = getattr(cols, op)[i % ell]
        for mu, e in col:
            out.add_term(mu, c.shift(sign * e))
    return out


def apply_F(i: int, x: FockVector, ell: int) -> FockVector:
    """Add one i-colored box to each term, with exponent n_left.

    Each ket's columns are computed once per (lam, ell) by `_columns`, whose
    cache holds at most 512 tables.
    """
    return _apply("F", i, x, ell)


def apply_E(i: int, x: FockVector, ell: int) -> FockVector:
    """Remove one i-colored box from each term, with exponent -n_right.

    The statistic is computed on the smaller partition, with the removed
    box as reference.  Each ket's columns are computed once per (lam, ell)
    by `_columns`, whose cache holds at most 512 tables.
    """
    return _apply("E", i, x, ell)


def apply_K(i: int, x: FockVector, ell: int, inverse: bool = False) -> FockVector:
    """Diagonal operator with eigenvalue v^(#addable - #removable) per color.

    Each ket's exponents are computed once per (lam, ell) by `_columns`,
    whose cache holds at most 512 tables.
    """
    return _apply("K", i, x, ell, -1 if inverse else 1)


def _word(lam: Partition, ell: int, *ops) -> dict:
    """|lam> under a word in the E_i and F_i: ops are (op, i) pairs, op "E"
    or "F", applied right to left.  The image is an integer combination of
    kets v^e |mu>, a dict from (mu, e) to its coefficient; every column entry
    is +v^e, so coefficients only grow and none cancels."""
    x = {(lam, 0): 1}
    for op, i in reversed(ops):
        y = {}
        for (mu, e), c in x.items():
            for nu, f in getattr(_columns(mu, ell), op)[i]:
                key = (nu, e + f)
                y[key] = y.get(key, 0) + c
        x = y
    return x


def _combine(parts) -> dict:
    """The sum of c v^s x over (c, s, x) in parts, x integer combinations."""
    out = {}
    for c, s, x in parts:
        for (mu, e), a in x.items():
            key = (mu, e + s)
            out[key] = out.get(key, 0) + c * a
    return {key: a for key, a in out.items() if a}


def _render(x: dict) -> str:
    """An integer combination of kets, rendered as its `FockVector`."""
    out = FockVector()
    for (mu, e), c in x.items():
        out.add_term(mu, LaurentQ.term(e, c, "v"))
    return out.render()


def affine_cartan(i: int, j: int, ell: int) -> int:
    """Cartan pairing of the cyclic type-A diagram (equals -2 off-diagonal at ell=2)."""
    if i % ell == j % ell:
        return 2
    a = 0
    if (i - j) % ell == 1:
        a -= 1
    if (j - i) % ell == 1:
        a -= 1
    return a


def check_relations(ell: int, max_size: int):
    """Verify the defining relations of the quantum affine algebra on all
    basis vectors up to the given size.

    Checks the E/F commutator against the diagonal operator, the K
    conjugations, commuting pairs at cyclic distance >= 2, and the cubic
    Serre relations for ell >= 3.  Returns a list of result dicts, one per
    (relation, i, j), each with a pass flag and the first counterexample.

    Every nonzero matrix entry is a single power of v, so each side of a
    relation is an integer combination of kets v^e |mu>, composed from the
    `_columns` tables; a `FockVector` is built only to render a
    counterexample.  The columns of E_j and F_j list distinct mu, so
    K_i op_j = v^(+-a_ij) op_j K_i holds at |lam> exactly when
    d_i(mu) - d_i(lam) = +-a_ij for every mu in the column.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    lams = list(all_partitions(max_size))
    two = q_int(2, "v").terms
    results = []

    def run(kind, i, j, check):
        bad = None
        for lam in lams:
            err = check(lam)
            if err is not None:
                bad = {"partition": list(lam), "detail": err}
                break
        results.append({"relation": kind, "i": i, "j": j,
                        "passed": bad is None, "counterexample": bad})

    for i in range(ell):
        for j in range(ell):
            def comm(lam, i=i, j=j):
                lhs = _combine(((1, 0, _word(lam, ell, ("E", i), ("F", j))),
                                (-1, 0, _word(lam, ell, ("F", j), ("E", i)))))
                rhs = {}
                if i == j:
                    d = _columns(lam, ell).d[i]
                    rhs = {(lam, s): c for s, c in q_int(d, "v").terms.items()}
                if lhs != rhs:
                    return f"[E_{i},F_{j}] mismatch: {_render(lhs)} vs {_render(rhs)}"
                return None
            run("commutator", i, j, comm)

    for i in range(ell):
        for j in range(ell):
            a = affine_cartan(i, j, ell)

            def kconj(lam, i=i, j=j, a=a):
                cols = _columns(lam, ell)
                for col, s in ((cols.E[j], 1), (cols.F[j], -1)):
                    for mu, _ in col:
                        if _columns(mu, ell).d[i] - cols.d[i] != s * a:
                            return f"K_{i} conjugation of op_{j} fails"
                return None
            run("k-conjugation", i, j, kconj)

    for i in range(ell):
        for j in range(ell):
            dist = min((i - j) % ell, (j - i) % ell)
            if dist >= 2:
                def far(lam, i=i, j=j):
                    for op in "EF":
                        if (_word(lam, ell, (op, i), (op, j))
                                != _word(lam, ell, (op, j), (op, i))):
                            return f"distant generators {i},{j} fail to commute"
                    return None
                run("commuting-pair", i, j, far)
            elif dist == 1 and ell >= 3:
                def serre(lam, i=i, j=j):
                    for op in "EF":
                        middle = _word(lam, ell, (op, i), (op, j), (op, i))
                        lhs = _combine(
                            [(1, 0, _word(lam, ell, (op, i), (op, i), (op, j))),
                             (1, 0, _word(lam, ell, (op, j), (op, i), (op, i)))]
                            + [(-c, s, middle) for s, c in two.items()])
                        if lhs:
                            return f"cubic Serre relation fails for {i},{j}"
                    return None
                run("serre", i, j, serre)

    return results
