"""The v-deformed Fock space: box-adding/removing operators with power-of-v
matrix entries, the diagonal operator completing them to a quantum affine
sl_ell action, and an exhaustive relation checker.

The generators' columns at a basis ket |lam> are one table per (lam, ell),
`_columns`: for the colors i that lam's corners have, the columns of E_i and
F_i, tuples of (partition, v-exponent), and the K_i exponent
d_i = #addable_i - #removable_i; every other color has empty columns and
d_i = 0, so a table's size does not depend on ell.  A table is built in two
walks along `partitions.corners(lam)`, lam's addable and removable boxes,
which alternate by decreasing content, and kept in a cache bounded at 512
tables.

Every nonzero matrix entry is a single power of v, so one column step,
`_step`, acts on combinations of kets v^e |mu>, dicts from (mu, e) to a
coefficient.  It serves apply_E/F/K, which expand and rebuild a `FockVector`,
and the relation words of `check_relations`, which builds a `FockVector`
only to render a counterexample.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .ring import LaurentQ, q_int
from .sparse import SparseVector
from .partitions import Partition, all_partitions, color, corners


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

    def sorted_terms(self):
        """Deterministic order: by size, then parts lexicographically."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0].size, kv[0]))

    def render(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for lam, c in self.sorted_terms():
            ket = "|" + (",".join(str(p) for p in lam) if lam else "0") + ">"
            head = c.to_text()
            if c.as_monomial() is None:
                head = f"({head})*"
            elif head in ("1", "-1"):
                head = head[:-1]
            else:
                head += "*"
            chunks.append(head + ket)
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
    """The generators' columns at one ket |lam>, keyed by color i.  Only the
    colors of lam's corners are keys: any other color has an empty column
    and d 0.  Cached tables are shared, so no caller changes them."""

    E: dict  # E[i]: the column of E_i, a tuple of (mu, e) for v^e |mu>
    F: dict  # F[i]: the column of F_i, likewise
    d: dict  # d[i] = #addable_i - #removable_i: K_i |lam> = v^d[i] |lam>


@lru_cache(maxsize=512)
def _columns(lam: Partition, ell: int) -> _Columns:
    """Columns of E_i and F_i and the K_i exponent at |lam>, for the colors
    lam has: those of its corners.

    lam's `corners`, by decreasing content, alternate addable and removable
    boxes, from an addable box to an addable box.  One walk forward keeps,
    per color, addable minus removable boxes of larger content: -n_left at an
    addable box.  One walk back keeps the same count over smaller content:
    at a removable box b it is -n_right(mu, b), mu = lam - b, read off lam,
    since mu and lam differ only at b and at the boxes next to it, whose
    colors i +- 1 are not b's color i.  Kept in a cache bounded at 512
    (lam, ell) tables.
    """
    walk = corners(lam)
    colors = [color(b, ell) for b in walk]
    E, F, d = {}, {}, dict.fromkeys(colors, 0)
    for j, (b, i) in enumerate(zip(walk, colors)):
        if j % 2:
            d[i] -= 1
        else:
            F.setdefault(i, []).append((lam.add_box(b), -d[i]))
            d[i] += 1
    below = dict.fromkeys(colors, 0)
    for j in range(len(walk) - 1, -1, -1):
        b, i = walk[j], colors[j]
        if j % 2:
            E.setdefault(i, []).append((lam.remove_box(b), below[i]))
            below[i] -= 1
        else:
            below[i] += 1
    return _Columns({i: tuple(reversed(col)) for i, col in E.items()},
                    {i: tuple(col) for i, col in F.items()}, d)


def _step(x: dict, ell: int, op: str, i: int) -> dict:
    """E_i, F_i or K_i (op "E", "F" or "K") on a combination of kets
    v^e |lam>, a dict from (lam, e) to its coefficient: each term moves
    along its ket's column, read from the (lam, ell) table."""
    i %= ell
    y = {}
    for (lam, e), c in x.items():
        cols = _columns(lam, ell)
        col = ((lam, cols.d.get(i, 0)),) if op == "K" \
            else getattr(cols, op).get(i, ())
        for mu, f in col:
            key = (mu, e + f)
            y[key] = y.get(key, 0) + c
    return y


def _vector(x: dict) -> FockVector:
    """A combination of kets v^e |mu>, as its `FockVector`."""
    out = FockVector()
    for (mu, e), c in x.items():
        out.add_term(mu, LaurentQ.term(e, c, "v"))
    return out


def _apply(op: str, i: int, x: FockVector, ell: int) -> FockVector:
    """One `_step` on x, its terms expanded into kets v^e |lam>.  Each ket's
    columns are computed once per (lam, ell) by `_columns`, whose cache holds
    at most 512 tables."""
    return _vector(_step({(lam, e): a for lam, c in x.terms.items()
                          for e, a in c.terms.items()}, ell, op, i))


def apply_F(i: int, x: FockVector, ell: int) -> FockVector:
    """Add one i-colored box to each term, with exponent n_left."""
    return _apply("F", i, x, ell)


def apply_E(i: int, x: FockVector, ell: int) -> FockVector:
    """Remove one i-colored box from each term, with exponent -n_right.

    The statistic is computed on the smaller partition, with the removed
    box as reference.
    """
    return _apply("E", i, x, ell)


def apply_K(i: int, x: FockVector, ell: int) -> FockVector:
    """Diagonal operator with eigenvalue v^(#addable - #removable) per color.
    K_i only: neither `fock apply` nor `check_relations` needs K_i^{-1}."""
    return _apply("K", i, x, ell)


def _word(lam: Partition, ell: int, *ops) -> dict:
    """|lam> under a word in the E_i and F_i: ops are (op, i) pairs, op "E"
    or "F", applied right to left, one `_step` each until the image is 0.
    Every column entry is +v^e, so coefficients only grow and none cancels."""
    x = {(lam, 0): 1}
    for op, i in reversed(ops):
        x = x and _step(x, ell, op, i)
    return x


def _combine(parts) -> dict:
    """The sum of c v^s x over (c, s, x) in parts, x integer combinations."""
    out = {}
    for c, s, x in parts:
        for (mu, e), a in x.items():
            key = (mu, e + s)
            out[key] = out.get(key, 0) + c * a
    return {key: a for key, a in out.items() if a}


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


def _commutator(lam: Partition, ell: int, i: int, j: int, a: int):
    lhs = _combine(((1, 0, _word(lam, ell, ("E", i), ("F", j))),
                    (-1, 0, _word(lam, ell, ("F", j), ("E", i)))))
    rhs = {}
    if i == j:
        d = _columns(lam, ell).d.get(i, 0)
        rhs = {(lam, s): c for s, c in q_int(d, "v").terms.items()}
    if lhs != rhs:
        return (f"[E_{i},F_{j}] mismatch: "
                f"{_vector(lhs).render()} vs {_vector(rhs).render()}")
    return None


def _k_conjugation(lam: Partition, ell: int, i: int, j: int, a: int):
    cols = _columns(lam, ell)
    d_i = cols.d.get(i, 0)
    for col, s in ((cols.E.get(j, ()), 1), (cols.F.get(j, ()), -1)):
        for mu, _ in col:
            if _columns(mu, ell).d.get(i, 0) - d_i != s * a:
                return f"K_{i} conjugation of op_{j} fails"
    return None


def _commuting_pair(lam: Partition, ell: int, i: int, j: int, a: int):
    for op in "EF":
        if _word(lam, ell, (op, i), (op, j)) != _word(lam, ell, (op, j), (op, i)):
            return f"distant generators {i},{j} fail to commute"
    return None


def _serre(lam: Partition, ell: int, i: int, j: int, a: int):
    # op_i^2 op_j - [2] op_i op_j op_i + op_j op_i^2, with [2] = v + v^-1
    for op in "EF":
        middle = _word(lam, ell, (op, i), (op, j), (op, i))
        lhs = _combine(((1, 0, _word(lam, ell, (op, i), (op, i), (op, j))),
                        (1, 0, _word(lam, ell, (op, j), (op, i), (op, i))),
                        (-1, 1, middle), (-1, -1, middle)))
        if lhs:
            return f"cubic Serre relation fails for {i},{j}"
    return None


def check_relations(ell: int, max_size: int):
    """Verify the defining relations of the quantum affine algebra on all
    basis vectors up to the given size.

    Checks the E/F commutator against the diagonal operator, the K
    conjugations, commuting pairs where a_ij = 0 (cyclic distance >= 2), and
    the cubic Serre relations where a_ij = -1 (neighbours when ell >= 3).
    Each check reads a_ij, computed once per (i, j).  Returns a list of
    result dicts, one per (relation, i, j), each with a pass flag and the
    first counterexample.

    Every nonzero matrix entry is a single power of v, so each side of a
    relation is an integer combination of kets v^e |mu>, composed from the
    `_columns` tables; a `FockVector` is built only to render a
    counterexample.  The columns of E_j and F_j list distinct mu, so
    K_i op_j = v^(+-a_ij) op_j K_i holds at |lam> exactly when
    d_i(mu) - d_i(lam) = +-a_ij for every mu in the column.

    The partitions are walked once, and at each lam every relation that has
    not yet failed is checked, so the tables read at one lam (its own and
    those a few boxes away) are read together and the working set of the
    512-table cache stays local at any max_size.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    pairs = [(i, j, affine_cartan(i, j, ell))
             for i in range(ell) for j in range(ell)]
    relations = [("commutator", _commutator, *p) for p in pairs]
    relations += [("k-conjugation", _k_conjugation, *p) for p in pairs]
    for i, j, a in pairs:
        if a == 0:
            relations.append(("commuting-pair", _commuting_pair, i, j, a))
        elif a == -1:
            relations.append(("serre", _serre, i, j, a))
    bad = [None] * len(relations)
    for lam in all_partitions(max_size):
        for k, (_, check, i, j, a) in enumerate(relations):
            if bad[k] is None:
                err = check(lam, ell, i, j, a)
                if err is not None:
                    bad[k] = {"partition": list(lam), "detail": err}
    return [{"relation": kind, "i": i, "j": j, "passed": b is None,
             "counterexample": b}
            for (kind, _, i, j, _), b in zip(relations, bad)]
