"""The v-deformed Fock space: box-adding/removing operators with power-of-v
matrix entries, the diagonal operator completing them to a quantum affine
sl_ell action, and an exhaustive relation checker.

Each generator's column at a basis ket, a tuple of (partition, v-exponent),
is computed once per (operator, color, partition, ell) and kept in a cache
bounded at 4,096 entries (`_ket_action`); applying E_i, F_i or K_i to a
vector shifts each term's coefficient along its ket's column.
"""

from __future__ import annotations

from functools import lru_cache

from .ring import LaurentQ, q_int
from .sparse import SparseVector
from .partitions import (Partition, addable_boxes, removable_boxes, n_left,
                         n_right, all_partitions)


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


@lru_cache(maxsize=4096)
def _ket_action(op: str, i: int, lam: Partition, ell: int):
    """Column of E_i, F_i or K_i (op "E", "F" or "K") at the ket |lam>.

    A tuple of (mu, e): the generator sends |lam> to the sum of v^e |mu>.
    Each column is computed once per (op, i, lam, ell) and kept in a cache
    bounded at 4,096 entries.
    """
    if op == "F":
        return tuple((lam.add_box(b), n_left(lam, b, ell))
                     for b in addable_boxes(lam, ell, i))
    if op == "E":
        out = []
        for b in removable_boxes(lam, ell, i):
            mu = lam.remove_box(b)
            out.append((mu, -n_right(mu, b, ell)))
        return tuple(out)
    d = len(addable_boxes(lam, ell, i)) - len(removable_boxes(lam, ell, i))
    return ((lam, d),)


def _apply(op: str, i: int, x: FockVector, ell: int, sign: int = 1) -> FockVector:
    out = FockVector()
    for lam, c in x.terms.items():
        for mu, e in _ket_action(op, i, lam, ell):
            out.add_term(mu, c.shift(sign * e))
    return out


def apply_F(i: int, x: FockVector, ell: int) -> FockVector:
    """Add one i-colored box to each term, with exponent n_left.

    Each ket's column is computed once per (op, i, lam, ell) by
    `_ket_action`, whose cache holds at most 4,096 columns.
    """
    return _apply("F", i, x, ell)


def apply_E(i: int, x: FockVector, ell: int) -> FockVector:
    """Remove one i-colored box from each term, with exponent -n_right.

    The statistic is computed on the smaller partition, with the removed
    box as reference.  Each ket's column is computed once per
    (op, i, lam, ell) by `_ket_action`, whose cache holds at most 4,096
    columns.
    """
    return _apply("E", i, x, ell)


def apply_K(i: int, x: FockVector, ell: int, inverse: bool = False) -> FockVector:
    """Diagonal operator with eigenvalue v^(#addable - #removable) per color.

    Each ket's column is computed once per (op, i, lam, ell) by
    `_ket_action`, whose cache holds at most 4,096 columns.
    """
    return _apply("K", i, x, ell, -1 if inverse else 1)


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
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    lams = list(all_partitions(max_size))
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
                ket = FockVector.ket(lam)
                lhs = apply_E(i, apply_F(j, ket, ell), ell) \
                    - apply_F(j, apply_E(i, ket, ell), ell)
                if i == j:
                    ((_, d),) = _ket_action("K", i, lam, ell)
                    rhs = ket.scale(q_int(d, "v"))
                else:
                    rhs = FockVector.zero()
                if lhs != rhs:
                    return f"[E_{i},F_{j}] mismatch: {lhs.render()} vs {rhs.render()}"
                return None
            run("commutator", i, j, comm)

    for i in range(ell):
        for j in range(ell):
            a = affine_cartan(i, j, ell)

            def kconj(lam, i=i, j=j, a=a):
                ket = FockVector.ket(lam)
                for op, s in ((apply_E, 1), (apply_F, -1)):
                    lhs = apply_K(i, op(j, ket, ell), ell)
                    rhs = op(j, apply_K(i, ket, ell), ell).scale(
                        LaurentQ.term(s * a, 1, "v"))
                    if lhs != rhs:
                        return f"K_{i} conjugation of op_{j} fails"
                return None
            run("k-conjugation", i, j, kconj)

    for i in range(ell):
        for j in range(ell):
            dist = min((i - j) % ell, (j - i) % ell)
            if dist >= 2:
                def far(lam, i=i, j=j):
                    ket = FockVector.ket(lam)
                    for op in (apply_E, apply_F):
                        lhs = op(i, op(j, ket, ell), ell)
                        rhs = op(j, op(i, ket, ell), ell)
                        if lhs != rhs:
                            return f"distant generators {i},{j} fail to commute"
                    return None
                run("commuting-pair", i, j, far)
            elif dist == 1 and ell >= 3:
                def serre(lam, i=i, j=j):
                    ket = FockVector.ket(lam)
                    two = q_int(2, "v")
                    for op in (apply_E, apply_F):
                        def a(k, x):
                            return op(k, x, ell)
                        lhs = a(i, a(i, a(j, ket))) \
                            - a(i, a(j, a(i, ket))).scale(two) \
                            + a(j, a(i, a(i, ket)))
                        if not lhs.is_zero:
                            return f"cubic Serre relation fails for {i},{j}"
                    return None
                run("serre", i, j, serre)

    return results
