"""The v-deformed Fock space: box-adding/removing operators with power-of-v
matrix entries, the diagonal operator completing them to a quantum affine
sl_ell action, and an exhaustive relation checker.
"""

from __future__ import annotations

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


def apply_F(i: int, x: FockVector, ell: int) -> FockVector:
    """Add one i-colored box to each term, with exponent n_left."""
    out = FockVector()
    for lam, c in x.terms.items():
        for b in addable_boxes(lam, ell, i):
            mu = lam.add_box(b)
            out.add_term(mu, c * LaurentQ.term(n_left(lam, b, ell), 1, "v"))
    return out


def apply_E(i: int, x: FockVector, ell: int) -> FockVector:
    """Remove one i-colored box from each term, with exponent -n_right.

    The statistic is computed on the smaller partition, with the removed
    box as reference.
    """
    out = FockVector()
    for lam, c in x.terms.items():
        for b in removable_boxes(lam, ell, i):
            mu = lam.remove_box(b)
            out.add_term(mu, c * LaurentQ.term(-n_right(mu, b, ell), 1, "v"))
    return out


def apply_K(i: int, x: FockVector, ell: int, inverse: bool = False) -> FockVector:
    """Diagonal operator with eigenvalue v^(#addable - #removable) per color."""
    out = FockVector()
    for lam, c in x.terms.items():
        d = len(addable_boxes(lam, ell, i)) - len(removable_boxes(lam, ell, i))
        if inverse:
            d = -d
        out.add_term(lam, c * LaurentQ.term(d, 1, "v"))
    return out


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
                    d = len(addable_boxes(lam, ell, i)) - len(removable_boxes(lam, ell, i))
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
