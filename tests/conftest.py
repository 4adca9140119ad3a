"""Shared hypothesis strategies, deterministic test settings, the z and q
monomials of the multivariate tower, the boxes of a diagram, the L_i action
on tensors, the exact evaluation of a `MultiRat` at a weight, the
reduce-then-test reference for +-q^m and the mod-p helpers of the evaluation
witnesses."""

import hypothesis.strategies as st
from hypothesis import settings, HealthCheck

from fockweyl.errors import PoleError
from fockweyl.multirat import MultiPoly, MultiRat
from fockweyl.partitions import Box, Partition
from fockweyl.ring import LaurentQ, QFrac
from fockweyl.weights import Weight
from fockweyl.weyl import TensorVector

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("ci")

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def laurents(var="q", max_terms=4, max_exp=4):
    return st.dictionaries(
        st.integers(-max_exp, max_exp), small_fractions, max_size=max_terms
    ).map(lambda d: LaurentQ(d, var))


def nonzero_laurents(var="q"):
    return laurents(var).filter(lambda p: not p.is_zero)


def multipolys(rank=2, max_terms=3, max_exp=2):
    exps = st.tuples(*([st.integers(-max_exp, max_exp)] * (rank + 1)))
    return st.dictionaries(exps, small_fractions, max_size=max_terms).map(
        lambda d: MultiPoly(rank, d))


def multirats(rank=2):
    return st.builds(
        lambda n, d: MultiRat(n, d),
        multipolys(rank),
        multipolys(rank).filter(lambda p: not p.is_zero))


def weights(rank=2, bound=3):
    return st.tuples(*([st.integers(-bound, bound)] * rank)).map(Weight)


def partitions(max_size=8):
    return st.lists(st.integers(1, 5), max_size=4).map(
        lambda parts: Partition(sorted(parts, reverse=True))
    ).filter(lambda lam: lam.size <= max_size)


def z_poly(i, rank, power=1):
    """z_i^power in the MultiPoly ring of the given rank."""
    e = [0] * (rank + 1)
    e[i - 1] = power
    return MultiPoly(rank, {tuple(e): 1})


def z_rat(i, rank, power=1):
    """z_i^power as a MultiRat."""
    return MultiRat(z_poly(i, rank, power), coprime=True)


def q_rat(rank, power=1):
    """q^power as a MultiRat."""
    return MultiRat(MultiPoly.q(rank, power), coprime=True)


def diagram_boxes(lam):
    """The boxes of lam, row by row, each row left to right."""
    return [Box(r, c) for r, p in enumerate(lam, 1) for c in range(1, p + 1)]


def tensor_l(i, x, power=1):
    """L_i^power on a TensorVector: each key times q^power per factor that
    holds the letter i (L_i omega_S = q^{[i in S]} omega_S, and the
    coproduct of L_i is L_i (x) L_i)."""
    out = TensorVector(x.n, x.rank)
    for w, c in x.terms.items():
        k = sum(1 for f in w if (f == i if type(f) is int else i in f))
        out.terms[w] = c.shift(power * k)
    return out


def eval_at_weight(f: MultiRat, lam) -> QFrac:
    """Evaluate z_i -> q^{(lam, eps_i)}; raises PoleError if the denominator dies."""
    den = f.den.eval_z(lam)
    if den.is_zero:
        raise PoleError(f"evaluation pole at {lam}")
    return QFrac(f.num.eval_z(lam), den)


def reference_power_match(x: QFrac, y: QFrac, tolerance: str) -> bool:
    """The reference for `ring.power_match`: reduce x / y with QFrac, then
    test for q^m ("strict"), +-q^m ("signed") or any nonzero element
    ("unit"); zero matches only zero."""
    if x.is_zero or y.is_zero:
        return x.is_zero and y.is_zero
    ratio = x / y
    mono = ratio.num.as_monomial()
    return tolerance == "unit" or (
        ratio.den == 1 and mono is not None
        and mono[1] in ((1,) if tolerance == "strict" else (1, -1)))


# Evaluation witness: an exact verdict is an identity of rational functions,
# so it can be checked at a random point mod a prime with integers alone.
P61 = 2 ** 61 - 1


def eval_mod_p(poly, point):
    """A Laurent polynomial in z_1..z_N, q at `point` (the same order) mod
    P61, term by term."""
    total = 0
    for exps, c in poly.terms.items():
        t = c.numerator * pow(c.denominator, -1, P61)
        for x, e in zip(point, exps):
            t = t * pow(x, e, P61) % P61
        total += t
    return total % P61


def det_mod_p(m):
    """Determinant mod P61 by Gaussian elimination in index order, or None
    when a pivot vanishes."""
    out = pivots_mod_p(m)
    if out is None or len(out[0]) < len(m):
        return None
    det = 1
    for p in out[1]:
        det = det * p % P61
    return det


def laurent_mod_p(poly, q):
    """A Laurent polynomial in q alone at q mod P61."""
    return sum(c.numerator * pow(c.denominator, -1, P61) * pow(q, e, P61)
               for e, c in poly.terms.items()) % P61


def unit_mod_p(parts, point):
    """The `UnitParts` sign * q^q_exp * z^z_exps * scalar(q) at `point`
    (z_1..z_N, q) mod P61."""
    q = point[-1]
    value = parts.sign * pow(q, parts.q_exp, P61)
    for x, e in zip(point, parts.z_exps):
        value = value * pow(x, e, P61)
    scalar = laurent_mod_p(parts.scalar.num, q) \
        * pow(laurent_mod_p(parts.scalar.den, q), -1, P61)
    return value * scalar % P61


def pivots_mod_p(m):
    """Gaussian elimination mod P61 with diagonal pivots in index order, as
    `symmetric_pivots` runs it on a symmetric matrix: (chosen, pivots), or
    None at a zero pivot whose row is not zero."""
    m = [row[:] for row in m]
    chosen, pivots = [], []
    for k, row in enumerate(m):
        if row[k] == 0:
            if any(row[k + 1:]):
                return None
            continue
        chosen.append(k)
        pivots.append(row[k])
        inv = pow(row[k], -1, P61)
        for below in m[k + 1:]:
            f = below[k] * inv % P61
            for j in range(k + 1, len(row)):
                below[j] = (below[j] - f * row[j]) % P61
    return chosen, pivots
