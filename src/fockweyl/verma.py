"""Universal Verma modules over Q(q, z_1..z_N): generator actions on lowering
words, the contravariant (Shapovalov) pairing, Gram matrices and their closed
form determinant, Kostant's partition function, and the Jantzen numbers (both
the closed product form and an independent engine that solves for singular
vectors in (Verma) x (standard module)).

Lowering words are tuples (i_1, ..., i_m) meaning Y_{i_1} Y_{i_2} ... applied
to the shifted highest weight vector.  All linear algebra happens through the
pairing, so dependent words never need to be rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import EngineError
from .linalg import field_det, field_echelon, field_kernel
from .multirat import MultiPoly, MultiRat, eval_at_weight, sigma_shift, unit_ratio
from .partitions import Partition, Box, addable_boxes, removable_boxes, content, n_left
from .ring import QFrac, q_int, val_cyclotomic
from .sparse import SparseVector
from .weights import Weight, alpha, positive_roots, words_with_counts

YWord = tuple  # sequence of indices in 1..N-1


def word_multidegree(word: YWord, rank: int) -> Weight:
    w = Weight.zero(rank)
    for i in word:
        w = w + alpha(i, rank)
    return w


class VermaElement(SparseVector):
    """K-linear combination of lowering words applied to v_{mu+}."""

    __slots__ = ("shift", "rank")

    def __init__(self, shift: Weight, rank: int, terms=None):
        if shift.rank != rank:
            raise ValueError("shift length must equal rank")
        self.shift = shift
        self.rank = rank
        super().__init__(terms)

    def _coerce(self, c):
        return c if isinstance(c, MultiRat) else MultiRat.const(self.rank, c)

    def _space(self):
        return (self.shift, self.rank)

    @classmethod
    def highest(cls, shift: Weight, rank: int) -> "VermaElement":
        return cls(shift, rank, {(): 1})

    @classmethod
    def word(cls, w, shift: Weight, rank: int) -> "VermaElement":
        return cls(shift, rank, {tuple(w): 1})

    def __repr__(self):
        if not self.terms:
            return "VermaElement(0)"
        bits = [f"({c}) Y{list(w)}" for w, c in sorted(self.terms.items())]
        return "VermaElement(" + " + ".join(bits) + ")"


def _word_weight(word: YWord, shift: Weight, rank: int) -> Weight:
    return shift - word_multidegree(word, rank)


def act_y(i: int, e: VermaElement) -> VermaElement:
    if not 1 <= i <= e.rank - 1:
        raise ValueError(f"Y index {i} out of range for rank {e.rank}")
    out = VermaElement(e.shift, e.rank)
    out.terms = {(i,) + w: c for w, c in e.terms.items()}
    return out


def act_l(i: int, e: VermaElement, inverse: bool = False) -> VermaElement:
    """Diagonal action: on weight nu the eigenvalue is q^{(nu, eps_i)} z_i."""
    if not 1 <= i <= e.rank:
        raise ValueError(f"L index {i} out of range for rank {e.rank}")
    out = VermaElement(e.shift, e.rank)
    p = -1 if inverse else 1
    for w, c in e.terms.items():
        a = _word_weight(w, e.shift, e.rank).coords[i - 1]
        mono = MultiPoly.z(i, e.rank, p).shifted(
            (0,) * e.rank + (p * a,))
        out.terms[w] = c * MultiRat(mono, coprime=True)
    return out


def _cartan_factor(rank: int, i: int, a: int) -> MultiRat:
    """(q^a z_i z_{i+1}^{-1} - q^{-a} z_i^{-1} z_{i+1}) / (q - q^{-1})."""
    e_plus = [0] * (rank + 1)
    e_plus[i - 1] = 1
    e_plus[i] = -1
    e_plus[rank] = a
    e_minus = [0] * (rank + 1)
    e_minus[i - 1] = -1
    e_minus[i] = 1
    e_minus[rank] = -a
    num = MultiPoly(rank, {tuple(e_plus): 1, tuple(e_minus): -1})
    den = MultiPoly(rank, {(0,) * rank + (1,): 1, (0,) * rank + (-1,): -1})
    return MultiRat(num, den, coprime=True)


def act_x(i: int, e: VermaElement) -> VermaElement:
    """Raising action via the commutation rule past each lowering letter."""
    if not 1 <= i <= e.rank - 1:
        raise ValueError(f"X index {i} out of range for rank {e.rank}")
    out = VermaElement(e.shift, e.rank)
    for w, c in e.terms.items():
        for t, letter in enumerate(w):
            if letter != i:
                continue
            suffix = w[t + 1:]
            nu = _word_weight(suffix, e.shift, e.rank)
            a = nu.coords[i - 1] - nu.coords[i]
            out.add_term(w[:t] + suffix, c * _cartan_factor(e.rank, i, a))
    return out


def shapovalov_pair(a: VermaElement, b: VermaElement) -> MultiRat:
    """The contravariant bilinear form, computed by peeling b's letters.

    Each leftmost letter Y_i of b moves across the pairing as
    L_i^{-1} L_{i+1} X_i applied to a; the base case reads off the
    coefficient of the empty word.
    """
    a._check(b)
    total = MultiRat.zero(a.rank)
    for w, c in b.terms.items():
        e = a
        for letter in w:
            e = act_x(letter, e)
            if e.is_zero:
                break
            e = act_l(letter + 1, e)
            e = act_l(letter, e, inverse=True)
        if not e.is_zero:
            total = total + c * e.coeff(())
    return total


def ywords(nu: Weight, rank: int) -> list[YWord]:
    """All lowering words of the given multidegree, lexicographically."""
    ac = nu.alpha_coords()
    if ac is None or any(c < 0 for c in ac):
        return []
    return words_with_counts(ac)


@lru_cache(maxsize=None)
def _kostant_cached(coords: tuple) -> int:
    gamma = Weight(coords)
    n = gamma.rank
    target = -gamma
    if not target.in_q_plus:
        return 0
    roots = positive_roots(n)

    @lru_cache(maxsize=None)
    def rec(idx: int, tcoords: tuple) -> int:
        t = Weight(tcoords)
        if all(c == 0 for c in tcoords):
            return 1
        if idx == len(roots):
            return 0
        r = roots[idx]
        total = 0
        cur = t
        while True:
            total += rec(idx + 1, cur.coords)
            cur = cur - r
            if not cur.in_q_plus:
                break
        return total

    return rec(0, target.coords)


def kostant_p(gamma: Weight) -> int:
    """Number of multisets of positive roots summing to -gamma."""
    return _kostant_cached(gamma.coords)


@dataclass
class GramMatrix:
    """Pairings of all lowering words of one multidegree, the maximal
    independent sublist given by the pivot columns (the lexicographically
    first column basis), and the determinant on it."""

    shift: Weight
    rank: int
    nu: Weight
    words: list
    entries: list
    independent: list
    det: MultiRat


def gram_matrix(mu: Weight, nu: Weight, rank: int) -> GramMatrix:
    """Pair all lowering words of multidegree nu over the mu-shifted module.

    The independent sublist is the pivot columns of one forward elimination
    of the Gram matrix; its size must equal the weight multiplicity
    kostant_p(-nu) (anything else is an engine bug).  The matrix is
    symmetric, so its principal block on a column basis is nonsingular and
    carries the determinant.
    """
    words = ywords(nu, rank)
    els = [VermaElement.word(w, mu, rank) for w in words]
    n = len(words)
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = shapovalov_pair(els[i], els[j])
            entries[i][j] = v
            entries[j][i] = v
    _, chosen, _ = field_echelon(entries)
    expected = kostant_p(-nu)
    if len(chosen) != expected:
        raise EngineError(
            f"independent word count {len(chosen)} != multiplicity {expected} "
            f"for nu={nu}, rank={rank}")
    det = (field_det([[entries[r][c] for c in chosen] for r in chosen])
           if chosen else MultiRat.one(rank))
    return GramMatrix(mu, rank, nu, words, entries, chosen, det)


def shapovalov_det_closed(eta: Weight, rank: int) -> MultiRat:
    """Closed-form determinant (up to a unit) of the pairing on the eta
    weight space: product of linear factors with Kostant-function exponents."""
    out = MultiPoly.one(rank)
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            step = Weight.eps(i, rank) - Weight.eps(j, rank)
            m = 1
            while True:
                p = kostant_p(eta + m * step)
                if p == 0:
                    break
                e_plus = [0] * (rank + 1)
                e_plus[i - 1] = 1
                e_plus[j - 1] = -1
                e_plus[rank] = 0
                e_minus = [0] * (rank + 1)
                e_minus[i - 1] = -1
                e_minus[j - 1] = 1
                e_minus[rank] = 2 * m + 2 * i - 2 * j
                factor = MultiPoly(rank, {tuple(e_plus): 1, tuple(e_minus): -1})
                out = out * factor ** p
                m += 1
    return MultiRat(out, coprime=True)


def _jantzen_factor(j: int, k: int, rank: int) -> MultiPoly:
    """z_j z_k^{-1} - q^{2+2j-2k} z_j^{-1} z_k."""
    e_plus = [0] * (rank + 1)
    e_plus[j - 1] = 1
    e_plus[k - 1] = -1
    e_minus = [0] * (rank + 1)
    e_minus[j - 1] = -1
    e_minus[k - 1] = 1
    e_minus[rank] = 2 + 2 * j - 2 * k
    return MultiPoly(rank, {tuple(e_plus): 1, tuple(e_minus): -1})


def jantzen_closed(k: int, rank: int) -> MultiRat:
    """Closed product form of the k-th Jantzen number (valid up to +-q^m)."""
    if not 1 <= k <= rank:
        raise ValueError(f"k={k} out of range for rank {rank}")
    num = MultiPoly.one(rank)
    den = MultiPoly.one(rank)
    for j in range(1, k):
        f = _jantzen_factor(j, k, rank)
        num = num * f
        den = den * f.sigma(Weight.eps(j, rank))
    return MultiRat(num, den, coprime=True)


# ---------------------------------------------------------------------------
# Tensor elements of (universal Verma) x (standard module)
# ---------------------------------------------------------------------------
# Terms are (word, slot) with slot the standard-basis index of the right
# factor; the coproduct actions below keep everything inside the span of all
# lowering words, so no word rewriting is ever needed.


class _MTensor(SparseVector):
    __slots__ = ("rank",)
    _coerce = VermaElement._coerce

    def __init__(self, rank, terms=None):
        self.rank = rank
        super().__init__(terms)

    def _space(self):
        return (self.rank,)


def _mt_act_y(i: int, x: _MTensor) -> _MTensor:
    out = _MTensor(x.rank)
    rank = x.rank
    for (w, slot), c in x.terms.items():
        out.add_term(((i,) + w, slot), c)
        if slot == i:
            nu = _word_weight(w, Weight.zero(rank), rank)
            a = nu.coords[i - 1] - nu.coords[i]
            mono = MultiPoly(rank, {_zz_exp(rank, i, -1, +1, -a): 1})
            out.add_term((w, i + 1), c * MultiRat(mono, coprime=True))
    return out


def _mt_act_l(i: int, x: _MTensor, inverse: bool = False) -> _MTensor:
    out = _MTensor(x.rank)
    rank = x.rank
    p = -1 if inverse else 1
    for (w, slot), c in x.terms.items():
        a = _word_weight(w, Weight.zero(rank), rank).coords[i - 1]
        qshift = a + (1 if slot == i else 0)
        mono = MultiPoly.z(i, rank, p).shifted((0,) * rank + (p * qshift,))
        out.add_term((w, slot), c * MultiRat(mono, coprime=True))
    return out


def _zz_exp(rank, i, pi, pi1, qe):
    e = [0] * (rank + 1)
    e[i - 1] = pi
    e[i] = pi1
    e[rank] = qe
    return tuple(e)


def jantzen_engine(k: int, rank: int) -> MultiRat:
    """The k-th Jantzen number from first principles.

    Builds the weight space of (universal Verma) x (standard module) at the
    k-th coordinate weight, solves for the singular vector through the
    pairing (the form is nondegenerate over the fraction field), applies the
    triangular normalization via orthogonality to the lower summands, and
    returns the self-pairing.
    """
    if not 1 <= k <= rank:
        raise ValueError(f"k={k} out of range for rank {rank}")
    zero_w = Weight.zero(rank)
    eps_k = Weight.eps(k, rank)

    spanning = []
    for j in range(1, k + 1):
        nu = Weight.eps(j, rank) - eps_k
        for w in ywords(nu, rank):
            spanning.append((w, j))
    index = {key: t for t, key in enumerate(spanning)}
    n = len(spanning)

    pair_vals = {}

    def pair_cache(w1, w2):
        key = (w1, w2) if w1 <= w2 else (w2, w1)
        if key not in pair_vals:
            pair_vals[key] = shapovalov_pair(
                VermaElement.word(key[0], zero_w, rank),
                VermaElement.word(key[1], zero_w, rank))
        return pair_vals[key]

    gram = [[None] * n for _ in range(n)]
    for a in range(n):
        wa, sa = spanning[a]
        for b in range(a, n):
            wb, sb = spanning[b]
            if sa != sb:
                v = MultiRat.zero(rank)
            else:
                v = pair_cache(wa, wb) * MultiRat(
                    MultiPoly.q(rank, 1 - sa), coprime=True)
            gram[a][b] = v
            gram[b][a] = v

    # singular <=> orthogonal to omega(X_i) . y for spanning y of each
    # raised weight space
    rows = []
    for i in range(1, rank):
        for j in range(1, k + 1):
            nu = Weight.eps(j, rank) - eps_k - alpha(i, rank)
            for w in ywords(nu, rank):
                y = _MTensor(rank, {(w, j): MultiRat.one(rank)})
                y = _mt_act_l(i + 1, y, inverse=True)
                y = _mt_act_l(i, y)
                y = _mt_act_y(i, y)
                coords = {}
                for key, c in y.terms.items():
                    coords[index[key]] = c
                row = []
                for b in range(n):
                    s = MultiRat.zero(rank)
                    for t, c in coords.items():
                        if not gram[b][t].is_zero:
                            s = s + c * gram[b][t]
                    row.append(s)
                rows.append(row)

    one = MultiRat.one(rank)
    if rows:
        sols = field_kernel(rows, n, one)
    else:
        sols = [[one if t == b else MultiRat.zero(rank) for t in range(n)]
                for b in range(n)]
    g_rank = len(field_echelon(gram)[1])
    expected_dim = 1 + (n - g_rank)
    if len(sols) != expected_dim:
        raise EngineError(
            f"singular solution space has dimension {len(sols)}, "
            f"expected {expected_dim} (k={k}, rank={rank})")

    top = index[((), k)]

    def pair_with(u, t):
        s = MultiRat.zero(rank)
        for b, ub in enumerate(u):
            if not ub.is_zero and not gram[b][t].is_zero:
                s = s + ub * gram[b][t]
        return s

    for u in sols:
        tp = pair_with(u, top)
        if not tp.is_zero:
            uu = MultiRat.zero(rank)
            for b, ub in enumerate(u):
                if ub.is_zero:
                    continue
                uu = uu + ub * pair_with(u, b)
            return tp * tp / uu
    raise EngineError(f"no singular vector pairs with the top term (k={k})")


def hook_ratio(lam: Partition, k: int) -> QFrac:
    """Quantum-integer ratio over boxes addable/removable above row k.

    Zero when adding a box on row k does not give a partition; otherwise the
    product of [content difference] over removable boxes above row k divided
    by the same product over addable boxes above row k.
    """
    lam = Partition(lam)
    new_box = Box(k, lam.part(k) + 1)
    from .partitions import is_addable
    if not is_addable(lam, new_box):
        return QFrac.zero()
    c0 = content(new_box)
    num = QFrac.one()
    den = QFrac.one()
    for b in removable_boxes(lam, 2):
        if b.row < k:
            num = num * QFrac(q_int(content(b) - c0))
    for b in addable_boxes(lam, 2):
        if b.row < k:
            den = den * QFrac(q_int(content(b) - c0))
    return num / den


def jantzen_evaluate_closed(lam: Partition, k: int, rank: int | None = None) -> QFrac:
    """Evaluate the closed Jantzen product at a partition (z_i -> q^{lam_i})."""
    lam = Partition(lam)
    if rank is None:
        rank = max(len(lam) + 1, k)
    if rank < len(lam) or rank < k:
        raise ValueError("rank too small")
    coords = tuple(lam.part(r) for r in range(1, rank + 1))
    return eval_at_weight(jantzen_closed(k, rank), Weight(coords))


def jantzen_valuation(lam: Partition, k: int, ell: int):
    """Cyclotomic valuation of the evaluated Jantzen number; None when the
    evaluation is zero.  Cross-checks the box statistic before returning."""
    lam = Partition(lam)
    hr = hook_ratio(lam, k)
    if hr.is_zero:
        return None
    val = val_cyclotomic(hr, 2 * ell)
    nb = Box(k, lam.part(k) + 1)
    nl = n_left(lam, nb, ell)
    if val != nl:
        raise EngineError(
            f"valuation {val} != box statistic {nl} for lam={list(lam)}, k={k}, ell={ell}")
    return val


def det_product_identity(eta: Weight, rank: int):
    """Check the product identity tying Jantzen numbers to determinant ratios.

    Both sides are computed from the engine on matched word bases; they must
    agree up to +-q^m.  Returns a result dict; "parts" is the UnitParts of
    their ratio (None when it is not a unit).
    """
    lhs = MultiRat.one(rank)
    rhs = MultiRat.one(rank)
    used = []
    for k in range(1, rank + 1):
        w = eta - Weight.eps(k, rank)
        p = kostant_p(w)
        if p == 0:
            continue
        used.append(k)
        s_k = jantzen_engine(k, rank)
        lhs = lhs * s_k ** p
        gm = gram_matrix(Weight.zero(rank), -w, rank)
        det = gm.det
        rhs = rhs * det / sigma_shift(det, Weight.eps(k, rank))
    parts = unit_ratio(lhs, rhs)
    passed = parts is not None and parts.is_signed_q_power
    return {
        "eta": list(eta.coords),
        "rank": rank,
        "ks_used": used,
        "is_unit": parts is not None,
        "passed": passed,
        "strict_plus_power": bool(parts is not None and parts.is_plus_q_power),
        "ratio": str(parts) if parts is not None else "not a unit",
        "parts": parts,
    }
