"""Universal Verma modules over Q(q, z_1..z_N): lowering words, the
contravariant (Shapovalov) pairing, Gram matrices and their closed form
determinant, Kostant's partition function, and the Jantzen numbers (both the
closed product form and an independent engine that finds the singular vector
of (Verma) x (standard module)).

Lowering words are tuples (i_1, ..., i_m) meaning Y_{i_1} Y_{i_2} ... applied
to the shifted highest weight vector.  All linear algebra happens through the
pairing, so dependent words never need to be rewritten.  There is one pairing
path, `pair_words`, and it is integral: every raising step divides by the
same q - q^{-1}, so two words of height m pair to P / (q - q^{-1})^m with P a
Laurent polynomial in Z[q^{+-1}, z^{+-1}], and P is computed without a
fraction or a gcd.  `gram_matrix` pairs only the good words (a basis of
U^-) and runs one symmetric diagonal-pivot elimination on them: its nonzero
pivots prove the rank and give the determinant, whose power of q - q^{-1}
is divided out only at the end.  The engine is one more such elimination,
of the raising images (a closed formula for the coproduct action) and the
top vector, paired word by word through `pair_words`: it needs no tensor
type, and its answer is the last pivot.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from operator import add, mul

from .errors import EngineError, PoleError
# field_det is unused here: fwlbench/selftest.py asserts verma.field_det is linalg.field_det
from .linalg import field_det, symmetric_pivots
from .multirat import (MultiPoly, MultiRat, _div_laurent,
                       over_q_diff, sigma_shift, unit_ratio)
from .partitions import (Partition, Box, addable_boxes, content, is_addable,
                         n_left, removable_boxes)
from .ring import LaurentQ, QFrac, q_int, val_cyclotomic
from .sparse import SparseVector
from .weights import Weight, alpha, good_words, words_with_counts

YWord = tuple  # sequence of indices in 1..N-1


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


def _zq(rank: int, i: int, j: int, a: int = 0) -> tuple:
    """Exponent vector of the monomial z_i z_j^{-1} q^a."""
    e = [0] * (rank + 1)
    e[i - 1] = 1
    e[j - 1] = -1
    e[rank] = a
    return tuple(e)


def _cartan_numerator(rank: int, i: int, a: int) -> MultiPoly:
    """q^a z_i z_{i+1}^{-1} - q^{-a} z_i^{-1} z_{i+1}: X_i Y_i - Y_i X_i on a
    vector whose weight pairs to a with alpha_i, times q - q^{-1}."""
    return MultiPoly(rank, {_zq(rank, i, i + 1, a): 1,
                            _zq(rank, i + 1, i, -a): -1})


def pair_words(wa: YWord, wb: YWord, shift: Weight, rank: int) -> MultiPoly:
    """The integral pairing P with (Y_wa v, Y_wb v) = P / (q - q^{-1})^m,
    m = len(wb), in the Verma module shifted by `shift`.

    Each leftmost letter Y_i of wb moves across the pairing as
    L_i^{-1} L_{i+1} X_i applied to Y_wa v.  X_i deletes one letter i, which
    multiplies by the numerator of its Cartan factor; L_i^{-1} L_{i+1} acts on
    the weight beta that is left as z_i^{-1} z_{i+1} q^{beta_{i+1} - beta_i},
    the same monomial for every term, so the monomials add up to one exponent
    shift.  The coefficient of the empty word is the pairing.
    """
    if sorted(wa) != sorted(wb):
        return MultiPoly.zero(rank)
    base = [shift.coords[i] - shift.coords[i + 1] for i in range(rank - 1)]
    left = [0] * (rank + 1)  # letters still in the words, by index
    for letter in wa:
        left[letter] += 1
    terms = {wa: MultiPoly.one(rank)}
    delta = [0] * (rank + 1)
    for i in wb:
        nxt = {}
        for w, c in terms.items():
            a = base[i - 1]  # (weight of the suffix, alpha_i)
            for t in range(len(w) - 1, -1, -1):
                letter = w[t]
                if letter == i:
                    key = w[:t] + w[t + 1:]
                    term = c * _cartan_numerator(rank, i, a)
                    nxt[key] = nxt[key] + term if key in nxt else term
                    a -= 2
                elif abs(letter - i) == 1:
                    a += 1
        terms = {w: c for w, c in nxt.items() if not c.is_zero}
        if not terms:
            return MultiPoly.zero(rank)
        left[i] -= 1
        h = base[i - 1] - 2 * left[i] + left[i - 1] + left[i + 1]
        delta[i - 1] -= 1
        delta[i] += 1
        delta[rank] -= h
    return terms[()].shifted(tuple(delta))


def shapovalov_pair(a: VermaElement, b: VermaElement) -> MultiRat:
    """The contravariant bilinear form, bilinear over the word pairings of
    `pair_words`."""
    a._check(b)
    total = MultiRat.zero(a.rank)
    for wb, cb in b.terms.items():
        for wa, ca in a.terms.items():
            p = pair_words(wa, wb, a.shift, a.rank)
            if not p.is_zero:
                total = total + ca * cb * over_q_diff(p, len(wb))
    return total


def ywords(nu: Weight) -> list[YWord]:
    """All lowering words of the given multidegree, lexicographically."""
    ac = nu.alpha_coords()
    if ac is None or any(c < 0 for c in ac):
        return []
    return words_with_counts(ac)


@lru_cache(maxsize=None)
def _kostant_cached(coords: tuple) -> int:
    """The number of ways to write -Weight(coords) as a sum of positive
    roots, counted root by root with no recursion: a dict from each
    remainder, in simple-root coordinates, to its number of ways.  The roots alpha_a + .. + alpha_{b-1} are taken by
    increasing a, each as often as the remainder stays in Q+; no later root
    holds alpha_a, so a remainder whose a-th coordinate is left is dropped."""
    ac = Weight(coords).alpha_coords()
    if ac is None or any(c > 0 for c in ac):
        return 0
    n = len(ac)
    ways = {tuple(-c for c in ac): 1}
    for a in range(n):
        for b in range(a + 1, n + 1):
            nxt = {}
            for t, w in ways.items():
                for m in range(min(t[a:b]) + 1):
                    key = t[:a] + tuple(c - m for c in t[a:b]) + t[b:]
                    nxt[key] = nxt.get(key, 0) + w
            ways = nxt
        ways = {t: w for t, w in ways.items() if not t[a]}
    return ways.get((0,) * n, 0)


def kostant_p(gamma: Weight) -> int:
    """Number of multisets of positive roots summing to -gamma."""
    return _kostant_cached(gamma.coords)


class GramMatrix:
    """All lowering words of one multidegree nu, the positions of the good
    words (a basis) with the pivots of their symmetric elimination, and, on
    first use, the determinant on them.  Only the good words are paired.

    Entry (a, b) of the form is P / (q - q^{-1})^m, with m the height of nu
    and P = `pair_words`(a, b) in Z[q^{+-1}, z^{+-1}].
    """

    def __init__(self, shift: Weight, rank: int, nu: Weight, words: list,
                 independent: list, pivots: list):
        self.shift = shift
        self.rank = rank
        self.nu = nu
        self.words = words
        self.independent = independent
        self.pivots = pivots

    @property
    def height(self) -> int:
        return len(self.words[0]) if self.words else 0

    @cached_property
    def det(self) -> MultiRat:
        """The determinant of the integral pairings on the independent words,
        divided by (q - q^{-1})^{m r}, r the block size.

        Pivot k is D_k / D_{k-1}, with D_k the integral principal minor on the
        first k independent words, so D_k = num_k * (D_{k-1} / den_k) and each
        division is exact: no gcd and no second elimination.
        """
        d = MultiPoly.one(self.rank)
        for p in self.pivots:
            try:
                q = _div_laurent(d, p.den)
            except ArithmeticError:
                raise EngineError(f"principal minor of integral pairings is "
                                  f"not integral for nu={self.nu}") from None
            d = p.num * q
        return over_q_diff(d, self.height * len(self.pivots))


def _gram_pivots(items, pair, where):
    """`symmetric_pivots` on the upper triangle of the symmetric `pair` over
    `items`, as sparse rows of its nonzero entries; an isotropic form is an
    engine error at `where`."""
    rows = [{c: MultiRat(e, coprime=True) for c in range(r, len(items))
             if not (e := pair(a, items[c])).is_zero}
            for r, a in enumerate(items)]
    try:
        return symmetric_pivots(rows)
    except ValueError as exc:
        raise EngineError(f"{exc} ({where})") from None


def gram_matrix(mu: Weight, nu: Weight, rank: int) -> GramMatrix:
    """The Gram matrix of the lowering words of multidegree nu over the
    mu-shifted module, on its basis of good words.

    Only the P good words, a basis of U^- in this weight
    (`weights.good_words`), are paired (`pair_words`), and their block is
    eliminated once, symmetrically, in word order (`symmetric_pivots`).  As
    M(lambda) is free over U^-, and for dominant lambda large against nu the
    form is anisotropic over Q(q) (M(lambda) = L(lambda) in this weight, and
    Kashiwara's polarization is the identity mod q on the crystal basis), P
    must be the multiplicity kostant_p(-nu) and all P pivots nonzero;
    anything else is an engine error.
    """
    if mu.rank != rank or nu.rank != rank:
        raise ValueError(f"weights {mu} and {nu} do not have rank {rank}")
    words = ywords(nu)
    good = good_words(nu.alpha_coords()) if words else []
    if len(good) != kostant_p(-nu):
        raise EngineError(f"good word count {len(good)} != multiplicity "
                          f"{kostant_p(-nu)} for nu={nu}, rank={rank}")
    chosen, pivots = _gram_pivots(
        good, lambda a, b: pair_words(a, b, mu, rank), f"nu={nu}, rank={rank}")
    if len(chosen) != len(good):
        raise EngineError(f"zero pivot on the good words (nu={nu}, rank={rank})")
    return GramMatrix(mu, rank, nu, words, [words.index(w) for w in good],
                      pivots)


def _jantzen_factor(j: int, k: int, rank: int, m: int = 1) -> MultiPoly:
    """z_j z_k^{-1} - q^{2m+2j-2k} z_j^{-1} z_k."""
    return MultiPoly(rank, {_zq(rank, j, k): 1,
                            _zq(rank, k, j, 2 * m + 2 * j - 2 * k): -1})


def shapovalov_det_closed(eta: Weight, rank: int) -> MultiRat:
    """Closed-form determinant (up to a unit) of the pairing on the eta
    weight space: product of linear factors with Kostant-function exponents,
    in (i, j, m) order.  With nu = -eta in simple-root coordinates, only the
    1 <= m <= min(nu_i..nu_{j-1}) give P(nu - m(eps_i - eps_j)) > 0, so no
    other root is visited; the product is 1 when eta is outside -Q+."""
    out = MultiPoly.one(rank)
    nu = (-eta).alpha_coords()
    if nu is None or any(c < 0 for c in nu):
        nu = ()  # outside -Q+: no factor
    for i in range(1, len(nu) + 1):
        for j in range(i + 1, rank + 1):
            top = min(nu[i - 1:j - 1])
            if not top:
                break
            step = Weight.eps(i, rank) - Weight.eps(j, rank)
            for m in range(1, top + 1):
                out = out * _jantzen_factor(i, j, rank, m) ** kostant_p(eta + m * step)
    return MultiRat(out, coprime=True)


def _jantzen_closed_factors(k: int, rank: int) -> list:
    """The binomial factors of the closed k-th Jantzen number: a list of
    (numerator factor, denominator factor), one pair per j < k."""
    if not 1 <= k <= rank:
        raise ValueError(f"k={k} out of range for rank {rank}")
    out = []
    for j in range(1, k):
        f = _jantzen_factor(j, k, rank)
        out.append((f, f.sigma(Weight.eps(j, rank))))
    return out


def jantzen_closed(k: int, rank: int) -> MultiRat:
    """Closed product form of the k-th Jantzen number (valid up to +-q^m)."""
    num = MultiPoly.one(rank)
    den = MultiPoly.one(rank)
    for f, g in _jantzen_closed_factors(k, rank):
        num = num * f
        den = den * g
    return MultiRat(num, den, coprime=True)


def jantzen_engine(k: int, rank: int) -> MultiRat:
    """The k-th Jantzen number from first principles.

    The eps_k weight space of (universal Verma) x (standard module) is the sum
    over slots j <= k of (words of multidegree eps_j - eps_k) x v_j.  The form
    is the `gram_matrix` of slot j times q^{1-j}, with distinct slots
    orthogonal, so the independent words of each slot give a basis of size n
    on which it is nondegenerate.  A vector is singular iff it is orthogonal
    to the span U of omega(X_i) y, y running over the raised weight spaces;
    that solution space must be one line.  The normalised self-pairing
    (u, v_+ x v_k)^2 / (u, u) of a singular u is returned.

    With top = v_+ x v_k, p = top - proj_U(top) spans the singular line and
    (p, top) = (p, p), so the answer is (p, p): the Schur complement at top
    of the Gram matrix of the spanning vectors of U followed by top, that is,
    the last pivot of one `symmetric_pivots` call.  Its entries are the form
    times (q - q^{-1})^{k-1}, which makes them integral: slot j contributes
    q^{1-j} (q - q^{-1})^{j-1} times `pair_words` on its words.  The pivots
    also prove the rank, dim U = (chosen count) - [top chosen].
    """
    if not 1 <= k <= rank:
        raise ValueError(f"k={k} out of range for rank {rank}")
    zero_w = Weight.zero(rank)
    eps_k = Weight.eps(k, rank)
    grams = {j: gram_matrix(zero_w, Weight.eps(j, rank) - eps_k, rank)
             for j in range(1, k + 1)}

    # Each vector is a list of terms (slot, word, exponent vector of the
    # monomial coefficient).  With a the weight of w,
    #   omega(X_i) (w x v_j) = z_i z_{i+1}^{-1} q^{a_i+[j=i]-a_{i+1}-[j=i+1]}
    #                          (Y_i w x v_j) + [j=i] q (w x v_{i+1}).
    # The order (i, then j, decreasing; good words ascending) is not
    # cosmetic: the elimination runs in it, and it keeps the intermediate
    # entries small (k = rank = 4 takes 20 times longer with i and j
    # ascending, and k = rank = 5 twice as long with the words descending).
    vectors = []
    for i in range(rank - 1, 0, -1):
        for j in range(k, 0, -1):
            nu = Weight.eps(j, rank) - eps_k - alpha(i, rank)
            # every good word w of multidegree nu has weight a = -nu
            qe = nu.coords[i] - nu.coords[i - 1] + (j == i) - (j == i + 1)
            for w in good_words(nu.alpha_coords()):
                y = [(j, (i,) + w, _zq(rank, i, i + 1, qe))]
                if j == i:
                    y.append((i + 1, w, (0,) * rank + (1,)))
                vectors.append(y)
    vectors.append([(k, (), (0,) * (rank + 1))])  # the top v_+ x v_k

    qd = MultiPoly.q(rank) - MultiPoly.q(rank, -1)
    slot = {j: (qd ** (j - 1)).shifted((0,) * rank + (1 - j,)) for j in grams}
    paired = {}  # pair_words is symmetric: one call per unordered word pair

    def pair(y, x):
        total = MultiPoly.zero(rank)
        for j, a, e in y:
            for i, b, f in x:
                if i != j:
                    continue
                key = (a, b) if a <= b else (b, a)
                if (p := paired.get(key)) is None:
                    p = paired[key] = pair_words(a, b, zero_w, rank)
                if not p.is_zero:
                    total = total + slot[j] * p.shifted(tuple(map(add, e, f)))
        return total

    chosen, pivots = _gram_pivots(vectors, pair, f"k={k}, rank={rank}")
    has_top = chosen[-1:] == [len(vectors) - 1]
    dim = sum(len(gm.independent) for gm in grams.values()) \
        - (len(chosen) - has_top)
    if dim != 1:
        raise EngineError(
            f"singular solution space has dimension {dim}, "
            f"expected 1 (k={k}, rank={rank})")
    if not has_top:
        raise EngineError(f"no singular vector pairs with the top term (k={k})")
    return pivots[-1] / MultiRat(qd ** (k - 1), coprime=True)


def hook_ratio(lam: Partition, k: int) -> QFrac:
    """Quantum-integer ratio over boxes addable/removable above row k.

    Zero when adding a box on row k does not give a partition; otherwise the
    product of [content difference] over removable boxes above row k divided
    by the same product over addable boxes above row k.
    """
    return QFrac(*_hook_parts(lam, k))


def hook_factors(lam, k):
    """The n of the q-integers [n] whose ratio is `hook_ratio`: (content
    differences of the removable boxes above row k, the same for the addable
    boxes), or None when adding a box on row k gives no partition."""
    lam = Partition(lam)
    new_box = Box(k, lam.part(k) + 1)
    if not is_addable(lam, new_box):
        return None
    c0 = content(new_box)
    return ([content(b) - c0 for b in removable_boxes(lam) if b.row < k],
            [content(b) - c0 for b in addable_boxes(lam) if b.row < k])


def _hook_parts(lam, k):
    """`hook_ratio` as an unreduced (numerator, denominator) pair."""
    factors = hook_factors(lam, k)
    if factors is None:
        return LaurentQ.zero(), LaurentQ.one()
    return tuple(reduce(mul, map(q_int, ns), LaurentQ.one()) for ns in factors)


def _jantzen_closed_parts(lam, k):
    """The closed Jantzen product evaluated at a partition (z_i -> q^{lam_i}),
    as an unreduced (numerator, denominator) pair over Q[q^{+-1}].

    Factor by factor: the images of the binomial factors are multiplied with
    no `MultiRat` expanded.  The product is taken at rank max(len(lam) + 1, k);
    every larger rank gives the same value.  Raises PoleError when a
    denominator factor vanishes.
    """
    lam = Partition(lam)
    rank = max(len(lam) + 1, k)
    at = Weight(tuple(lam.part(r) for r in range(1, rank + 1)))
    num = den = LaurentQ.one()
    for f, g in _jantzen_closed_factors(k, rank):
        num = num * f.eval_z(at)
        den = den * g.eval_z(at)
    if den.is_zero:
        raise PoleError(f"evaluation pole at {at}")
    return num, den


def jantzen_valuation(lam: Partition, k: int, ell: int):
    """Cyclotomic valuation of the evaluated Jantzen number; None when the
    evaluation is zero.  Cross-checks the box statistic before returning."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    lam = Partition(lam)
    num, den = _hook_parts(lam, k)
    if num.is_zero:
        return None
    val = val_cyclotomic(num, 2 * ell) - val_cyclotomic(den, 2 * ell)
    nb = Box(k, lam.part(k) + 1)
    nl = n_left(lam, nb, ell)
    if val != nl:
        raise EngineError(
            f"valuation {val} != box statistic {nl} for lam={list(lam)}, k={k}, ell={ell}")
    return val


def det_product_identity(eta: Weight, rank: int):
    """Both sides of the product identity tying Jantzen numbers to
    determinant ratios, computed from the engine on matched word bases: they
    must agree up to +-q^m.  Returns (parts, ks_used): parts is the UnitParts
    of their ratio (None when it is not a unit), ks_used the k whose Kostant
    number is nonzero.
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
    return unit_ratio(lhs, rhs), used
