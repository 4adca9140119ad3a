"""The tensor-space oracle: the quantum gl_N action on tensor products of
column q-wedges and the standard module, canonical highest weight vectors,
and the singular vectors of (Weyl module) x (standard module) with their
triangular normalization and norms.  `verify`'s theorem61 runner compares
the norms with the Fock space and the Verma modules; this module imports
neither.

The ambient space is Lambda_q^{c_1} V (x) .. (x) Lambda_q^{c_r} V (x) V, with
c_1 .. c_r the column heights of lam and V the added box; V(lam) already lies
in it.  Lambda_q^c V is the submodule of V^{(x)c} spanned by the column
q-wedges omega_S, one per c-subset S of 1..N: the sum over the orderings
s_1 .. s_c of S of (-q^{-1})^{inv} v_{s_1} (x) .. (x) v_{s_c}.

A basis key is a tuple of factors.  A factor is one letter (an int: a
factor V = Lambda_q^1 V) or an increasing tuple S of letters (omega_S).  A
plain word of V^{(x)n} is the key whose factors are all letters, so every
function here acts on V^{(x)n} as before.  `TensorVector.n` is the degree, the
number of letters in a key.

The iterated coproduct is left-nested, which gives flat position formulas.
Each Lambda_q^c V is minuscule: X_i omega_S = omega_{S - {i+1} + {i}} when
i + 1 is in S and i is not, and 0 otherwise (Y_i the other way), with
coefficient 1.  So X_i on a key replaces i + 1 by i inside one factor, times q
to the K_i weight of the later factors; Y_i replaces i by i + 1, times q to
minus the K_i weight of the earlier factors; L_i is q to the number of factors
that contain i.  The contravariant form is diagonal,
(e, e) = q^{sum over factors S, s in S, of (1 - s)}.  In V^{(x)c},
(omega_S, omega_S) is that times sum_sigma q^{-2 inv sigma}, a constant of the
column height alone.  Every key of one weight space in the singular-vector
solve has the same factor heights, so these constants appear once in (u, top)
and (u, u) and twice in (u, top)^2 and (u, u)(w_lam, w_lam): they cancel in the
normalization (u, top)/(u, u) and in the reported norm.

Coefficients are Laurent polynomials in q (`LaurentQ`) through every action,
pairing and the one elimination per singular vector; rational functions
(`QFrac`) enter only in the triangular normalization of the singular vectors
and their self-pairings.

The highest weight vector w_lam is the single key (1..c_1, .., 1..c_r).  The
singular vector of weight lam + eps_{k_j} in V(lam) (x) V is the one vector,
up to scale, that the raising operators kill in the span of
Y_word (w_lam (x) v_k), k <= k_j, over the good words in the letters
k .. k_j - 1, each once (`weights.good_words`, a basis of that weight space
of U^-, not all orderings).  It is read off one fraction-free echelon form
of the rows [X_1 s | .. | X_{N-1} s | s] over the spanning vectors s, and
the dimension of that singular space is counted there, not assumed.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import EngineError
from .linalg import ff_echelon
from .partitions import Partition, addable_row_indices
from .ring import LaurentQ, QFrac
from .sparse import SparseVector
from .weights import good_words


class TensorVector(SparseVector):
    """Exact linear combination of basis keys (tuples of letters and column
    q-wedges) of degree n, with LaurentQ (or, once normalized, QFrac)
    coefficients."""

    __slots__ = ("n", "rank")

    def __init__(self, n, rank, terms=None):
        self.n = n
        self.rank = rank
        super().__init__(terms)

    def _coerce(self, c):
        return c if isinstance(c, (LaurentQ, QFrac)) else LaurentQ({0: c})

    def _space(self):
        return (self.n, self.rank)

    @classmethod
    def word(cls, w, rank) -> "TensorVector":
        """The basis key w (a word, or a tuple of letters and wedges)."""
        return cls(sum(map(len, _factors(w))), rank, {tuple(w): LaurentQ.one()})

    def weight(self):
        """Letter-count weight, or None for a mixed-weight element."""
        wts = {_key_weight(w, self.rank) for w in self.terms}
        if len(wts) == 1:
            return next(iter(wts))
        return None

    def __repr__(self):
        if not self.terms:
            return "TensorVector(0)"
        bits = [f"({c}) v{list(w)}"
                for w, c in sorted(self.terms.items(),
                                   key=lambda t: _factors(t[0]))]
        return "TensorVector(" + " + ".join(bits) + ")"


def _factors(key):
    """The key with every letter factor as a 1-tuple (as a sort key, it
    orders words as before)."""
    return tuple((f,) if type(f) is int else f for f in key)


def _key_weight(w, rank):
    counts = [0] * rank
    for f in _factors(w):
        for letter in f:
            counts[letter - 1] += 1
    return tuple(counts)


def _k_weight(f, i):
    """K_i weight of one factor: [i in S] - [i+1 in S]."""
    if type(f) is int:
        return (f == i) - (f == i + 1)
    return (i in f) - (i + 1 in f)


def _swap(f, old, new):
    """The factor with letter `old` replaced by `new`, or None unless it
    holds `old` and not `new` (for adjacent letters the order is kept)."""
    if type(f) is int:
        return new if f == old else None
    if old not in f or new in f:
        return None
    return tuple(new if s == old else s for s in f)


def tensor_act(gen: str, i: int, x: TensorVector) -> TensorVector:
    """Act by a generator through the left-nested iterated coproduct.

    gen is one of 'X', 'Y', 'L', 'Linv'.  On a single factor the actions are
    X_i omega_S = omega_{S'} with S' = S - {i+1} + {i} (when i+1 in S and i
    not), Y_i the other way, L_i omega_S = q^{[i in S]} omega_S; a letter is
    the wedge of one element (X_i v_{i+1} = v_i, Y_i v_i = v_{i+1}).
    The q-powers are exponent shifts, so LaurentQ coefficients stay LaurentQ.
    """
    rank = x.rank
    if gen in ("L", "Linv"):
        if not 1 <= i <= rank:
            raise ValueError(f"L index {i} out of range")
        sgn = -1 if gen == "Linv" else 1
        out = TensorVector(x.n, rank)
        for w, c in x.terms.items():
            k = sum(1 for f in w if (f == i if type(f) is int else i in f))
            out.terms[w] = c.shift(sgn * k)
        return out
    if not 1 <= i <= rank - 1:
        raise ValueError(f"{gen} index {i} out of range for rank {rank}")
    if gen not in ("X", "Y"):
        raise ValueError(f"unknown generator {gen!r}")
    # X_i: q to the K_i weight of the factors after the one acted on, walked
    # from the right; Y_i: q to minus that weight of those before, from the left
    old, new, sign, step = (i + 1, i, 1, -1) if gen == "X" else (i, i + 1, -1, 1)
    out = TensorVector(x.n, rank)
    for w, c in x.terms.items():
        e = 0
        for t in range(len(w))[::step]:
            nf = _swap(w[t], old, new)
            if nf is not None:
                out.add_term(w[:t] + (nf,) + w[t + 1:], c.shift(e))
            e += sign * _k_weight(w[t], i)
    return out


def tensor_form(x: TensorVector, y: TensorVector) -> LaurentQ | QFrac:
    """Product contravariant form, diagonal on keys:
    (e, e) = q^{sum over factors S, s in S, of (1 - s)}; on words,
    (v_k, v_k) = q^{1-k}.  On a wedge factor this leaves out the constant
    (omega_S, omega_S) / q^{sum (1 - s)} of V^{(x)c}, which depends only on c.

    A LaurentQ on integral vectors; a QFrac when either side has QFrac
    coefficients."""
    x._check(y)
    total = LaurentQ.zero()
    small, big = (x.terms, y.terms) if len(x.terms) <= len(y.terms) else (y.terms, x.terms)
    for w, c1 in small.items():
        c2 = big.get(w)
        if c2 is None:
            continue
        e = sum(len(f) - sum(f) for f in _factors(w))
        total = total + (c1 * c2).shift(e)
    return total


def highest_weight_vector(lam: Partition, rank: int) -> TensorVector:
    """Canonical singular vector of the given partition weight: the single
    key (1..c_1, .., 1..c_r), c_j the column heights from left to right, with
    coefficient 1 (a column of height 1 is the letter 1).

    Under the left-nested coproduct Delta(X_i) = X_i (x) L_i L_{i+1}^{-1}
    + 1 (x) X_i a tensor product of singular vectors is singular, and each
    omega_{1..c} is singular of weight eps_1 + .. + eps_c.  Expanded in
    V^{(x)|lam|} it has prod c! terms, each +-q^{-k}, with coefficient 1 on
    the column reading word.
    """
    lam = Partition(lam)
    if rank < len(lam):
        raise ValueError(f"rank {rank} too small for {lam}")
    heights = (sum(1 for part in lam if part >= c)
               for c in range(1, (lam[0] if lam else 0) + 1))
    key = tuple(1 if h == 1 else tuple(range(1, h + 1)) for h in heights)
    return TensorVector(lam.size, rank, {key: LaurentQ.one()})


def _lowered(gen: TensorVector, words) -> list[TensorVector]:
    """Y_{a_1} .. Y_{a_d} gen for each word (a_1 .. a_d), in the order of the
    reversed words.  In that order each word shares its longest common suffix
    with the one before, and the shared lowerings are applied once."""
    out = []
    path, prev = [gen], ()
    for rev in sorted(w[::-1] for w in words):
        keep = 0
        while keep < min(len(prev), len(rev)) and prev[keep] == rev[keep]:
            keep += 1
        del path[keep + 1:]
        for letter in rev[keep:]:
            path.append(tensor_act("Y", letter, path[-1]))
        out.append(path[-1])
        prev = rev
    return out


class SingularVector:
    """One addable row: its canonical singular vector and normalized self-pairing.

    `integral` is the singular vector u with integral coordinates and `ratio` is
    (u, top)/(u, u); the triangular normalization `vector` = ratio * u is
    built on first use, since the theorem61 comparison reads only `norm`."""

    def __init__(self, row: int, integral: TensorVector, ratio: QFrac,
                 norm: QFrac):
        self.row = row
        self.integral = integral
        self.ratio = ratio
        self.norm = norm

    @cached_property
    def vector(self) -> TensorVector:
        return self.integral.scale(self.ratio)


@lru_cache(maxsize=32)
def mu_singular_vectors(lam: Partition, rank: int) -> tuple[SingularVector, ...]:
    """Singular vectors of (Weyl module) x (standard module), one per addable
    row, normalized triangularly, with their self-pairings.

    The submodule generated by the highest weight vector is spanned, weight by
    weight, by lowering words applied to w_lam (x) v_k: in weight
    lam + eps_{k_j} the good words in the letters k .. k_j - 1 for k <= k_j,
    whose span is that of all orderings of those letters.  The singular
    direction in each relevant weight space is unique (the solve counts it).
    The triangular normalization is obtained through orthogonality to the
    lower summands: with u any nonzero singular vector, the normalized one is
    ((u, top)/(u, u)) u where top = w_lam (x) v_k, and the reported norm
    divides out (w_lam, w_lam).  Both are invariant under rescaling u, so u
    is taken integral (an echelon row of `_singular_vectors_in_span`) and
    QFrac enters only in the two ratios.
    Every vector here is keyed by column wedges of the heights of lam and the
    added letter; the form's per-column constants cancel in both ratios, so
    they, and the normalized vector once expanded, are those of
    V^{(x)(n+1)}.
    The results for the last 32 (lam, rank) are kept: `verify all` asks for
    each partition at two ell, and the rank does not depend on ell.
    """
    lam = Partition(lam)
    w_lam = highest_weight_vector(lam, rank)
    ww = tensor_form(w_lam, w_lam)
    n1 = lam.size + 1
    out = []
    for k_j in addable_row_indices(lam, rank):
        spanning = []
        for k in range(1, k_j + 1):
            gen = TensorVector(n1, rank,
                               {w + (k,): c for w, c in w_lam.terms.items()})
            spanning += _lowered(gen, good_words([0] * (k - 1) + [1] * (k_j - k)))
        singular = _singular_vectors_in_span(spanning, rank)
        if len(singular) != 1:
            raise EngineError(f"singular space dimension {len(singular)} != 1 "
                              f"for {lam}, row {k_j}")
        (u,) = singular
        top = TensorVector(n1, rank,
                           {w + (k_j,): c for w, c in w_lam.terms.items()})
        g = tensor_form(u, top)
        uu = tensor_form(u, u)
        if g.is_zero or uu.is_zero:
            raise EngineError(f"degenerate singular pairing for {lam}, row {k_j}")
        norm = QFrac(g * g, uu * ww)
        out.append(SingularVector(k_j, u, QFrac(g, uu), norm))
    return tuple(out)


def _singular_vectors_in_span(spanning, rank):
    """A basis of the vectors in the span of `spanning` (TensorVectors with
    LaurentQ coordinates) that every X_i kills, by one fraction-free
    elimination.

    Each spanning vector s is one sparse row [X_1 s | .. | X_{N-1} s | s]:
    its raising images under the keys (0, i, w), then its coordinates under
    (1, w).  `ff_echelon` takes the keys in sorted order, so an echelon row
    whose pivot key starts with 1 has a zero raising part, and these rows
    span exactly the singular vectors of the span; their coordinates are
    returned, free of the content that `ff_echelon` strips from every row it
    updates.
    """
    rows = []
    for s in spanning:
        row = {}
        for w, c in s.terms.items():
            if not isinstance(c, LaurentQ):
                raise EngineError("spanning vector with non-integral coefficient")
            row[1, w] = c
        for i in range(1, rank):
            for w, c in tensor_act("X", i, s).terms.items():
                row[0, i, w] = c
        rows.append(row)
    ech, piv = ff_echelon(rows)
    return [TensorVector(spanning[0].n, rank,
                         {k[1]: c for k, c in sorted(row.items())})
            for row, p in zip(ech, piv) if p[0] == 1]

