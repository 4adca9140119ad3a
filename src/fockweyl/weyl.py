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
minus the K_i weight of the earlier factors.  The contravariant form is
diagonal, (e, e) = q^{sum over factors S, s in S, of (1 - s)}.  In V^{(x)c},
(omega_S, omega_S) is that times sum_sigma q^{-2 inv sigma}, a constant of the
column height alone.  Every key of one weight space in the singular-vector
solve has the same factor heights, so these constants appear once in (u, top)
and (u, u) and twice in (u, top)^2 and (u, u)(w_lam, w_lam): they cancel in the
normalization (u, top)/(u, u) and in the reported norm.

Coefficients are Laurent polynomials in q (`LaurentQ`) through every action,
pairing and elimination; rational functions (`QFrac`) enter only in the
singular vectors' self-pairings.

The highest weight vector w_lam is the single key (1..c_1, .., 1..c_r).  The
singular vector of weight lam + eps_k in V(lam) (x) V is the one vector, up
to scale, that the raising operators kill there.  It is solved slot by slot,
u = sum_{j <= k} a_j (x) v_j, each a_j in the span of Y_word w_lam over the
good words in the letters j .. k - 1, each once (`weights.good_words`, a
basis of that weight space of U^-, not all orderings), by one small
fraction-free elimination per slot, which also proves the solution unique.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import EngineError
from .linalg import ff_echelon
from .partitions import Partition, addable_row_indices
from .ring import LaurentQ, QFrac
from .sparse import SparseVector
from .weights import good_words


class TensorVector(SparseVector):
    """Exact linear combination of basis keys (tuples of letters and column
    q-wedges) of degree n, with LaurentQ (or QFrac) coefficients."""

    __slots__ = ("n", "rank")

    def __init__(self, n, rank, terms=None):
        self.n = n
        self.rank = rank
        super().__init__(terms)

    def _coerce(self, c):
        return c if isinstance(c, (LaurentQ, QFrac)) else LaurentQ({0: c})

    def _space(self):
        return (self.n, self.rank)

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

    gen is 'X' or 'Y'.  On a single factor the actions are
    X_i omega_S = omega_{S'} with S' = S - {i+1} + {i} (when i+1 in S and i
    not) and Y_i the other way; a letter is the wedge of one element
    (X_i v_{i+1} = v_i, Y_i v_i = v_{i+1}).
    The q-powers are exponent shifts, so LaurentQ coefficients stay LaurentQ.
    """
    rank = x.rank
    if gen not in ("X", "Y"):
        raise ValueError(f"unknown generator {gen!r}")
    if not 1 <= i <= rank - 1:
        raise ValueError(f"{gen} index {i} out of range for rank {rank}")
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
    """One addable row: its singular vector u, with integral coordinates
    (`integral`), and the normalized self-pairing (`norm`)."""

    def __init__(self, row: int, integral: TensorVector, norm: QFrac):
        self.row = row
        self.integral = integral
        self.norm = norm


@lru_cache(maxsize=32)
def mu_singular_vectors(lam: Partition, rank: int) -> tuple[SingularVector, ...]:
    """Singular vectors of (Weyl module) x (standard module), one per addable
    row, with their normalized self-pairings.

    The singular vector of weight lam + eps_k is u = sum_{j <= k} a_j (x) v_j
    with a_j in V(lam) of weight lam + eps_k - eps_j and a_k = w_lam.  Since
    Delta(X_i) = X_i (x) L_i L_{i+1}^{-1} + 1 (x) X_i, X_i u = 0 splits by
    slot: X_i a_j = 0 for i != j, and q X_j a_j + a_{j+1} = 0.  So a_{k-1} ..
    a_1 are solved in turn, each by `_slot_solve` in its own weight space of
    V(lam), and the earlier slots are rescaled so that u stays integral.
    The normalized vector is ((u, top)/(u, u)) u with top = w_lam (x) v_k,
    and the reported norm (u, top)^2 / ((u, u)(w_lam, w_lam)) does not
    depend on the scale of u, so QFrac enters only there.
    Every vector here is keyed by column wedges of the heights of lam and the
    added letter; the form's per-column constants cancel in the norm, so it
    is that of V^{(x)(n+1)}.
    The results for the last 32 (lam, rank) are kept: `verify all` asks for
    each partition at two ell, and the rank does not depend on ell.
    """
    lam = Partition(lam)
    w_lam = highest_weight_vector(lam, rank)
    ww = tensor_form(w_lam, w_lam)
    n1 = lam.size + 1
    out = []
    for k in addable_row_indices(lam, rank):
        slots = {k: w_lam}
        for j in range(k - 1, 0, -1):
            a_j, scale = _slot_solve(w_lam, slots[j + 1], j, k, lam)
            if scale != 1:
                slots = {t: a.scale(scale) for t, a in slots.items()}
            slots[j] = a_j
        u = TensorVector(n1, rank, {w + (j,): c for j, a in slots.items()
                                    for w, c in a.terms.items()})
        top = TensorVector(n1, rank,
                           {w + (k,): c for w, c in w_lam.terms.items()})
        g = tensor_form(u, top)
        uu = tensor_form(u, u)
        if g.is_zero or uu.is_zero:
            raise EngineError(f"degenerate singular pairing for {lam}, row {k}")
        out.append(SingularVector(k, u, QFrac(g * g, uu * ww)))
    return tuple(out)


_MARKER = (1,)


def _slot_solve(w_lam, nxt, j, k, lam):
    """a_j in V(lam) with X_i a_j = 0 for i != j and q X_j a_j = -c a_{j+1},
    as (a_j, c): one fraction-free elimination, with integral coordinates.

    Each s in Y_word w_lam, over the good words in the letters j .. k - 1, is
    one sparse row [X_i s for i != j | q X_j s | s], keyed (0, i, w), then
    (2, w); one more row holds a_{j+1} = `nxt` in the X_j block and 1 under
    the marker key (1,).  `ff_echelon` takes the keys in sorted order, so the
    echelon rows whose pivot lies past the raising block have a zero raising
    part: they span the solutions (c, a_j).  There must be exactly one, with
    its pivot at the marker: a pivot in the coordinate block would be a
    singular vector of V(lam) below lam.  Its marker entry is c and its
    coordinates a_j, free of the content `ff_echelon` strips from every row
    it updates.
    """
    rank = w_lam.rank
    rows = []
    for s in _lowered(w_lam, good_words([0] * (j - 1) + [1] * (k - j))):
        row = {(2, w): c for w, c in s.terms.items()}
        for i in range(1, rank):
            for w, c in tensor_act("X", i, s).terms.items():
                row[0, i, w] = c.shift(1) if i == j else c
        rows.append(row)
    row = {(0, j, w): c for w, c in nxt.terms.items()}
    row[_MARKER] = LaurentQ.one()
    rows.append(row)
    ech, piv = ff_echelon(rows)
    solved = [(row, p) for row, p in zip(ech, piv) if p[0] > 0]
    if len(solved) != 1:
        raise EngineError(f"singular space dimension {len(solved)} != 1 "
                          f"for {lam}, row {k}")
    ((row, p),) = solved
    if p != _MARKER:
        raise EngineError(f"singular vector of V({lam}) below its highest "
                          f"weight, solving slot {j} of row {k}")
    return (TensorVector(w_lam.n, rank,
                         {c[1]: e for c, e in row.items() if c != _MARKER}),
            row[_MARKER])
