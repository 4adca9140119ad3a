import ast
import math
import random
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from fockweyl import weyl
from fockweyl.errors import EngineError
from fockweyl.linalg import _strip_content, ff_echelon, field_echelon
from fockweyl.partitions import Partition, all_partitions, addable_row_indices
from fockweyl.ring import LaurentQ, QFrac, poly_gcd, q_int
from fockweyl.verify import RunConfig, run_family
from fockweyl.weights import good_words, words_with_counts
from fockweyl.weyl import (TensorVector, _lowered, highest_weight_vector,
                           mu_singular_vectors, tensor_act, tensor_form)

from conftest import (P61, QField, coeff, laurent_mod_p, reference_power_match,
                      tensor_l, vadd, vec, vsub)


def key_vector(key, rank):
    """The basis key (a word, or a tuple of letters and wedges) as a vector."""
    n = sum(1 if type(f) is int else len(f) for f in key)
    return TensorVector(n, rank, {tuple(key): LaurentQ.one()})


def word(*letters, rank=2):
    return key_vector(letters, rank)


def qf(p):
    return QField(p)


# Reference for the wedge basis: the q-wedges of V^{(x)c}, the expansion of a
# wedge-keyed vector into the word basis of V^{(x)n}, and the V^{(x)n} action,
# form and highest weight vector the oracle used before it worked on wedges.
def _q_wedge(letters):
    """The q-wedge of v_s, s in `letters`, as (word, inv) pairs: the sum over
    orderings of (-q^{-1})^{inv} v_{s_1} (x) .. (x) v_{s_c}."""
    return [(perm, sum(1 for a, b in combinations(perm, 2) if a > b))
            for perm in permutations(letters)]


def expand(x):
    """A TensorVector keyed by letters and wedges, written out in V^{(x)n}."""
    out = TensorVector(x.n, x.rank)
    for key, c in x.terms.items():
        parts = [[((f,), 0)] if type(f) is int else _q_wedge(f) for f in key]
        for combo in product(*parts):
            w = tuple(letter for part, _ in combo for letter in part)
            inv = sum(e for _, e in combo)
            t = c.shift(-inv)
            out.add_term(w, -t if inv % 2 else t)
    return out


def wedge_constant(c):
    """(omega_S, omega_S) / q^{sum (1 - s)} in V^{(x)c}: sum_sigma q^{-2 inv}."""
    total = LaurentQ.zero()
    for _, inv in _q_wedge(range(1, c + 1)):
        total = total + LaurentQ({-2 * inv: 1})
    return total


def flat_tensor_act(gen, i, x):
    """The flat position formulas on words of V^{(x)n}."""
    rank = x.rank
    out = TensorVector(x.n, rank)
    for w, c in x.terms.items():
        if gen == "X":
            for t, letter in enumerate(w):
                if letter != i + 1:
                    continue
                e = sum((1 if s == i else 0) - (1 if s == i + 1 else 0)
                        for s in w[t + 1:])
                out.add_term(w[:t] + (i,) + w[t + 1:], c.shift(e))
        else:
            for t, letter in enumerate(w):
                if letter != i:
                    continue
                e = sum((1 if s == i + 1 else 0) - (1 if s == i else 0)
                        for s in w[:t])
                out.add_term(w[:t] + (i + 1,) + w[t + 1:], c.shift(e))
    return out


def flat_tensor_form(x, y):
    """Diagonal on words, (v_k, v_k) = q^{1-k}."""
    total = LaurentQ.zero()
    for w, c1 in x.terms.items():
        c2 = y.terms.get(w)
        if c2 is not None:
            total = total + (c1 * c2).shift(sum(1 - letter for letter in w))
    return total


def flat_highest_weight_vector(lam, rank):
    """The tensor product over the columns of the q-wedges of v_1 .. v_c."""
    terms = {(): 0}
    for c in range(1, (lam[0] if lam else 0) + 1):
        wedge = _q_wedge(range(1, sum(1 for part in lam if part >= c) + 1))
        terms = {w + p: e + f for w, e in terms.items() for p, f in wedge}
    return TensorVector(lam.size, rank,
                        {w: LaurentQ({-e: (-1) ** e}) for w, e in terms.items()})


def flat_mu_singular_vectors(lam, rank):
    """`mu_singular_vectors` on V^{(x)(n+1)}: the same solve, run on the
    flat action, form and highest weight vector, with the normalization
    ratio of each singular vector on those."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(weyl, "tensor_act", flat_tensor_act)
        m.setattr(weyl, "tensor_form", flat_tensor_form)
        m.setattr(weyl, "highest_weight_vector", flat_highest_weight_vector)
        svs = mu_singular_vectors.__wrapped__(lam, rank)
        return svs, [normalization_ratio(sv, lam, rank) for sv in svs]


def key_weight(key, rank):
    """The letter-count weight of a basis key."""
    counts = [0] * rank
    for f in key:
        for letter in (f,) if type(f) is int else f:
            counts[letter - 1] += 1
    return tuple(counts)


def weights_of(x):
    """The set of the weights of x's keys (one for a weight vector)."""
    return {key_weight(key, x.rank) for key in x.terms}


def normalization_ratio(sv, lam, rank):
    """(u, top)/(u, u), u the singular vector and top = w_lam (x) v_k, with
    the module's current form and highest weight vector."""
    w_lam = weyl.highest_weight_vector(lam, rank)
    top = TensorVector(lam.size + 1, rank,
                       {w + (sv.row,): c for w, c in w_lam.terms.items()})
    return QField(weyl.tensor_form(sv.integral, top),
                 weyl.tensor_form(sv.integral, sv.integral))


def normalized(sv, lam, rank):
    """The triangularly normalized singular vector ((u, top)/(u, u)) u."""
    return sv.integral.scale(normalization_ratio(sv, lam, rank))


# Reference for the slot solves: the one elimination over every slot of
# V(lam) (x) V at once that the oracle ran before.
def singular_vectors_in_span(spanning, rank):
    """A basis of the vectors in the span of `spanning` (TensorVectors with
    LaurentQ coordinates) that every X_i kills, by one fraction-free
    elimination of the rows [X_1 s | .. | X_{N-1} s | s], keyed (0, i, w)
    and (1, w): the echelon rows whose pivot key starts with 1 have a zero
    raising part, and their coordinates are primitive."""
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


def reference_spanning(lam, rank, k_j):
    """Y_word (w_lam (x) v_k) for k <= k_j, over the good words in the
    letters k .. k_j - 1."""
    w_lam = highest_weight_vector(lam, rank)
    spanning = []
    for k in range(1, k_j + 1):
        gen = TensorVector(lam.size + 1, rank,
                           {w + (k,): c for w, c in w_lam.terms.items()})
        spanning += _lowered(gen, good_words([0] * (k - 1) + [1] * (k_j - k)))
    return spanning


def reference_singular_vectors(lam, rank):
    """(row, primitive u, norm) per addable row, by the one-solve
    construction."""
    w_lam = highest_weight_vector(lam, rank)
    ww = tensor_form(w_lam, w_lam)
    out = []
    for k_j in addable_row_indices(lam, rank):
        (u,) = singular_vectors_in_span(reference_spanning(lam, rank, k_j), rank)
        top = TensorVector(lam.size + 1, rank,
                           {w + (k_j,): c for w, c in w_lam.terms.items()})
        g, uu = tensor_form(u, top), tensor_form(u, u)
        out.append((k_j, u, QFrac(g * g, uu * ww)))
    return out


def unit_multiple(x, y):
    """Whether x = +-q^m y for some m."""
    key = next(iter(y.terms), None)
    if key is None or key not in x.terms:
        return not x.terms and not y.terms
    ratio = QFrac(x.terms[key], y.terms[key])
    return reference_power_match(ratio, QFrac(1), "signed") \
        and vec(x) == vec(y.scale(ratio.num))


def wedge_keys(rank, heights):
    """Every key with the given factor heights (height 1 is a letter)."""
    letters = range(1, rank + 1)
    return list(product(*(letters if h == 1 else combinations(letters, h)
                          for h in heights)))


def key_shapes(rank):
    """Factor heights <= min(3, rank): one and two factors, and three
    factors at rank <= 3."""
    hs = range(1, min(3, rank) + 1)
    shapes = [(h,) for h in hs] + list(product(hs, repeat=2))
    if rank <= 3:
        shapes += list(product(hs, repeat=3))
    return shapes


# Reference action for the coassociativity test: the same generators computed
# by recursively splitting the tensor factors through the coproduct tables
# Delta(g) = sum of (left symbol, right symbol) pairs.
_COPRODUCT = {
    "X": (("X", "K"), ("1", "X")),
    "Y": (("Y", "1"), ("Kinv", "Y")),
    "K": (("K", "K"),),
    "Kinv": (("Kinv", "Kinv"),),
    "1": (("1", "1"),),
}


def tensor_act_split(gen, i, x, split):
    """Same action computed by recursively splitting the tensor factors at
    `split`; any split point must agree with the flat formulas."""
    rank = x.rank
    if x.n == 0:
        if gen in ("K", "Kinv", "1"):
            return x
        return TensorVector(0, rank)
    if x.n == 1:
        out = TensorVector(1, rank)
        for (w,), c in x.terms.items():
            for nw, e in _single_action(gen, i, w):
                out.add_term((nw,), c * QField(LaurentQ.term(e)))
        return out
    split = max(1, min(split, x.n - 1))
    out = TensorVector(x.n, rank)
    for gl, gr in _COPRODUCT[gen]:
        for w, c in x.terms.items():
            left = TensorVector(split, rank, {w[:split]: QField(1)})
            right = TensorVector(x.n - split, rank, {w[split:]: QField(1)})
            lv = tensor_act_split(gl, i, left, max(1, split // 2))
            if not lv.terms:
                continue
            rv = tensor_act_split(gr, i, right, max(1, (x.n - split) // 2))
            if not rv.terms:
                continue
            for wl, cl in lv.terms.items():
                for wr, cr in rv.terms.items():
                    out.add_term(wl + wr, c * cl * cr)
    return out


def _single_action(gen, i, letter):
    if gen == "1":
        return [(letter, 0)]
    if gen == "X":
        return [(i, 0)] if letter == i + 1 else []
    if gen == "Y":
        return [(i + 1, 0)] if letter == i else []
    if gen == "K":
        e = (1 if letter == i else 0) - (1 if letter == i + 1 else 0)
        return [(letter, e)]
    if gen == "Kinv":
        e = (1 if letter == i else 0) - (1 if letter == i + 1 else 0)
        return [(letter, -e)]
    raise ValueError(f"unknown generator {gen!r}")


class TestTensorAct:
    def test_lowering_spreads(self):
        out = tensor_act("Y", 1, word(1, 1))
        assert coeff(out, (2, 1)) == QFrac(1)
        assert coeff(out, (1, 2)) == qf(LaurentQ.term(-1))
        assert len(out.terms) == 2

    def test_raising_kills_highest(self):
        assert not tensor_act("X", 1, word(1, 1)).terms

    def test_index_range(self):
        with pytest.raises(ValueError):
            tensor_act("X", 2, word(1, 1))

    @pytest.mark.parametrize("gen", ["L", "Linv", "K"])
    def test_only_raising_and_lowering(self, gen):
        with pytest.raises(ValueError, match="unknown generator"):
            tensor_act(gen, 1, word(1, 1))

    def test_empty_tensor(self):
        assert not tensor_act("Y", 1, key_vector((), 3)).terms


def random_integral_vector(rng, n, rank, nterms=4):
    terms = {}
    for _ in range(nterms):
        w = tuple(rng.randint(1, rank) for _ in range(n))
        terms[w] = LaurentQ({rng.randint(-2, 2): rng.randint(-3, 3),
                             rng.randint(-2, 2): rng.randint(-3, 3)})
    return TensorVector(n, rank, terms)


class TestIntegralCoefficients:
    def test_actions_and_form_stay_laurent(self, monkeypatch):
        built = []
        init = QFrac.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QFrac, "__init__", counting_init)
        rng = random.Random(17)
        rank = 3
        for _ in range(20):
            n = rng.randint(1, 4)
            x = random_integral_vector(rng, n, rank)
            y = random_integral_vector(rng, n, rank)
            for gen in ("X", "Y"):
                for i in range(1, rank):
                    out = tensor_act(gen, i, x)
                    assert all(type(c) is LaurentQ for c in out.terms.values())
            assert type(tensor_form(x, y)) is LaurentQ
            assert type(tensor_form(x, x)) is LaurentQ
        assert built == []

    def test_kernel_solve_stays_laurent(self, monkeypatch):
        built = []
        init = QFrac.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QFrac, "__init__", counting_init)
        # the weight space of (2, 1) + eps_3, as mu_singular_vectors spans it
        rank = 4
        w_lam = highest_weight_vector(Partition((2, 1)), rank)
        spanning = []
        for k in (1, 2, 3):
            gen = TensorVector(4, rank,
                               {w + (k,): c for w, c in w_lam.terms.items()})
            spanning += _lowered(gen, interval_words(k, 3))
        (u,) = singular_vectors_in_span(spanning, rank)
        assert all(type(c) is LaurentQ for c in u.terms.values())
        # and the slot solves of that weight, slot 2 and then slot 1
        a_2, c_2 = weyl._slot_solve(w_lam, w_lam, 2, 3, Partition((2, 1)))
        a_1, c_1 = weyl._slot_solve(w_lam, a_2, 1, 3, Partition((2, 1)))
        for c in [c_2, c_1, *a_2.terms.values(), *a_1.terms.values()]:
            assert type(c) is LaurentQ
        assert built == []

    def test_qfrac_input_stays_qfrac(self):
        x = word(1, 2).scale(QField(LaurentQ.one(), q_int(2)))
        out = tensor_act("Y", 1, x)
        assert all(type(c) is QField for c in out.terms.values())
        assert tensor_form(x, x) == QFrac(LaurentQ({-1: 1}), q_int(2) * q_int(2))

    def test_echelon_rejects_denominator(self):
        good = word(1, 2)
        bad = word(2, 1).scale(QField(LaurentQ.one(), q_int(2)))
        assert len(singular_vectors_in_span([good, word(2, 1)], 2)) == 1
        with pytest.raises(EngineError):
            singular_vectors_in_span([good, bad], 2)


class TestCoassociativity:
    def test_split_invariance(self):
        rng = random.Random(5)
        rank = 3
        for _ in range(25):
            n = rng.randint(2, 4)
            terms = {}
            for _ in range(3):
                w = tuple(rng.randint(1, rank) for _ in range(n))
                terms[w] = LaurentQ({rng.randint(-2, 2): rng.randint(1, 3)})
            x = TensorVector(n, rank, terms)
            for gen in ("X", "Y"):
                for i in range(1, rank):
                    flat = tensor_act(gen, i, x)
                    for split in range(1, n):
                        assert vec(tensor_act_split(gen, i, x, split)) == vec(flat)


class TestDefiningRelationsOnTensors:
    def test_commutator_and_cartan(self):
        # exhaustive over basis words: n <= 3, rank <= 4
        for rank in (2, 3, 4):
            words = [(a,) for a in range(1, rank + 1)]
            words += [(a, b) for a in range(1, rank + 1) for b in range(1, rank + 1)]
            words += [(a, b, c) for a in range(1, rank + 1)
                      for b in range(1, rank + 1) for c in range(1, rank + 1)]
            for w in words:
                x = key_vector(w, rank)
                for i in range(1, rank):
                    for j in range(1, rank):
                        lhs = vsub(tensor_act("X", i, tensor_act("Y", j, x)),
                                   tensor_act("Y", j, tensor_act("X", i, x)))
                        if i != j:
                            assert not lhs.terms
                        else:
                            ki = sum(1 for s in w if s == i) \
                                - sum(1 for s in w if s == i + 1)
                            rhs = x.scale(qf(q_int(ki)))
                            assert vec(lhs) == vec(rhs)

    def test_l_conjugation(self):
        rank = 3
        for w in [(1, 2), (2, 3), (3, 1), (1, 1), (2, 2)]:
            x = key_vector(w, rank)
            for i in range(1, rank + 1):
                for j in range(1, rank):
                    for gen, s in (("X", 1), ("Y", -1)):
                        e = s * ((1 if i == j else 0) - (1 if i == j + 1 else 0))
                        lhs = tensor_act(gen, j, tensor_l(i, x))
                        rhs = tensor_l(i, tensor_act(gen, j, x)) \
                            .scale(qf(LaurentQ.term(-e)))
                        assert vec(lhs) == vec(rhs)

    def test_serre(self):
        rank = 3
        two = qf(q_int(2))
        for w in [(1, 2, 3), (2, 1, 1), (3, 2, 1), (1, 1, 2), (2, 3, 2)]:
            x = key_vector(w, rank)
            for gen in ("X", "Y"):
                for i, j in ((1, 2), (2, 1)):
                    def a(k, v):
                        return tensor_act(gen, k, v)
                    lhs = vadd(vsub(a(i, a(i, a(j, x))), a(i, a(j, a(i, x))).scale(two)),
                               a(j, a(i, a(i, x))))
                    assert not lhs.terms


class TestTensorForm:
    def test_highest_word(self):
        assert tensor_form(word(1, 1), word(1, 1)) == QFrac(1)

    def test_single_letter(self):
        assert tensor_form(word(2), word(2)) == qf(LaurentQ.term(-1))

    def test_distinct_words(self):
        assert tensor_form(word(1, 2), word(2, 1)).is_zero

    def test_letter_norm_from_contravariance(self):
        # (v_{k+1}, v_{k+1}) is forced by (Y_k v_k, v_{k+1}) = (v_k, w(Y_k) v_{k+1})
        rank = 4
        for k in range(1, rank):
            vk = key_vector((k,), rank)
            vk1 = key_vector((k + 1,), rank)
            lhs = tensor_form(tensor_act("Y", k, vk), vk1)
            wy = tensor_act("X", k, vk1)
            wy = tensor_l(k + 1, wy)
            wy = tensor_l(k, wy, -1)
            rhs = tensor_form(vk, wy)
            assert lhs == rhs
            assert lhs == tensor_form(vk1, vk1)

    def test_contravariance_random(self):
        rng = random.Random(3)
        rank = 4
        for _ in range(30):
            n = rng.randint(1, 4)
            def rnd_vec():
                terms = {}
                for _ in range(2):
                    w = tuple(rng.randint(1, rank) for _ in range(n))
                    terms[w] = LaurentQ({rng.randint(-2, 2): rng.randint(1, 2)})
                return TensorVector(n, rank, terms)
            u, v = rnd_vec(), rnd_vec()
            for i in range(1, rank):
                # (X_i u, v) = (u, Y_i L_i L_{i+1}^{-1} v)
                lhs = tensor_form(tensor_act("X", i, u), v)
                w = tensor_l(i + 1, v, -1)
                w = tensor_l(i, w)
                w = tensor_act("Y", i, w)
                assert lhs == tensor_form(u, w)
                # (Y_i u, v) = (u, L_i^{-1} L_{i+1} X_i v)
                lhs2 = tensor_form(tensor_act("Y", i, u), v)
                w2 = tensor_act("X", i, v)
                w2 = tensor_l(i + 1, w2)
                w2 = tensor_l(i, w2, -1)
                assert lhs2 == tensor_form(u, w2)


class TestWedgeBasis:
    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_structure_constants(self, rank):
        # the action on keys is the V^{(x)n} action on their expansions
        gens = [(g, i) for g in ("X", "Y") for i in range(1, rank)]
        for heights in key_shapes(rank):
            for key in wedge_keys(rank, heights):
                x = key_vector(key, rank)
                assert x.n == sum(heights)
                ex = expand(x)
                for g, i in gens:
                    assert vec(expand(tensor_act(g, i, x))) == \
                        vec(flat_tensor_act(g, i, ex))

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_form_up_to_column_constants(self, rank):
        rng = random.Random(rank)
        for heights in key_shapes(rank):
            keys = wedge_keys(rank, heights)
            const = LaurentQ.one()
            for h in heights:
                if h > 1:
                    const = const * wedge_constant(h)
            for key in keys:
                x = key_vector(key, rank)
                assert flat_tensor_form(expand(x), expand(x)) == \
                    tensor_form(x, x) * const
            for _ in range(5):
                x, y = (TensorVector(sum(heights), rank, {
                    k: LaurentQ({rng.randint(-2, 2): rng.randint(-3, 3)})
                    for k in rng.sample(keys, min(3, len(keys)))})
                    for _ in range(2))
                assert flat_tensor_form(expand(x), expand(y)) == \
                    tensor_form(x, y) * const

    def test_minuscule(self):
        # Y_i omega_S = omega_{S'} with coefficient 1, in V^{(x)3}
        x = key_vector(((1, 2, 4),), 5)
        assert vec(tensor_act("Y", 2, x)) == vec(key_vector(((1, 3, 4),), 5))
        assert not tensor_act("Y", 1, x).terms
        assert vec(tensor_act("X", 3, x)) == vec(key_vector(((1, 2, 3),), 5))
        assert not tensor_act("X", 1, x).terms

    def test_word_degree_and_weight(self):
        x = key_vector(((1, 2), 3, (1, 3)), 3)
        assert x.n == 5
        assert weights_of(x) == {(2, 1, 2)}
        assert "v[(1, 2), 3, (1, 3)]" in repr(x)


class TestHighestWeightVector:
    def test_single_box(self):
        assert vec(highest_weight_vector(Partition((1,)), 2)) == vec(word(1))
        assert vec(expand(highest_weight_vector(Partition((1,)), 2))) == vec(word(1))

    def test_column(self):
        w = highest_weight_vector(Partition((1, 1)), 2)
        assert vec(w) == vec(key_vector(((1, 2),), 2))
        v = expand(w)
        assert coeff(v, (1, 2)) == QFrac(1)
        assert coeff(v, (2, 1)) == qf(LaurentQ({-1: -1}))
        assert len(v.terms) == 2

    def test_row(self):
        assert vec(highest_weight_vector(Partition((2,)), 2)) == vec(word(1, 1))
        assert vec(expand(highest_weight_vector(Partition((2,)), 2))) == vec(word(1, 1))

    def test_single_key(self):
        w = highest_weight_vector(Partition((3, 2, 2, 1)), 5)
        assert vec(w) == vec(key_vector(((1, 2, 3, 4), (1, 2, 3), 1), 5))
        assert w.n == 8

    def test_empty(self):
        v = highest_weight_vector(Partition(()), 1)
        assert coeff(v, ()) == QFrac(1)
        assert coeff(expand(v), ()) == QFrac(1)

    def test_is_singular(self):
        for lam in [(2, 1), (2, 2), (3, 1)]:
            p = Partition(lam)
            v = highest_weight_vector(p, len(p) + 1)
            for i in range(1, len(p) + 1):
                assert not tensor_act("X", i, v).terms
                assert not flat_tensor_act("X", i, expand(v)).terms


# Reference for the closed-form highest weight vector: the dense raising
# kernel over the whole lam weight space, solved over QFrac, its first basis
# vector supported on the column reading word, scaled to 1 there and cleared
# to integral coordinates.
def clear_vector(coords):
    """Scale a QFrac vector to integral Laurent coordinates with unit content."""
    den = LaurentQ.one()
    for c in coords:
        if not c.is_zero:
            g = poly_gcd(den, c.den)
            den = den * c.den.exact_div(g)
    nums = {j: c.num * den.exact_div(c.den)
            for j, c in enumerate(coords) if not c.is_zero}
    nums = _strip_content(nums)
    return [nums.get(j, LaurentQ.zero()) for j in range(len(coords))]


def sparse(rows):
    """Dense rows as the sparse rows `ff_echelon` takes: column index to
    nonzero entry."""
    return [{c: e for c, e in enumerate(row) if not e.is_zero} for row in rows]


def column_word(lam):
    """Row indices read down successive columns of the diagram."""
    return tuple(r for c in range(1, (lam[0] if lam else 0) + 1)
                 for r in range(1, len(lam) + 1) if lam.part(r) >= c)


def field_kernel(rows, ncols):
    """Right kernel over QFrac by back-substitution on the `field_echelon`
    rows: one vector per free column, with that coordinate 1 and the other
    free coordinates 0."""
    ech, piv, _ = field_echelon(rows)
    basis = []
    for f in sorted(set(range(ncols)) - set(piv)):
        x = [QField(0)] * ncols
        x[f] = QField(1)
        for row, p in zip(reversed(ech), reversed(piv)):
            s = QField(0)
            for c in range(p + 1, ncols):
                if not row[c].is_zero and not x[c].is_zero:
                    s = s + row[c] * x[c]
            x[p] = -s / row[p]
        basis.append(x)
    return basis


def raising_kernel(lam, rank):
    """(words of weight lam, kernel basis of all X_i on their span, each
    vector cleared to integral coordinates)."""
    counts = tuple(lam.part(r) for r in range(1, rank + 1))
    words = words_with_counts(counts)
    rows = {}
    for j, w in enumerate(words):
        for i in range(1, rank):
            img = tensor_act("X", i, key_vector(w, rank))
            for w2, c in img.terms.items():
                row = rows.setdefault((i, w2), [QField(0)] * len(words))
                row[j] = QField(c)
    basis = field_kernel([rows[k] for k in sorted(rows)], len(words))
    return words, [clear_vector(x) for x in basis]


def dense_highest_weight_vector(lam, rank):
    words, basis = raising_kernel(lam, rank)
    cw_idx = words.index(column_word(lam))
    coeffs = next(b for b in basis if not b[cw_idx].is_zero)
    coeffs = [QFrac(c, coeffs[cw_idx]) for c in coeffs]
    return TensorVector(lam.size, rank,
                        dict(zip(words, clear_vector(coeffs))))


def column_heights(lam):
    return [sum(1 for part in lam if part >= c)
            for c in range(1, (lam[0] if lam else 0) + 1)]


def interval_words(k, k_j):
    """The good words in the letters k .. k_j - 1, each once, as
    `mu_singular_vectors` spans with them."""
    return good_words([0] * (k - 1) + [1] * (k_j - k))


def orientation(word):
    """For each adjacent pair (a, a + 1) of letters, whether a comes first."""
    pos = {a: i for i, a in enumerate(word)}
    return tuple(pos[a] < pos[a + 1] for a in sorted(pos)[:-1])


class TestClosedFormAgainstDenseKernel:
    @pytest.mark.parametrize("lam", list(all_partitions(5)), ids=str)
    def test_singular_weight_and_size(self, lam):
        rank = len(lam) + 1
        w = highest_weight_vector(lam, rank)
        v = expand(w)
        assert vec(v) == vec(flat_highest_weight_vector(lam, rank))
        for i in range(1, rank):
            assert not tensor_act("X", i, w).terms
            assert not tensor_act("X", i, v).terms
            assert not flat_tensor_act("X", i, v).terms
        assert weights_of(w) == weights_of(v)
        assert weights_of(v) == {tuple(lam.part(r) for r in range(1, rank + 1))}
        assert len(v.terms) == math.prod(math.factorial(c)
                                         for c in column_heights(lam))
        assert coeff(v, column_word(lam)) == LaurentQ.one()
        for c in v.terms.values():
            ((e, sign),) = c.terms.items()
            assert sign in (1, -1) and e <= 0

    @pytest.mark.parametrize("lam", list(all_partitions(5)), ids=str)
    def test_in_span_of_dense_kernel(self, lam):
        rank = len(lam) + 1
        words, basis = raising_kernel(lam, rank)
        v = expand(highest_weight_vector(lam, rank))
        row = [v.terms.get(w, LaurentQ.zero()) for w in words]
        assert set(v.terms) <= set(words)
        assert len(ff_echelon(sparse(basis + [row]))[0]) == len(basis)
        # the support is as large as the reference vector's
        assert len(v.terms) == len(dense_highest_weight_vector(lam, rank).terms)

    @pytest.mark.parametrize("lam", list(all_partitions(4)), ids=str)
    def test_norms_match_dense_reference(self, lam, monkeypatch):
        rank = len(lam) + 1
        closed = mu_singular_vectors.__wrapped__(lam, rank)
        monkeypatch.setattr(weyl, "highest_weight_vector",
                            dense_highest_weight_vector)
        dense = mu_singular_vectors.__wrapped__(lam, rank)
        assert [sv.row for sv in closed] == [sv.row for sv in dense]
        assert [sv.norm for sv in closed] == [sv.norm for sv in dense]

    def test_equal_where_kernel_is_a_line(self):
        # only f^lam > 1 leaves the dense solver a choice of kernel vector
        lines = 0
        for lam in all_partitions(5):
            rank = len(lam) + 1
            if len(raising_kernel(lam, rank)[1]) == 1:
                lines += 1
                assert vec(expand(highest_weight_vector(lam, rank))) == \
                    vec(dense_highest_weight_vector(lam, rank))
        assert lines == 10

    @pytest.mark.parametrize("lam", list(all_partitions(6)), ids=str)
    def test_norms_match_flat_reference(self, lam):
        # the norms, ratios and normalized vectors of the solve on
        # V^{(x)(n+1)}: the per-column wedge constants cancel in all three
        rank = len(lam) + 1
        wedge = mu_singular_vectors.__wrapped__(lam, rank)
        flat, flat_ratios = flat_mu_singular_vectors(lam, rank)
        assert [sv.row for sv in wedge] == [sv.row for sv in flat]
        assert [sv.norm for sv in wedge] == [sv.norm for sv in flat]
        assert [normalization_ratio(sv, lam, rank) for sv in wedge] == \
            flat_ratios
        assert [sv.norm.to_text() for sv in wedge] == \
            [sv.norm.to_text() for sv in flat]
        for a, b, r in zip(wedge, flat, flat_ratios):
            assert vec(expand(normalized(a, lam, rank))) == vec(b.integral.scale(r))


def coordinate_rows(vectors):
    """The vectors' coordinates as sparse rows keyed by word."""
    return [dict(v.terms) for v in vectors]


class TestSpanningWords:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_one_word_per_orientation(self, k, d):
        words = interval_words(k, k + d)
        assert len(words) == len(set(words)) == 2 ** (d - 1)
        for w in words:
            assert sorted(w) == list(range(k, k + d))
        assert len({orientation(w) for w in words}) == 2 ** (d - 1)

    def test_empty_word(self):
        assert interval_words(3, 3) == [()]

    def test_lowered_matches_letter_by_letter(self):
        rank = 5
        gen = highest_weight_vector(Partition((2, 1)), rank)
        gen = TensorVector(4, rank, {w + (1,): c for w, c in gen.terms.items()})
        words = interval_words(1, 5)
        expected = {}
        for word in words:
            v = gen
            for letter in reversed(word):
                v = tensor_act("Y", letter, v)
            expected[word[::-1]] = v
        assert [vec(v) for v in _lowered(gen, words)] == \
            [vec(expected[r]) for r in sorted(expected)]

    @pytest.mark.parametrize("lam", [(), (1,), (2, 1), (1, 1, 1), (2, 2), (3, 1)],
                             ids=str)
    def test_same_rank_as_all_orderings(self, lam):
        lam = Partition(lam)
        rank = len(lam) + 1
        w_lam = highest_weight_vector(lam, rank)
        for k_j in addable_row_indices(lam, rank):
            fewer, every = [], []
            for k in range(1, k_j + 1):
                gen = TensorVector(lam.size + 1, rank,
                                   {w + (k,): c for w, c in w_lam.terms.items()})
                fewer += _lowered(gen, interval_words(k, k_j))
                every += _lowered(gen, words_with_counts(
                    [0] * (k - 1) + [1] * (k_j - k)))
            r = len(ff_echelon(coordinate_rows(fewer))[1])
            assert r == len(ff_echelon(coordinate_rows(every))[1])
            assert r == len(ff_echelon(coordinate_rows(fewer + every))[1])

    def test_all_orderings_collapse_onto_the_words(self):
        # words with the same orientations give the same vector
        rank = 5
        gen = key_vector((1, 2, 3, 4), rank)
        by_orientation = {}
        for word in permutations(range(1, 5)):
            (v,) = _lowered(gen, [word])
            by_orientation.setdefault(orientation(word), []).append(v)
        assert len(by_orientation) == 8
        for vs in by_orientation.values():
            assert all(vec(v) == vec(vs[0]) for v in vs)


class TestSingularVectors:
    def test_empty_partition(self):
        (sv,) = mu_singular_vectors(Partition(()), 1)
        assert sv.row == 1
        assert vec(normalized(sv, Partition(()), 1)) == vec(key_vector((1,), 1))
        assert sv.norm == QFrac(1)

    def test_single_box(self):
        svs = mu_singular_vectors(Partition((1,)), 2)
        assert [sv.row for sv in svs] == [1, 2]
        assert svs[0].norm == QFrac(1)
        assert svs[1].norm == QFrac(q_int(1), q_int(2))
        # triangular normalization pinned by the explicit vector
        v = normalized(svs[1], Partition((1,)), 2)
        two = QField(q_int(2))
        assert coeff(v, (1, 2)) == qf(LaurentQ.term(1)) / two
        assert coeff(v, (2, 1)) == -QField(1) / two

    def test_count_matches_addable_rows(self):
        for lam in all_partitions(4):
            rank = len(lam) + 1
            svs = mu_singular_vectors(lam, rank)
            assert [sv.row for sv in svs] == addable_row_indices(lam, rank)

    def test_first_norm_always_one(self):
        for lam in all_partitions(4):
            svs = mu_singular_vectors(lam, len(lam) + 1)
            assert svs[0].norm == QFrac(1)

    def test_vectors_are_singular(self):
        for lam in [(1,), (2,), (1, 1), (2, 1)]:
            p = Partition(lam)
            rank = len(p) + 1
            for sv in mu_singular_vectors(p, rank):
                for i in range(1, rank):
                    assert not tensor_act("X", i, normalized(sv, p, rank)).terms

    @pytest.mark.parametrize("lam", list(all_partitions(5)), ids=str)
    def test_expanded_vectors_are_singular(self, lam):
        rank = len(lam) + 1
        for sv in mu_singular_vectors(lam, rank):
            v = expand(sv.integral)
            assert v.n == lam.size + 1
            for i in range(1, rank):
                assert not tensor_act("X", i, sv.integral).terms
                assert not flat_tensor_act("X", i, v).terms

    def test_cache_bounded_and_reused_across_ell(self):
        # theorem61 at ell = 3 re-solves the 12 partitions of size <= 4 that
        # ell = 2 just solved; the bounded cache still holds all of them
        mu_singular_vectors.cache_clear()
        for ell in (2, 3):
            assert run_family("theorem61", RunConfig(ell=ell, max_size=4)).failed == 0
        info = mu_singular_vectors.cache_info()
        assert info.maxsize == 32
        assert (info.hits, info.misses) == (12, 12)


class TestSingularSpan:
    def test_counts_the_singular_space(self):
        # V(2, 1) occurs twice in V^{(x)3}: two singular vectors of its weight
        rank = 3
        words = [key_vector(w, rank)
                 for w in words_with_counts((2, 1, 0))]
        assert len(singular_vectors_in_span(words, rank)) == 2
        assert singular_vectors_in_span([word(1, 2)], 2) == []

    def test_dimension_guard_too_many(self, monkeypatch):
        # span every word of slot 1's weight: the whole V^{(x)2} weight
        # space, which also holds the singular vector of V(1, 1)
        real = weyl._lowered

        def padded(gen, words):
            out = real(gen, words)
            (wt,) = weights_of(out[0])
            return out + [key_vector(w, gen.rank)
                          for w in words_with_counts(wt)]

        monkeypatch.setattr(weyl, "_lowered", padded)
        with pytest.raises(EngineError, match="singular space dimension 2 != 1"):
            mu_singular_vectors.__wrapped__(Partition((2,)), 2)

    def test_dimension_guard_none(self, monkeypatch):
        monkeypatch.setattr(weyl, "good_words", lambda counts: [])
        with pytest.raises(EngineError, match="singular space dimension 0 != 1"):
            mu_singular_vectors.__wrapped__(Partition((1,)), 2)

    def test_degenerate_pairing_guard(self, monkeypatch):
        monkeypatch.setattr(weyl, "tensor_form", lambda x, y: LaurentQ.zero())
        with pytest.raises(EngineError, match="degenerate singular pairing"):
            mu_singular_vectors.__wrapped__(Partition((1,)), 2)

    @pytest.mark.parametrize("lam", list(all_partitions(5)), ids=str)
    def test_integral_is_primitive_and_singular(self, lam):
        rank = len(lam) + 1
        for sv in mu_singular_vectors(lam, rank):
            coords = dict(enumerate(sv.integral.terms.values()))
            assert all(type(c) is LaurentQ for c in coords.values())
            assert _strip_content(coords) == coords
            for i in range(1, rank):
                assert not tensor_act("X", i, sv.integral).terms


class TestSlotSolve:
    """The slot-by-slot solves against the one elimination over every slot
    that they replaced, and their guards."""

    def test_matches_one_solve_reference(self):
        boxes = 0
        for lam in all_partitions(8):
            rank = len(lam) + 1
            svs = mu_singular_vectors.__wrapped__(lam, rank)
            ref = reference_singular_vectors(lam, rank)
            assert [sv.row for sv in svs] == [row for row, _, _ in ref]
            for sv, (_, u, norm) in zip(svs, ref):
                assert sv.norm == norm, (lam, sv.row)
                assert unit_multiple(sv.integral, u), (lam, sv.row)
                boxes += 1
        assert boxes == 187

    @staticmethod
    def patched_marker_row(monkeypatch, change):
        """Run the oracle's eliminations with `change(row)` applied to the
        echelon row whose pivot is the marker; it returns None to drop it."""
        real = weyl.ff_echelon

        def echelon(rows):
            ech, piv = real(rows)
            out = []
            for row, p in zip(ech, piv):
                if p == (1,):
                    row = change(row)
                    if row is None:
                        continue
                    p = min(row)
                out.append((row, p))
            return [row for row, _ in out], [p for _, p in out]

        monkeypatch.setattr(weyl, "ff_echelon", echelon)

    def test_coordinate_pivot_guard(self, monkeypatch):
        # the solution row without its marker entry: a pivot in the
        # coordinate block, a singular vector of V(1) below (1)
        self.patched_marker_row(
            monkeypatch, lambda row: {c: e for c, e in row.items() if c != (1,)})
        with pytest.raises(EngineError, match="below its highest weight"):
            mu_singular_vectors.__wrapped__(Partition((1,)), 2)

    def test_missing_marker_guard(self, monkeypatch):
        self.patched_marker_row(monkeypatch, lambda row: None)
        with pytest.raises(EngineError, match="singular space dimension 0 != 1"):
            mu_singular_vectors.__wrapped__(Partition((1,)), 2)


def test_oracle_imports_nothing_it_is_checked_against():
    # theorem61 sets the oracle's norms against the Fock space and the Verma
    # modules; the oracle itself must not import them, nor the comparison
    tree = ast.parse(Path(weyl.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    parts = {part for name in names for part in name.split(".")}
    assert not parts & {"fock", "verma", "verify"}, sorted(names)


def echelon_mod_p(rows):
    """Row echelon form mod P61 of sparse rows (dicts from a sortable column
    key to a nonzero residue), the columns taken in key order: a list of
    (pivot key, row)."""
    rows = [dict(row) for row in rows if row]
    out = []
    while rows:
        piv = min(min(row) for row in rows)
        top = next(row for row in rows if piv in row)
        rows = [row for row in rows if row is not top]
        inv = pow(top[piv], -1, P61)
        for row in rows:
            f = row.get(piv, 0) * inv % P61
            if not f:
                continue
            for key, v in top.items():
                x = (row.get(key, 0) - f * v) % P61
                if x:
                    row[key] = x
                else:
                    row.pop(key, None)
        rows = [row for row in rows if row]
        out.append((piv, top))
    return out


def form_exponent(key):
    """The diagonal form (e, e) = q^{sum over factors S, s in S, of (1 - s)}."""
    return sum(1 - s for f in key for s in ((f,) if type(f) is int else f))


class TestOracleWitness:
    """Each theorem61 norm against the oracle's singular vector rebuilt at a
    random q mod P61: the same spanning rows, eliminated over the field, with
    no `ff_echelon`, `QFrac` or gcd."""

    @staticmethod
    def norm_mod_p(lam, rank, k_j, q):
        """(u, top)^2 / ((u, u)(w_lam, w_lam)) at q mod P61, u the one
        echelon row of [X_1 s | .. | X_{N-1} s | s] at q whose pivot lies past
        the raising block; None at a point where that count is not 1 or
        (u, u) vanishes."""
        (w_key,) = highest_weight_vector(lam, rank).terms
        rows = []
        for k in range(1, k_j + 1):
            gen = TensorVector(lam.size + 1, rank, {w_key + (k,): LaurentQ.one()})
            for s in _lowered(gen, good_words([0] * (k - 1) + [1] * (k_j - k))):
                row = {(1, w): laurent_mod_p(c, q) for w, c in s.terms.items()}
                for i in range(1, rank):
                    row.update(((0, i, w), laurent_mod_p(c, q))
                               for w, c in tensor_act("X", i, s).terms.items())
                rows.append({key: v for key, v in row.items() if v})
        singular = [row for piv, row in echelon_mod_p(rows) if piv[0] == 1]
        if len(singular) != 1:
            return None
        u = {key[1]: v for key, v in singular[0].items()}
        top = w_key + (k_j,)
        ut = u.get(top, 0) * pow(q, form_exponent(top), P61)
        uu = sum(v * v * pow(q, form_exponent(w), P61) for w, v in u.items())
        ww = pow(q, form_exponent(w_key), P61)
        if not uu % P61:
            return None
        return ut * ut * pow(uu * ww, -1, P61) % P61

    def test_norms_up_to_size_seven(self):
        rng = random.Random(P61 + 61)
        boxes = 0
        for lam in all_partitions(7):
            rank = len(lam) + 1
            for sv in mu_singular_vectors(lam, rank):
                while True:
                    q = rng.randrange(2, P61)
                    den = laurent_mod_p(sv.norm.den, q)
                    witness = self.norm_mod_p(lam, rank, sv.row, q)
                    if den and witness is not None:
                        break
                norm = laurent_mod_p(sv.norm.num, q) * pow(den, -1, P61) % P61
                assert witness == norm, (lam, sv.row)
                boxes += 1
        assert boxes == 120
