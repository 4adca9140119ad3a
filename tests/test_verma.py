import functools
import hashlib
import itertools
import random
import re
import sys

import pytest

from fockweyl import verify, verma
from fockweyl.errors import EngineError, PoleError
from fockweyl.linalg import field_det, symmetric_pivots
from fockweyl import multirat
from fockweyl.multirat import (MultiPoly, MultiRat, over_q_diff, sigma_shift,
                               unit_ratio)
from fockweyl.partitions import Partition
from fockweyl.ring import LaurentQ, QFrac, q_int, render_q_integers
from fockweyl.verma import (VermaElement, _jantzen_closed_parts,
                            det_product_identity, gram_matrix, hook_factors,
                            hook_ratio,
                            jantzen_closed, jantzen_engine, jantzen_valuation,
                            kostant_p, pair_words, shapovalov_det_closed,
                            shapovalov_pair, ywords)
from fockweyl.weights import (Weight, alpha, from_alpha_coords, good_words,
                              positive_roots, words_with_counts)

from conftest import (P61, QField, coeff, det_mod_p, eval_at_weight, eval_mod_p,
                      pivots_mod_p, q_rat, reference_power_match, unit_mod_p,
                      vec, vsub, z_poly, z_rat)


@functools.lru_cache(maxsize=None)
def cartan(rank, i, a=0):
    """(q^a z_i z_{i+1}^{-1} - q^{-a} z_i^{-1} z_{i+1}) / (q - q^{-1})."""
    num = (q_rat(rank, a) * z_rat(i, rank) * z_rat(i + 1, rank, -1)
           - q_rat(rank, -a) * z_rat(i, rank, -1) * z_rat(i + 1, rank))
    return num / (q_rat(rank) - q_rat(rank, -1))


def word_weight(word, shift):
    for i in word:
        shift = shift - alpha(i, shift.rank)
    return shift


# Reference for the integral pairing: the generator actions over MultiRat and
# the peel that paired words with them.

def act_l(i, e, inverse=False):
    """L_i on a weight-nu term is q^{(nu, eps_i)} z_i (its inverse if asked)."""
    p = -1 if inverse else 1
    out = VermaElement(e.shift, e.rank)
    for w, c in e.terms.items():
        a = word_weight(w, e.shift).coords[i - 1]
        mono = z_poly(i, e.rank, p).shifted((0,) * e.rank + (p * a,))
        out.add_term(w, c * MultiRat(mono, coprime=True))
    return out


def act_y(i, e):
    """Y_i prepends its letter to every word."""
    out = VermaElement(e.shift, e.rank)
    out.terms = {(i,) + w: c for w, c in e.terms.items()}
    return out


def act_x(i, e):
    """X_i through the commutation rule past each lowering letter."""
    out = VermaElement(e.shift, e.rank)
    for w, c in e.terms.items():
        for t, letter in enumerate(w):
            if letter == i:
                nu = word_weight(w[t + 1:], e.shift)
                a = nu.coords[i - 1] - nu.coords[i]
                out.add_term(w[:t] + w[t + 1:], c * cartan(e.rank, i, a))
    return out


def reference_pair(a, b):
    """Peel b's letters: Y_i moves across as L_i^{-1} L_{i+1} X_i on a."""
    total = MultiRat.zero(a.rank)
    for w, c in b.terms.items():
        e = a
        for letter in w:
            e = act_l(letter, act_l(letter + 1, act_x(letter, e)), inverse=True)
        total = total + c * coeff(e, ())
    return total


def q_diff(rank):
    return MultiPoly.q(rank) - MultiPoly.q(rank, -1)


class TestGeneratorActions:
    def test_x_on_y(self):
        v = VermaElement.highest(Weight.zero(2), 2)
        out = act_x(1, act_y(1, v))
        assert vec(out) == vec(VermaElement(Weight.zero(2), 2, {(): cartan(2, 1)}))

    def test_l_on_shifted_highest(self):
        v = VermaElement.highest(Weight.eps(1, 2), 2)
        out = act_l(1, v)
        assert vec(out) == vec(VermaElement(Weight.eps(1, 2), 2,
                                           {(): q_rat(2) * z_rat(1, 2)}))

    def test_x_other_index_kills(self):
        v = VermaElement.highest(Weight.zero(3), 3)
        assert not act_x(2, act_y(1, v)).terms

    def test_x_on_highest(self):
        v = VermaElement.highest(Weight.zero(2), 2)
        assert not act_x(1, v).terms

    def test_defining_commutator(self):
        # X_i Y_j - Y_j X_i acts as delta_ij times the Cartan factor on words
        rank = 3
        v = VermaElement.highest(Weight.zero(rank), rank)
        for word in [(), (1,), (2,), (1, 2), (2, 1), (1, 1)]:
            e = VermaElement.word(word, Weight.zero(rank), rank)
            for i in range(1, rank):
                for j in range(1, rank):
                    lhs = vsub(act_x(i, act_y(j, e)), act_y(j, act_x(i, e)))
                    if i != j:
                        assert not lhs.terms
                    else:
                        nu = Weight.zero(rank)
                        for t in word:
                            nu = nu - alpha(t, rank)
                        a = nu.coords[i - 1] - nu.coords[i]
                        assert vec(lhs) == vec(e.scale(cartan(rank, i, a)))


class TestShapovalovPair:
    def test_normalization(self):
        v = VermaElement.highest(Weight.zero(2), 2)
        assert shapovalov_pair(v, v) == MultiRat.one(2)

    def test_weight_orthogonality(self):
        v0 = VermaElement.highest(Weight.zero(2), 2)
        assert shapovalov_pair(act_y(1, v0), v0).is_zero

    def test_hand_value(self):
        v0 = VermaElement.highest(Weight.zero(2), 2)
        y = act_y(1, v0)
        expected = z_rat(1, 2, -1) * z_rat(2, 2) * cartan(2, 1)
        assert shapovalov_pair(y, y) == expected

    def test_symmetry_random_words(self):
        rng = random.Random(11)
        rank = 3
        mu = Weight.zero(rank)
        for _ in range(40):
            m = rng.randint(0, 4)
            w1 = tuple(rng.randint(1, rank - 1) for _ in range(m))
            w2 = tuple(rng.randint(1, rank - 1) for _ in range(m))
            a = VermaElement.word(w1, mu, rank)
            b = VermaElement.word(w2, mu, rank)
            assert shapovalov_pair(a, b) == shapovalov_pair(b, a)

    def test_orthogonality_exhaustive(self):
        rank = 3
        mu = Weight.zero(rank)
        words = [()]
        for m in (1, 2, 3):
            words += list(itertools.product((1, 2), repeat=m))
        for w1 in words:
            for w2 in words:
                nu1 = sum((alpha(i, rank) for i in w1), Weight.zero(rank))
                nu2 = sum((alpha(i, rank) for i in w2), Weight.zero(rank))
                if nu1 != nu2:
                    a = VermaElement.word(w1, mu, rank)
                    b = VermaElement.word(w2, mu, rank)
                    assert shapovalov_pair(a, b).is_zero


class TestIntegralPairing:
    @staticmethod
    def words_up_to(rank, height):
        return [w for m in range(height + 1)
                for w in itertools.product(range(1, rank), repeat=m)]

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_matches_reference_times_power(self, rank):
        words = self.words_up_to(rank, 3)
        shifts = (Weight.zero(rank), Weight.eps(1, rank),
                  Weight((2, 1) + (0,) * (rank - 2)))
        for mu in shifts:
            for wa in words:
                for wb in words:
                    p = pair_words(wa, wb, mu, rank)
                    if sorted(wa) != sorted(wb):
                        assert p.is_zero
                        continue
                    ref = reference_pair(VermaElement.word(wa, mu, rank),
                                         VermaElement.word(wb, mu, rank))
                    scale = MultiRat(q_diff(rank) ** len(wb), coprime=True)
                    assert MultiRat(p, coprime=True) == ref * scale

    @pytest.mark.parametrize("rank,height", [(3, 4), (4, 3)])
    def test_symmetric(self, rank, height):
        shifts = (Weight.zero(rank), Weight.eps(1, rank),
                  Weight((2, 1) + (0,) * (rank - 2)))
        for ac in itertools.product(range(height + 1), repeat=rank - 1):
            if not 0 < sum(ac) <= height:
                continue
            words = words_with_counts(ac)
            for mu in shifts:
                for t, wa in enumerate(words):
                    for wb in words[t + 1:]:
                        assert pair_words(wa, wb, mu, rank) \
                            == pair_words(wb, wa, mu, rank)

    def test_builds_no_multirat_and_no_gcd(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the integral pairing left the ring")

        monkeypatch.setattr(multirat, "poly_gcd_multi", forbidden)
        monkeypatch.setattr(MultiRat, "__init__", forbidden)
        rank = 4
        for wa in ywords(alpha(1, rank) * 2 + alpha(2, rank) + alpha(3, rank)):
            assert not pair_words(wa, (1, 2, 3, 1), Weight.eps(1, rank), rank).is_zero

    def test_shapovalov_pair_is_bilinear(self):
        rank, mu = 3, Weight.eps(1, 3)
        words = ywords(alpha(1, rank) + alpha(2, rank))
        c1 = z_rat(1, rank) + q_rat(rank)
        c2 = q_rat(rank, -2)
        a = VermaElement(mu, rank, {words[0]: c1, words[1]: c2})
        b = VermaElement(mu, rank, {words[1]: c1, (): c2})
        assert shapovalov_pair(a, b) == reference_pair(a, b)


class TestOverQDiff:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_matches_gcd_path(self, rank):
        rng = random.Random(100 + rank)
        qm, qp = MultiPoly.q(rank) - 1, MultiPoly.q(rank) + 1
        for _ in range(80):
            p = MultiPoly(rank, {
                tuple(rng.randint(-2, 2) for _ in range(rank + 1)):
                rng.randint(-3, 3) for _ in range(rng.randint(1, 4))})
            mono = tuple(rng.randint(-2, 2) for _ in range(rank + 1))
            p = (p * qm ** rng.randint(0, 3) * qp ** rng.randint(0, 3)).shifted(mono)
            k = rng.randint(0, 4)
            assert repr(over_q_diff(p, k)) == repr(MultiRat(p, q_diff(rank) ** k))

    def test_calls_no_gcd(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("gcd called")

        p = (MultiPoly.q(2) - 1) ** 2 * (z_poly(1, 2) + MultiPoly.q(2, 3))
        with monkeypatch.context() as m:
            m.setattr(multirat, "poly_gcd_multi", forbidden)
            x = over_q_diff(p, 3)
        assert x * MultiRat(q_diff(2) ** 3, coprime=True) == p


def in_q_plus(w):
    """Whether w is in Q+: in the root lattice, no simple-root coordinate
    negative."""
    ac = w.alpha_coords()
    return ac is not None and all(c >= 0 for c in ac)


class TestKostant:
    def test_zero(self):
        assert kostant_p(Weight.zero(3)) == 1

    def test_two_ways(self):
        assert kostant_p(-(alpha(1, 3) + alpha(2, 3))) == 2

    def test_positive_weight(self):
        assert kostant_p(Weight.eps(1, 3) - Weight.eps(2, 3)) == 0

    def brute_force(self, gamma):
        """Independent oracle: enumerate all positive-root multisets, one
        recursion level per root, as `_kostant_cached` once did (so it runs
        out of stack from rank 32)."""
        n = gamma.rank
        target = -gamma
        if not in_q_plus(target):
            return 0
        roots = positive_roots(n)
        count = 0

        def rec(idx, remaining):
            nonlocal count
            if all(c == 0 for c in remaining.coords):
                count += 1
                return
            if idx == len(roots):
                return
            r = roots[idx]
            cur = remaining
            while True:
                rec(idx + 1, cur)
                cur = cur - r
                if not in_q_plus(cur):
                    break
        rec(0, target)
        return count

    @pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
    def test_against_enumeration(self, rank):
        # every -nu with nu in Q+ of height <= 5, and its opposite
        for ac in itertools.product(range(6), repeat=rank - 1):
            if sum(ac) <= 5:
                nu = from_alpha_coords(ac, rank)
                assert kostant_p(-nu) == self.brute_force(-nu), ac
                assert kostant_p(nu) == self.brute_force(nu) == (nu == -nu)
        eps = Weight.eps(1, rank)
        assert kostant_p(eps) == self.brute_force(eps) == 0

    def test_rank_32(self):
        # 496 positive roots: a count that recurses per root runs out of
        # stack here
        rank = 32
        a1, a2 = alpha(1, rank), alpha(2, rank)
        assert kostant_p(Weight.zero(rank)) == 1
        assert kostant_p(-a1) == kostant_p(-2 * a1) == 1
        assert kostant_p(-(a1 + a2)) == 2
        assert kostant_p(-(alpha(30, rank) + alpha(31, rank))) == 2
        assert kostant_p(a1) == 0


class TestGramMatrix:
    def test_single_word(self):
        gm = gram_matrix(Weight.zero(2), alpha(1, 2), 2)
        assert gm.words == [(1,)]
        assert gm.independent == [0]
        v0 = VermaElement.highest(Weight.zero(2), 2)
        y = act_y(1, v0)
        assert gm.det == shapovalov_pair(y, y)

    def test_dependent_words(self):
        nu = alpha(1, 3) + alpha(2, 3)
        gm = gram_matrix(Weight.zero(3), nu, 3)
        assert gm.words == [(1, 2), (2, 1)]
        assert len(gm.independent) == 2 == kostant_p(-nu)

    def test_serre_dependency_detected(self):
        nu = 2 * alpha(1, 3) + alpha(2, 3)
        gm = gram_matrix(Weight.zero(3), nu, 3)
        assert len(gm.words) == 3
        assert len(gm.independent) == 2 == kostant_p(-nu)

    def test_shift_equivariance(self):
        nu = alpha(1, 2) * 2
        mu = Weight.eps(1, 2)
        g0 = gram_matrix(Weight.zero(2), nu, 2)
        gk = gram_matrix(mu, nu, 2)
        assert gk.det == sigma_shift(g0.det, mu)

    def test_prop52_detects_a_wrong_shifted_entry(self, monkeypatch):
        # (2, 1, 1) is outside the good block that gram_matrix pairs, so only
        # prop52's own all-word check can see the wrong entries
        assert (2, 1, 1) not in good_words((2, 1))
        real = verify.pair_words

        def perturbed(wa, wb, shift, rank):
            p = real(wa, wb, shift, rank)
            if shift != Weight.zero(rank) and (2, 1, 1) in (wa, wb):
                p = p + MultiPoly.one(rank)
            return p

        spec = ("prop52", 3, (2, -1, -1), 1)
        assert verify.run_case(spec).passed
        monkeypatch.setattr(verify, "pair_words", perturbed)
        case = verify.run_case(spec)
        assert not case.passed
        assert case.detail == {"matched_words": True, "entries_exact": False,
                               "det_exact": True}

    @staticmethod
    def full_pairings(gm):
        """The integral pairings of all of gm's words, from `pair_words`."""
        return [[pair_words(a, b, gm.shift, gm.rank) for b in gm.words]
                for a in gm.words]

    @staticmethod
    def greedy_basis(entries, rank):
        """Reference: grow the basis in word order, keeping a word when the
        principal minor on the chosen words stays nonzero."""
        chosen, det = [], MultiRat.one(rank)
        for cand in range(len(entries)):
            trial = chosen + [cand]
            d = field_det([[entries[r][c] for c in trial] for r in trial])
            if not d.is_zero:
                chosen, det = trial, d
        return chosen, det

    @pytest.mark.parametrize("rank,height", [(3, 3), (4, 2)])
    def test_pivot_basis_matches_greedy(self, rank, height):
        for ac in itertools.product(range(height + 1), repeat=rank - 1):
            if not 0 < sum(ac) <= height:
                continue
            for mu in (Weight.zero(rank), Weight.eps(1, rank)):
                gm = gram_matrix(mu, from_alpha_coords(ac, rank), rank)
                entries = [[over_q_diff(p, gm.height) for p in row]
                           for row in self.full_pairings(gm)]
                chosen, det = self.greedy_basis(entries, rank)
                assert gm.independent == chosen
                assert repr(gm.det) == repr(det)

    @pytest.mark.parametrize("rank,height", [(3, 5), (4, 4), (5, 3)])
    def test_good_words_are_the_full_elimination_basis(self, rank, height):
        for ac in itertools.product(range(height + 1), repeat=rank - 1):
            if not 0 < sum(ac) <= height:
                continue
            gm = gram_matrix(Weight.zero(rank), from_alpha_coords(ac, rank),
                             rank)
            # the upper triangle as sparse rows of its nonzero entries
            chosen, pivots = symmetric_pivots(
                [{c: MultiRat(p, coprime=True) for c, p in enumerate(row)
                  if c >= r and not p.is_zero}
                 for r, row in enumerate(self.full_pairings(gm))])
            assert chosen == gm.independent
            assert pivots == gm.pivots

    def test_pairs_only_good_words(self, monkeypatch):
        real, calls = verma.pair_words, []

        def recorded(wa, wb, shift, rank):
            calls.append((wa, wb))
            return real(wa, wb, shift, rank)

        monkeypatch.setattr(verma, "pair_words", recorded)
        rank = 4
        for ac in itertools.product(range(5), repeat=rank - 1):
            if not 0 < sum(ac) <= 4:
                continue
            calls.clear()
            gram_matrix(Weight.zero(rank), from_alpha_coords(ac, rank), rank)
            good = good_words(ac)
            assert all(a in good and b in good for a, b in calls)
            assert len(calls) == len(good) * (len(good) + 1) // 2

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError, match="rank 2"):
            gram_matrix(Weight.zero(2), Weight((1, -1, 0)), 2)
        with pytest.raises(ValueError, match="rank 3"):
            gram_matrix(Weight.zero(3), alpha(1, 2), 3)

    def test_good_word_count_guard(self, monkeypatch):
        monkeypatch.setattr(verma, "good_words", lambda counts: [(1, 2)])
        with pytest.raises(EngineError, match="good word count 1 != "
                                              "multiplicity 2"):
            gram_matrix(Weight.zero(3), alpha(1, 3) + alpha(2, 3), 3)

    def test_zero_pivot_guard(self, monkeypatch):
        real = verma.symmetric_pivots

        def dropped(matrix):
            chosen, pivots = real(matrix)
            return chosen[1:], pivots[1:]

        monkeypatch.setattr(verma, "symmetric_pivots", dropped)
        with pytest.raises(EngineError, match="zero pivot on the good words"):
            gram_matrix(Weight.zero(3), alpha(1, 3) + alpha(2, 3), 3)

    def test_pivots_are_minor_ratios(self):
        nu = 2 * alpha(1, 3) + alpha(2, 3)
        gm = gram_matrix(Weight.zero(3), nu, 3)
        full = self.full_pairings(gm)
        minors = [MultiRat.one(3)]
        for t in range(1, len(gm.independent) + 1):
            block = gm.independent[:t]
            minors.append(field_det([[MultiRat(full[r][c]) for c in block]
                                     for r in block]))
        assert gm.pivots == [minors[t + 1] / minors[t]
                             for t in range(len(gm.pivots))]

    def test_non_integral_pivot_raises(self, monkeypatch):
        real = verma.symmetric_pivots

        def bad(matrix):
            chosen, pivots = real(matrix)
            rank = pivots[0].rank
            # D_1 = pivot_1 would have the denominator z_1 + q
            return chosen, [pivots[0] / (z_rat(1, rank) + q_rat(rank))
                            ] + pivots[1:]

        monkeypatch.setattr(verma, "symmetric_pivots", bad)
        gm = gram_matrix(Weight.zero(3), alpha(1, 3) + alpha(2, 3), 3)
        with pytest.raises(EngineError, match="not integral"):
            gm.det

    def test_isotropic_gram_raises(self, monkeypatch):
        # pairings [[0, 1], [1, 0]] on the words (1, 2), (2, 1)
        def hyperbolic(wa, wb, shift, rank):
            return MultiPoly.zero(rank) if wa == wb else MultiPoly.one(rank)

        monkeypatch.setattr(verma, "pair_words", hyperbolic)
        with pytest.raises(EngineError, match="isotropic"):
            gram_matrix(Weight.zero(3), alpha(1, 3) + alpha(2, 3), 3)


class TestEvaluationWitness:
    @staticmethod
    def witness(gm, point):
        """det of the good-word pairings / (q - q^{-1})^{mP} mod P61, with m
        the height and P the number of good words; None at a point where a
        pivot or q - q^{-1} vanishes."""
        good = [gm.words[i] for i in gm.independent]
        d = det_mod_p([[eval_mod_p(pair_words(a, b, gm.shift, gm.rank), point)
                        for b in good] for a in good])
        q = point[-1]
        qd = (q - pow(q, -1, P61)) % P61
        if d is None or qd == 0:
            return None
        return d * pow(qd, -gm.height * len(good), P61) % P61

    @staticmethod
    def closed_mod_p(nu, rank, point):
        """`shapovalov_det_closed`(-nu) at `point` mod P61, factor by factor:
        each `_jantzen_factor`(i, j, rank, m) to the power
        kostant_p(-nu + m (eps_i - eps_j)), with no expanded product."""
        value = 1
        for i in range(1, rank + 1):
            for j in range(i + 1, rank + 1):
                step = Weight.eps(i, rank) - Weight.eps(j, rank)
                m = 1
                while (p := kostant_p(-nu + m * step)):
                    f = eval_mod_p(verma._jantzen_factor(i, j, rank, m), point)
                    value = value * pow(f, p, P61) % P61
                    m += 1
        return value

    def check_cases(self, cases, rng):
        """gm.det, and the closed form times the reported unit, against the
        good-word determinant mod P61 at a random point."""
        for rank, nu in cases:
            gm = gram_matrix(Weight.zero(rank), Weight(nu), rank)
            parts = unit_ratio(gm.det, shapovalov_det_closed(-Weight(nu), rank))
            assert parts is not None, (rank, nu)
            while True:
                point = [rng.randrange(1, P61) for _ in range(rank + 1)]
                expected = self.witness(gm, point)
                den = eval_mod_p(gm.det.den, point)
                if expected is not None and den:
                    break
            value = eval_mod_p(gm.det.num, point) * pow(den, -1, P61) % P61
            assert value == expected, (rank, nu)
            closed = self.closed_mod_p(Weight(nu), rank, point)
            assert closed * unit_mod_p(parts, point) % P61 == expected, (rank, nu)

    def test_gram_determinants(self):
        # the theorem51 cases of the benchmark's verma workload
        cases = [case for rank, h in ((3, 4), (4, 3))
                 for case in verify.FAMILIES["theorem51"].cases(
                     verify.RunConfig(n_rank=rank, max_size=h))]
        assert len(cases) == 33
        self.check_cases(cases, random.Random(P61))

    def test_gram_determinants_rank3_h6(self):
        cases = verify.FAMILIES["theorem51"].cases(
            verify.RunConfig(n_rank=3, max_size=6))
        assert len(cases) == 27
        self.check_cases(cases, random.Random(P61 + 1))

    @staticmethod
    def engine_pivots_mod_p(k, rank, point):
        """`jantzen_engine`'s elimination mirrored mod P61: the same vectors
        (slot j, word, monomial), paired through `pair_words` at `point` with
        slot factors q^{1-j} (q - q^{-1})^{j-1}; the top is the last index.
        Returns the top's index and `pivots_mod_p`'s answer."""
        zero_w, eps_k = Weight.zero(rank), Weight.eps(k, rank)
        z, q = point[:-1], point[-1]
        vectors = []
        for i in range(rank - 1, 0, -1):
            for j in range(k, 0, -1):
                nu = Weight.eps(j, rank) - eps_k - alpha(i, rank)
                qe = nu.coords[i] - nu.coords[i - 1] + (j == i) - (j == i + 1)
                mono = z[i - 1] * pow(z[i], -1, P61) * pow(q, qe, P61) % P61
                for w in good_words(nu.alpha_coords()):
                    y = [(j, (i,) + w, mono)]
                    if j == i:
                        y.append((i + 1, w, q))
                    vectors.append(y)
        vectors.append([(k, (), 1)])
        qd = (q - pow(q, -1, P61)) % P61
        slot = {j: pow(q, 1 - j, P61) * pow(qd, j - 1, P61) % P61
                for j in range(1, k + 1)}
        paired = {}

        def pair(a, b):
            key = (a, b) if a <= b else (b, a)
            if key not in paired:
                paired[key] = eval_mod_p(pair_words(a, b, zero_w, rank), point)
            return paired[key]

        m = [[sum(slot[j] * pair(a, b) * e * f for j, a, e in y
                  for i, b, f in x if i == j) % P61 for x in vectors]
             for y in vectors]
        return len(vectors) - 1, pivots_mod_p(m)

    # lemma63: ranks 3 and 4 at every k, rank 5 at k <= 4
    @pytest.mark.parametrize("rank,k", [(r, k) for r in (3, 4, 5)
                                        for k in range(1, min(r, 4) + 1)])
    def test_jantzen_engine(self, rank, k):
        """The engine's last pivot over (q - q^{-1})^{k-1} mod P61 against
        the closed factors, evaluated one by one, times the reported unit."""
        parts = unit_ratio(jantzen_engine(k, rank), jantzen_closed(k, rank))
        assert parts is not None
        rng = random.Random(P61 * rank + k)
        while True:
            point = [rng.randrange(1, P61) for _ in range(rank + 1)]
            q = point[-1]
            qd = (q - pow(q, -1, P61)) % P61
            num = den = 1
            for f, g in verma._jantzen_closed_factors(k, rank):
                num = num * eval_mod_p(f, point) % P61
                den = den * eval_mod_p(g, point) % P61
            top, elim = self.engine_pivots_mod_p(k, rank, point)
            if elim is not None and qd and den:
                break
        chosen, pivots = elim
        assert chosen[-1] == top
        value = pivots[-1] * pow(qd, 1 - k, P61) % P61
        closed = num * pow(den, -1, P61) % P61
        assert value == closed * unit_mod_p(parts, point) % P61, (rank, k)


    def test_prop52_shift(self):
        """prop52 on its 24 cases: the witness at shift eps_k and (z, q) is
        the shift-0 witness at (q^{mu_i} z_i, q), and so is gk.det at
        (z, q)."""
        cases = verify.FAMILIES["prop52"].cases(verify.RunConfig())
        assert len(cases) == 24
        rng = random.Random(P61 + 52)
        for rank, nu, k in cases:
            mu = Weight.eps(k, rank)
            g0 = gram_matrix(Weight.zero(rank), Weight(nu), rank)
            gk = gram_matrix(mu, Weight(nu), rank)
            while True:
                point = [rng.randrange(1, P61) for _ in range(rank + 1)]
                q = point[-1]
                moved = [x * pow(q, m, P61) % P61
                         for x, m in zip(point, mu.coords)] + [q]
                expected = self.witness(gk, point)
                shifted = self.witness(g0, moved)
                den = eval_mod_p(gk.det.den, point)
                if expected is not None and shifted is not None and den:
                    break
            assert shifted == expected, (rank, nu, k)
            value = eval_mod_p(gk.det.num, point) * pow(den, -1, P61) % P61
            assert value == expected, (rank, nu, k)

    def product_sides_mod_p(self, eta, used, point):
        """Both sides of lemma62's identity at `point` mod P61; None at a
        point where a pivot, a witness or q - q^{-1} vanishes."""
        rank, q = eta.rank, point[-1]
        qd = (q - pow(q, -1, P61)) % P61
        lhs = rhs = 1
        for kk in used:
            w = eta - Weight.eps(kk, rank)
            top, elim = self.engine_pivots_mod_p(kk, rank, point)
            gm = gram_matrix(Weight.zero(rank), -w, rank)
            moved = point[:]
            moved[kk - 1] = point[kk - 1] * q % P61
            det, shifted = self.witness(gm, point), self.witness(gm, moved)
            if elim is None or not qd or det is None or not shifted:
                return None
            chosen, pivots = elim
            assert chosen[-1] == top
            s_k = pivots[-1] * pow(qd, 1 - kk, P61) % P61
            lhs = lhs * pow(s_k, kostant_p(w), P61) % P61
            rhs = rhs * det * pow(shifted, -1, P61) % P61
        return lhs, rhs

    # lemma62: eta = eps_k at ranks 2-4, every k
    @pytest.mark.parametrize("rank,k", [(r, k) for r in (2, 3, 4)
                                        for k in range(1, r + 1)])
    def test_det_product_identity(self, rank, k):
        """The product of S_k'^p, S_k' the engine mirror's last pivot over
        (q - q^{-1})^{k'-1} and p = kostant_p(eps_k - eps_k'), against the
        product of the witness ratios det(z) / det(q^{eps_k'} z), times the
        reported unit."""
        eta = Weight.eps(k, rank)
        parts, used = det_product_identity(eta, rank)
        assert parts is not None
        rng = random.Random(P61 * rank + k + 62)
        while True:
            point = [rng.randrange(1, P61) for _ in range(rank + 1)]
            sides = self.product_sides_mod_p(eta, used, point)
            if sides is not None:
                break
        lhs, rhs = sides
        assert lhs == rhs * unit_mod_p(parts, point) % P61, (rank, k)


class TestClosedDeterminant:
    def test_first_weight_space(self):
        det = shapovalov_det_closed(-alpha(1, 2), 2)
        assert det == z_rat(1, 2) * z_rat(2, 2, -1) \
            - z_rat(1, 2, -1) * z_rat(2, 2)

    def test_outside_root_cone(self):
        assert shapovalov_det_closed(Weight.eps(1, 2), 2) == MultiRat.one(2)

    @staticmethod
    def all_roots(eta, rank):
        """`shapovalov_det_closed` before it skipped roots: every positive
        root eps_i - eps_j, each m while the Kostant count stays nonzero."""
        out = MultiPoly.one(rank)
        for i in range(1, rank + 1):
            for j in range(i + 1, rank + 1):
                step = Weight.eps(i, rank) - Weight.eps(j, rank)
                m = 1
                while p := kostant_p(eta + m * step):
                    out = out * verma._jantzen_factor(i, j, rank, m) ** p
                    m += 1
        return MultiRat(out, coprime=True)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_matches_every_root(self, rank):
        for nu in itertools.product(range(5), repeat=rank - 1):
            if sum(nu) <= 4:
                eta = -from_alpha_coords(nu, rank)
                assert shapovalov_det_closed(eta, rank) == self.all_roots(eta, rank)

    @pytest.mark.parametrize("eta", [(1, -1), (1, 0), (0, 1, -2), (2, -1, 0)])
    def test_outside_minus_q_plus_is_one(self, eta):
        eta = Weight(eta)
        det = shapovalov_det_closed(eta, eta.rank)
        assert det == 1 and repr(det) == repr(self.all_roots(eta, eta.rank))

    def test_unit_ratio_with_engine(self):
        gm = gram_matrix(Weight.zero(2), alpha(1, 2), 2)
        closed = shapovalov_det_closed(-alpha(1, 2), 2)
        parts = unit_ratio(gm.det, closed)
        assert parts is not None
        # the unit is z1^-1 z2 / (q - q^-1)
        assert parts.z_exps == (-1, 1)
        value = gm.det / closed
        expected = z_rat(1, 2, -1) * z_rat(2, 2) \
            / (q_rat(2) - q_rat(2, -1))
        assert value == expected


class TestJantzenClosed:
    def test_first_is_one(self):
        assert jantzen_closed(1, 3) == MultiRat.one(3)

    def test_rank_two_value(self):
        s2 = jantzen_closed(2, 2)
        f = z_rat(1, 2) * z_rat(2, 2, -1) \
            - z_rat(1, 2, -1) * z_rat(2, 2)
        assert s2 == f / sigma_shift(f, Weight.eps(1, 2))

    def test_eval_small(self):
        # z -> (q, 1) gives 1/[2]; z -> (q^2, 1) gives [2]/[3]
        s2 = jantzen_closed(2, 2)
        assert eval_at_weight(s2, Weight((1, 0))) == QFrac(q_int(1), q_int(2))
        assert eval_at_weight(s2, Weight((2, 0))) == QFrac(q_int(2), q_int(3))

    def test_factor_evaluation_matches_product(self):
        """Evaluating factor by factor gives the QFrac that evaluating the
        expanded product gives, on every (lam, k) of prop64 at |lam| <= 6."""
        from fockweyl.partitions import all_partitions
        cases = 0
        for lam in all_partitions(6):
            for k in range(1, len(lam) + 2):
                rank = max(len(lam) + 1, k)
                at = Weight(tuple(lam.part(r) for r in range(1, rank + 1)))
                got = QFrac(*_jantzen_closed_parts(lam, k))
                want = eval_at_weight(jantzen_closed(k, rank), at)
                assert got == want
                assert repr(got) == repr(want)
                cases += 1
        assert cases == 107

    def test_factor_evaluation_pole(self, monkeypatch):
        # no partition is a pole; a denominator factor that vanishes must
        # raise as eval_at_weight does
        rank = 2
        vanishing = z_poly(1, rank) - z_poly(2, rank)
        monkeypatch.setattr(verma, "_jantzen_closed_factors", lambda k, rank: [
            (MultiPoly.one(rank), vanishing)])
        with pytest.raises(PoleError, match=r"evaluation pole at"):
            _jantzen_closed_parts(Partition(()), 2)


class TestJantzenEngine:
    def test_first_is_one(self):
        assert jantzen_engine(1, 3) == MultiRat.one(3)

    @pytest.mark.parametrize("rank,k", [(2, 2), (3, 2), (3, 3)])
    def test_matches_closed_form(self, rank, k):
        parts = unit_ratio(jantzen_engine(k, rank), jantzen_closed(k, rank))
        assert parts is not None and parts.is_q_power("signed")

    # canonical reprs, the same at every rank >= k; k=4 by sha256
    EXPECTED_REPR = {
        1: "MultiRat('1')",
        2: "MultiRat('(-z2^2*q + z1^2*q)/(-z2^2 + z1^2*q^2)')",
        3: "MultiRat('(z3^4*q^2 - z2^2*z3^2*q^2 - z1^2*z3^2*q^4 "
           "+ z1^2*z2^2*q^4)/(z3^4 - z2^2*z3^2*q^2 - z1^2*z3^2*q^4 "
           "+ z1^2*z2^2*q^6)')",
        4: "24d1c1d9cbc4fdfb6083414e78fb654a3897ddf9c29aeb6de3e9c064fb7d9d2c",
    }

    @pytest.mark.parametrize("rank,k", [(r, k) for r in (2, 3, 4, 5)
                                        for k in range(1, min(r, 4) + 1)])
    def test_exact_value(self, rank, k):
        text = repr(jantzen_engine(k, rank))
        if k == 4:
            text = hashlib.sha256(text.encode()).hexdigest()
        assert text == self.EXPECTED_REPR[k]

    @staticmethod
    def patch_engine_pivots(monkeypatch, change):
        """Make the engine's `symmetric_pivots` call return change(chosen,
        pivots); the calls from `gram_matrix` pass through unchanged.  Both
        eliminate through `_gram_pivots`, so the caller to test is one frame
        further up."""
        real = verma.symmetric_pivots

        def patched(matrix):
            result = real(matrix)
            if sys._getframe(2).f_code is jantzen_engine.__code__:
                return change(*result)
            return result

        monkeypatch.setattr(verma, "symmetric_pivots", patched)

    def test_extra_kernel_vector_raises(self, monkeypatch):
        # one spanning row fewer leaves a singular space of dimension 2
        self.patch_engine_pivots(
            monkeypatch, lambda chosen, pivots: (chosen[1:], pivots[1:]))
        with pytest.raises(EngineError, match="dimension 2"):
            jantzen_engine(3, 3)

    def test_kernel_without_top_raises(self, monkeypatch):
        self.patch_engine_pivots(
            monkeypatch, lambda chosen, pivots: (chosen[:-1], pivots[:-1]))
        with pytest.raises(EngineError,
                           match="no singular vector pairs with the top term"):
            jantzen_engine(3, 3)

    @pytest.mark.parametrize("k,own", [(3, 5), (4, 20), (5, 98)])
    def test_pairs_each_word_pair_once(self, monkeypatch, k, own):
        """The engine pairs each unordered word pair once per call, beside
        the calls of its slot Gram matrices."""
        real, calls = verma.pair_words, []

        def recorded(wa, wb, shift, rank):
            calls.append((wa, wb))
            return real(wa, wb, shift, rank)

        monkeypatch.setattr(verma, "pair_words", recorded)
        for j in range(1, k + 1):
            gram_matrix(Weight.zero(k), Weight.eps(j, k) - Weight.eps(k, k), k)
        slot_calls = len(calls)
        calls.clear()
        jantzen_engine(k, k)
        mine = calls[slot_calls:]  # the slot Grams are built first
        assert len(mine) == own
        assert len({tuple(sorted(c)) for c in mine}) == own

    def test_isotropic_elimination_raises(self, monkeypatch):
        def isotropic(chosen, pivots):
            raise ValueError("zero pivot with a nonzero row at index 0: "
                             "the form is isotropic")

        self.patch_engine_pivots(monkeypatch, isotropic)
        with pytest.raises(EngineError,
                           match=r"isotropic \(k=3, rank=4\)"):
            jantzen_engine(3, 4)


def per_factor_hook_ratio(lam, k):
    """`hook_ratio` as a product of one `QFrac` per q-integer factor."""
    from fockweyl.partitions import (Box, addable_boxes, content, is_addable,
                                     removable_boxes)
    new_box = Box(k, lam.part(k) + 1)
    if not is_addable(lam, new_box):
        return QFrac(0)
    c0 = content(new_box)
    num = QField(1)
    den = QField(1)
    for b in removable_boxes(lam):
        if b.row < k:
            num = num * QFrac(q_int(content(b) - c0))
    for b in addable_boxes(lam):
        if b.row < k:
            den = den * QFrac(q_int(content(b) - c0))
    return num / den


def typed_terms(p):
    return {e: (type(v), v) for e, v in p.terms.items()}


class TestHookRatio:
    def test_matches_per_factor_product(self):
        from fockweyl.partitions import all_partitions
        for lam in all_partitions(8):
            for k in range(1, len(lam) + 3):
                got, want = hook_ratio(lam, k), per_factor_hook_ratio(lam, k)
                assert typed_terms(got.num) == typed_terms(want.num)
                assert typed_terms(got.den) == typed_terms(want.den)

    def test_rendering_rebuilds_the_value(self):
        # the rendered q-integers of every hook ratio with |lam| <= 8
        # multiply back to hook_ratio
        from fockweyl.partitions import all_partitions

        def product(text):
            out = LaurentQ.one()
            for n in re.findall(r"\[(\d+)\]", text or ""):
                out = out * q_int(int(n))
            return out

        shape = re.compile(r"(-?)((?:\[\d+\])+|1)(?:/\(((?:\[\d+\])+)\))?")
        for lam in all_partitions(8):
            for k in range(1, len(lam) + 3):
                factors = hook_factors(lam, k)
                if factors is None:
                    assert hook_ratio(lam, k).is_zero
                    continue
                text = render_q_integers(*factors)
                sign, up, down = shape.fullmatch(text).groups()
                num = product(up)
                assert QFrac(-num if sign else num, product(down)) \
                    == hook_ratio(lam, k), (lam, k, text)

    def test_figure_partition(self):
        lam = Partition((10, 10, 8, 8, 8, 6, 6, 6, 6, 1, 1))
        expected = QFrac(q_int(2) * q_int(7), q_int(5) * q_int(9))
        assert hook_ratio(lam, 6) == expected

    def test_empty(self):
        assert hook_ratio(Partition(()), 1) == QFrac(1)

    def test_single(self):
        assert hook_ratio(Partition((1,)), 2) == QFrac(q_int(1), q_int(2))

    def test_zero_marker(self):
        assert hook_ratio(Partition((1, 1)), 2).is_zero

    def test_matches_closed_evaluation(self):
        from fockweyl.partitions import all_partitions
        for lam in all_partitions(6):
            for k in range(1, len(lam) + 2):
                hook = hook_ratio(lam, k)
                closed = QFrac(*_jantzen_closed_parts(lam, k))
                if hook.is_zero:
                    assert closed.is_zero
                else:
                    assert reference_power_match(closed, hook, "signed")


class TestJantzenValuation:
    @pytest.mark.parametrize("ell", [1, 0, -3])
    @pytest.mark.parametrize("k", [2, 5])
    def test_rejects_small_ell_on_every_row(self, k, ell):
        # row 2 of (1,) is addable, row 5 is not
        with pytest.raises(ValueError, match="ell must be >= 2"):
            jantzen_valuation(Partition((1,)), k, ell)

    def test_examples(self):
        assert jantzen_valuation(Partition((1,)), 2, 2) == -1
        assert jantzen_valuation(Partition((1,)), 1, 2) == 0
        assert jantzen_valuation(Partition((1, 1)), 2, 2) is None

    def test_huge_ell_matches_ell_11(self):
        # Phi_22 and Phi_2000000000 divide no hook ratio of |lam| <= 6
        from fockweyl.partitions import all_partitions
        for lam in all_partitions(6):
            for k in range(1, len(lam) + 2):
                assert jantzen_valuation(lam, k, 10 ** 9) == \
                    jantzen_valuation(lam, k, 11), (lam, k)

    def test_matches_n_left_everywhere(self):
        from fockweyl.partitions import all_partitions, Box, n_left, is_addable
        for lam in all_partitions(8):
            for ell in (2, 3, 4):
                for k in range(1, len(lam) + 2):
                    val = jantzen_valuation(lam, k, ell)
                    b = Box(k, lam.part(k) + 1)
                    if is_addable(lam, b):
                        assert val == n_left(lam, b, ell)
                    else:
                        assert val is None


class TestDetProductIdentity:
    def test_rank_two(self):
        parts, _ = det_product_identity(Weight.eps(2, 2), 2)
        assert parts is not None and parts.is_q_power("signed")

    def test_trivial_eta(self):
        # eta - eps_k never lands in the negative root cone
        parts, ks_used = det_product_identity(Weight((3, 0)), 2)
        assert parts is not None and parts.is_q_power("signed")
        assert ks_used == []

    def test_rank_three(self):
        parts, _ = det_product_identity(Weight.eps(3, 3), 3)
        assert parts is not None and parts.is_q_power("signed")


class TestYWords:
    def test_empty_degree(self):
        assert ywords(Weight.zero(3)) == [()]

    def test_mixed(self):
        nu = alpha(1, 3) + alpha(2, 3)
        assert ywords(nu) == [(1, 2), (2, 1)]

    def test_not_in_cone(self):
        assert ywords(Weight.eps(1, 3) - Weight.eps(2, 3) * 2) == []

    @pytest.mark.parametrize("counts", [(0,), (2, 1), (1, 0, 2), (2, 2, 1),
                                        (0, 1, 1, 1)])
    def test_words_with_counts_lexicographic(self, counts):
        letters = [i + 1 for i, c in enumerate(counts) for _ in range(c)]
        assert words_with_counts(counts) == sorted(
            set(itertools.permutations(letters)))


def interval_runs(word):
    """The word cut into its maximal runs b, b - 1, .., a."""
    runs = []
    for letter in word:
        if runs and runs[-1][-1] == letter + 1:
            runs[-1].append(letter)
        else:
            runs.append([letter])
    return runs


class TestGoodWords:
    @pytest.mark.parametrize("ac", [
        ac for rank in range(2, 7)
        for ac in itertools.product(range(6), repeat=rank - 1) if sum(ac) <= 5],
        ids=str)
    def test_basis_of_intervals(self, ac):
        words = good_words(ac)
        assert len(words) == kostant_p(-from_alpha_coords(ac, len(ac) + 1))
        assert words == sorted(set(words))
        for w in words:
            assert [w.count(i + 1) for i in range(len(ac))] == list(ac)
            keys = [[-a for a in run] for run in interval_runs(w)]
            assert keys == sorted(keys, reverse=True)

    def test_examples(self):
        assert good_words((0, 0)) == [()]
        assert good_words((1, 1)) == [(1, 2), (2, 1)]
        assert good_words((2, 1)) == [(1, 1, 2), (1, 2, 1)]
        assert good_words((1, 1, 1)) == [(1, 2, 3), (1, 3, 2), (2, 1, 3),
                                          (3, 2, 1)]

    def test_outside_q_plus(self):
        assert good_words((1, -1)) == []
