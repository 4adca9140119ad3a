import functools
import math
import operator
import random
from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import given

from fockweyl import ring
from fockweyl.multirat import MultiPoly, _divexact
from fockweyl.ring import (LaurentQ, QFrac, _coef, cyclotomic, poly_gcd,
                           power_match, q_int, render_q_integers,
                           val_cyclotomic)

from conftest import laurents, nonzero_laurents, z_poly


def totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def L(d, var="q"):
    return LaurentQ(d, var)


class TestCyclotomic:
    def test_base_case(self):
        assert cyclotomic(1) == L({1: 1, 0: -1})

    def test_phi4(self):
        # oracle: divide q^4 - 1 by phi1 * phi2 by hand
        q4m1 = L({4: 1, 0: -1})
        phi1 = L({1: 1, 0: -1})
        phi2 = L({1: 1, 0: 1})
        expected = q4m1.exact_div(phi1 * phi2)
        assert expected == L({2: 1, 0: 1})
        assert cyclotomic(4) == expected

    def test_phi6(self):
        q6m1 = L({6: 1, 0: -1})
        phi123 = cyclotomic(1) * cyclotomic(2) * cyclotomic(3)
        expected = q6m1.exact_div(phi123)
        assert expected == L({2: 1, 1: -1, 0: 1})
        assert cyclotomic(6) == expected

    @pytest.mark.parametrize("d", range(1, 25))
    def test_product_recovers_power(self, d):
        prod = LaurentQ.one()
        for e in range(1, d + 1):
            if d % e == 0:
                prod = prod * cyclotomic(e)
        assert prod == L({d: 1, 0: -1})

    def test_bad_index(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


class TestQInt:
    def test_one(self):
        assert q_int(1) == LaurentQ.one()

    def test_two(self):
        assert q_int(2) == L({1: 1, -1: 1})

    def test_minus_three(self):
        assert q_int(-3) == L({2: -1, 0: -1, -2: -1})

    def test_zero(self):
        assert q_int(0).is_zero

    @given(laurents())
    def test_antisymmetry_consistent(self, p):
        # [n] * (q - q^-1) == q^n - q^-n, checked for a few n
        for n in (1, 2, 3, 5, 8):
            lhs = q_int(n) * L({1: 1, -1: -1})
            assert lhs == L({n: 1, -n: -1})


class TestValuation:
    def test_bracket_two(self):
        assert val_cyclotomic(QFrac(q_int(2)), 4) == 1

    def test_inverse(self):
        assert val_cyclotomic(QFrac(LaurentQ.one(), q_int(2)), 4) == -1

    def test_bracket_three(self):
        assert val_cyclotomic(QFrac(q_int(3)), 4) == 0

    def test_zero_raises(self):
        with pytest.raises(ValueError, match="valuation of zero"):
            val_cyclotomic(QFrac(0), 4)
        with pytest.raises(ValueError, match="valuation of zero"):
            val_cyclotomic(LaurentQ.zero(), 4)

    @given(nonzero_laurents(), nonzero_laurents())
    def test_multiplicative(self, a, b):
        for d in (4, 6):
            assert val_cyclotomic(a * b, d) == \
                val_cyclotomic(a, d) + val_cyclotomic(b, d)

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
    def test_divisibility_law(self, ell):
        for x in range(1, 41):
            expected = 1 if x % ell == 0 else 0
            assert val_cyclotomic(q_int(x), 2 * ell) == expected

    @staticmethod
    def uncut(x, d):
        """`val_cyclotomic` before its span cutoff: Phi_d tried on every
        numerator and denominator."""
        phi = cyclotomic(d)

        def mult(p):
            m = 0
            while (quo := p.try_exact_div(phi)) is not None:
                p, m = quo, m + 1
            return m

        return mult(x.num) - mult(x.den)

    def test_cutoff_matches_the_uncut_loop(self):
        rng = random.Random(2011)
        factors = [q_int(n) for n in range(1, 13)] + \
            [cyclotomic(e) for e in range(1, 25)]
        values = []
        for _ in range(12):
            num, den = (functools.reduce(operator.mul, rng.sample(factors, 3))
                        for _ in "nd")
            values.append(QFrac(num.shift(rng.randint(-3, 3)), den))
        for d in range(1, 61):
            for x in values:
                assert val_cyclotomic(x, d) == self.uncut(x, d), (x, d)
                assert val_cyclotomic(x.num, d) == self.uncut(QFrac(x.num), d)

    @pytest.mark.parametrize("d", range(1, 61))
    def test_phi_d_counts_itself(self, d):
        phi = cyclotomic(d)
        assert phi.degree() - phi.low_degree() == totient(d)
        assert val_cyclotomic(phi.shift(-2), d) == 1
        assert val_cyclotomic(QFrac(phi * phi, q_int(d + 1)), d) == 2

    def test_index_below_one_raises(self):
        for d in (0, -4):
            with pytest.raises(ValueError, match="cyclotomic index"):
                val_cyclotomic(q_int(3), d)


class TestLaurentRing:
    @given(laurents(), laurents(), laurents())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * LaurentQ.one() == a
        assert (a - a).is_zero

    @given(laurents())
    def test_normalization_idempotent(self, a):
        assert LaurentQ(a.c, a.var) == a

    def test_no_zero_coeffs_stored(self):
        p = L({3: 0, 1: 2})
        assert 3 not in p.c

    def test_var_mismatch(self):
        with pytest.raises(ValueError):
            L({0: 1}, "q") + L({0: 1}, "v")

    def test_pow(self):
        assert q_int(2) ** 2 == L({2: 1, 0: 2, -2: 1})

    def test_exact_div_laurent(self):
        a = L({2: 1, -2: -1})  # q^2 - q^-2
        b = L({1: 1, -1: 1})   # [2]
        assert a.exact_div(b) == L({1: 1, -1: -1})
        assert a.try_exact_div(L({1: 1, 0: 3})) is None

    def test_gcd(self):
        a = q_int(2) * q_int(3)
        b = q_int(2) * L({1: 1, 0: -1})
        g = poly_gcd(a, b)
        # gcd is the monic shift of [2]: q^2 + 1 up to normalization
        assert g == L({2: Fraction(1), 0: Fraction(1)})


class TestText:
    def test_spec_format(self):
        assert L({-1: 1, 3: 2}).to_text() == "q^-1 + 2*q^3"

    def test_negative_and_units(self):
        assert L({0: 1, 2: -1}).to_text() == "1 - q^2"
        assert L({1: 1}).to_text() == "q"
        assert LaurentQ.zero().to_text() == "0"
        assert L({2: Fraction(3, 2)}).to_text() == "3/2*q^2"


class TestQFrac:
    def test_reduction(self):
        x = QFrac(q_int(2) * q_int(3), q_int(2))
        assert x == QFrac(q_int(3))

    @given(laurents(), nonzero_laurents())
    def test_unit_denominator_fast_path(self, p, d):
        x = QFrac(p)
        assert repr(x) == repr(QFrac(p, LaurentQ.one()))
        # same canonical form as the gcd path
        y = QFrac(p * d, d)
        assert x == y and repr(x) == repr(y)
        assert x.den == LaurentQ.one()
        assert all(type(v) is int or v.denominator > 1 for v in x.num.c.values())

    @given(laurents(), nonzero_laurents(), st.integers(-5, 5))
    def test_shift_is_q_power_product(self, a, b, k):
        x = QFrac(a, b)
        y = x.shift(k)
        assert y == QFrac(a * LaurentQ.term(k), b)
        assert y.den == x.den

    def test_signed_power(self):
        one = (LaurentQ.one(), LaurentQ.one())
        assert power_match((L({3: -1}), LaurentQ.one()), one, "signed")
        assert not power_match((L({3: -1}), LaurentQ.one()), one, "strict")
        assert not power_match((q_int(2), LaurentQ.one()), one, "signed")

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QFrac(LaurentQ.one(), LaurentQ.zero())


class TestQIntegerRendering:
    def test_figure_style(self):
        assert render_q_integers([7, 2], [9, 5]) == "[2][7]/([5][9])"

    def test_single(self):
        assert render_q_integers([6], []) == "[6]"
        assert render_q_integers([], [6]) == "1/([6])"
        assert render_q_integers([], []) == "1"

    def test_sign_prefix(self):
        # [-n] = -[n]: each negative n flips the sign
        assert render_q_integers([-2], [3]) == "-[2]/([3])"
        assert render_q_integers([2], [-3]) == "-[2]/([3])"
        assert render_q_integers([-2, 4], [-3]) == "[2][4]/([3])"

    def test_cancellation(self):
        # equal |n| above and below cancel, and [1] = [-1] * -1 is dropped
        assert render_q_integers([2, 4, 4, 1], [4, 5]) == "[2][4]/([5])"
        assert render_q_integers([3, -1], [3]) == "-1"
        assert render_q_integers([2], [2, 2]) == "1/([2])"


def fraction_divmod(a, b):
    """Division with remainder with every quotient coefficient a Fraction."""
    db = max(b)
    r = dict(a)
    quo = {}
    while r and max(r) >= db:
        dr = max(r)
        t = _coef(Fraction(r[dr]) / Fraction(b[db]))
        quo[dr - db] = t
        for e, v in b.items():
            s = r.get(e + dr - db, 0) - t * v
            if s:
                r[e + dr - db] = _coef(s)
            else:
                r.pop(e + dr - db, None)
    return quo, r


small_ints = st.integers(-30, 30).filter(bool)
int_polys = st.dictionaries(st.integers(0, 6), small_ints, max_size=5)
rat_polys = st.dictionaries(
    st.integers(0, 6),
    st.one_of(small_ints, st.fractions(-9, 9, max_denominator=6).filter(bool)),
    max_size=5)


def typed(d):
    return {e: (type(v), v) for e, v in d.items()}


def quotient(a, b):
    """`_quotient` on ordinary polynomial dicts, as typed terms (None when
    inexact)."""
    quo = LaurentQ(a)._quotient(LaurentQ(b))
    return None if quo is None else typed(quo.terms)


def expected_quotient(a, b):
    quo, rem = fraction_divmod(a, b)
    return None if rem else typed(quo)


class TestPolyDivmod:
    """`_Poly._quotient`, the one long division, against a division that
    builds every quotient coefficient as a Fraction."""

    @given(int_polys, int_polys.filter(bool), int_polys)
    def test_integer_dicts(self, c, b, r):
        # a = b c + r: the quotient is exact (and integral) when r is empty
        prod = dict(r)
        for e1, v1 in b.items():
            for e2, v2 in c.items():
                prod[e1 + e2] = prod.get(e1 + e2, 0) + v1 * v2
        a = {e: v for e, v in prod.items() if v}
        assert quotient(a, b) == expected_quotient(a, b)
        # try_exact_div divides in the Laurent ring, which is the ordinary
        # division once both lowest exponents are 0
        if a:
            la = LaurentQ(a).shift(-min(a))
            lb = LaurentQ(b).shift(-min(b))
            got = la.try_exact_div(lb)
            assert (got if got is None else typed(got.terms)) \
                == expected_quotient(la.terms, lb.terms)

    @given(rat_polys, rat_polys.filter(bool))
    def test_rational_dicts(self, a, b):
        a = {e: _coef(v) for e, v in a.items()}
        b = {e: _coef(v) for e, v in b.items()}
        assert quotient(a, b) == expected_quotient(a, b)

    def test_exact_integer_quotient_has_no_fraction(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("Fraction built on integer data")

        # (2q^3 + 2q^2 - 3q - 3) / (2q + 2) = q^2 - 3/2 is not integral,
        # (2q^3 + 2q^2 - 3q - 3) / (q + 1) = 2q^2 - 3 is
        a = {0: -3, 1: -3, 2: 2, 3: 2}
        assert quotient(a, {0: 2, 1: 2}) == typed({0: Fraction(-3, 2), 2: 1})
        z1, q1 = z_poly(1, 1), MultiPoly.q(1)
        f, g = z1 * z1 * 2 - q1 * 3, z1 + q1
        monkeypatch.setattr(ring, "Fraction", no_fraction)
        assert quotient(a, {0: 1, 1: 1}) == typed({0: -3, 2: 2})
        assert quotient({0: 5, 2: 3}, {1: 1}) is None
        assert typed(L(a).shift(-2).try_exact_div(L({4: 1, 5: 1})).terms) \
            == typed({-6: -3, -4: 2})
        assert typed(_divexact(f * g, g).terms) == typed(f.terms)


int_coeffs = st.integers(-9, 9).filter(bool)
rat_coeffs = st.one_of(int_coeffs,
                       st.fractions(-4, 4, max_denominator=3).filter(bool))


def laurent_polys(coeffs, min_terms=0):
    return st.dictionaries(st.integers(-4, 4), coeffs, min_size=min_terms,
                           max_size=4).map(LaurentQ)


def ordinary_multipolys(coeffs, min_terms=0):
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    return st.dictionaries(exps, coeffs, min_size=min_terms,
                           max_size=4).map(lambda d: MultiPoly(2, d))


def total_degree(p):
    return max(sum(e) for e in p.terms)


class TestExactDivision:
    """(f g) / g == f for both polynomial types, with f's coefficient types;
    a nonzero remainder gives None (`try_exact_div`, `_quotient`) or
    ArithmeticError (`exact_div`, `_divexact`)."""

    @pytest.mark.parametrize("coeffs", [int_coeffs, rat_coeffs],
                             ids=["int", "fraction"])
    @given(data=st.data())
    def test_laurent(self, coeffs, data):
        f = data.draw(laurent_polys(coeffs))
        g = data.draw(laurent_polys(coeffs, min_terms=1))
        # the quotient's coefficients are f's, int or Fraction alike
        assert typed((f * g).try_exact_div(g).terms) == typed(f.terms)
        assert (f * g).exact_div(g) == f
        span = g.degree() - g.low_degree()
        if span:
            # a nonzero multiple of g spans at least span exponents, so g
            # does not divide r, nor f g + r
            r = LaurentQ(data.draw(st.dictionaries(
                st.integers(0, span - 1), coeffs, min_size=1, max_size=4)))
            assert (f * g + r).try_exact_div(g) is None
            with pytest.raises(ArithmeticError):
                (f * g + r).exact_div(g)

    @pytest.mark.parametrize("coeffs", [int_coeffs, rat_coeffs],
                             ids=["int", "fraction"])
    @given(data=st.data())
    def test_multipoly(self, coeffs, data):
        f = data.draw(ordinary_multipolys(coeffs))
        g = data.draw(ordinary_multipolys(coeffs, min_terms=1))
        assert typed((f * g)._quotient(g).terms) == typed(f.terms)
        assert typed(_divexact(f * g, g).terms) == typed(f.terms)
        deg = total_degree(g)
        if deg:
            # ordinary polynomials: a nonzero multiple of g has total degree
            # at least deg g
            exps = st.tuples(*[st.integers(0, deg - 1)] * 3).filter(
                lambda e: sum(e) < deg)
            r = MultiPoly(2, data.draw(st.dictionaries(
                exps, coeffs, min_size=1, max_size=4)))
            assert (f * g + r)._quotient(g) is None
            with pytest.raises(ArithmeticError):
                _divexact(f * g + r, g)


def fraction_path(num, den):
    """QFrac's canonical (num, den) terms with the division by the
    denominator's leading coefficient always done through Fraction."""
    g = poly_gcd(num, den)
    n, d = num.exact_div(g), den.exact_div(g)
    shift = d.low_degree()
    lead = Fraction(d.leading_coeff())
    return ({e - shift: _coef(v / lead) for e, v in n.terms.items()},
            {e - shift: _coef(v / lead) for e, v in d.terms.items()})


class TestQFracUnitLead:
    @given(int_polys.filter(bool), int_polys.filter(bool), st.integers(-3, 3),
           st.sampled_from([1, -1]))
    def test_integer_data(self, a, b, k, top):
        # a denominator with leading coefficient +-1 before the gcd
        b = dict(b)
        b[max(b) + 1] = top
        num, den = L(a).shift(k), L(b)
        x = QFrac(num, den)
        assert (typed(x.num.terms), typed(x.den.terms)) == \
            tuple(map(typed, fraction_path(num, den)))

    @given(rat_polys.filter(bool), rat_polys.filter(bool))
    def test_rational_data(self, a, b):
        num = L({e: _coef(v) for e, v in a.items()})
        den = L({e: _coef(v) for e, v in b.items()})
        x = QFrac(num, den)
        assert (typed(x.num.terms), typed(x.den.terms)) == \
            tuple(map(typed, fraction_path(num, den)))

    def test_unit_lead_builds_no_fraction(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("Fraction built for a leading coefficient of +-1")

        monkeypatch.setattr(ring, "Fraction", no_fraction)
        # 1 / (1 - q): the leading coefficient -1 is divided out by negation
        x = QFrac(L({0: 1}), L({0: 1, 1: -1}))
        assert (x.num.terms, x.den.terms) == ({0: -1}, {0: -1, 1: 1})
        # (q^2 + q) / (q^3 + q^2) = q^{-1}: the shift moves the numerator
        y = QFrac(L({1: 1, 2: 1}), L({2: 1, 3: 1}))
        assert (y.num.terms, y.den.terms) == ({-1: 1}, {0: 1})
