import random
from fractions import Fraction
from math import gcd

import pytest
import hypothesis.strategies as st
from hypothesis import given

from fockweyl.errors import PoleError
from fockweyl.multirat import (MultiPoly, MultiRat, UnitParts, _divexact,
                               poly_gcd_multi, sigma_shift, unit_ratio)
import fockweyl.ring as ring
from fockweyl.ring import (LaurentQ, QFrac, _coef, _prem, _subresultant_last,
                           poly_gcd, q_int)
from fockweyl.verify import TOLERANCES, RunConfig, enumerate_cases, run_case
from fockweyl.weights import Weight

from conftest import (eval_at_weight, laurents, multipolys, multirats,
                      nonzero_laurents, q_rat, reference_power_match, weights,
                      z_poly, z_rat)


def z(i, rank=2, p=1):
    return z_rat(i, rank, p)


def q(rank=2, p=1):
    return q_rat(rank, p)


class TestMultiPolyGcd:
    def test_difference_of_squares(self):
        rank = 2
        z1 = z_poly(1, rank)
        z2 = z_poly(2, rank)
        f = z1 * z1 - z2 * z2
        g = z1 - z2
        d = poly_gcd_multi(f, g)
        assert d == z1 - z2

    def test_fraction_reduces(self):
        rank = 2
        z1 = z_poly(1, rank)
        z2 = z_poly(2, rank)
        r = MultiRat(z1 * z1 - z2 * z2, z1 - z2)
        assert r == MultiRat(z1 + z2)

    @given(multipolys(), multipolys())
    def test_gcd_divides(self, f, g):
        if f.is_zero and g.is_zero:
            return
        from fockweyl.multirat import _divexact, _strip_monomial
        f0 = f if f.is_zero else _strip_monomial(f)[0]
        g0 = g if g.is_zero else _strip_monomial(g)[0]
        d = poly_gcd_multi(f0, g0)
        for p in (f0, g0):
            if not p.is_zero:
                _divexact(p, d)  # raises if not divisible

    def test_subresultant_fallback_agrees(self):
        import random
        from fockweyl.multirat import (_gcd_subresultant, _heugcd,
                                       _strip_monomial)
        rng = random.Random(21)
        rank = 2
        checked = 0
        while checked < 50:
            def rnd():
                terms = {tuple(rng.randint(0, 2) for _ in range(rank + 1)):
                         rng.randint(-3, 3) for _ in range(3)}
                return MultiPoly(rank, terms)
            common, f, g = rnd(), rnd(), rnd()
            if common.is_zero or f.is_zero or g.is_zero:
                continue
            f0 = _strip_monomial(common * f)[0].int_primitive()
            g0 = _strip_monomial(common * g)[0].int_primitive()
            sub = _gcd_subresultant(f0, g0)
            heu = _heugcd(f0, g0)
            if heu is not None:
                # the raw heuristic may undershoot; it must still divide
                from fockweyl.multirat import _divexact
                _divexact(sub, heu.int_primitive())
            # the public entry certifies and repairs the heuristic answer
            assert poly_gcd_multi(f0, g0) == sub
            checked += 1

    def test_subresultant_inner_main_variable(self):
        # z2 has the smallest degree, so the sequence runs in the inner
        # variable at index 1 of (z1, z2, z3, q), and its powers must go back
        # into that slot; z1 + q is content in z2
        from fockweyl.multirat import _gcd_subresultant, _main_var
        rank = 3
        z1, z2, z3 = (z_poly(i, rank) for i in (1, 2, 3))
        qq = MultiPoly.q(rank)
        h = (z1 * z1 * z2 + qq ** 3 + z3 * z3) * (z1 + qq)
        f = h * (z1 * z1 * z2 + z3 ** 3 + 2)
        g = h * (z2 + qq * qq * z1 ** 3 + z3 * z3)
        assert _main_var(f, g) == 1
        assert _gcd_subresultant(f, g) == h
        assert _gcd_subresultant(g, f) == h

    def test_laurent_input_rejected(self):
        rank = 2
        z1, z2 = z_poly(1, rank), z_poly(2, rank)
        qq = MultiPoly.q(rank)
        h = z1 + z2 * qq
        f = (z_poly(1, rank, -1) + qq) * h
        g = (z2 + qq * qq) * h
        for args in ((f, g), (g, f), (MultiPoly.zero(rank), f)):
            with pytest.raises(ValueError, match="ordinary polynomials"):
                poly_gcd_multi(*args)


def gcd_univar_q(f, g, var):
    """The bridge `poly_gcd_multi` once took for input in the one variable
    `var`: the univariate `ring.poly_gcd`, which drops monomial factors."""
    a = LaurentQ({e[var]: v for e, v in f.terms.items()})
    b = LaurentQ({e[var]: v for e, v in g.terms.items()})
    d = poly_gcd(a, b)
    nv = f.rank + 1
    return f._like({tuple(k if i == var else 0 for i in range(nv)): v
                    for k, v in d.terms.items()})


class TestOneVariableInput:
    """Input in q alone or in one z_i alone takes the same route as any
    other input, and both the heuristic and the subresultant fallback agree
    with the univariate gcd."""

    RANK = 3

    def pairs(self, seed, var, count=40):
        """f, g in the variable `var` only, sharing a planted factor."""
        rng = random.Random(seed)

        def rnd(terms):
            while True:
                p = MultiPoly(self.RANK, {
                    tuple(rng.randint(0, 4) if i == var else 0
                          for i in range(self.RANK + 1)): rng.randint(-9, 9)
                    for _ in range(terms)})
                if not p.is_zero:
                    return p

        for _ in range(count):
            h = rnd(rng.randint(1, 3))
            yield rnd(rng.randint(1, 4)) * h, rnd(rng.randint(1, 4)) * h

    @pytest.mark.parametrize("var", range(RANK + 1))
    def test_matches_univariate_bridge(self, var):
        from fockweyl.multirat import _gcd_subresultant
        fallback = 0
        for f, g in self.pairs(90 + var, var):
            common = tuple(map(min, f.min_exps(), g.min_exps()))
            ref = gcd_univar_q(f, g, var).shifted(common)
            assert poly_gcd_multi(f, g) == ref
            strip = tuple(-m for m in common)
            f0 = f.shifted(strip).int_primitive()
            g0 = g.shifted(strip).int_primitive()
            if len(f0.terms) > 1 and len(g0.terms) > 1:
                assert _gcd_subresultant(f0, g0).shifted(common) == ref
                fallback += 1
        assert fallback > 0


def prem_strict(a, b):
    """The strict pseudo-remainder over `MultiPoly` coefficients that
    `_subresultant_last` once used: lc(b)^(deg a - deg b + 1) * a mod b."""
    da, db = max(a), max(b)
    lb = b[db]
    r = dict(a)
    n = da - db + 1
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        n -= 1
        nr = {}
        for e, v in r.items():
            if e == dr:
                continue
            nr[e] = v * lb
        for e, v in b.items():
            if e == db:
                continue
            e2 = e + dr - db
            s = nr.get(e2, MultiPoly.zero(lb.rank)) - v * lr
            if s.is_zero:
                nr.pop(e2, None)
            else:
                nr[e2] = s
        r = nr
    if r and n > 0:
        scale = lb ** n
        r = {e: v * scale for e, v in r.items()}
    return r


class TestPseudoRemainder:
    """`ring._prem` with its missing power lb^n put back is the strict
    pseudo-remainder, over int and `MultiPoly` coefficients."""

    @staticmethod
    def pairs(rng, coef, count=80):
        """Sparse a, b with deg a >= deg b, so that reductions skip degrees."""
        for _ in range(count):
            db = rng.randint(0, 3)
            da = db + rng.randint(0, 4)
            b = {e: coef() for e in rng.sample(range(db), rng.randint(0, db))}
            a = {e: coef() for e in rng.sample(range(da), rng.randint(0, da))}
            b[db] = coef()
            a[da] = coef()
            yield a, b

    def check(self, pairs, lift):
        skipped = 0
        for a, b in pairs:
            r, n = _prem(a, b)
            lb = b[max(b)]
            strict = prem_strict({e: lift(v) for e, v in a.items()},
                                 {e: lift(v) for e, v in b.items()})
            assert {e: lift(v * lb ** n) for e, v in r.items()} == strict
            skipped += n > 0
        assert skipped > 0

    def test_int_coefficients(self):
        rng = random.Random(61)
        self.check(self.pairs(rng, lambda: rng.choice((-3, -2, -1, 1, 2, 3))),
                   lambda v: MultiPoly.const(1, v))

    def test_multipoly_coefficients(self):
        rng = random.Random(62)

        def coef():
            while True:
                p = MultiPoly(1, {(rng.randint(0, 1), rng.randint(0, 1)):
                                  rng.randint(-2, 2) for _ in range(2)})
                if not p.is_zero:
                    return p

        self.check(self.pairs(rng, coef), lambda v: v)


def primitive_prs_gcd(a, b):
    """`ring.poly_gcd` as it was before it ran the subresultant sequence: a
    primitive pseudo-remainder sequence over Z, each remainder divided by
    its integer content."""
    a._check(b)
    if a.is_zero or b.is_zero:
        p = b if a.is_zero else a
        return p if p.is_zero else p.shift(-p.low_degree()).int_primitive()
    ra = a.shift(-a.low_degree()).int_primitive().terms
    rb = b.shift(-b.low_degree()).int_primitive().terms
    if max(ra) < max(rb):
        ra, rb = rb, ra
    while rb:
        r = _prem(ra, rb)[0]
        g = gcd(*r.values())
        ra, rb = rb, {e: v // g for e, v in r.items()} if g > 1 else r
    return a._like(ra).int_primitive()


@st.composite
def planted_pairs(draw):
    """f h and g h in one tagged variable, f or g possibly zero, each factor
    a product of q-integers and a polynomial in the variable or in its
    square: their exponents step by 2, and so do the remainders' degrees."""
    var = draw(st.sampled_from("qv"))
    step = draw(st.sampled_from((1, 2)))

    def factor(polys):
        p = draw(polys)
        p = p._like({step * e: v for e, v in p.terms.items()})
        for n in draw(st.lists(st.integers(2, 7), max_size=3)):
            p = p * q_int(n, var)
        return p

    h = factor(nonzero_laurents(var))
    return factor(laurents(var)) * h, factor(laurents(var)) * h


def q_integer_pairs(seed, count=60):
    """Seeded f h, g h in q, each factor a product of q-integers and a
    polynomial in q^2 with leading coefficient other than +-1."""
    rng = random.Random(seed)

    def rnd():
        p = LaurentQ({2 * rng.randint(-2, 2): rng.choice((-3, -2, 1, 2, 5))
                      for _ in range(rng.randint(1, 3))})
        p = p + LaurentQ.term(max(p.terms) + 2, rng.choice((-2, 3)))
        for _ in range(rng.randint(0, 2)):
            p = p * q_int(rng.randint(2, 8))
        return p

    for _ in range(count):
        h = rnd()
        yield rnd() * h, rnd() * h


class TestSharedRemainderSequence:
    """`ring.poly_gcd`, now the subresultant sequence `_subresultant_last`
    shared with the multivariate fallback, against the primitive sequence it
    replaced, and the sequence over int coefficients against the same
    sequence over constant `MultiPoly` coefficients."""

    @given(planted_pairs())
    def test_matches_primitive_sequence(self, pair):
        a, b = pair
        ours = poly_gcd(a, b)
        assert ours.terms == primitive_prs_gcd(a, b).terms
        assert ours.var == a.var
        assert all(type(v) is int for v in ours.terms.values())

    def test_degree_gaps_of_two(self, monkeypatch):
        drops = []
        prem = ring._prem

        def recorded(a, b):
            drops.append(max(a) - max(b))
            return prem(a, b)

        monkeypatch.setattr(ring, "_prem", recorded)
        for a, b in q_integer_pairs(26):
            assert poly_gcd(a, b) == primitive_prs_gcd(a, b)
        assert 2 in drops

    def test_int_matches_constant_multipoly(self):
        def lift(x):
            return {e: MultiPoly.const(1, v) for e, v in x.items()}

        # the pairs of test_degree_gaps_of_two
        for a, b in q_integer_pairs(26):
            ra = a.shift(-a.low_degree()).terms
            rb = b.shift(-b.low_degree()).terms
            assert lift(_subresultant_last(ra, rb)) == \
                _subresultant_last(lift(ra), lift(rb))


class TestSubresultantFallbackEndToEnd:
    """With `_heugcd` refusing every input, every gcd runs the subresultant
    fallback, and the verification records must not change.  No benchmark
    workload reaches the fallback, so this is its end-to-end check."""

    SPECS = (enumerate_cases("theorem51", RunConfig(n_rank=3, max_size=5))
             + enumerate_cases("lemma62", RunConfig())
             + [("lemma63", 4, k) for k in range(1, 5)])

    def test_records_unchanged(self, monkeypatch):
        import fockweyl.multirat as mr
        want = [run_case(spec).to_json() for spec in self.SPECS]
        subresultant = mr._gcd_subresultant
        calls = []

        def counted(f, g):
            calls.append(1)
            return subresultant(f, g)

        monkeypatch.setattr(mr, "_heugcd", lambda *args: None)
        monkeypatch.setattr(mr, "_gcd_subresultant", counted)
        assert [run_case(spec).to_json() for spec in self.SPECS] == want
        assert calls


class TestExactHeuristic:
    """`_heugcd` returns the exact gcd in Z[vars], integer content and
    monomials included, and `poly_gcd_multi` needs no certification."""

    @staticmethod
    def random_poly(rng, rank, terms):
        while True:
            p = MultiPoly(rank, {
                tuple(rng.randint(0, 2) for _ in range(rank + 1)):
                    rng.randint(-1000, 1000) for _ in range(terms)})
            if not p.is_zero:
                return p

    def pairs(self, seed, count=150):
        """f, g with a common factor carrying integer content and, every
        other time, a z1 monomial."""
        rng = random.Random(seed)
        for i in range(count):
            rank = rng.randint(1, 3)
            h = self.random_poly(rng, rank, rng.randint(1, 3)) * rng.randint(1, 12)
            h = h.shifted((i % 2,) + (0,) * rank)
            yield (self.random_poly(rng, rank, rng.randint(1, 4)) * h,
                   self.random_poly(rng, rank, rng.randint(1, 4)) * h)

    @staticmethod
    def reference(f, g):
        """The subresultant gcd, run as `poly_gcd_multi` runs it: on the
        primitive parts with the common monomial split off."""
        from fockweyl.multirat import _gcd_subresultant
        common = tuple(map(min, f.min_exps(), g.min_exps()))
        strip = tuple(-m for m in common)
        f0 = f.shifted(strip).int_primitive()
        g0 = g.shifted(strip).int_primitive()
        return _gcd_subresultant(f0, g0).shifted(common)

    def test_integer_content_factor_kept(self):
        # z1 + 1 evaluates to an integer; the gcd must not drop it
        from fockweyl.multirat import _heugcd
        rank = 2
        z1, z2 = z_poly(1, rank), z_poly(2, rank)
        qq = MultiPoly.q(rank)
        f = (z1 + 1) * (z1 + z2 + qq * qq)
        g = (z1 + 1) * (z2 * z2 + qq + 1)
        assert _heugcd(f, g).int_primitive() == z1 + 1

    def test_content_and_monomial_kept(self):
        from fockweyl.multirat import _heugcd
        rank = 2
        z1, z2 = z_poly(1, rank), z_poly(2, rank)
        qq = MultiPoly.q(rank)
        f = (z1 * 6) * (z1 + z2 + qq * qq)
        g = (z1 * 4) * (z2 * z2 + qq + 1)
        assert _heugcd(f, g) == z1 * 2

    def test_matches_subresultant(self):
        from fockweyl.multirat import _heugcd
        answered = 0
        for f, g in self.pairs(41):
            h = _heugcd(f, g)
            if h is not None:
                assert h.int_primitive() == self.reference(f, g)
                answered += 1
        assert answered > 0

    def test_no_certification(self, monkeypatch):
        import fockweyl.multirat as mr

        def refuse(*args):
            raise AssertionError("_certified_coprime called")

        monkeypatch.setattr(mr, "_certified_coprime", refuse)
        for f, g in self.pairs(42, count=100):
            assert poly_gcd_multi(f, g) == self.reference(f, g)

    def test_gives_up_to_subresultant(self, monkeypatch):
        # every lift times a factor of neither input: every trial division
        # fails, `_heugcd` gives up after its six points at every level, and
        # the subresultant gives the gcd
        import fockweyl.multirat as mr
        rank = 2
        z1, z2 = z_poly(1, rank), z_poly(2, rank)
        qq = MultiPoly.q(rank)
        f = (z1 + 1) * (z1 + z2 + qq * qq)
        g = (z1 + 1) * (z2 * z2 + qq + 1)
        assert poly_gcd_multi(f, g) == z1 + 1
        stray = z1 + z2 + qq + 7
        lift, subresultant = mr._from_digits, mr._gcd_subresultant
        lifts, fallbacks = [], []

        def stray_lift(h, var, xi):
            lifts.append(var)
            return lift(h, var, xi) * stray

        def counted(a, b):
            fallbacks.append((a, b))
            return subresultant(a, b)

        monkeypatch.setattr(mr, "_from_digits", stray_lift)
        monkeypatch.setattr(mr, "_gcd_subresultant", counted)
        assert mr._heugcd(f, g) is None
        assert len(lifts) >= 6
        assert poly_gcd_multi(f, g) == z1 + 1
        assert fallbacks == [(f, g)]

    def test_unit_operand(self):
        rank = 2
        f = z_poly(1, rank) * 3 + MultiPoly.q(rank)
        for one in (MultiPoly.const(rank, 5), MultiPoly.const(rank, -1)):
            assert poly_gcd_multi(f, one) == MultiPoly.one(rank)
            assert poly_gcd_multi(one, f) == MultiPoly.one(rank)


class TestDivExact:
    rank = 2
    z1, z2 = z_poly(1, rank), z_poly(2, rank)
    qq = MultiPoly.q(rank)

    def test_integer_quotient_stays_int(self):
        d = self.z1 * 3 - self.qq * 2
        quot = self.z2 * 5 + self.qq * self.qq - 7
        out = _divexact(d * quot, d)
        assert out == quot
        assert all(type(v) is int for v in out.terms.values())

    def test_fraction_quotient(self):
        two = MultiPoly.const(self.rank, 2)
        out = _divexact(self.z1, two)
        assert out == MultiPoly(self.rank, {(1, 0, 0): Fraction(1, 2)})
        assert out.terms[(1, 0, 0)] == Fraction(1, 2)

    def test_fraction_coefficients(self):
        d = self.z1 * Fraction(1, 3) + self.qq
        quot = self.z2 * 2 - Fraction(5, 7)
        assert _divexact(d * quot, d) == quot

    def test_inexact_raises(self):
        with pytest.raises(ArithmeticError):
            _divexact(self.z1 * self.z1 + self.z2, self.z1 + self.qq)
        with pytest.raises(ArithmeticError):
            _divexact(self.z1, self.z2)


class TestMultiRatField:
    @given(multirats(), multirats(), multirats())
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero

    @given(multirats())
    def test_canonical_idempotent(self, a):
        again = MultiRat(a.num, a.den)
        assert again == a
        # the denominator has minimal exponent 0 in every variable
        assert not any(a.den.min_exps())

    @given(multirats())
    def test_inverse(self, a):
        if not a.is_zero:
            assert a * a.inverse() == MultiRat.one(a.rank)

    def test_denominator_normalized(self):
        rank = 2
        z1 = z_poly(1, rank)
        z2 = z_poly(2, rank)
        r = MultiRat(MultiPoly.one(rank), z1 * 2 + z2 * 4)
        # canonical denominator: integer primitive, positive lex lead, min exp 0
        assert r.den == z1 + z2 * 2
        assert r.num == MultiPoly.const(rank, Fraction(1, 2))
        assert all(min(e[i] for e in r.den.terms) == 0 for i in range(rank + 1))


class TestSigmaShift:
    def test_basic(self):
        f = z(1) * z(2, p=-1)
        assert sigma_shift(f, Weight.eps(1, 2)) == q() * f

    def test_identity(self):
        f = z(1) + q(p=2)
        assert sigma_shift(f, Weight.zero(2)) == f

    @given(multirats(), weights(), weights())
    def test_composition(self, f, mu, nu):
        lhs = sigma_shift(sigma_shift(f, mu), nu)
        assert lhs == sigma_shift(f, mu + nu)


class TestEvalAtWeight:
    def test_coordinate(self):
        assert eval_at_weight(z(1), Weight((3, 1))) == QFrac(LaurentQ({3: 1}))

    def test_cancellation(self):
        f = z(1) * z(2, p=-1) - z(1, p=-1) * z(2)
        assert eval_at_weight(f, Weight((1, 1))).is_zero

    def test_pole(self):
        f = MultiRat.one(2) / (z(1) - z(2))
        with pytest.raises(PoleError, match="evaluation pole"):
            eval_at_weight(f, Weight((1, 1)))

    @given(multirats(), weights(), weights())
    def test_eval_sigma_law(self, f, lam, mu):
        try:
            lhs = eval_at_weight(sigma_shift(f, mu), lam)
        except PoleError:
            return
        assert lhs == eval_at_weight(f, lam + mu)


def unit_ratio_by_division(a, b):
    """Reference unit_ratio: reduce a / b to its canonical fraction (one
    multivariate gcd) and read the unit off its single z-blocks."""
    if b.is_zero:
        raise ZeroDivisionError("unit_ratio with zero divisor")
    r = a / b
    if r.is_zero:
        return None
    blocks = []
    for p in (r.num, r.den):
        zs = {e[:-1] for e in p.terms}
        if len(zs) != 1:
            return None
        blocks.append((zs.pop(), LaurentQ({e[-1]: v for e, v in p.terms.items()})))
    (zn, pn), (zd, pd) = blocks
    z_exps = tuple(x - y for x, y in zip(zn, zd))
    u = QFrac(pn, pd)
    m = u.num.low_degree() - u.den.low_degree()
    sign = 1 if (u.num.trailing_coeff() > 0) == (u.den.trailing_coeff() > 0) else -1
    return UnitParts(sign, m, z_exps, u / QFrac(LaurentQ.term(m, sign)))


def lift(p: LaurentQ, rank=2):
    """The Laurent polynomial p in q as a MultiPoly."""
    return MultiPoly(rank, {(0,) * rank + (e,): v for e, v in p.terms.items()})


def as_multirat(x: QFrac, rank, z_exps=None):
    """The QFrac x times the z-monomial z^z_exps, as a MultiRat."""
    num = lift(x.num, rank)
    if z_exps is not None:
        num = num.shifted(tuple(z_exps) + (0,))
    return MultiRat(num, lift(x.den, rank))


class TestUnitRatioAgainstDivision:
    """unit_ratio without a gcd against the division-based reference: the
    same None or the same str(UnitParts)."""

    @staticmethod
    def check(a, b):
        want = unit_ratio_by_division(a, b)
        got = unit_ratio(a, b)
        assert (got is None) == (want is None)
        assert str(got) == str(want)
        return got

    def test_non_units(self):
        f = z(1) - z(2)
        assert self.check((z(1) - z(2)) * (z(1) + q()), z(1) + q()) is None
        assert self.check(f * (z(1) + z(2)), f) is None
        # same block keys, blocks not proportional
        assert self.check(z(1) * q() + z(2), z(1) + z(2)) is None
        # same block count, not one translate
        assert self.check(z(1) + z(2, p=2), z(1) + z(2)) is None

    def test_z_shifted_units(self):
        f = z(1) * q(p=2) - z(2) + q(p=-1)
        unit = as_multirat(QFrac(q_int(2), q_int(3)), 2, (2, -1))
        parts = self.check(f * unit, f)
        assert parts.z_exps == (2, -1)
        parts = self.check(-q(p=-3) * z(2, p=-1) * f, f)
        assert (parts.sign, parts.q_exp, parts.z_exps) == (-1, -3, (0, -1))

    def test_strict(self):
        f = z(1) - z(2)
        assert self.check(q(p=4) * f, f).is_q_power("strict")
        assert not self.check(f * lift(q_int(2)), f).is_q_power("signed")

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("m", [-3, 2])
    @pytest.mark.parametrize("c", [
        QFrac(LaurentQ({0: 2, 1: 1}), LaurentQ({0: 3, 2: 1})),
        QFrac(LaurentQ({0: 1, 1: Fraction(1, 2)}), LaurentQ({0: 5, 1: 2}))],
        ids=["int", "fraction"])
    def test_scalar_is_the_division_by_the_unit(self, sign, m, c):
        # the scalar is u / (sign q^m), taken by a shift with no gcd
        f = z(1) * q() - z(2)
        unit = LaurentQ.term(m, sign)
        u = c * unit
        parts = self.check(f * as_multirat(u, 2, (1, 0)), f)
        assert (parts.sign, parts.q_exp) == (sign, m)
        want = u / QFrac(unit)
        for got_p, want_p in ((parts.scalar.num, want.num),
                              (parts.scalar.den, want.den)):
            assert {e: (type(v), v) for e, v in got_p.terms.items()} \
                == {e: (type(v), v) for e, v in want_p.terms.items()}

    def test_zero_a(self):
        assert self.check(MultiRat.zero(2), z(1) - z(2)) is None

    def test_zero_b(self):
        for fn in (unit_ratio, unit_ratio_by_division):
            with pytest.raises(ZeroDivisionError):
                fn(z(1), MultiRat.zero(2))

    @given(multirats(), nonzero_laurents(), nonzero_laurents(),
           st.tuples(st.integers(-2, 2), st.integers(-2, 2)), multirats())
    def test_unit_times_fraction(self, f, cn, cd, zs, g):
        if f.is_zero:
            return
        unit = as_multirat(QFrac(cn, cd), 2, zs)
        parts = self.check(f * unit, f)
        assert parts is not None and parts.z_exps == zs
        self.check(f * g, f)


class TestUnitRatio:
    def test_monomial_unit(self):
        f = z(1) - z(2)
        parts = unit_ratio(q(p=3) * z(1) * f, f)
        assert parts is not None
        assert (parts.sign, parts.q_exp, parts.z_exps) == (1, 3, (1, 0))
        assert parts.scalar == QFrac(1)
        assert parts.is_q_power("strict")

    def test_not_a_unit(self):
        f = z(1) + q()
        assert unit_ratio((z(1) - z(2)) * f, f) is None

    def test_strict_mode(self):
        f = z(1) - z(2)
        parts = unit_ratio(-q(p=-1) * f, f)
        assert parts is not None
        assert (parts.sign, parts.q_exp, parts.z_exps) == (-1, -1, (0, 0))
        assert parts.is_q_power("signed") and not parts.is_q_power("strict")
        # a scalar that is not a power of q is not a signed q-power
        assert not unit_ratio(f * lift(q_int(2)), f).is_q_power("signed")

    def test_general_scalar_reported(self):
        f = z(1) - z(2)
        parts = unit_ratio(f * lift(q_int(2)), f)
        assert parts is not None and not parts.is_q_power("signed")

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            unit_ratio(z(1), MultiRat.zero(2))

    @pytest.mark.parametrize("tolerance", TOLERANCES)
    @pytest.mark.parametrize("scalar", [
        QFrac(1), QFrac(LaurentQ.term(3)), QFrac(LaurentQ.term(-2, -1)),
        QFrac(q_int(2)), QFrac(2), QFrac(LaurentQ.one(), q_int(2))])
    def test_is_q_power_as_for_qfrac(self, scalar, tolerance):
        f = z(1) - z(2)
        parts = unit_ratio(f * z(2, p=-1) * as_multirat(scalar, 2), f)
        assert parts.is_q_power(tolerance) \
            == reference_power_match(scalar, QFrac(1), tolerance)


try:
    import sympy
except ImportError:  # the differential tests need sympy
    sympy = None


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
class TestAgainstSympy:
    """poly_gcd_multi, ring.poly_gcd and the MultiRat and QFrac canonical
    forms against sympy on seeded random polynomials f, g, h."""

    RANK = 2

    @staticmethod
    def random_poly(rng, rank):
        while True:
            p = MultiPoly(rank, {
                tuple(rng.randint(0, 2) for _ in range(rank + 1)): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 4))})
            if not p.is_zero:
                return p

    @staticmethod
    def to_sympy(p):
        syms = sympy.symbols(f"z1:{p.rank + 1}") + (sympy.Symbol("q"),)
        return sum(sympy.Rational(v.numerator, v.denominator)
                   * sympy.Mul(*(s ** e for s, e in zip(syms, exps)))
                   for exps, v in p.terms.items()), syms

    def triples(self, seed, count=25):
        rng = random.Random(seed)
        for _ in range(count):
            yield tuple(self.random_poly(rng, self.RANK) for _ in range(3))

    def test_gcd_matches_up_to_sign(self):
        for f, g, h in self.triples(7):
            ours, syms = self.to_sympy(poly_gcd_multi(f * h, g * h))
            a, _ = self.to_sympy(f * h)
            b, _ = self.to_sympy(g * h)
            # over Q the gcd is fixed up to a unit; compare primitive parts
            ref = sympy.Poly(sympy.gcd(a, b), *syms).primitive()[1]
            assert sympy.Poly(ours, *syms) in (ref, -ref)

    def test_univariate_gcd_matches_up_to_sign(self):
        """`ring.poly_gcd` on seeded f h, g h with int and Fraction
        coefficients, negative exponents and both variable tags."""
        rng = random.Random(12)

        def rnd(var, fractions):
            while True:
                p = LaurentQ({rng.randint(-3, 4): Fraction(
                    rng.randint(-5, 5), rng.randint(1, 3) if fractions else 1)
                    for _ in range(rng.randint(1, 4))}, var)
                if not p.is_zero:
                    return p

        def to_sympy(p, x):
            low = p.low_degree()
            return sum(sympy.Rational(v.numerator, v.denominator) * x ** (e - low)
                       for e, v in p.terms.items())

        for k in range(40):
            var, fractions = "qv"[k % 2], k % 4 >= 2
            x = sympy.Symbol(var)
            f, g, h = (rnd(var, fractions) for _ in range(3))
            ours = poly_gcd(f * h, g * h)
            assert ours.var == var and ours.low_degree() == 0
            ref = sympy.Poly(sympy.gcd(to_sympy(f * h, x), to_sympy(g * h, x)), x)
            ref = ref.clear_denoms(convert=True)[1].primitive()[1].as_expr()
            assert sympy.expand(to_sympy(ours, x) - ref) == 0 \
                or sympy.expand(to_sympy(ours, x) + ref) == 0

    def test_subresultant_sequence_matches(self):
        """`ring._subresultant_last` over int coefficients is, up to sign,
        the last nonzero subresultant, on seeded pairs in x^2 whose
        remainders step down by 2 or more degrees."""
        rng = random.Random(13)
        x = sympy.Symbol("x")
        for _ in range(60):
            a, b = ({e: rng.randint(-5, 5) for e in range(0, deg, 2)}
                    | {deg: rng.choice((-3, 2, 5))}
                    for deg in (rng.choice((4, 6, 8)), rng.choice((2, 4))))
            a, b = ({e: v for e, v in p.items() if v} for p in (a, b))
            ours = sum(v * x ** e for e, v in _subresultant_last(a, b).items())
            ref = [p for p in sympy.subresultants(
                *(sum(v * x ** e for e, v in p.items()) for p in (a, b)), x)
                if p != 0][-1]
            assert sympy.expand(ours - ref) == 0 or sympy.expand(ours + ref) == 0

    def test_multirat_matches_cancel(self):
        for f, g, h in self.triples(8):
            x = MultiRat(f * h, g * h)
            num, syms = self.to_sympy(x.num)
            den, _ = self.to_sympy(x.den)
            a, _ = self.to_sympy(f)
            b, _ = self.to_sympy(g)
            assert sympy.cancel(num / den - sympy.cancel(a / b)) == 0
            # reduced: an ordinary associate of the numerator shares no
            # factor with the denominator
            shift, _ = self.to_sympy(MultiPoly(
                self.RANK, {tuple(-m for m in x.num.min_exps()): 1}))
            assert sympy.gcd(sympy.expand(num * shift), den).is_number

    def test_qfrac_matches_cancel(self):
        qs = sympy.Symbol("q")
        for f, g, h in self.triples(9):
            lq = [LaurentQ({e[-1] + 2 * e[0] + 3 * e[1]: v for e, v in p.terms.items()})
                  for p in (f, g, h)]
            if any(p.is_zero for p in lq):
                continue
            x = QFrac(lq[0] * lq[2], lq[1] * lq[2])
            as_sym = [sum(sympy.Rational(v.numerator, v.denominator) * qs ** e
                          for e, v in p.terms.items()) for p in (x.num, x.den, *lq)]
            num, den, a, b = as_sym[:4]
            assert sympy.cancel(num / den - a / b) == 0
            assert sympy.gcd(sympy.expand(num * qs ** 20), den).is_number


def old_divexact(f, g):
    """`_divexact` as it was written with generator expressions over zip."""
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero:
        return MultiPoly.zero(f.rank)
    ge, gc = g.lead()
    out = {}
    rem = dict(f.terms)
    while rem:
        fe = max(rem)
        de = tuple(a - b for a, b in zip(fe, ge))
        if any(d < 0 for d in de):
            raise ArithmeticError("inexact multivariate division")
        c = rem[fe]
        if type(c) is int and type(gc) is int and c % gc == 0:
            t = c // gc
        else:
            t = _coef(Fraction(c) / Fraction(gc))
        out[de] = t
        for e, v in g.terms.items():
            e2 = tuple(a + b for a, b in zip(e, de))
            s = rem.get(e2, 0) - t * v
            if s:
                rem[e2] = _coef(s)
            else:
                rem.pop(e2, None)
    return MultiPoly(f.rank, out)


class TestExponentKernels:
    """The one-pass exponent kernels of `MultiPoly` against the per-variable
    formulas they replaced, on seeded random Laurent polynomials."""

    @staticmethod
    def random_poly(rng, rank, low=-3):
        while True:
            p = MultiPoly(rank, {
                tuple(rng.randint(low, 3) for _ in range(rank + 1)):
                    rng.choice((rng.randint(-50, 50), Fraction(rng.randint(-9, 9), 7)))
                for _ in range(rng.randint(1, 5))})
            if not p.is_zero:
                return p

    def cases(self, seed, count=60):
        rng = random.Random(seed)
        for _ in range(count):
            rank = rng.randint(1, 4)
            yield rng, rank, self.random_poly(rng, rank), self.random_poly(rng, rank)

    def test_min_exps(self):
        for _, rank, f, _ in self.cases(1):
            assert f.min_exps() == tuple(min(e[i] for e in f.terms)
                                         for i in range(rank + 1))
        with pytest.raises(ValueError):
            MultiPoly.zero(2).min_exps()

    def test_shifted(self):
        for rng, rank, f, _ in self.cases(2):
            delta = tuple(rng.randint(-4, 4) for _ in range(rank + 1))
            want = {tuple(a + b for a, b in zip(e, delta)): v
                    for e, v in f.terms.items()}
            assert f.shifted(delta).terms == want

    def test_mul(self):
        for _, _, f, g in self.cases(3):
            want = {}
            for e1, v1 in f.terms.items():
                for e2, v2 in g.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    want[e] = want.get(e, 0) + v1 * v2
            want = {e: _coef(v) for e, v in want.items() if v}
            got = (f * g).terms
            assert got == want
            assert {e: type(v) for e, v in got.items()} == \
                {e: type(v) for e, v in want.items()}

    def test_divexact(self):
        rng = random.Random(4)
        for _ in range(60):
            rank = rng.randint(1, 4)
            f = self.random_poly(rng, rank, low=0)
            g = self.random_poly(rng, rank, low=0)
            for num in (f * g, f + g):
                try:
                    want = old_divexact(num, g)
                except ArithmeticError:
                    with pytest.raises(ArithmeticError):
                        _divexact(num, g)
                    continue
                got = _divexact(num, g)
                assert got.terms == want.terms
                assert {e: type(v) for e, v in got.terms.items()} == \
                    {e: type(v) for e, v in want.terms.items()}
