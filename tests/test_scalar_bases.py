"""The shared scalar bases: `ring._Poly` behind LaurentQ and MultiPoly,
`ring._Frac` behind QFrac and MultiRat."""

import operator
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given

from fockweyl import ring
from fockweyl.multirat import MultiPoly, MultiRat
from fockweyl.ring import LaurentQ, QFrac, _Frac, q_int

from conftest import laurents, multipolys, z_poly, z_rat

z1, z2, q2 = z_poly(1, 2), z_poly(2, 2), MultiPoly.q(2)

# (value, str, repr), the strings as printed before the bases existed
PRINTED = [
    (LaurentQ({-1: 1, 3: 2}),
     'q^-1 + 2*q^3',
     "LaurentQ('q^-1 + 2*q^3', var='q')"),
    (LaurentQ({-2: -1, 1: 3}),
     '-q^-2 + 3*q',
     "LaurentQ('-q^-2 + 3*q', var='q')"),
    (LaurentQ({2: F(3, 2), -1: F(-1, 3)}),
     '-1/3*q^-1 + 3/2*q^2',
     "LaurentQ('-1/3*q^-1 + 3/2*q^2', var='q')"),
    (LaurentQ({0: 5}),
     '5',
     "LaurentQ('5', var='q')"),
    (LaurentQ({0: F(-7, 2)}),
     '-7/2',
     "LaurentQ('-7/2', var='q')"),
    (LaurentQ.zero(),
     '0',
     "LaurentQ('0', var='q')"),
    (LaurentQ({-3: -1}),
     '-q^-3',
     "LaurentQ('-q^-3', var='q')"),
    (LaurentQ({1: 1, 0: -1}, "v"),
     '-1 + v',
     "LaurentQ('-1 + v', var='v')"),
    (LaurentQ({0: -1, -1: F(1, 2)}, "v"),
     '1/2*v^-1 - 1',
     "LaurentQ('1/2*v^-1 - 1', var='v')"),
    (MultiPoly(2, {(1, 0, 0): 1, (0, 1, 0): -1}),
     '-z2 + z1',
     "MultiPoly('-z2 + z1')"),
    (MultiPoly(2, {(-1, 0, 0): 1}),
     'z1^-1',
     "MultiPoly('z1^-1')"),
    (MultiPoly(2, {(0, 0, -2): -3, (1, -1, 1): F(2, 5)}),
     '-3*q^-2 + 2/5*z1*z2^-1*q',
     "MultiPoly('-3*q^-2 + 2/5*z1*z2^-1*q')"),
    (MultiPoly.const(2, 4),
     '4',
     "MultiPoly('4')"),
    (MultiPoly.const(2, F(-1, 2)),
     '-1/2',
     "MultiPoly('-1/2')"),
    (MultiPoly.zero(2),
     '0',
     "MultiPoly('0')"),
    (MultiPoly(3, {(0, 0, -1, 0): -1, (0, 0, 0, -3): 1, (2, 0, 0, 1): -2}),
     '-z3^-1 + q^-3 - 2*z1^2*q',
     "MultiPoly('-z3^-1 + q^-3 - 2*z1^2*q')"),
    (QFrac(q_int(2) * 3, q_int(3) * -2),
     '(-3/2*q - 3/2*q^3)/(1 + q^2 + q^4)',
     "QFrac('(-3/2*q - 3/2*q^3)/(1 + q^2 + q^4)')"),
    (QFrac(LaurentQ({1: 2}), LaurentQ({0: 3})),
     '2/3*q',
     "QFrac('2/3*q')"),
    (QFrac(LaurentQ({-2: -1, 0: 1}), LaurentQ({1: 2, 0: -1})),
     '(-1/2*q^-2 + 1/2)/(-1/2 + q)',
     "QFrac('(-1/2*q^-2 + 1/2)/(-1/2 + q)')"),
    (QFrac(LaurentQ({-3: 1}), LaurentQ({-1: 1, 1: 1})),
     '(q^-2)/(1 + q^2)',
     "QFrac('(q^-2)/(1 + q^2)')"),
    (QFrac(LaurentQ({0: 1}), q_int(2)),
     '(q)/(1 + q^2)',
     "QFrac('(q)/(1 + q^2)')"),
    (QFrac(F(3, 4)),
     '3/4',
     "QFrac('3/4')"),
    (QFrac(LaurentQ({-1: -1})),
     '-q^-1',
     "QFrac('-q^-1')"),
    (QFrac(0),
     '0',
     "QFrac('0')"),
    (QFrac(LaurentQ.one("v")),
     '1',
     "QFrac('1')"),
    (MultiRat(z1 - z2, z1 + q2),
     '(-z2 + z1)/(q + z1)',
     "MultiRat('(-z2 + z1)/(q + z1)')"),
    (z_rat(1, 2, -1),
     'z1^-1',
     "MultiRat('z1^-1')"),
    (MultiRat(z1 * 2, z2 * 4 - q2 * 2),
     '(z1)/(-q + 2*z2)',
     "MultiRat('(z1)/(-q + 2*z2)')"),
    (MultiRat(MultiPoly.one(2), q2 - z1),
     '(-1)/(-q + z1)',
     "MultiRat('(-1)/(-q + z1)')"),
    (MultiRat(MultiPoly.const(2, F(1, 2)), z2 * z2 * 3),
     '1/6*z2^-2',
     "MultiRat('1/6*z2^-2')"),
    (MultiRat(z_poly(2, 2, -2) * F(-5, 3)),
     '-5/3*z2^-2',
     "MultiRat('-5/3*z2^-2')"),
    # the Cartan q-binomial [z1; 2], as a product of binomials
    (MultiRat((z1 - z_poly(1, 2, -1))
              * (z1 * MultiPoly.q(2, -1) - z_poly(1, 2, -1) * q2),
              (q2 - MultiPoly.q(2, -1)) * (MultiPoly.q(2, 2) - MultiPoly.q(2, -2))),
     '(z1^-2*q^4 - q^2 - q^4 + z1^2*q^2)/(1 - q^2 - q^4 + q^6)',
     "MultiRat('(z1^-2*q^4 - q^2 - q^4 + z1^2*q^2)/(1 - q^2 - q^4 + q^6)')"),
    (MultiRat.const(2, -3),
     '-3',
     "MultiRat('-3')"),
    (MultiRat.zero(2),
     '0',
     "MultiRat('0')"),
]


@pytest.mark.parametrize("x, text, rep", PRINTED)
def test_printer(x, text, rep):
    assert str(x) == x.to_text() == text
    assert repr(x) == rep


class TestHash:
    """The equality half of the hash contract the names refer to: scalars
    have no hash, and a constant or a fraction over 1 equals its number or
    polynomial within its own ring."""

    def test_one_across_the_tower(self):
        assert 1 == LaurentQ.one() == QFrac(1)
        assert 1 == F(1) == MultiPoly.one(2) == MultiRat.one(2)

    def test_constants_hash_as_numbers(self):
        for value in (0, 5, -3, F(-7, 2)):
            for x in (LaurentQ({0: value}), QFrac(value), MultiPoly.const(2, value),
                      MultiRat.const(2, value)):
                assert x == value

    @given(laurents())
    def test_fraction_over_one_hashes_as_numerator(self, p):
        assert QFrac(p) == p

    @given(multipolys())
    def test_multirat_over_one_hashes_as_numerator(self, p):
        x = MultiRat(p)
        assert x.den == 1
        assert x == x.num

    def test_monic_and_primitive_denominators_hash_alike(self):
        a = QFrac(LaurentQ({0: 1}), LaurentQ({1: 2, 0: 1}))
        x = MultiRat(MultiPoly.one(2), 2 * q2 + 1)
        assert str(a) == "(1/2)/(1/2 + q)" and str(x) == "(1)/(1 + 2*q)"

    def test_other_variable_stays_apart(self):
        v = LaurentQ({1: 1, 0: 2}, "v")
        x = MultiRat(q2 + 2)
        assert x != v and v != x and x != QFrac(v)

    def test_equal_values_share_a_set_entry(self):
        p = q_int(2) * q_int(3)
        assert p == QFrac(p) == QFrac(p * q_int(5), q_int(5))


@pytest.mark.parametrize("x", [LaurentQ.one(), QFrac(1), MultiPoly.one(2),
                               MultiRat.one(2)], ids=lambda x: type(x).__name__)
def test_no_hash_and_no_lift_from_q_into_multirat(x):
    with pytest.raises(TypeError):
        hash(x)
    one = MultiRat.one(2)
    if isinstance(x, (MultiPoly, MultiRat)):
        assert one == x and x == one and one * x == x * one == one
        return
    assert one != x and x != one
    for op in (operator.add, operator.mul):
        with pytest.raises(TypeError):
            op(one, x)
        with pytest.raises(TypeError):
            op(x, one)


# One value of each scalar type, how a number lifts into it, and the
# scalars of the other level of the tower
LIFTS = [pytest.param(x, lift, id=type(x).__name__) for x, lift in [
    (LaurentQ({-1: 1, 2: 3}), lambda n: LaurentQ({0: n})),
    (z1 * 2 - q2, lambda n: MultiPoly.const(2, n)),
    (QFrac(q_int(2), q_int(3)), QFrac),
    (MultiRat(z1 - z2, z1 + q2), lambda n: MultiRat.const(2, n)),
]]
OTHER_LEVEL = {LaurentQ: (MultiPoly.one(2), MultiRat.one(2)),
               QFrac: (MultiPoly.one(2), MultiRat.one(2)),
               MultiPoly: (LaurentQ.one(), QFrac(1)),
               MultiRat: (LaurentQ.one(), QFrac(1))}
FRACTIONS = (QFrac, MultiRat)


@pytest.mark.parametrize("n", [3, F(-2, 5)], ids=str)
@pytest.mark.parametrize("x, lift", LIFTS)
def test_numbers_lift_on_either_side(x, lift, n):
    c = lift(n)
    assert c == n and n == c and x != n and n != x
    arithmetic = (operator.add, operator.sub, operator.mul, operator.truediv)
    if isinstance(x, QFrac):
        # a value, not a field: a number lifts into == alone
        for op in arithmetic:
            with pytest.raises(TypeError):
                op(x, n)
            with pytest.raises(TypeError):
                op(n, x)
        return
    assert x + n == n + x == x + c
    assert x - n == x - c == -(c - x)
    assert x * n == n * x == x * c
    if isinstance(x, MultiRat):
        assert x / n == MultiRat(x.num, x.den * n)
    # a number on the left lifts into + and * only
    for op in (operator.sub, operator.truediv):
        with pytest.raises(TypeError):
            op(n, x)


@pytest.mark.parametrize("x, lift", LIFTS)
def test_other_level_and_strings_do_not_lift(x, lift):
    ops = [operator.add, operator.sub, operator.mul]
    if isinstance(x, FRACTIONS):
        ops.append(operator.truediv)
    for y in OTHER_LEVEL[type(x)] + ("1",):
        assert not x == y and not y == x and x != y
        for op in ops:
            with pytest.raises(TypeError):
                op(x, y)
            with pytest.raises(TypeError):
                op(y, x)


def test_fraction_division_by_zero():
    x = MultiRat(z1 - z2, z1 + q2)
    for zero in (0, MultiRat.zero(2), MultiPoly.zero(2)):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            x / zero
    with pytest.raises(ZeroDivisionError):
        MultiRat.zero(2).inverse()
    with pytest.raises(ZeroDivisionError):
        QFrac(q_int(2), LaurentQ.zero())


def test_retired_operations_raise():
    """`QFrac` is a value: no +, * or /; and no number minus a polynomial."""
    with pytest.raises(TypeError):
        QFrac(1) + QFrac(1)
    with pytest.raises(TypeError):
        QFrac(1) * 2
    with pytest.raises(TypeError):
        QFrac(1) / QFrac(2)
    with pytest.raises(TypeError):
        1 - LaurentQ.one()
    assert not hasattr(QFrac(1), "inverse")


def test_one_lifting_rule():
    """The lifting prologue is written once, in `ring._lifted`; the fraction
    base alone lifts, and `MultiRat` alone divides."""
    src = Path(ring.__file__).parent
    text = "".join(p.read_text() for p in sorted(src.glob("*.py")))
    assert text.count("other = self._wrap(other)") == 1
    assert set(_Frac.__subclasses__()) == {QFrac, MultiRat}
    for cls in (_Frac, QFrac):
        assert not {"inverse", "__truediv__", "__add__", "__mul__"} & set(vars(cls))
    for cls in _Frac.__subclasses__():
        assert "_wrap" not in vars(cls)
