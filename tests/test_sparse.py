"""Shared behaviour of the sparse-vector types (FockVector, VermaElement,
TensorVector): cancellation, zero scaling, absent coefficients, space checks
and no vector arithmetic or equality of their own (the tests add and compare
vectors through `conftest`)."""

import operator

import pytest

from fockweyl.fock import FockVector
from fockweyl.multirat import MultiRat
from fockweyl.ring import LaurentQ, QFrac
from fockweyl.verma import VermaElement
from fockweyl.weights import Weight
from fockweyl.weyl import TensorVector

from conftest import coeff, vadd, vec, vsub, z_rat


def _fock():
    x = FockVector({(2, 1): LaurentQ({-1: 2, 1: 1}, "v"), (1,): 3})
    return {"x": x, "absent": (3,), "zero": LaurentQ.zero("v")}


def _verma():
    shift = Weight((1, 0, -1))
    x = VermaElement(shift, 3, {(1, 2): z_rat(1, 3), (2, 1): 5})
    return {"x": x, "absent": (1,), "zero": MultiRat.zero(3),
            "other_space": VermaElement(Weight((0, 0, 0)), 3, {(1, 2): 1})}


def _tensor():
    x = TensorVector(2, 3, {(1, 2): LaurentQ({1: 1}), (3, 1): 2})
    return {"x": x, "absent": (2, 2), "zero": QFrac(0),
            "other_space": TensorVector(3, 3, {(1, 2, 3): LaurentQ.one()})}


CASES = {"fock": _fock, "verma": _verma, "tensor": _tensor}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def test_self_difference_is_empty(case):
    x = case["x"]
    assert vsub(x, x).terms == {}
    assert vec(vadd(x, x.scale(-1))) == vec(x.scale(0))


def test_scale_by_zero_is_empty(case):
    y = case["x"].scale(0)
    assert y.terms == {}
    assert type(y) is type(case["x"])


def test_absent_coefficient_is_ring_zero(case):
    c = coeff(case["x"], case["absent"])
    assert c.is_zero
    assert c == case["zero"]


@pytest.mark.parametrize("name", ["verma", "tensor"])
def test_mismatched_space_raises(name):
    case = CASES[name]()
    x, other = case["x"], case["other_space"]
    with pytest.raises(ValueError):
        x._check(other)
    with pytest.raises(ValueError):
        vadd(x, other)
    assert vec(x) != vec(other)


def test_different_types_never_equal_or_combine():
    empties = [FockVector(), VermaElement(Weight((0, 0)), 2),
               TensorVector(0, 2)]
    for a in empties:
        for b in empties:
            assert (vec(a) == vec(b)) == (a is b)
            if a is not b:
                with pytest.raises(ValueError):
                    a._check(b)


def test_no_vector_arithmetic(case):
    x = case["x"]
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(x, x)
    with pytest.raises(TypeError):
        -x
    assert not hasattr(x, "coeff") and not hasattr(x, "is_zero")
