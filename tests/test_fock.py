import json
from fractions import Fraction

import pytest

from fockweyl.fock import (FockVector, _ket_action, apply_E, apply_F, apply_K,
                           check_relations)
from fockweyl.partitions import (Partition, addable_boxes, all_partitions,
                                 n_left, n_right, removable_boxes)
from fockweyl.ring import LaurentQ, q_int


def ket(*parts):
    return FockVector.ket(Partition(parts))


def v_term(e):
    return LaurentQ.term(e, 1, "v")


class TestApplyF:
    def test_empty_to_single(self):
        assert apply_F(0, ket(), 2) == ket(1)

    def test_wrong_color_kills(self):
        assert apply_F(1, ket(), 2).is_zero

    def test_two_boxes(self):
        out = apply_F(1, ket(1), 2)
        assert out.coeff(Partition((2,))) == LaurentQ.one("v")
        assert out.coeff(Partition((1, 1))) == v_term(-1)
        assert len(out.terms) == 2

    def test_linearity(self):
        x = ket(1) + ket(2).scale(v_term(3))
        lhs = apply_F(1, x, 2)
        rhs = apply_F(1, ket(1), 2) + apply_F(1, ket(2), 2).scale(v_term(3))
        assert lhs == rhs


class TestApplyE:
    def test_single_to_empty(self):
        assert apply_E(0, ket(1), 2) == ket()

    def test_row(self):
        assert apply_E(1, ket(2), 2) == ket(1).scale(v_term(1))

    def test_column(self):
        assert apply_E(1, ket(1, 1), 2) == ket(1)


class TestApplyK:
    def test_empty(self):
        assert apply_K(0, ket(), 2) == ket().scale(v_term(1))

    def test_single(self):
        assert apply_K(1, ket(1), 2) == ket(1).scale(v_term(2))

    def test_neutral(self):
        assert apply_K(1, ket(), 2) == ket()

    def test_inverse(self):
        assert apply_K(0, apply_K(0, ket(2, 1), 3), 3, inverse=True) == ket(2, 1)


class TestOperatorStructure:
    def test_degree_grading(self):
        for lam in all_partitions(8):
            for ell in (2, 3):
                for i in range(ell):
                    for mu, _ in apply_F(i, FockVector.ket(lam), ell).sorted_terms():
                        assert mu.size == lam.size + 1
                    for mu, _ in apply_E(i, FockVector.ket(lam), ell).sorted_terms():
                        assert mu.size == lam.size - 1

    def test_adjoint_supports(self):
        lams = list(all_partitions(8))
        for ell in (2, 3):
            for lam in lams:
                for i in range(ell):
                    up = apply_F(i, FockVector.ket(lam), ell)
                    for mu, _ in up.sorted_terms():
                        down = apply_E(i, FockVector.ket(mu), ell)
                        assert not down.coeff(lam).is_zero

    def test_entries_are_monomials(self):
        for lam in all_partitions(8):
            for ell in (2, 3, 4):
                for i in range(ell):
                    for op in (apply_E, apply_F):
                        for _, c in op(i, FockVector.ket(lam), ell).sorted_terms():
                            mono = c.as_monomial()
                            assert mono is not None and mono[1] == 1


class TestCommutator:
    def test_single_box_example(self):
        lam = ket(1)
        lhs = apply_E(1, apply_F(1, lam, 2), 2) - apply_F(1, apply_E(1, lam, 2), 2)
        assert lhs == lam.scale(q_int(2, "v"))

    def test_empty_mixed(self):
        lam = ket()
        lhs = apply_E(1, apply_F(1, lam, 2), 2) - apply_F(1, apply_E(1, lam, 2), 2)
        assert lhs.is_zero  # [0]_v vanishes


class TestRelations:
    @pytest.mark.parametrize("ell", [2, 3])
    def test_small_suites(self, ell):
        results = check_relations(ell, 4)
        assert all(r["passed"] for r in results)

    def test_serre_present_only_for_large_ell(self):
        kinds2 = {r["relation"] for r in check_relations(2, 2)}
        kinds3 = {r["relation"] for r in check_relations(3, 2)}
        assert "serre" not in kinds2
        assert "serre" in kinds3

    def test_bad_ell(self):
        with pytest.raises(ValueError):
            check_relations(1, 2)


class TestRendering:
    def test_spec_example(self):
        assert apply_F(1, ket(1), 2).render() == "v^-1*|1,1> + |2>"

    def test_empty_ket(self):
        assert ket().render() == "|0>"
        assert FockVector.zero().render() == "0"

    def test_polynomial_coefficient(self):
        x = ket(1).scale(q_int(2, "v"))
        assert x.render() == "(v^-1 + v)*|1>"

    def test_json(self):
        out = apply_F(1, ket(1), 2)
        data = out.to_json()
        assert data == [
            {"partition": [1, 1], "coeff": {"var": "v", "coeffs": {"-1": "1"}}},
            {"partition": [2], "coeff": {"var": "v", "coeffs": {"0": "1"}}},
        ]
        json.dumps(data)  # serializable


def old_apply_F(i, x, ell):
    out = FockVector()
    for lam, c in x.terms.items():
        for b in addable_boxes(lam, ell, i):
            mu = lam.add_box(b)
            out.add_term(mu, c * LaurentQ.term(n_left(lam, b, ell), 1, "v"))
    return out


def old_apply_E(i, x, ell):
    out = FockVector()
    for lam, c in x.terms.items():
        for b in removable_boxes(lam, ell, i):
            mu = lam.remove_box(b)
            out.add_term(mu, c * LaurentQ.term(-n_right(mu, b, ell), 1, "v"))
    return out


def old_apply_K(i, x, ell, inverse=False):
    out = FockVector()
    for lam, c in x.terms.items():
        d = len(addable_boxes(lam, ell, i)) - len(removable_boxes(lam, ell, i))
        if inverse:
            d = -d
        out.add_term(lam, c * LaurentQ.term(d, 1, "v"))
    return out


class TestCachedColumns:
    """apply_* read cached columns; they must agree with the per-term
    product loops they replaced, cold and warm."""

    PAIRS = (
        (apply_E, old_apply_E),
        (apply_F, old_apply_F),
        (apply_K, old_apply_K),
        (lambda i, x, ell: apply_K(i, x, ell, inverse=True),
         lambda i, x, ell: old_apply_K(i, x, ell, inverse=True)),
    )

    def check(self, x, ell):
        for i in range(ell + 1):
            for new, old in self.PAIRS:
                want = old(i, x, ell)
                got = new(i, x, ell)
                assert got == want
                assert got.to_json() == want.to_json()

    def test_every_ket(self):
        _ket_action.cache_clear()
        for _ in range(2):
            for ell in (2, 3, 4):
                for lam in all_partitions(6):
                    self.check(FockVector.ket(lam), ell)

    def test_vector_with_polynomial_coefficients(self):
        x = FockVector({
            Partition((2, 1)): q_int(3, "v"),
            Partition((3,)): LaurentQ({-2: Fraction(1, 2), 1: -4}, "v"),
            Partition((1, 1, 1)): LaurentQ({0: 7}, "v"),
            Partition((2,)): LaurentQ({3: 1, 5: Fraction(-2, 3)}, "v"),
        })
        for ell in (2, 3, 4):
            self.check(x, ell)

    def test_cache_bounded(self):
        check_relations(4, 6)
        info = _ket_action.cache_info()
        assert info.maxsize == 4096
        assert info.currsize <= 4096
