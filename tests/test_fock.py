import json
from fractions import Fraction

import pytest

from fockweyl import fock
from fockweyl.fock import (FockVector, _columns, affine_cartan, apply_E,
                           apply_F, apply_K, check_relations)
from fockweyl.partitions import (Partition, addable_boxes, all_partitions,
                                 color, corners, n_left, n_right,
                                 removable_boxes)
from fockweyl.ring import LaurentQ, q_int

from conftest import coeff, vadd, vec, vsub


def ket(*parts):
    return FockVector.ket(Partition(parts))


def v_term(e):
    return LaurentQ.term(e, 1, "v")


class TestApplyF:
    def test_empty_to_single(self):
        assert vec(apply_F(0, ket(), 2)) == vec(ket(1))

    def test_wrong_color_kills(self):
        assert not apply_F(1, ket(), 2).terms

    def test_two_boxes(self):
        out = apply_F(1, ket(1), 2)
        assert coeff(out, Partition((2,))) == LaurentQ.one("v")
        assert coeff(out, Partition((1, 1))) == v_term(-1)
        assert len(out.terms) == 2

    def test_linearity(self):
        x = vadd(ket(1), ket(2), v_term(3))
        lhs = apply_F(1, x, 2)
        rhs = vadd(apply_F(1, ket(1), 2), apply_F(1, ket(2), 2), v_term(3))
        assert vec(lhs) == vec(rhs)


class TestApplyE:
    def test_single_to_empty(self):
        assert vec(apply_E(0, ket(1), 2)) == vec(ket())

    def test_row(self):
        assert vec(apply_E(1, ket(2), 2)) == vec(ket(1).scale(v_term(1)))

    def test_column(self):
        assert vec(apply_E(1, ket(1, 1), 2)) == vec(ket(1))


class TestApplyK:
    def test_empty(self):
        assert vec(apply_K(0, ket(), 2)) == vec(ket().scale(v_term(1)))

    def test_single(self):
        assert vec(apply_K(1, ket(1), 2)) == vec(ket(1).scale(v_term(2)))

    def test_neutral(self):
        assert vec(apply_K(1, ket(), 2)) == vec(ket())


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
                        assert not coeff(down, lam).is_zero

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
        lhs = vsub(apply_E(1, apply_F(1, lam, 2), 2), apply_F(1, apply_E(1, lam, 2), 2))
        assert vec(lhs) == vec(lam.scale(q_int(2, "v")))

    def test_empty_mixed(self):
        lam = ket()
        lhs = vsub(apply_E(1, apply_F(1, lam, 2), 2), apply_F(1, apply_E(1, lam, 2), 2))
        assert not lhs.terms  # [0]_v vanishes


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
        assert FockVector().render() == "0"

    def test_polynomial_coefficient(self):
        x = ket(1).scale(q_int(2, "v"))
        assert x.render() == "(v^-1 + v)*|1>"

    def test_every_head_shape(self):
        # a bare ket, "-", a monomial head (power of v, scaled, Fraction)
        # and a parenthesised polynomial head, first and in the middle
        x = FockVector()
        for lam, c in [((), {0: 1}), ((1,), {0: -1}), ((2,), {1: 1}),
                       ((1, 1), {-2: -3}), ((3,), {0: Fraction(1, 2)}),
                       ((2, 1), {-1: 1, 1: 1}),
                       ((1, 1, 1), {-1: -1, 2: Fraction(-5, 3)})]:
            x.add_term(Partition(lam), LaurentQ(c, "v"))
        assert x.render() == ("|0> - |1> - 3*v^-2*|1,1> + v*|2> "
                              "+ (-v^-1 - 5/3*v^2)*|1,1,1> + (v^-1 + v)*|2,1> "
                              "+ 1/2*|3>")
        assert ket(1).scale(LaurentQ({0: -1}, "v")).render() == "-|1>"
        assert ket(2).scale(LaurentQ({-1: -1}, "v")).render() == "-v^-1*|2>"

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
        for b in addable_boxes(lam):
            if color(b, ell) != i % ell:
                continue
            mu = lam.add_box(b)
            out.add_term(mu, c * LaurentQ.term(n_left(lam, b, ell), 1, "v"))
    return out


def old_apply_E(i, x, ell):
    out = FockVector()
    for lam, c in x.terms.items():
        for b in removable_boxes(lam):
            if color(b, ell) != i % ell:
                continue
            mu = lam.remove_box(b)
            out.add_term(mu, c * LaurentQ.term(-n_right(mu, b, ell), 1, "v"))
    return out


def old_apply_K(i, x, ell):
    out = FockVector()
    for lam, c in x.terms.items():
        d = (sum(color(b, ell) == i % ell for b in addable_boxes(lam))
             - sum(color(b, ell) == i % ell for b in removable_boxes(lam)))
        out.add_term(lam, c * LaurentQ.term(d, 1, "v"))
    return out


def per_box_columns(lam, ell):
    """The (lam, ell) table with n_left and n_right computed box by box,
    keyed by the colors of lam's addable and removable boxes."""
    E, F, d = {}, {}, {}
    for b in addable_boxes(lam):
        i = color(b, ell)
        F.setdefault(i, []).append((lam.add_box(b), n_left(lam, b, ell)))
        d[i] = d.get(i, 0) + 1
    for b in removable_boxes(lam):
        i = color(b, ell)
        mu = lam.remove_box(b)
        E.setdefault(i, []).append((mu, -n_right(mu, b, ell)))
        d[i] = d.get(i, 0) - 1
    return ({i: tuple(col) for i, col in E.items()},
            {i: tuple(col) for i, col in F.items()}, d)


class TestCachedColumns:
    """apply_* read the cached (lam, ell) tables; they must agree with the
    per-term product loops they replaced, cold and warm."""

    PAIRS = (
        (apply_E, old_apply_E),
        (apply_F, old_apply_F),
        (apply_K, old_apply_K),
    )

    def check(self, x, ell):
        for i in range(ell + 1):
            for new, old in self.PAIRS:
                want = old(i, x, ell)
                got = new(i, x, ell)
                assert vec(got) == vec(want)
                assert got.to_json() == want.to_json()

    def test_tables_match_per_box_statistics(self):
        # same entries in the same order, and the same partition type
        for ell in range(2, 7):
            for lam in all_partitions(9):
                got = _columns.__wrapped__(lam, ell)
                assert tuple(got) == per_box_columns(lam, ell)
                assert all(type(mu) is Partition
                           for col in [*got.E.values(), *got.F.values()]
                           for mu, _ in col)

    def test_table_sized_by_lam_not_ell(self):
        # at ell = 10^9 the table of (2, 1) holds the colors of its five
        # corners, with the columns of ell = 7 under the same contents
        lam, big = Partition((2, 1)), 10 ** 9
        got, small = _columns(lam, big), _columns(lam, 7)
        walk = corners(lam)
        assert set(got.d) == {color(b, big) for b in walk} \
            == {2, 1, 0, big - 1, big - 2}
        assert set(got.F) == {color(b, big) for b in walk[::2]}
        assert set(got.E) == {color(b, big) for b in walk[1::2]}
        for b in walk:
            i, j = color(b, big), color(b, 7)
            assert got.d[i] == small.d[j]
            assert got.E.get(i) == small.E.get(j)
            assert got.F.get(i) == small.F.get(j)
        for op in (apply_E, apply_F, apply_K):
            for b in walk:
                assert vec(op(color(b, big), FockVector.ket(lam), big)) \
                    == vec(op(color(b, 7), FockVector.ket(lam), 7))

    def test_every_ket(self):
        _columns.cache_clear()
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
        info = _columns.cache_info()
        assert info.maxsize == 512
        assert info.currsize <= 512

    def test_no_cache_cliff(self):
        # the relations at ell = 3 up to size 14 read 915 tables, more than
        # the cache holds; walking the partitions once builds about 1,500
        _columns.cache_clear()
        check_relations(3, 14)
        assert _columns.cache_info().misses <= 2000


def reference_check_relations(ell, max_size):
    """The relation checker as it was before the integer columns: every
    relation side is a `FockVector` composed through apply_E/F/K."""
    lams = list(all_partitions(max_size))
    results = []

    def run(kind, i, j, check):
        bad = None
        for lam in lams:
            err = check(lam)
            if err is not None:
                bad = {"partition": list(lam), "detail": err}
                break
        results.append({"relation": kind, "i": i, "j": j,
                        "passed": bad is None, "counterexample": bad})

    for i in range(ell):
        for j in range(ell):
            def comm(lam, i=i, j=j):
                ket = FockVector.ket(lam)
                lhs = vsub(apply_E(i, apply_F(j, ket, ell), ell),
                           apply_F(j, apply_E(i, ket, ell), ell))
                if i == j:
                    d = fock._columns(lam, ell).d.get(i, 0)
                    rhs = ket.scale(q_int(d, "v"))
                else:
                    rhs = FockVector()
                if vec(lhs) != vec(rhs):
                    return f"[E_{i},F_{j}] mismatch: {lhs.render()} vs {rhs.render()}"
                return None
            run("commutator", i, j, comm)

    for i in range(ell):
        for j in range(ell):
            a = affine_cartan(i, j, ell)

            def kconj(lam, i=i, j=j, a=a):
                ket = FockVector.ket(lam)
                for op, s in ((apply_E, 1), (apply_F, -1)):
                    lhs = apply_K(i, op(j, ket, ell), ell)
                    rhs = op(j, apply_K(i, ket, ell), ell).scale(
                        LaurentQ.term(s * a, 1, "v"))
                    if vec(lhs) != vec(rhs):
                        return f"K_{i} conjugation of op_{j} fails"
                return None
            run("k-conjugation", i, j, kconj)

    for i in range(ell):
        for j in range(ell):
            dist = min((i - j) % ell, (j - i) % ell)
            if dist >= 2:
                def far(lam, i=i, j=j):
                    ket = FockVector.ket(lam)
                    for op in (apply_E, apply_F):
                        lhs = op(i, op(j, ket, ell), ell)
                        rhs = op(j, op(i, ket, ell), ell)
                        if vec(lhs) != vec(rhs):
                            return f"distant generators {i},{j} fail to commute"
                    return None
                run("commuting-pair", i, j, far)
            elif dist == 1 and ell >= 3:
                def serre(lam, i=i, j=j):
                    ket = FockVector.ket(lam)
                    two = q_int(2, "v")
                    for op in (apply_E, apply_F):
                        def a(k, x):
                            return op(k, x, ell)
                        lhs = vadd(vsub(a(i, a(i, a(j, ket))),
                                        a(i, a(j, a(i, ket))).scale(two)),
                                   a(j, a(i, a(i, ket))))
                        if lhs.terms:
                            return f"cubic Serre relation fails for {i},{j}"
                    return None
                run("serre", i, j, serre)

    return results


def shift_F_exponent(cols, i):
    """The first entry of F_i's column, one power of v off."""
    (mu, e), *rest = cols.F[i]
    return cols._replace(F={**cols.F, i: ((mu, e + 1), *rest)})


def drop_E_entry(cols, i):
    """E_i's column without its first mu."""
    return cols._replace(E={**cols.E, i: cols.E[i][1:]})


def shift_K_exponent(cols, i):
    """d_i one too large."""
    return cols._replace(d={**cols.d, i: cols.d.get(i, 0) + 1})


class TestFailureReports:
    """With one table entry wrong at one partition, the integer checker must
    report exactly what the FockVector checker reports on the same fault:
    every pass flag, counterexample partition and detail text."""

    # (change, partition, color): F_0 at (2, 1) adds the box (2, 2) and E_1
    # at (2, 1, 1) removes the box (1, 2), of content 0 and 1 for every ell
    FAULTS = {
        "shifted F exponent": (shift_F_exponent, (2, 1), 0),
        "dropped E entry": (drop_E_entry, (2, 1, 1), 1),
        "shifted K exponent": (shift_K_exponent, (3, 1), 1),
    }

    def faulty(self, monkeypatch, fault, ell):
        change, lam, i = self.FAULTS[fault]
        lam = Partition(lam)
        original = fock._columns

        def columns(mu, ell_):
            cols = original(mu, ell_)
            return change(cols, i) if (mu, ell_) == (lam, ell) else cols
        monkeypatch.setattr(fock, "_columns", columns)

    @pytest.mark.parametrize("ell", [2, 3, 4, 5])
    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_matches_reference(self, monkeypatch, fault, ell):
        self.faulty(monkeypatch, fault, ell)
        got = check_relations(ell, 5)
        want = reference_check_relations(ell, 5)
        assert got == want
        assert not all(r["passed"] for r in got)

    def test_every_kind_fails_somewhere(self, monkeypatch):
        failing = set()
        for fault in self.FAULTS:
            with monkeypatch.context() as m:
                self.faulty(m, fault, 4)
                failing |= {r["relation"] for r in check_relations(4, 5)
                            if not r["passed"]}
        assert failing == {"commutator", "k-conjugation", "commuting-pair",
                           "serre"}
