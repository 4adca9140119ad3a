"""The verify family table: case lists and case ids, the theorem61 runner
against the comparison it replaced, and the records of faults that no
passing sweep reaches."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from fockweyl import fock, verify
from fockweyl.errors import EngineError
from fockweyl.fock import FockVector, apply_F
from fockweyl.partitions import (Box, Partition, all_partitions, color,
                                 content, n_left, partitions_of)
from fockweyl.ring import LaurentQ, QFrac, power_match, val_cyclotomic
from fockweyl.verify import FAMILIES, RunConfig, enumerate_cases, run_case
from fockweyl.verma import _jantzen_closed_parts, hook_ratio
from fockweyl.weights import Weight, from_alpha_coords
from fockweyl.weyl import mu_singular_vectors

from conftest import reference_power_match


def root_lattice_points(rank, max_height):
    out = []
    for total in range(1, max_height + 1):
        for combo in itertools.product(range(total + 1), repeat=rank - 1):
            if sum(combo) == total:
                out.append(from_alpha_coords(combo, rank))
    return out


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_root_lattice_points_match_filter(rank):
    assert verify._root_lattice_points(rank, 4) \
        == [nu.coords for nu in root_lattice_points(rank, 4)]


def test_root_lattice_points_at_rank_40():
    # C(h + 38, 38) compositions of each height h into 39 parts, by height
    # and then in lexicographic order, with no (h + 1)^39 cube filtered
    points = verify._root_lattice_points(40, 3)
    alphas = [Weight(c).alpha_coords() for c in points]
    heights = [sum(ac) for ac in alphas]
    assert heights == sorted(heights)
    assert Counter(heights) == {h: math.comb(h + 38, 38) for h in (1, 2, 3)}
    assert all(a < b for a, b in zip(alphas, alphas[1:])
               if sum(a) == sum(b))
    assert min(min(ac) for ac in alphas) == 0


def reference_cases(family, config):
    """The per-family enumeration that the family table replaced."""
    if family == "fock-relations":
        return [("fock-relations", config.ell, config.max_size)]
    if family == "theorem51":
        if config.n_rank is not None:
            ranks = [(config.n_rank, config.max_size)]
        else:
            ranks = [(2, 4), (3, 3)]
        return [("theorem51", rank, tuple(nu.coords))
                for rank, h in ranks for nu in root_lattice_points(rank, h)]
    if family == "prop52":
        out = []
        for rank in (2, 3):
            for nu in root_lattice_points(rank, 3):
                for k in (1, 2):
                    out.append(("prop52", rank, tuple(nu.coords), k))
        return out
    if family == "lemma62":
        out = []
        for rank in (2, 3):
            for k in range(1, rank + 1):
                out.append(("lemma62", rank, k))
        return out
    if family == "lemma63":
        return [("lemma63", rank, k)
                for rank in (2, 3) for k in range(1, rank + 1)]
    if family == "prop64":
        out = []
        for lam in all_partitions(config.max_size):
            for k in range(1, len(lam) + 2):
                out.append(("prop64", tuple(lam), k))
        return out
    if family == "prop65":
        out = []
        for lam in all_partitions(config.max_size):
            for k in range(1, len(lam) + 2):
                out.append(("prop65", tuple(lam), k, config.ell))
        return out
    if family == "theorem61":
        return [("theorem61", tuple(lam), config.ell)
                for lam in all_partitions(config.max_size)]
    raise ValueError(f"unknown verify family {family!r}")


@pytest.mark.parametrize("family", list(FAMILIES))
def test_cases_match_reference(family):
    for ell, max_size, n_rank in itertools.product(
            (2, 3, 4), range(6), (None, 2, 3, 4)):
        config = RunConfig(ell=ell, max_size=max_size, n_rank=n_rank)
        assert enumerate_cases(family, config) \
            == reference_cases(family, config), (ell, max_size, n_rank)


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown verify family 'nope'"):
        enumerate_cases("nope", RunConfig())


# One case per family: what its runner calls, and the id the case passes
# under (a tuple field comma-joined, `0` when empty).
ENGINE_ERRORS = [
    (("fock-relations", 2, 4), "check_relations",
     "fock-relations/ell=2/max_size=4"),
    (("theorem51", 3, (1, 0, -1)), "gram_matrix",
     "theorem51/rank=3/nu=1,0,-1"),
    (("prop52", 2, (1, -1), 1), "gram_matrix", "prop52/rank=2/nu=1,-1/k=1"),
    (("lemma62", 2, 1), "det_product_identity", "lemma62/rank=2/eta=eps1"),
    (("lemma63", 2, 1), "jantzen_engine", "lemma63/rank=2/k=1"),
    (("prop64", (), 1), "_hook_parts", "prop64/lam=0/k=1"),
    (("prop65", (), 1, 2), "jantzen_valuation", "prop65/lam=0/k=1/ell=2"),
    (("theorem61", (), 2), "mu_singular_vectors", "theorem61/lam=0/ell=2"),
]


@pytest.mark.parametrize("spec, callee, case_id", ENGINE_ERRORS,
                         ids=[spec[0] for spec, _, _ in ENGINE_ERRORS])
def test_engine_error_keeps_case_id(monkeypatch, spec, callee, case_id):
    assert spec in enumerate_cases(spec[0], RunConfig())
    case = run_case(spec)
    assert (case.case_id, case.passed) == (case_id, True)

    def broken(*args, **kwargs):
        raise EngineError("injected")

    monkeypatch.setattr(verify, callee, broken)
    case = run_case(spec)
    assert (case.case_id, case.passed) == (case_id, False)
    assert case.detail == {"engine_error": "injected"}


# Failure branches that no passing sweep reaches, each forced by one fault.

def test_theorem61_records_unexpected_box(monkeypatch):
    # F_0 at |1> (ell = 2) with an extra ket |3>, which no addable row of
    # (1) gives: the record lists it as unexpected and the case fails
    lam, extra = Partition((1,)), Partition((3,))
    real = fock._columns

    def columns(mu, ell):
        cols = real(mu, ell)
        if (mu, ell) != (lam, 2):
            return cols
        return cols._replace(F={**cols.F, 0: (*cols.F.get(0, ()), (extra, 0))})

    spec = ("theorem61", (1,), 2)
    assert run_case(spec).passed
    monkeypatch.setattr(fock, "_columns", columns)
    case = run_case(spec)
    assert (case.case_id, case.passed) == ("theorem61/lam=1/ell=2", False)
    *rows, last = case.detail["boxes"]
    assert last == {"unexpected": [3], "color": 0, "pass": False}
    assert len(rows) == 2 and all(row["pass"] for row in rows)


def test_theorem61_zero_hook_ratio_fails(monkeypatch):
    # a zero hook ratio against a nonzero oracle norm is no +-q^m match
    spec = ("theorem61", (1,), 2)
    monkeypatch.setattr(verify, "_hook_parts",
                        lambda lam, k: (LaurentQ.zero(), LaurentQ.one()))
    case = run_case(spec)
    assert (case.case_id, case.passed) == ("theorem61/lam=1/ell=2", False)
    rows = case.detail["boxes"]
    assert [row["matches_hook_ratio"] for row in rows] == [False, False]
    assert all(row["matches_closed_form"] for row in rows)


def test_power_match_zero():
    zero, one = (LaurentQ.zero(), LaurentQ.one()), (LaurentQ.one(), LaurentQ.one())
    for tolerance in verify.TOLERANCES:
        assert power_match(zero, zero, tolerance)
        assert not power_match(zero, one, tolerance)
        assert not power_match(one, zero, tolerance)


def random_laurent(rng, fractions):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        c = rng.choice([-2, -1, 1, 1, 2, 3])
        if fractions and rng.random() < 0.3:
            c = Fraction(c, rng.choice([2, 3]))
        terms[rng.randint(-2, 2)] = c
    return LaurentQ(terms)


@pytest.mark.parametrize("tolerance", verify.TOLERANCES)
def test_power_match_agrees_with_division(tolerance):
    rng = random.Random(61)
    kinds = Counter()
    for trial in range(600):
        fractions = trial % 2 == 1
        bn, bd = random_laurent(rng, fractions), random_laurent(rng, fractions)
        if not bd.terms:
            bd = LaurentQ.one()
        unit = LaurentQ({rng.randint(-3, 3): rng.choice([1, -1])})
        extra = random_laurent(rng, fractions)
        kind = trial % 5
        if kind == 0:  # +-q^m times b, spread over numerator and denominator
            a = (unit * bn * extra, bd * extra)
        elif kind == 1:  # zero on one side or both
            a = (LaurentQ.zero(), random_laurent(rng, fractions))
            if rng.random() < 0.5:
                bn = LaurentQ.zero()
        elif kind == 2:  # a non-monomial multiple of b
            a = (bn * (unit + LaurentQ({5: 1})), bd)
        elif kind == 3:  # a constant multiple of b, 2 or 1/2
            a = (bn * rng.choice([2, Fraction(1, 2)]), bd * unit)
        else:  # unrelated
            a = (random_laurent(rng, fractions), random_laurent(rng, fractions))
        if a[1].is_zero:
            a = (a[0], LaurentQ.one())
        if bn.is_zero or bd.is_zero:
            bd = LaurentQ.one()
        got = power_match(a, (bn, bd), tolerance)
        q_a, q_b = QFrac(*a), QFrac(bn, bd)
        assert got == reference_power_match(q_a, q_b, tolerance), (a, bn, bd)
        if q_a.is_zero or q_b.is_zero:
            kinds["zero"] += 1
        elif reference_power_match(q_a, q_b, "strict"):
            kinds[1] += 1
        else:
            kinds[-1 if reference_power_match(q_a, q_b, "signed") else "other"] += 1
        kinds["match" if got else "no match"] += 1
    # every branch is reached: zero, +q^m, -q^m (refused when strict), other
    assert all(kinds[k] > 20 for k in ("zero", 1, -1, "other", "match",
                                        "no match")), kinds


def test_prop65_valuation_mismatch_is_engine_error(monkeypatch):
    # a box statistic one off makes jantzen_valuation's cross-check raise,
    # and the record keeps the id the case passes under
    from fockweyl import verma

    spec = ("prop65", (1,), 1, 2)
    assert run_case(spec).passed
    real = verma.n_left
    monkeypatch.setattr(verma, "n_left", lambda lam, b, ell: real(lam, b, ell) + 1)
    case = run_case(spec)
    assert (case.case_id, case.passed) == ("prop65/lam=1/k=1/ell=2", False)
    assert case.detail == {"engine_error": "valuation 0 != box statistic 1 "
                                           "for lam=[1], k=1, ell=2"}


class TestEndToEnd:
    """Whole theorem61 cases: the oracle's norms against the Fock columns,
    the box statistic and both closed evaluations."""

    def test_single_box_exponents(self):
        case = run_case(("theorem61", (1,), 2))
        assert case.passed
        assert [(b["row"], b["valuation"]) for b in case.detail["boxes"]] \
            == [(1, 0), (2, -1)]

    def test_empty(self):
        case = run_case(("theorem61", (), 3))
        assert case.passed
        assert case.detail["boxes"][0]["r"] == "1"

    @pytest.mark.parametrize("ell", [2, 3])
    def test_size_up_to_three(self, ell):
        for lam in all_partitions(3):
            assert run_case(("theorem61", tuple(lam), ell)).passed

    def test_size_eight(self):
        # the scaling wall: size 8 needs 9-letter keys with up to 8! words
        # each in V^{(x)9}, and a single key per column in the wedge basis
        cases = [run_case(("theorem61", tuple(lam), 2))
                 for lam in partitions_of(8)]
        assert len(cases) == 22
        for case in cases:
            assert case.passed, case.case_id


def reference_fock_match(lam, ell, tolerance="signed"):
    """theorem61's comparison as it ran before its runner read the column
    table: the images F_i |lam> as `FockVector`s, read by coefficient.
    Returns (passed, boxes)."""
    singulars = mu_singular_vectors(lam, len(lam) + 1)
    ket = FockVector.ket(lam)
    images = {i: apply_F(i, ket, ell) for i in range(ell)}

    boxes = []
    passed = True
    seen = set()
    for sv in singulars:
        b = Box(sv.row, lam.part(sv.row) + 1)
        col = color(b, ell)
        mu = lam.add_box(b)
        seen.add(mu)
        val = val_cyclotomic(sv.norm, 2 * ell)
        nl = n_left(lam, b, ell)
        mono = images[col].coeff(mu).as_monomial()
        exp_ok = mono is not None and mono[1] == 1 and mono[0] == val and val == nl
        wrong_residue = any(not images[i].coeff(mu).is_zero
                            for i in range(ell) if i != col)
        closed_ok = reference_power_match(
            sv.norm, QFrac(*_jantzen_closed_parts(lam, sv.row)), tolerance)
        hook_ok = reference_power_match(sv.norm, hook_ratio(lam, sv.row),
                                        tolerance)
        ok = exp_ok and not wrong_residue and closed_ok and hook_ok
        passed = passed and ok
        boxes.append({
            "row": b.row, "col": b.col,
            "content": content(b), "color": col,
            "n_left": nl, "valuation": val,
            "fock_exponent": mono[0] if mono else None,
            "r": sv.norm.to_text(),
            "matches_closed_form": closed_ok,
            "matches_hook_ratio": hook_ok,
            "pass": ok,
        })
    for i in range(ell):
        for mu, _ in images[i].sorted_terms():
            if mu not in seen:
                passed = False
                boxes.append({"unexpected": list(mu), "color": i, "pass": False})
    return passed, boxes


def extra_kets(cols, lam, ell):
    """Kets no addable row gives: two under color 0, out of size order, and
    one under the last color."""
    n = lam.size
    extra = ((Partition((n + 3,)), 0), (Partition((n + 2,)), 1))
    F = dict(cols.F)
    F[0] = F.get(0, ()) + extra
    F[ell - 1] = F.get(ell - 1, ()) + extra[1:]
    return cols._replace(F=F)


def listed_twice(cols, lam, ell):
    """Each color's first ket once more: under color 0 with the same
    exponent, under the others with the exponent + 1."""
    return cols._replace(F={
        i: col + ((col[0][0], col[0][1] + (i > 0)),)
        for i, col in cols.F.items()})


def second_color(cols, lam, ell):
    """Each color's first ket also under the next color."""
    F = {i: cols.F.get(i, ()) + cols.F.get((i - 1) % ell, ())[:1]
         for i in range(ell)}
    return cols._replace(F={i: col for i, col in F.items() if col})


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_theorem61_matches_reference(ell):
    for lam in all_partitions(6):
        case = run_case(("theorem61", tuple(lam), ell))
        assert (case.passed, case.detail["boxes"]) \
            == reference_fock_match(lam, ell), (lam, ell)


@pytest.mark.parametrize("fault", [extra_kets, listed_twice, second_color])
def test_theorem61_faults_match_reference(monkeypatch, fault):
    real = fock._columns
    monkeypatch.setattr(fock, "_columns",
                        lambda lam, ell: fault(real(lam, ell), lam, ell))
    for lam in all_partitions(4):
        for ell in (2, 3, 4):
            case = run_case(("theorem61", tuple(lam), ell))
            assert not case.passed, (lam, ell)
            assert case.detail["boxes"] == reference_fock_match(lam, ell)[1], \
                (lam, ell)
