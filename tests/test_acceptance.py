"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with pytest -s or in failure output).

Criteria summary:
  1. hook-ratio evaluation on the big reference partition renders [2][7]/([5][9])
  2. color grid of (7,6,6,5,5,3,3,1) at ell=3 matches the reference diagram
  3. engine Gram determinants match the closed form up to a unit
  4. shifted Gram determinants equal the shift automorphism of the unshifted ones
  5. Jantzen engine equals the closed product form up to +-q^m
  6. the determinant product identity holds up to +-q^m
  7. closed evaluations match hook ratios (+-q^m) and valuations match box stats
  8. oracle norms reproduce the Fock operator exponents end to end
  9. the Fock relation suite passes
 10. randomized property suites, >= 200 cases each
"""

import random
import time

from fockweyl.fock import check_relations
from fockweyl.multirat import MultiPoly, MultiRat, sigma_shift
from fockweyl.partitions import Partition, color
from fockweyl.ring import LaurentQ, QFrac, q_int, render_q_integers, val_cyclotomic
from fockweyl.verma import (VermaElement, hook_factors, hook_ratio,
                            shapovalov_pair)
from fockweyl.verify import RunConfig, run_family
from fockweyl.weights import Weight, alpha
from fockweyl.weyl import TensorVector, tensor_act, tensor_form

from conftest import (QField, diagram_boxes, eval_at_weight,
                      reference_power_match, tensor_l)


def report(name, dt, budget=None):
    tail = f", budget {budget}s" if budget is not None else ""
    print(f"[acceptance] {name}: PASS ({dt:.2f}s{tail})")


def test_criterion_01_figure_evaluation():
    t0 = time.time()
    lam = Partition((10, 10, 8, 8, 8, 6, 6, 6, 6, 1, 1))
    value = hook_ratio(lam, 6)
    expected = QFrac(q_int(2) * q_int(7), q_int(5) * q_int(9))
    assert reference_power_match(value, expected, "signed")
    assert QField(value) / expected == QFrac(1)  # in fact exactly equal
    assert render_q_integers(*hook_factors(lam, 6)) == "[2][7]/([5][9])"
    dt = time.time() - t0
    assert dt < 1.0
    report("C1 figure evaluation", dt, 1)


FIGURE_COLORS = {
    1: [0, 1, 2, 0, 1, 2, 0],
    2: [2, 0, 1, 2, 0, 1],
    3: [1, 2, 0, 1, 2, 0],
    4: [0, 1, 2, 0, 1],
    5: [2, 0, 1, 2, 0],
    6: [1, 2, 0],
    7: [0, 1, 2],
    8: [2],
}


def test_criterion_02_figure_colors():
    t0 = time.time()
    lam = Partition((7, 6, 6, 5, 5, 3, 3, 1))
    checked = 0
    for b in diagram_boxes(lam):
        assert color(b, 3) == FIGURE_COLORS[b.row][b.col - 1]
        checked += 1
    assert checked == 36
    dt = time.time() - t0
    assert dt < 1.0
    report("C2 figure colors", dt, 1)


def test_criterion_03_determinant_closed_form():
    t0 = time.time()
    rep = run_family("theorem51", RunConfig())
    assert rep.failed == 0, [c.case_id for c in rep.cases if not c.passed]
    assert rep.passed == 13  # 4 weight spaces at rank 2, 9 at rank 3
    dt = time.time() - t0
    assert dt < 120
    report("C3 determinant closed form", dt, 120)


def test_criterion_04_shift_equivariance():
    t0 = time.time()
    rep = run_family("prop52", RunConfig())
    assert rep.failed == 0, [c.case_id for c in rep.cases if not c.passed]
    dt = time.time() - t0
    assert dt < 120
    report("C4 shift equivariance", dt, 120)


def test_criterion_05_jantzen_engine_vs_closed():
    t0 = time.time()
    rep = run_family("lemma63", RunConfig())
    assert rep.failed == 0, [c.case_id for c in rep.cases if not c.passed]
    assert rep.passed == 5  # k <= rank for rank 2 and 3
    dt = time.time() - t0
    assert dt < 60
    report("C5 jantzen engine vs closed", dt, 60)


def test_criterion_06_det_product_identity():
    t0 = time.time()
    rep = run_family("lemma62", RunConfig())
    assert rep.failed == 0, [c.case_id for c in rep.cases if not c.passed]
    dt = time.time() - t0
    assert dt < 120
    report("C6 det product identity", dt, 120)


def test_criterion_07_evaluations_and_valuations():
    t0 = time.time()
    rep = run_family("prop64", RunConfig(max_size=6))
    assert rep.failed == 0
    for ell in (2, 3, 4):
        rep = run_family("prop65", RunConfig(ell=ell, max_size=6))
        assert rep.failed == 0, f"ell={ell}"
    dt = time.time() - t0
    assert dt < 30
    report("C7 evaluations and valuations", dt, 30)


def test_criterion_08_fock_exponents_end_to_end():
    t0 = time.time()
    total = 0
    for ell in (2, 3):
        rep = run_family("theorem61", RunConfig(ell=ell, max_size=4))
        assert rep.failed == 0, [c.case_id for c in rep.cases if not c.passed]
        total += rep.passed
    assert total == 24  # 12 partitions of size <= 4, two residue systems
    dt = time.time() - t0
    assert dt < 600
    report("C8 fock exponents end to end", dt, 600)


def test_criterion_09_fock_relations():
    t0 = time.time()
    for ell in (2, 3, 4):
        results = check_relations(ell, 6)
        bad = [r for r in results if not r["passed"]]
        assert not bad, bad[:2]
        kinds = {r["relation"] for r in results}
        assert ("serre" in kinds) == (ell >= 3)
    dt = time.time() - t0
    assert dt < 30
    report("C9 fock relations", dt, 30)


def _random_laurent(rng, var="q"):
    p = LaurentQ({rng.randint(-4, 4): rng.randint(-4, 4) for _ in range(3)}, var)
    return p


def test_criterion_10a_valuation_multiplicative():
    t0 = time.time()
    rng = random.Random(101)
    cases = 0
    while cases < 200:
        a, b = _random_laurent(rng), _random_laurent(rng)
        if a.is_zero or b.is_zero:
            continue
        d = rng.choice([4, 6, 8])
        assert val_cyclotomic(a * b, d) == val_cyclotomic(a, d) + val_cyclotomic(b, d)
        cases += 1
    report("C10a valuation multiplicativity (200 cases)", time.time() - t0)


def test_criterion_10b_divisibility_law():
    t0 = time.time()
    cases = 0
    for ell in (2, 3, 4, 5, 6):
        for x in range(1, 41):
            expected = 1 if x % ell == 0 else 0
            assert val_cyclotomic(q_int(x), 2 * ell) == expected
            cases += 1
    assert cases == 200
    report("C10b divisibility law (200 cases)", time.time() - t0)


def test_criterion_10c_eval_sigma_composition():
    t0 = time.time()
    rng = random.Random(202)
    rank = 2
    cases = 0
    while cases < 200:
        terms = {tuple(rng.randint(-2, 2) for _ in range(rank + 1)):
                 rng.randint(-3, 3) for _ in range(2)}
        num = MultiPoly(rank, terms)
        if num.is_zero:
            continue
        f = MultiRat(num, MultiPoly.one(rank))
        lam = Weight(tuple(rng.randint(-3, 3) for _ in range(rank)))
        mu = Weight(tuple(rng.randint(-3, 3) for _ in range(rank)))
        assert eval_at_weight(sigma_shift(f, mu), lam) == eval_at_weight(f, lam + mu)
        cases += 1
    report("C10c eval/sigma composition (200 cases)", time.time() - t0)


def test_criterion_10d_pairing_symmetry_orthogonality():
    t0 = time.time()
    rng = random.Random(303)
    rank = 3
    mu = Weight.zero(rank)
    cases = 0
    while cases < 200:
        m = rng.randint(0, 4)
        w1 = tuple(rng.randint(1, rank - 1) for _ in range(m))
        m2 = rng.randint(0, 4)
        w2 = tuple(rng.randint(1, rank - 1) for _ in range(m2))
        a = VermaElement.word(w1, mu, rank)
        b = VermaElement.word(w2, mu, rank)
        ab = shapovalov_pair(a, b)
        assert ab == shapovalov_pair(b, a)
        nu1 = sum((alpha(i, rank) for i in w1), Weight.zero(rank))
        nu2 = sum((alpha(i, rank) for i in w2), Weight.zero(rank))
        if nu1 != nu2:
            assert ab.is_zero
        cases += 1
    report("C10d pairing symmetry/orthogonality (200 cases)", time.time() - t0)


def test_criterion_10e_tensor_form_contravariance():
    t0 = time.time()
    rng = random.Random(404)
    rank = 4
    cases = 0
    while cases < 200:
        n = rng.randint(1, 4)
        def rnd_vec():
            terms = {}
            for _ in range(2):
                w = tuple(rng.randint(1, rank) for _ in range(n))
                terms[w] = LaurentQ({rng.randint(-2, 2): rng.randint(1, 3)})
            return TensorVector(n, rank, terms)
        u, v = rnd_vec(), rnd_vec()
        i = rng.randint(1, rank - 1)
        lhs = tensor_form(tensor_act("X", i, u), v)
        w = tensor_l(i + 1, v, -1)
        w = tensor_l(i, w)
        w = tensor_act("Y", i, w)
        assert lhs == tensor_form(u, w)
        cases += 1
    report("C10e tensor form contravariance (200 cases)", time.time() - t0)
