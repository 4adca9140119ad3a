import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from fockweyl import verma, weyl
from fockweyl.linalg import ff_echelon, field_det, field_echelon, symmetric_pivots
from fockweyl.multirat import MultiRat
from fockweyl.partitions import all_partitions
from fockweyl.ring import LaurentQ, QFrac


def L(d):
    return LaurentQ(d)


def M(rows):
    return [[L({0: v}) if isinstance(v, int) else v for v in row] for row in rows]


def field_rank(rows):
    return len(field_echelon(rows)[1])


def Q(rows):
    return [[QFrac(e) for e in row] for row in M(rows)]


def sparse(rows):
    """Dense rows as the sparse rows `ff_echelon` takes: column index to
    nonzero entry."""
    return [{c: e for c, e in enumerate(row) if not e.is_zero} for row in rows]


def dense(rows, ncols):
    """Sparse rows with column indices back as dense LaurentQ rows."""
    return [[row.get(c, LaurentQ.zero()) for c in range(ncols)] for row in rows]


def upper(matrix):
    """The upper triangle of a dense symmetric matrix as the sparse rows
    `symmetric_pivots` takes."""
    return [{c: e for c, e in enumerate(row) if c >= r and not e.is_zero}
            for r, row in enumerate(matrix)]


def cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    total = QFrac.zero()
    for c in range(len(m)):
        minor = [row[:c] + row[c + 1:] for row in m[1:]]
        term = m[0][c] * cofactor_det(minor)
        total = total + term if c % 2 == 0 else total - term
    return total


class TestFractionFree:
    def test_rank_of_singular(self):
        m = M([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert len(ff_echelon(sparse(m))[1]) == 2

    def test_kernel_vector(self):
        m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        ech, piv = ff_echelon(sparse(M(m)))
        assert piv == [0, 1]
        # the kernel (-1, -1, 1) of m is the kernel of its echelon rows
        x = M([[-1, -1, 1]])[0]
        for row in dense(ech, 3):
            assert (row[0] * x[0] + row[1] * x[1] + row[2] * x[2]).is_zero

    def test_polynomial_entries(self):
        q = L({1: 1})
        m = [[q, L({2: 1})], [LaurentQ.one(), q]]  # second row = first / q
        ech, piv = ff_echelon(sparse(m))
        ech = dense(ech, 2)
        assert piv == [0]
        # (-q, 1) spans the kernel
        assert (ech[0][1] - ech[0][0] * q).is_zero

    def test_empty_matrix(self):
        ech, piv = ff_echelon([])
        assert ech == [] and piv == []


def dense_strip_content(row):
    """Divide a dense row by the gcd of its nonzero entries."""
    g = None
    for e in row:
        if e.is_zero:
            continue
        g = e if g is None else g.gcd(e)
        if g.is_unit:
            break
    if g is None or g.is_unit:
        return row
    return [e if e.is_zero else e.exact_div(g) for e in row]


def dense_ff_echelon(rows):
    """ff_echelon on dense rows with the plain dense row update, as a
    reference."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    piv_cols = []
    r0 = 0
    for col in range(ncols):
        nonzero = [r for r in range(r0, len(m)) if not m[r][col].is_zero]
        if not nonzero:
            continue
        pivot = min(nonzero, key=lambda r: m[r][col].complexity())
        m[r0], m[pivot] = m[pivot], m[r0]
        p = m[r0][col]
        for r in range(r0 + 1, len(m)):
            a = m[r][col]
            if a.is_zero:
                continue
            row = m[r]
            m[r] = dense_strip_content(
                [p * row[c] - a * m[r0][c] for c in range(ncols)])
        piv_cols.append(col)
        r0 += 1
        if r0 == len(m):
            break
    return m[:r0], piv_cols


def oracle_rows(monkeypatch, max_size):
    """The sparse rows of the oracle's solves in theorem61 on every partition
    of size <= max_size (the solve does not depend on ell)."""
    recorded = []

    def record(rows):
        recorded.append(rows)
        return ff_echelon(rows)

    monkeypatch.setattr(weyl, "ff_echelon", record)
    for lam in all_partitions(max_size):
        weyl.mu_singular_vectors.__wrapped__(lam, len(lam) + 1)
    return recorded


class TestSparseUpdate:
    def test_matches_dense_update(self, monkeypatch):
        rng = random.Random(23)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
            zero_rows = {r for r in range(nrows) if rng.random() < 0.2}
            zero_cols = {c for c in range(ncols) if rng.random() < 0.2}
            rows = []
            for r in range(nrows):
                row = []
                for c in range(ncols):
                    if r in zero_rows or c in zero_cols or rng.random() < 0.6:
                        row.append(LaurentQ.zero())
                    else:
                        row.append(L({rng.randint(-2, 2): rng.randint(-3, 3),
                                      rng.randint(-2, 2): rng.randint(-3, 3)}))
                rows.append(row)
            ech, piv = ff_echelon(sparse(rows))
            ref_ech, ref_piv = dense_ff_echelon(rows)
            assert piv == ref_piv
            assert ech == sparse(ref_ech)
        # the oracle's rows, keyed by (0, i, w) and (1, w), over their keys
        recorded = oracle_rows(monkeypatch, 6)
        assert len(recorded) == 75  # one solve per addable row
        for rows in recorded:
            keys = sorted({k for row in rows for k in row})
            ref_ech, ref_piv = dense_ff_echelon(
                [[row.get(k, LaurentQ.zero()) for k in keys] for row in rows])
            ech, piv = ff_echelon(rows)
            assert piv == [keys[c] for c in ref_piv]
            assert ech == [{keys[c]: e for c, e in row.items()}
                           for row in sparse(ref_ech)]


class TestFieldOps:
    def test_det_and_rank(self):
        m = [[QFrac(L({1: 1})), QFrac.one()], [QFrac.one(), QFrac(L({-1: 1}))]]
        # det = q * q^-1 - 1 = 0
        assert field_det(m).is_zero
        assert field_rank(m) == 1

    def test_det_sign_under_row_swap(self):
        assert field_det(Q([[0, 1], [1, 0]])) == QFrac(L({0: -1}))
        assert field_det(Q([[1, 0], [0, 1]])) == QFrac.one()

    def test_det_against_cofactor_expansion(self):
        q = L({1: 1})
        # zero top-left entry forces a swap; q-dependent entries elsewhere
        m = [[QFrac.zero(), QFrac(q), QFrac.one()],
             [QFrac(q + L({0: 1})), QFrac.one(), QFrac(L({-1: 2}))],
             [QFrac.one(), QFrac(L({2: 1}) - L({0: 3})), QFrac(q) / QFrac(L({0: 1}) + q)]]
        d = field_det(m)
        assert not d.is_zero
        assert d == cofactor_det(m)

    def test_det_sign_with_least_complex_pivot(self):
        # the pivot of column 0 is row 1 (entry 1, simpler than 1 + q)
        m = Q([[L({0: 1, 1: 1}), 1], [1, 1]])
        ech, piv, sign = field_echelon(m)
        assert ech[0][0] == QFrac.one() and piv == [0, 1] and sign == -1
        assert field_det(m) == QFrac(L({1: 1})) == cofactor_det(m)

    def test_echelon_sign_and_pivots(self):
        ech, piv, sign = field_echelon(Q([[0, 0, 1], [0, 2, 0], [3, 0, 0]]))
        assert piv == [0, 1, 2] and sign == -1
        assert all(ech[r][c].is_zero for r in range(3) for c in range(r))

    def test_random_consistency(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [[L({rng.randint(-2, 2): rng.randint(-2, 2)})
                     for _ in range(n)] for _ in range(n)]
            frows = [[QFrac(e) for e in row] for row in rows]
            d = field_det(frows)
            assert d.is_zero == (field_rank(frows) < n)
            assert d == cofactor_det(frows)
            assert len(ff_echelon(sparse(rows))[1]) == field_rank(frows)

    def test_kernels_agree(self):
        # both eliminations choose the same pivot columns
        rng = random.Random(5)
        for _ in range(20):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[L({rng.randint(-1, 1): rng.randint(-1, 1)})
                     for _ in range(ncols)] for _ in range(nrows)]
            frows = [[QFrac(e) for e in row] for row in rows]
            assert ff_echelon(sparse(rows))[1] == field_echelon(frows)[1]


@st.composite
def integer_grams(draw):
    """G = A^T A for a random integer A whose rank may be deficient: some of
    its columns are combinations of others."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    cols = []
    for _ in range(n):
        if cols and draw(st.booleans()):
            c1, c2 = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            a, b = draw(entries), draw(entries)
            cols.append([a * x + b * y for x, y in zip(c1, c2)])
        else:
            cols.append([draw(entries) for _ in range(m)])
    return [[sum(x * y for x, y in zip(ci, cj)) for cj in cols] for ci in cols]


class TestSymmetricPivots:
    @given(integer_grams())
    def test_gram_of_integer_matrix(self, g):
        # A^T A is positive semidefinite over Q, so every zero diagonal pivot
        # comes with a zero row and the form is anisotropic
        m = Q(g)
        chosen, pivots = symmetric_pivots(upper(m))
        assert chosen == field_echelon(m)[1]
        assert len(pivots) == len(chosen)
        if chosen:
            det = pivots[0]
            for p in pivots[1:]:
                det = det * p
            assert det == field_det([[m[r][c] for c in chosen] for r in chosen])

    def test_leading_minors(self):
        # pivots are ratios of successive leading principal minors
        m = Q([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
        assert symmetric_pivots(upper(m)) == (
            [0, 1, 2], [QFrac(2), QFrac(Fraction(3, 2)), QFrac(Fraction(4, 3))])

    def test_zero_pivot_needs_zero_row(self):
        m = Q([[1, 1, 2], [1, 1, 3], [2, 3, 5]])
        with pytest.raises(ValueError):
            symmetric_pivots(upper(m))  # index 1: zero pivot, row entry 3 - 2 = 1
        chosen, pivots = symmetric_pivots(
            upper(Q([[1, 2, 1], [2, 4, 2], [1, 2, 2]])))
        assert chosen == [0, 2] and pivots == [QFrac.one(), QFrac.one()]

    def test_isotropic_raises(self):
        with pytest.raises(ValueError):
            symmetric_pivots(upper(Q([[0, 1], [1, 0]])))

    def test_zero_and_empty(self):
        assert symmetric_pivots([]) == ([], [])
        assert symmetric_pivots(upper(Q([[0, 0], [0, 0]]))) == ([], [])

    @pytest.mark.parametrize("eliminate,rows", [
        (symmetric_pivots, upper(Q([[1, 2], [2, 1]]))),
        (ff_echelon, sparse(M([[1, 2], [2, 1]])))],
        ids=["symmetric_pivots", "ff_echelon"])
    def test_input_unchanged(self, eliminate, rows):
        # both update the second row
        before = [dict(row) for row in rows]
        eliminate(rows)
        assert rows == before

    def test_matches_dense_reference(self, monkeypatch):
        rng = random.Random(31)
        raised = deficient = 0
        for _ in range(80):
            n = rng.randint(1, 7)
            # zero blocks: index pairs in different groups pair to zero
            group = [rng.randint(0, 2) for _ in range(n)]
            m = [[None] * n for _ in range(n)]
            for r in range(n):
                for c in range(r, n):
                    v = 0 if group[r] != group[c] or rng.random() < 0.3 \
                        else rng.randint(-3, 3)
                    m[r][c] = m[c][r] = QFrac(L({0: v}))
            try:
                expected = dense_symmetric_pivots(m)
            except ValueError:
                raised += 1
                with pytest.raises(ValueError):
                    symmetric_pivots(upper(m))
                continue
            deficient += len(expected[0]) < n
            assert symmetric_pivots(upper(m)) == expected
        # both branches of a zero pivot are reached
        assert (raised, deficient) == (31, 29)
        # the engine's matrix at k = rank = 4
        recorded = []

        def record(rows):
            recorded.append(rows)
            return symmetric_pivots(rows)

        monkeypatch.setattr(verma, "symmetric_pivots", record)
        verma.jantzen_engine(4, 4)
        rows = recorded[-1]  # the slot Grams come first
        n = len(rows)
        zero = MultiRat.zero(4)
        m = [[zero] * n for _ in range(n)]
        for r, row in enumerate(rows):
            for c, e in row.items():
                m[r][c] = m[c][r] = e
        chosen, pivots = symmetric_pivots(rows)
        assert (chosen, pivots) == dense_symmetric_pivots(m)
        assert len(chosen) == 8 < n == 9


def dense_symmetric_pivots(matrix):
    """The dense reference for symmetric_pivots: the same steps on a full
    symmetric matrix, reading and updating only its upper triangle."""
    n = len(matrix)
    s = [list(row) for row in matrix]
    chosen, pivots = [], []
    for k in range(n):
        row = s[k]
        p = row[k]
        if p.is_zero:
            if any(not row[j].is_zero for j in range(k + 1, n)):
                raise ValueError(f"zero pivot with a nonzero row at index {k}")
            continue
        chosen.append(k)
        pivots.append(p)
        for i in range(k + 1, n):
            if row[i].is_zero:
                continue
            f = row[i] / p
            si = s[i]
            for j in range(i, n):
                if not row[j].is_zero:
                    si[j] = si[j] - f * row[j]
    return chosen, pivots
