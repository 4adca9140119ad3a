"""Exact linear algebra helpers.

The two live eliminations take sparse rows: a row is a dict from a column
key to a nonzero entry, a column with no entry in a row is zero there, and
the input rows are never modified.  `ff_echelon` is a fraction-free
elimination over a polynomial domain (entries need +, -, *, is_zero,
exact_div, gcd and a complexity key; the keys need only sort) for the
tensor-space slot solves, which read each slot's solution straight off the
echelon row whose pivot is its marker key.  `symmetric_pivots` is one
diagonal-pivot elimination over a field of a symmetric matrix whose form is
anisotropic, such as a Gram matrix, given by its upper triangle: its chosen
indices are a basis, the product of its pivots is the determinant on them,
and its last pivot is the Schur complement of the last chosen index.

`field_echelon` (dense forward Gaussian elimination over a field) and
`field_det` (the determinant of a dense square matrix) have no caller in the
package; they stay only because the benchmark's hooks resolve them by name.
"""

from __future__ import annotations


def ff_echelon(rows):
    """Fraction-free row echelon form of sparse rows with per-row content
    stripping.

    Columns are taken in key order.  The pivot of a column is the entry of
    least complexity at or below the current row (the first such row on a
    tie), swapped into place.  Each row below with an entry in that column
    becomes pivot * row - entry * pivot row (no division), divided by the
    gcd of its entries, which keeps growth comparable to Bareiss.  Row
    scaling is unconstrained, so use this for rank / kernel work only.
    An echelon row has no entry left of its pivot key.
    Returns (echelon_rows, pivot_keys).
    """
    m = list(rows)
    piv = []
    for col in sorted({c for row in m for c in row}):
        r0 = len(piv)
        having = [r for r in range(r0, len(m)) if col in m[r]]
        if not having:
            continue
        pivot = min(having, key=lambda r: m[r][col].complexity())
        m[r0], m[pivot] = m[pivot], m[r0]
        prow = m[r0]
        p = prow[col]
        for r in range(r0 + 1, len(m)):
            row = m[r]
            a = row.get(col)
            if a is None:
                continue
            new = {c: -(a * y) for c, y in prow.items() if c not in row}
            for c, x in row.items():
                e = p * x if (y := prow.get(c)) is None else p * x - a * y
                if not e.is_zero:
                    new[c] = e
            m[r] = _strip_content(new)
        piv.append(col)
        if len(piv) == len(m):
            break
    return m[:len(piv)], piv


def _strip_content(row):
    """Divide a sparse row by the gcd of its entries."""
    g = None
    for e in row.values():
        g = e if g is None else g.gcd(e)
        if g.is_unit:
            return row
    if g is None:
        return row
    return {c: e.exact_div(g) for c, e in row.items()}


def field_echelon(rows):
    """Forward Gaussian elimination over a field.

    A column gets a pivot when it has a nonzero entry at or below the current
    row, so the pivot columns are the lexicographically first column basis;
    the pivot row is the one whose entry has the least complexity key, which
    keeps entry growth down and does not change the pivot columns.  Rows are
    not normalised.  Returns (echelon_rows, pivot_cols, sign), sign being the
    parity (+1 or -1) of the row swaps.
    """
    m = [list(r) for r in rows]
    piv = []
    sign = 1
    for col in range(len(m[0]) if m else 0):
        r0 = len(piv)
        if r0 == len(m):
            break
        nonzero = [r for r in range(r0, len(m)) if not m[r][col].is_zero]
        if not nonzero:
            continue
        pivot = min(nonzero, key=lambda r: m[r][col].complexity())
        if pivot != r0:
            m[r0], m[pivot] = m[pivot], m[r0]
            sign = -sign
        p = m[r0]
        for r in range(r0 + 1, len(m)):
            if not m[r][col].is_zero:
                f = m[r][col] / p[col]
                m[r] = [x if y.is_zero else x - f * y for x, y in zip(m[r], p)]
        piv.append(col)
    return m[:len(piv)], piv, sign


def symmetric_pivots(rows):
    """Diagonal-pivot elimination of a symmetric matrix over a field, given
    by its upper triangle: `rows[i]` maps each j >= i to a nonzero s_ij.

    Step k eliminates index k against the Schur complement left by the
    earlier steps: s_ij -= (s_ki / s_kk) s_kj for k < i <= j.  A nonzero
    s_kk chooses k with pivot s_kk.  A zero s_kk requires the rest of its
    row to be zero, which by symmetry makes the whole Schur row zero, so the
    rank is proven and not assumed; otherwise the form is isotropic there and
    ValueError is raised.  When it is not raised, the chosen indices are the
    lexicographically first column basis, and the product of the first t
    pivots is the principal minor on the first t chosen indices.
    Returns (chosen, pivots).
    """
    s = [dict(row) for row in rows]
    chosen, pivots = [], []
    for k, row in enumerate(s):
        p = row.pop(k, None)
        if p is None:
            if row:
                raise ValueError(f"zero pivot with a nonzero row at index {k}: "
                                 f"the form is isotropic")
            continue
        chosen.append(k)
        pivots.append(p)
        items = sorted(row.items())
        for t, (i, a) in enumerate(items):
            f = a / p
            si = s[i]
            for j, b in items[t:]:
                e = si.get(j)
                e = -(f * b) if e is None else e - f * b
                if e.is_zero:
                    si.pop(j, None)
                else:
                    si[j] = e
    return chosen, pivots


def field_det(matrix):
    """Determinant over a field: the signed product of the echelon pivots."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    ech, piv, sign = field_echelon(matrix)
    if len(piv) < n:
        return matrix[0][0] - matrix[0][0]
    det = ech[0][0]
    for r in range(1, n):
        det = det * ech[r][r]
    return -det if sign < 0 else det
