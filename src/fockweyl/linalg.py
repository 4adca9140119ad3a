"""Exact linear algebra helpers.

Fraction-free elimination over a polynomial domain (`ff_echelon`; entries need
+, -, *, is_zero, exact_div, gcd and a complexity key) for the tensor-space
solve, which reads its singular vectors straight off the echelon rows.  A
symmetric matrix whose form is anisotropic, such as a Gram matrix, takes one
diagonal-pivot elimination over a field (`symmetric_pivots`): its chosen
indices are a basis, the product of its pivots is the determinant on them,
and its last pivot is the Schur complement of the last chosen index.  The
Verma module side needs nothing else.  A plain forward Gaussian elimination
over a field (`field_echelon`; entries need +, -, *, /, is_zero and a
complexity key) remains behind `field_det`, the determinant of a general
square matrix.
"""

from __future__ import annotations


def ff_echelon(rows):
    """Fraction-free row echelon form with per-row content stripping.

    `rows` is a list of dense lists of domain elements; it is not modified.
    Each elimination step cross-multiplies (no division) and then divides the
    row by the gcd of its entries, which keeps growth comparable to Bareiss.
    Row scaling is unconstrained, so use this for rank / kernel work only.
    Products with a zero factor are skipped, which matters on sparse rows.
    Returns (echelon_rows, pivot_cols).
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    piv_cols = []
    r0 = 0
    for col in range(ncols):
        pivot = None
        best = None
        for r in range(r0, len(m)):
            e = m[r][col]
            if not e.is_zero:
                key = e.complexity()
                if best is None or key < best:
                    best = key
                    pivot = r
        if pivot is None:
            continue
        m[r0], m[pivot] = m[pivot], m[r0]
        prow = m[r0]
        p = prow[col]
        for r in range(r0 + 1, len(m)):
            a = m[r][col]
            if a.is_zero:
                continue
            m[r] = _strip_content([_cross(p, x, a, y)
                                   for x, y in zip(m[r], prow)])
        piv_cols.append(col)
        r0 += 1
        if r0 == len(m):
            break
    return m[:r0], piv_cols


def _cross(p, x, a, y):
    """p * x - a * y, without multiplying by a zero x or y."""
    if y.is_zero:
        return x if x.is_zero else p * x
    if x.is_zero:
        return -(a * y)
    return p * x - a * y


def _strip_content(row):
    """Divide a row of domain elements by the gcd of its nonzero entries."""
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


def symmetric_pivots(matrix):
    """Diagonal-pivot elimination of a symmetric matrix over a field.

    Step k eliminates index k against the Schur complement left by the
    earlier steps, updating only the upper triangle:
    s_ij -= (s_ki / s_kk) s_kj for k < i <= j.  A nonzero s_kk chooses k with
    pivot s_kk.  A zero s_kk requires the rest of its row to be zero, which
    by symmetry makes the whole Schur row zero, so the rank is proven and not
    assumed; otherwise the form is isotropic there and ValueError is raised.
    When it is not raised, the chosen indices are the lexicographically first
    column basis, and the product of the first t pivots is the principal
    minor on the first t chosen indices.  `matrix` is not modified.
    Returns (chosen, pivots).
    """
    n = len(matrix)
    s = [list(row) for row in matrix]
    chosen, pivots = [], []
    for k in range(n):
        row = s[k]
        p = row[k]
        if p.is_zero:
            if any(not row[j].is_zero for j in range(k + 1, n)):
                raise ValueError(f"zero pivot with a nonzero row at index {k}: "
                                 f"the form is isotropic")
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
