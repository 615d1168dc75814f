"""Exact linear algebra over extension towers of Q.

One Gauss-Jordan elimination serves every matrix: it runs in the tower of
the entries, with Q (ints and Fractions) as the tower of depth 0, and
brings the rows to their reduced echelon form with unit pivots.  The
nullspace is read from that form, and the determinant from the pivots and
the sign of the row swaps.  Everything returns FieldElement results, never
floats.
"""

from __future__ import annotations

from .field import FieldElement, QQ_TOWER


def _gauss_jordan(rows):
    """Gauss-Jordan elimination of a matrix of FieldElements and rationals.

    Returns (echelon, pivots, tower, sign, pivot_product): the nonzero rows
    of the reduced row echelon form as raw values of the tower of the
    entries, their pivot columns, that tower, the sign of the row swaps and
    the product of the pivots met.
    """
    tower = QQ_TOWER
    for row in rows:
        for x in row:
            if isinstance(x, FieldElement):
                tower = tower.join(x.tower)
    m = [[tower.element(x).v for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    sign = 1
    pivot_product = tower.one()
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if not tower.is_zero(m[i][c])), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        pivot_product = tower.mul(pivot_product, m[r][c])
        inv = tower.inv(m[r][c])
        m[r] = [tower.mul(inv, x) for x in m[r]]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and not tower.is_zero(f):
                m[i] = [tower.sub(x, tower.mul(f, y)) for x, y in zip(row, m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots, tower, sign, pivot_product


def nullspace(rows):
    """Basis of the right kernel of a matrix of FieldElement entries.

    Returns a list of vectors of FieldElement, one per free column, each with
    a unit entry in its free column and zeros in the other free columns.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    ech, pivots, tower, _, _ = _gauss_jordan(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [tower.zero()] * ncols
        vec[fc] = tower.one()
        for i, pc in enumerate(pivots):
            vec[pc] = tower.neg(ech[i][fc])
        basis.append([FieldElement(tower, x) for x in vec])
    return basis


def det(rows):
    """Exact determinant of a square matrix of FieldElement entries: the
    signed product of the pivots of its elimination over its tower."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    _, pivots, tower, sign, prod = _gauss_jordan(rows)
    if len(pivots) < n:
        return FieldElement(tower, tower.zero())
    return FieldElement(tower, prod if sign == 1 else tower.neg(prod))
