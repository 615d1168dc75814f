"""Exact linear algebra over the rationals and over extension towers.

The reduced echelon form of a rational matrix comes from fraction-free
(Bareiss) elimination on integer rescalings of the rows, which also clears
the entries above each pivot on those integer rows (row k becomes pivot *
row k - entry * pivot row, divided by its content), so Fractions are made
only once, when each row is divided by its pivot at the end.  Matrices with
genuine algebraic entries, and every determinant, use ordinary exact
Gaussian elimination in the tower.  Everything returns FieldElement
results, never floats.
"""

from __future__ import annotations

from math import gcd, lcm

from .field import FieldElement, QQ_TOWER, ratio


def _unwrap(rows):
    """Split a matrix of FieldElements and rationals into (raw rows, tower)."""
    tower = QQ_TOWER
    for row in rows:
        for x in row:
            if isinstance(x, FieldElement):
                tower = tower.join(x.tower)
    return [[tower.element(x).v for x in row] for row in rows], tower


def primitive(vec):
    """The primitive integer vector on the line of a vector of rationals
    (ints or Fractions), with the signs of its entries: the entries times
    the lcm of their denominators, divided by their gcd.  The zero vector
    stays zero."""
    den = lcm(*[x.denominator for x in vec])
    ints = [int(x * den) for x in vec]
    g = gcd(*ints) or 1
    return [v // g for v in ints]


def _bareiss(m):
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Returns the pivot columns: the first len(pivots) rows of m become an
    integer echelon form.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    prev = 1
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        p = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                p = i
                break
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (piv * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return pivots


def _tower_echelon(raw, tower):
    """Ordinary exact elimination over a tower; rows get unit pivots."""
    m = [list(r) for r in raw]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    sign = 1
    pivots = []
    pivot_product = tower.one()
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        p = None
        for i in range(r, nrows):
            if not tower.is_zero(m[i][c]):
                p = i
                break
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        piv = m[r][c]
        pivot_product = tower.mul(pivot_product, piv)
        inv = tower.inv(piv)
        m[r] = [tower.mul(inv, x) for x in m[r]]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if tower.is_zero(f):
                continue
            m[i] = [tower.sub(x, tower.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[: len(pivots)], pivots, sign, pivot_product


def _rref(rows):
    """Reduced row echelon form.  Returns (rows as raw values, pivots, tower)."""
    raw, tower = _unwrap(rows)
    if not raw or not raw[0]:
        return [], [], tower
    if tower.depth == 0:
        m = [primitive(row) for row in raw]
        pivots = _bareiss(m)
        m = m[: len(pivots)]
        # eliminate above the pivots on integers, each row kept primitive
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            for k in range(i):
                f = m[k][c]
                if f:
                    row = [m[i][c] * x - f * y for x, y in zip(m[k], m[i])]
                    m[k] = primitive(row)
        ech = [[ratio(x, m[i][c]) for x in m[i]] for i, c in enumerate(pivots)]
        return ech, pivots, tower
    ech, pivots, _, _ = _tower_echelon(raw, tower)
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        for k in range(i):
            f = ech[k][c]
            if not tower.is_zero(f):
                ech[k] = [
                    tower.sub(x, tower.mul(f, y)) for x, y in zip(ech[k], ech[i])
                ]
    return ech, pivots, tower


def nullspace(rows):
    """Basis of the right kernel of a matrix of FieldElement entries.

    Returns a list of vectors of FieldElement, one per free column, each with
    a unit entry in its free column and zeros in the other free columns.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    ech, pivots, tower = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [tower.zero()] * ncols
        vec[fc] = tower.one()
        for i, pc in enumerate(pivots):
            vec[pc] = tower.neg(ech[i][fc])
        basis.append([FieldElement(tower, x) for x in vec])
    return basis


def det(rows):
    """Exact determinant of a square matrix of FieldElement entries: the
    signed product of the pivots of its elimination over its tower."""
    raw, tower = _unwrap(rows)
    n = len(raw)
    if any(len(r) != n for r in raw):
        raise ValueError("matrix is not square")
    _, pivots, sign, prod = _tower_echelon(raw, tower)
    if len(pivots) < n:
        return FieldElement(tower, tower.zero())
    return FieldElement(tower, prod if sign == 1 else tower.neg(prod))
