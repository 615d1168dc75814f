from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from waifi.field import FieldElement, QQ_TOWER, Tower
from waifi.linalg import det, nullspace


def fe(x, tower=QQ_TOWER):
    return FieldElement.rational(Fraction(x), tower)


def rows_of(mat, tower=QQ_TOWER):
    return [[fe(x, tower) for x in row] for row in mat]


def test_rank_and_nullspace():
    rows = rows_of([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    ns = nullspace(rows)
    assert len(ns) == 1
    v = ns[0]
    for row in rows:
        s = fe(0)
        for a, x in zip(row, v):
            s = s + a * x
        assert s.is_zero()


def test_det_examples():
    assert det(rows_of([[1, 2], [3, 4]])) == fe(-2)
    assert det(rows_of([[2, 0, 0], [0, 3, 0], [0, 0, 4]])) == fe(24)
    assert det(rows_of([[1, 2], [2, 4]])).is_zero()


def test_nullspace_over_extension():
    t = Tower().adjoin("i", (Fraction(1), Fraction(0), Fraction(1)))
    i = FieldElement.generator(t)
    one = FieldElement.rational(1, t)
    ns = nullspace([[one, i]])
    assert len(ns) == 1
    a, b = ns[0]
    assert (a + i * b).is_zero()


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_rank_nullity(mat):
    # sympy's rank is an oracle independent of the elimination under test
    assert len(nullspace(rows_of(mat))) == 3 - sympy.Matrix(mat).rank()


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_det_vs_fractions_gauss(mat):
    rows = rows_of(mat)
    d = det(rows)
    # naive cofactor expansion oracle
    (a, b, c), (p, q, r), (u, v, w) = [[Fraction(x) for x in row] for row in mat]
    expect = a * (q * w - r * v) - b * (p * w - r * u) + c * (p * v - q * u)
    assert d == fe(expect)
