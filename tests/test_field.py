from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from waifi.field import (
    ExtensionDegreeExceeded,
    FieldElement,
    QQ_TOWER,
    SplitRequired,
    Tower,
)


def tower_qi():
    return Tower().adjoin("i", (Fraction(1), Fraction(0), Fraction(1)))


def test_rational_arithmetic():
    a = FieldElement.rational(Fraction(2, 3), QQ_TOWER)
    b = FieldElement.rational(Fraction(-1, 6), QQ_TOWER)
    assert (a + b) == FieldElement.rational(Fraction(1, 2), QQ_TOWER)
    assert (a * b) == FieldElement.rational(Fraction(-1, 9), QQ_TOWER)
    assert (a / b) == FieldElement.rational(-4, QQ_TOWER)


def test_generator_squares_to_minus_one():
    t = tower_qi()
    i = FieldElement.generator(t)
    assert i * i == FieldElement.rational(-1, t)


def test_inverse_in_extension():
    t = tower_qi()
    i = FieldElement.generator(t)
    one = FieldElement.rational(1, t)
    inv = (one + i).inverse()
    # (1+i)^{-1} = (1-i)/2
    assert inv == (one - i) / 2
    assert (one + i) * inv == one


def test_nested_tower():
    t = tower_qi()
    # adjoin sqrt(2) on top of Q(i)
    t2 = t.adjoin("s", (t.lift_rational(Fraction(-2)), t.zero(), t.one()))
    s = FieldElement.generator(t2)
    assert s * s == FieldElement.rational(2, t2)
    i = FieldElement.generator(t).lift_to(t2)
    x = (s + i) * (s - i)
    assert x == FieldElement.rational(3, t2)


def test_equal_elements_hash_equal():
    t = tower_qi()
    t2 = t.adjoin("s", (t.lift_rational(Fraction(-2)), t.zero(), t.one()))
    one = FieldElement.rational(1)
    assert one == FieldElement.rational(1, t2) == 1
    assert len({one, FieldElement.rational(1, t), FieldElement.rational(1, t2), 1}) == 1
    # i lies on the prefix Q(i) of Q(i, s): i and its lift are one element
    i = FieldElement.generator(t)
    assert len({i, i.lift_to(t2)}) == 1
    s = FieldElement.generator(t2)
    assert len({i.lift_to(t2), s, one}) == 3


def test_lift_and_coerce():
    t = tower_qi()
    a = FieldElement.rational(Fraction(1, 2), QQ_TOWER)
    i = FieldElement.generator(t)
    assert (a + i) == i + Fraction(1, 2)
    assert QQ_TOWER.join(t) is t and t.join(QQ_TOWER) is t
    assert t.element(a) == a and t.element(a).tower == t
    assert t.element(3) == FieldElement.rational(3, t)
    # towers that are not one chain: no join, and elements compare unequal
    ts = Tower().adjoin("s", (Fraction(-2), Fraction(0), Fraction(1)))
    s = FieldElement.generator(ts)
    with pytest.raises(ValueError, match="non-extension"):
        t.join(ts)
    with pytest.raises(ValueError, match="non-extension"):
        i + s
    assert not (i == s)


def test_split_required_on_zero_divisor():
    # z^2 - 1 is reducible; inverting z - 1 mod it must split
    t = Tower().adjoin("w", (Fraction(-1), Fraction(0), Fraction(1)))
    w = FieldElement.generator(t)
    with pytest.raises(SplitRequired):
        (w - 1).inverse()


def test_degree_cap():
    t = Tower((), max_degree=4)
    t = t.adjoin("a", tuple(Fraction(c) for c in (2, 0, 1)))
    with pytest.raises(ExtensionDegreeExceeded):
        t.adjoin("b", (t.lift_rational(Fraction(3)),) + (t.zero(),) * 2 + (t.one(),))


def test_rationals_have_no_generator():
    with pytest.raises(ValueError):
        FieldElement.generator(Tower())


def test_sort_key_total_order():
    t = tower_qi()
    i = FieldElement.generator(t)
    vals = [i, -i, FieldElement.rational(2, t), i + 1]
    keys = [v.sort_key() for v in vals]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted(keys, key=lambda k: k)


@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
)
def test_field_axioms_in_qi(a, b, c, d):
    t = tower_qi()
    i = FieldElement.generator(t)
    x = i * a + b
    y = i * c + d
    assert x * y == y * x
    assert x + y == y + x
    assert x * (y + 1) == x * y + x
    if not y.is_zero():
        assert (x / y) * y == x
