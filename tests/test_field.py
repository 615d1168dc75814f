from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


# -- leaf types ------------------------------------------------------------


class FractionTower(Tower):
    """Tower arithmetic with every leaf a Fraction, as it was before leaves
    became ints where they can: the reference for integer leaves."""

    __slots__ = ()

    def _at_zero(self, depth):
        return (self.depth if depth is None else depth) == 0

    def _zero_at(self, depth):
        return Fraction(0) if depth == 0 else super()._zero_at(depth)

    def lift_rational(self, q, depth=None):
        return self._pad(Fraction(q), 0, self.depth if depth is None else depth)

    def add(self, a, b, depth=None):
        return a + b if self._at_zero(depth) else super().add(a, b, depth)

    def sub(self, a, b, depth=None):
        return a - b if self._at_zero(depth) else super().sub(a, b, depth)

    def mul(self, a, b, depth=None):
        return a * b if self._at_zero(depth) else super().mul(a, b, depth)

    def scalar_mul(self, q, a, depth=None):
        return q * a if self._at_zero(depth) else super().scalar_mul(q, a, depth)

    def inv(self, a, depth=None):
        return 1 / a if self._at_zero(depth) else super().inv(a, depth)


def leaves(v, depth):
    return [v] if depth == 0 else [x for c in v for x in leaves(c, depth - 1)]


def as_leaves(v, depth, kind):
    """v with every leaf made kind (Fraction, or the leaf of Tower)."""
    if depth == 0:
        return kind(v)
    return tuple(as_leaves(c, depth - 1, kind) for c in v)


# Q, Q(a) with a^2 = 2, and Q(a, b) with b^3 = a + 1/2 over Q(a)
_0 = (Fraction(0), Fraction(0))
LEVELS = (
    ("a", (Fraction(-2), Fraction(0), Fraction(1))),
    ("b", ((Fraction(-1, 2), Fraction(-1)), _0, _0, (Fraction(1), Fraction(0)))),
)


def tower_pair(depth):
    """(Tower, FractionTower) of the first depth levels of LEVELS."""
    tower = Tower(
        (name, tuple(as_leaves(c, j, QQ_TOWER.lift_rational) for c in mp))
        for j, (name, mp) in enumerate(LEVELS[:depth])
    )
    return tower, FractionTower(LEVELS[:depth])


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def raw_values(draw, depth):
    if depth == 0:
        return draw(rationals)
    (_, mp) = LEVELS[depth - 1]
    return tuple(draw(raw_values(depth - 1)) for _ in range(len(mp) - 1))


# each operation as f(tower, x, y, q) on raw values x, y and a rational q
OPS = {
    "add": lambda t, x, y, q: t.add(x, y),
    "sub": lambda t, x, y, q: t.sub(x, y),
    "mul": lambda t, x, y, q: t.mul(x, y),
    "neg": lambda t, x, y, q: t.neg(x),
    "scalar_mul": lambda t, x, y, q: t.scalar_mul(q, x),
    "inv": lambda t, x, y, q: t.inv(y),
    "div": lambda t, x, y, q: t.div(x, y),
}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2).flatmap(
        lambda d: st.tuples(st.just(d), raw_values(d), raw_values(d), rationals)
    ),
    st.sampled_from(sorted(OPS)),
)
def test_leaves_are_ints_or_proper_fractions(case, op):
    depth, x, y, q = case
    tower, ref = tower_pair(depth)
    if op in ("inv", "div") and ref.is_zero(as_leaves(y, depth, Fraction)):
        return
    leafed = (as_leaves(v, depth, QQ_TOWER.lift_rational) for v in (x, y))
    ours = OPS[op](tower, *leafed, q)
    theirs = OPS[op](ref, *(as_leaves(v, depth, Fraction) for v in (x, y)), q)
    assert all(type(c) is Fraction for c in leaves(theirs, depth))
    for c in leaves(ours, depth):
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    assert ours == theirs
    assert tower.fmt(ours) == ref.fmt(theirs)
    assert str(FieldElement(tower, ours)) == str(FieldElement(ref, theirs))
