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


class FractionTower:
    """Tower arithmetic with every leaf a Fraction, sharing no code with
    Tower: the reference for its leaves and values.  A value of depth j is
    a tuple of depth-(j-1) values, one per power of the j-th generator.
    Products are schoolbook products reduced by the minimal polynomial,
    inverses come from the extended Euclidean algorithm over the level
    below, and values print as Tower.fmt documents them."""

    def __init__(self, levels):
        self.levels = levels
        self.depth = len(levels)

    def _d(self, depth):
        return self.depth if depth is None else depth

    def zero(self, depth):
        if depth == 0:
            return Fraction(0)
        return (self.zero(depth - 1),) * (len(self.levels[depth - 1][1]) - 1)

    def one(self, depth):
        if depth == 0:
            return Fraction(1)
        return (self.one(depth - 1),) + self.zero(depth)[1:]

    def is_zero(self, a, depth=None):
        depth = self._d(depth)
        if depth == 0:
            return a == 0
        return all(self.is_zero(x, depth - 1) for x in a)

    def add(self, a, b, depth=None):
        depth = self._d(depth)
        if depth == 0:
            return a + b
        return tuple(self.add(x, y, depth - 1) for x, y in zip(a, b))

    def neg(self, a, depth=None):
        depth = self._d(depth)
        if depth == 0:
            return -a
        return tuple(self.neg(x, depth - 1) for x in a)

    def sub(self, a, b, depth=None):
        return self.add(a, self.neg(b, depth), depth)

    def scalar_mul(self, q, a, depth=None):
        depth = self._d(depth)
        if depth == 0:
            return q * a
        return tuple(self.scalar_mul(q, x, depth - 1) for x in a)

    # dense polynomials (lists, low to high) over the values of one depth

    def _trim(self, p, depth):
        p = list(p)
        while p and self.is_zero(p[-1], depth):
            p.pop()
        return p

    def _pmul(self, p, q, depth):
        out = [self.zero(depth)] * max(0, len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] = self.add(out[i + j], self.mul(x, y, depth), depth)
        return out

    def _psub(self, p, q, depth):
        n = max(len(p), len(q))
        z = self.zero(depth)
        p, q = list(p) + [z] * (n - len(p)), list(q) + [z] * (n - len(q))
        return [self.sub(x, y, depth) for x, y in zip(p, q)]

    def _pdivmod(self, p, q, depth):
        q = self._trim(q, depth)
        inv = self.inv(q[-1], depth)
        rem = self._trim(p, depth)
        quot = [self.zero(depth)] * max(0, len(rem) - len(q) + 1)
        while len(rem) >= len(q):
            k = len(rem) - len(q)
            c = self.mul(rem[-1], inv, depth)
            quot[k] = c
            shifted = [self.zero(depth)] * k + [self.mul(c, y, depth) for y in q]
            rem = self._trim(self._psub(rem, shifted, depth), depth)
        return quot, rem

    def mul(self, a, b, depth=None):
        depth = self._d(depth)
        if depth == 0:
            return a * b
        mp = self.levels[depth - 1][1]
        _, rem = self._pdivmod(self._pmul(a, b, depth - 1), mp, depth - 1)
        return tuple(rem) + self.zero(depth)[len(rem) :]

    def inv(self, a, depth=None):
        depth = self._d(depth)
        if depth == 0:
            return 1 / a
        lo = depth - 1
        # s0*a = r0 and s1*a = r1 modulo the minimal polynomial
        r0, r1 = list(self.levels[depth - 1][1]), self._trim(a, lo)
        s0, s1 = [], [self.one(lo)]
        while r1:
            q, r = self._pdivmod(r0, r1, lo)
            r0, r1 = r1, r
            s0, s1 = s1, self._trim(self._psub(s0, self._pmul(q, s1, lo), lo), lo)
        assert len(r0) == 1, "the minimal polynomial is irreducible"
        c = self.inv(r0[0], lo)
        out = [self.mul(c, x, lo) for x in s0]
        return tuple(out) + self.zero(depth)[len(out) :]

    def div(self, a, b, depth=None):
        return self.mul(a, self.inv(b, depth), depth)

    def fmt(self, a, depth=None):
        depth = self._d(depth)
        while depth and all(self.is_zero(x, depth - 1) for x in a[1:]):
            a, depth = a[0], depth - 1
        if depth == 0:
            return str(a)
        name = self.levels[depth - 1][0]
        out = ""
        for i in range(len(a) - 1, -1, -1):
            if self.is_zero(a[i], depth - 1):
                continue
            mono = "" if i == 0 else name if i == 1 else f"{name}^{i}"
            c = self.fmt(a[i], depth - 1)
            if mono and c in ("1", "-1"):
                term = c[:-1] + mono
            elif any(ch.isalpha() for ch in c):
                term = f"({c})*{mono}" if mono else f"({c})"
            else:
                term = f"{c}*{mono}" if mono else c
            if out:
                out += "-" + term[1:] if term.startswith("-") else "+" + term
            else:
                out = term
        return out


def leaves(v, depth):
    return [v] if depth == 0 else [x for c in v for x in leaves(c, depth - 1)]


def as_leaves(v, depth, kind):
    """v with every leaf made kind (Fraction, or the leaf of Tower)."""
    if depth == 0:
        return kind(v)
    return tuple(as_leaves(c, depth - 1, kind) for c in v)


# Q, Q(a) with a^2 = 2, Q(a, b) with b^3 = a + 1/2 over Q(a), and
# Q(a, b, c) with c^2 = b over Q(a, b): c has degree 12 over Q, since
# 4c^12 - 4c^6 - 7 is irreducible
_0 = (Fraction(0), Fraction(0))
_1 = (Fraction(1), Fraction(0))
LEVELS = (
    ("a", (Fraction(-2), Fraction(0), Fraction(1))),
    ("b", ((Fraction(-1, 2), Fraction(-1)), _0, _0, _1)),
    ("c", ((_0, (Fraction(-1), Fraction(0)), _0), (_0, _0, _0), (_1, _0, _0))),
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
def raw_values(draw, depth, leaf=rationals):
    if depth == 0:
        return draw(leaf)
    (_, mp) = LEVELS[depth - 1]
    return tuple(draw(raw_values(depth - 1, leaf)) for _ in range(len(mp) - 1))


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


def pad(ref, v, depth):
    """The reference value v of depth `depth` at the reference's full depth."""
    for d in range(depth + 1, ref.depth + 1):
        v = (v,) + ref.zero(d)[1:]
    return v


def test_reference_tower_relations():
    # the reference knows a^2 = 2, b^3 = a + 1/2 and c^2 = b
    ref = FractionTower(LEVELS)
    a = pad(ref, (Fraction(0), Fraction(1)), 1)
    b = pad(ref, (_0, _1, _0), 2)
    c = (ref.zero(2), ref.one(2))
    assert ref.mul(a, a) == pad(ref, Fraction(2), 0)
    assert ref.mul(b, ref.mul(b, b)) == ref.add(a, pad(ref, Fraction(1, 2), 0))
    assert ref.mul(c, c) == b
    assert ref.mul(c, ref.inv(c)) == ref.one(3)
    assert ref.fmt(ref.sub(c, a)) == "c+(-a)"


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 3).flatmap(
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
    assert str(FieldElement(tower, ours)) == ref.fmt(theirs)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3).flatmap(
        lambda d: st.tuples(
            st.just(d), raw_values(d, st.sampled_from([0, 0, 0, 1, Fraction(-1, 3)]))
        )
    )
)
def test_is_zero_on_zero_and_nonzero_patterns(case):
    # mostly-zero leaves: the zero value, one nonzero leaf at any position,
    # and everything between
    depth, x = case
    tower, ref = tower_pair(depth)
    v = as_leaves(x, depth, QQ_TOWER.lift_rational)
    assert tower.is_zero(v) == ref.is_zero(as_leaves(x, depth, Fraction))
    assert tower.is_zero(tower.sub(v, v))
    assert tower.is_zero(tower.zero()) and not tower.is_zero(tower.one())


def test_is_zero_of_each_single_leaf():
    # a value of each depth with one nonzero leaf, at each position
    tower, ref = tower_pair(3)
    for k in range(4):
        for i in range(len(leaves(ref.zero(k), k))):
            unit = with_leaf(ref.zero(k), k, i, Fraction(1, 2))
            assert not tower.is_zero(as_leaves(unit, k, QQ_TOWER.lift_rational), k)


def with_leaf(v, depth, i, leaf):
    """v with its i-th leaf (in depth-first order) replaced by leaf."""
    flat = leaves(v, depth)
    flat[i] = leaf
    it = iter(flat)

    def build(w, d):
        return next(it) if d == 0 else tuple(build(c, d - 1) for c in w)

    return build(v, depth)
