"""Exact arithmetic in towers of simple algebraic extensions of the rationals.

Elements are represented without floating point at any stage.  A tower is a
chain Q = K_0 < K_1 < ... < K_k where each level adjoins one generator with a
monic minimal polynomial over the previous level.  A raw value at depth 0 (a
leaf) is an int when it is integral and a Fraction otherwise, never a float:
most coefficients met in practice are integers, and int arithmetic is far
cheaper than Fraction arithmetic.  Every operation that makes a leaf
normalises it (a Fraction with denominator 1 becomes its numerator), so one
rational has one leaf.  At depth j a raw value is a tuple of depth-(j-1)
values whose length equals the degree of the j-th minimal polynomial; it
lies in the prefix K_(j-1) when its entries 1.. are zero.

A tower builds the zero value of each depth once, and a value is zero when
it equals that tuple.  A product is one loop at every depth: a schoolbook
product, then a reduction by the monic minimal polynomial.  Over leaves
its inner operations are the plain int/Fraction operators, with one
normalisation per output coefficient; above, they are the tower's own
operations one level down.

Inversion of a zero divisor (possible only when a stored modulus is secretly
reducible) raises SplitRequired carrying the discovered factorisation, in the
style of dynamic evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _add, mul as _mul, sub as _sub
from typing import Optional

from .errors import WaifiError


class SplitRequired(WaifiError):
    """A modulus in the tower factored during an inversion.

    Attributes
    ----------
    level : int
        1-based level of the tower whose minimal polynomial split.
    factors : tuple
        Two monic coefficient tuples (low to high, over the previous level)
        whose product is the stored minimal polynomial.
    """

    def __init__(self, level, factors):
        super().__init__(f"modulus at level {level} factors")
        self.level = level
        self.factors = factors


class ExtensionDegreeExceeded(WaifiError):
    """Adjoining a root would push the tower degree over the configured cap."""


_ZERO = 0
_ONE = 1
_ONE_Q = Fraction(1)


def ratio(n, d):
    """n/d for ints n and d != 0 as a depth-0 raw value: an int when d
    divides n."""
    return n // d if n % d == 0 else Fraction(n, d)


#: the default cap on the degree of a tower over Q (--max-tower-degree)
MAX_TOWER_DEGREE = 16


class Tower:
    """A tower of simple extensions of Q.

    levels is a tuple of (name, minpoly) pairs; minpoly is a monic coefficient
    tuple (low to high) over the previous level.  The trivial tower (no levels)
    is plain Q.
    """

    __slots__ = ("levels", "max_degree", "_degree", "depth", "_zeros")

    def __init__(self, levels=(), max_degree=MAX_TOWER_DEGREE):
        self.levels = tuple(levels)
        self.max_degree = max_degree
        self.depth = len(self.levels)
        d = 1
        # _zeros[j] is the zero raw value of depth j
        zeros = [_ZERO]
        for _, mp in self.levels:
            d *= len(mp) - 1
            zeros.append((zeros[-1],) * (len(mp) - 1))
        self._degree = d
        self._zeros = tuple(zeros)

    # -- structure ---------------------------------------------------------

    def degree(self):
        """Total degree [K:Q]."""
        return self._degree

    def prefix(self, k):
        """The tower K_k of the first k levels, with this tower's cap."""
        if k == self.depth:
            return self
        return Tower(self.levels[:k], self.max_degree)

    def level_degree(self, j):
        """Degree of level j (1-based) over level j-1."""
        return len(self.levels[j - 1][1]) - 1

    def names(self):
        return tuple(name for name, _ in self.levels)

    def is_prefix_of(self, other):
        if other.depth < self.depth:
            return False
        return other.levels[: self.depth] == self.levels

    def join(self, other):
        """The deeper of two towers of one chain (self when they are equal):
        the tower every mixed computation of their elements belongs in."""
        if other.is_prefix_of(self):
            return self
        if self.is_prefix_of(other):
            return other
        raise ValueError("cannot lift to a non-extension tower")

    def element(self, x):
        """An int, a Fraction or a FieldElement of a prefix tower as a
        FieldElement of this tower."""
        if isinstance(x, FieldElement):
            return x.lift_to(self)
        return FieldElement(self, self.lift_rational(x))

    def __eq__(self, other):
        return isinstance(other, Tower) and self.levels == other.levels

    def __hash__(self):
        return hash(self.levels)

    def __repr__(self):
        if not self.levels:
            return "Tower(Q)"
        return "Tower(Q(%s))" % ",".join(self.names())

    # -- raw value constructors -------------------------------------------

    def zero(self):
        return self._zeros[self.depth]

    def one(self):
        return self.lift_rational(_ONE)

    def lift_rational(self, q, depth=None):
        if type(q) is not int:
            q = Fraction(q)
            if q.denominator == 1:
                q = q.numerator
        return self._pad(q, 0, self.depth if depth is None else depth)

    def _pad(self, v, lo, hi):
        """A raw value of depth lo as a raw value of depth hi."""
        for j in range(lo + 1, hi + 1):
            v = (v,) + (self._zeros[j - 1],) * (self.level_degree(j) - 1)
        return v

    def generator(self):
        """Raw value of the generator of the top level."""
        j = self.depth
        if not j:
            raise ValueError("the rationals have no generator")
        coeffs = [self._zeros[j - 1]] * self.level_degree(j)
        coeffs[1] = self.lift_rational(_ONE, j - 1)
        return tuple(coeffs)

    def lift_value(self, v, from_tower):
        """Lift a raw value of a prefix tower into this tower."""
        if not from_tower.is_prefix_of(self):
            raise ValueError("cannot lift to a non-extension tower")
        return self._pad(v, from_tower.depth, self.depth)

    # -- raw arithmetic ----------------------------------------------------
    # A leaf result is normalised inline (a Fraction with denominator 1
    # becomes its numerator) rather than by a helper: these are the
    # hottest calls of the package.

    def add(self, a, b, depth=None):
        if depth is None:
            depth = self.depth
        if depth == 0:
            r = a + b
            return r if type(r) is int or r.denominator != 1 else r.numerator
        if depth == 1:
            return tuple(
                r if type(r) is int or r.denominator != 1 else r.numerator
                for r in map(_add, a, b)
            )
        return tuple(self.add(x, y, depth - 1) for x, y in zip(a, b))

    def sub(self, a, b, depth=None):
        if depth is None:
            depth = self.depth
        if depth == 0:
            r = a - b
            return r if type(r) is int or r.denominator != 1 else r.numerator
        if depth == 1:
            return tuple(
                r if type(r) is int or r.denominator != 1 else r.numerator
                for r in map(_sub, a, b)
            )
        return tuple(self.sub(x, y, depth - 1) for x, y in zip(a, b))

    def neg(self, a, depth=None):
        if depth is None:
            depth = self.depth
        if depth == 0:
            return -a
        return tuple(self.neg(x, depth - 1) for x in a)

    def mul(self, a, b, depth=None):
        if depth is None:
            depth = self.depth
        if depth == 0:
            r = a * b
            return r if type(r) is int or r.denominator != 1 else r.numerator
        lo = depth - 1
        zero = self._zeros[lo]
        if lo:
            add = lambda x, y: self.add(x, y, lo)
            sub = lambda x, y: self.sub(x, y, lo)
            mul = lambda x, y: self.mul(x, y, lo)
        else:
            # leaves: plain operators, one normalisation per coefficient
            add, sub, mul = _add, _sub, _mul
        n = len(a)
        prod = [zero] * (2 * n - 1)
        nonzero_b = [(j, y) for j, y in enumerate(b) if y != zero]
        for i, x in enumerate(a):
            if x != zero:
                for j, y in nonzero_b:
                    prod[i + j] = add(prod[i + j], mul(x, y))
        # reduce modulo the monic minimal polynomial of degree n
        mp = [(k, m) for k, m in enumerate(self.levels[lo][1][:n]) if m != zero]
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            if c != zero:
                for k, m in mp:
                    prod[i - n + k] = sub(prod[i - n + k], mul(c, m))
        if lo:
            return tuple(prod[:n])
        return tuple(
            r if type(r) is int or r.denominator != 1 else r.numerator
            for r in prod[:n]
        )

    def scalar_mul(self, q, a, depth=None):
        if depth is None:
            depth = self.depth
        if depth == 0:
            r = q * a
            return r if type(r) is int or r.denominator != 1 else r.numerator
        return tuple(self.scalar_mul(q, x, depth - 1) for x in a)

    def is_zero(self, a, depth=None):
        # raw values are tuples: one comparison with the zero of the depth
        return a == self._zeros[self.depth if depth is None else depth]

    def inv(self, a, depth=None):
        if depth is None:
            depth = self.depth
        if depth == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            r = _ONE_Q / a
            return r if r.denominator != 1 else r.numerator
        if self.is_zero(a, depth):
            raise ZeroDivisionError("inverse of zero")
        sub = depth - 1
        mp = list(self.levels[depth - 1][1])
        # extended Euclid of a against the minimal polynomial, over level sub
        r0, r1 = mp, list(a)
        s0 = [self._zeros[sub]]
        s1 = [self.lift_rational(_ONE, sub)]
        while True:
            r1 = self._trim(r1, sub)
            if len(r1) <= 1:
                break
            q, r = self.pdivmod(r0, r1, sub)
            r0, r1 = r1, r
            s0, s1 = s1, self._psub(s0, self._pmul(q, s1, sub), sub)
        # invariant: s1*a = r1 modulo the minimal polynomial, so a nonzero
        # constant r1 = c gives the inverse s1/c; a zero r1 leaves r0, of
        # positive degree, the gcd
        if not r1:
            g = self.monic(r0, sub)
            q, _ = self.pdivmod(mp, g, sub)
            raise SplitRequired(depth, (tuple(g), tuple(self.monic(q, sub))))
        c = self.inv(r1[0], sub)
        out = [self.mul(c, x, sub) for x in s1]
        out = out[: len(a)]
        out += [self._zeros[sub]] * (len(a) - len(out))
        return tuple(out)

    def div(self, a, b, depth=None):
        return self.mul(a, self.inv(b, depth), depth)

    # -- helpers for dense univariate polynomials over a level -------------

    def _trim(self, p, depth):
        p = list(p)
        while p and self.is_zero(p[-1], depth):
            p.pop()
        return p

    def _psub(self, p, q, depth):
        n = max(len(p), len(q))
        z = self._zeros[depth]
        p = list(p) + [z] * (n - len(p))
        q = list(q) + [z] * (n - len(q))
        return [self.sub(x, y, depth) for x, y in zip(p, q)]

    def _pmul(self, p, q, depth):
        if not p or not q:
            return []
        z = self._zeros[depth]
        out = [z] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            if self.is_zero(x, depth):
                continue
            for j, y in enumerate(q):
                out[i + j] = self.add(out[i + j], self.mul(x, y, depth), depth)
        return out

    def pdivmod(self, p, q, depth):
        q = self._trim(q, depth)
        if not q:
            raise ZeroDivisionError("polynomial division by zero")
        n = len(q) - 1
        # a monic divisor, such as each of Euclid's, needs no inverse
        lc = q[-1]
        inv_lc = None if self.as_rational(lc, depth) == 1 else self.inv(lc, depth)
        rem = self._trim(p, depth)
        quot = [self._zeros[depth]] * max(0, len(rem) - n)
        while len(rem) > n:
            # the leading term cancels: pop it instead of subtracting it
            c = rem.pop()
            if inv_lc is not None:
                c = self.mul(c, inv_lc, depth)
            k = len(rem) - n
            quot[k] = c
            for i in range(n):
                rem[k + i] = self.sub(rem[k + i], self.mul(c, q[i], depth), depth)
            while rem and self.is_zero(rem[-1], depth):
                rem.pop()
        return quot, rem

    def monic(self, p, depth):
        p = self._trim(p, depth)
        if not p:
            return p
        c = self.inv(p[-1], depth)
        return [self.mul(c, x, depth) for x in p]

    # -- structure of values ----------------------------------------------

    def shortest(self, a, depth=None, floor=0):
        """(v, k): the raw value a as a raw value v of the shortest prefix
        K_k (k >= floor) that holds it.  A value of depth j lies in K_(j-1)
        when its entries 1.. are zero, and then its entry 0 is that value."""
        k = self.depth if depth is None else depth
        while k > floor and a[1:] == self._zeros[k][1:]:
            a, k = a[0], k - 1
        return a, k

    def as_rational(self, a, depth=None) -> Optional[int | Fraction]:
        """Return a as a leaf (an int or a Fraction) if it lies in Q, else
        None."""
        v, k = self.shortest(a, depth)
        return v if k == 0 else None

    def sort_key(self, a, depth=None):
        """Coordinates of a in the rational basis, as a flat tuple."""
        if depth is None:
            depth = self.depth
        if depth == 0:
            return (a,)
        out = ()
        for x in a:
            out += self.sort_key(x, depth - 1)
        return out

    def adjoin(self, name, minpoly):
        """Extend by one generator with the given monic minimal polynomial.

        minpoly is a coefficient tuple (low to high) of raw values of this
        tower; it must be monic of degree at least 2.
        """
        mp = tuple(minpoly)
        if len(mp) < 3:
            raise ValueError("minimal polynomial must have degree >= 2")
        if not self.is_zero(self.sub(mp[-1], self.one())):
            raise ValueError("minimal polynomial must be monic")
        if name in self.names():
            raise ValueError(f"generator name {name!r} already used")
        new_deg = self.degree() * (len(mp) - 1)
        if new_deg > self.max_degree:
            raise ExtensionDegreeExceeded(
                f"tower degree {new_deg} exceeds cap {self.max_degree}"
            )
        return Tower(self.levels + ((name, mp),), self.max_degree)

    def fresh_name(self):
        for c in "abcdefghijklmnopqrstuvw":
            if c not in self.names():
                return c
        raise ValueError("out of generator names")

    # -- printing ----------------------------------------------------------

    def fmt(self, a, depth=None):
        """Render a raw value as a readable expression in the generators."""
        a, depth = self.shortest(a, depth)
        if depth == 0:
            return _rational_str(a)
        name = self.levels[depth - 1][0]
        parts = []
        for i in range(len(a) - 1, -1, -1):
            if not self.is_zero(a[i], depth - 1):
                mono = "" if i == 0 else name if i == 1 else f"{name}^{i}"
                parts.append(self.fmt_term(a[i], mono, depth - 1))
        return join_terms(parts, "")

    def fmt_term(self, c, mono, depth=None):
        """One term: the nonzero raw value c times the monomial string mono
        (empty for 1), a coefficient outside Q in parentheses."""
        q = self.as_rational(c, depth)
        if q is None:
            s = "(" + self.fmt(c, depth) + ")"
            return s + "*" + mono if mono else s
        if not mono:
            return _rational_str(q)
        if q == 1:
            return mono
        return "-" + mono if q == -1 else f"{_rational_str(q)}*{mono}"


def _rational_str(q):
    """str(q) for an int or a Fraction, whole past the interpreter's int/str
    digit limit, which stays as the caller set it."""
    try:
        return str(q)
    except ValueError:
        pass
    if type(q) is Fraction:
        return f"{_rational_str(q.numerator)}/{_rational_str(q.denominator)}"
    # blocks of 500 digits, below the smallest limit the interpreter accepts
    head, blocks = abs(q), []
    while head >= _BLOCK:
        head, r = divmod(head, _BLOCK)
        blocks.append(f"{r:0500d}")
    return "-" * (q < 0) + str(head) + "".join(reversed(blocks))


_BLOCK = 10**500


def join_terms(parts, space):
    """Join term strings with signs, space on each side of the sign: a term
    that starts with "-" is subtracted."""
    out = parts[0]
    for p in parts[1:]:
        sign, p = ("-", p[1:]) if p.startswith("-") else ("+", p)
        out += space + sign + space + p
    return out


#: the trivial tower Q, shared default
QQ_TOWER = Tower()


class FieldElement:
    """An element of a Tower, with operator overloading.

    Thin wrapper over a raw value; arithmetic dispatches to the tower.
    """

    __slots__ = ("tower", "v")

    def __init__(self, tower, v):
        self.tower = tower
        self.v = v

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q, tower=QQ_TOWER):
        return FieldElement(tower, tower.lift_rational(q))

    @staticmethod
    def generator(tower):
        return FieldElement(tower, tower.generator())

    def lift_to(self, tower):
        if tower == self.tower:
            return self
        return FieldElement(tower, tower.lift_value(self.v, self.tower))

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            tower = self.tower.join(other.tower)
            return self.lift_to(tower), other.lift_to(tower)
        if isinstance(other, (int, Fraction)):
            return self, self.tower.element(other)
        return self, NotImplemented

    # -- arithmetic --------------------------------------------------------

    def _apply(self, other, op):
        """op (a raw Tower operation) on self and other, coerced into one
        tower."""
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(a.tower, op(a.tower, a.v, b.v))

    def __add__(self, other):
        return self._apply(other, Tower.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(other, Tower.sub)

    def __mul__(self, other):
        return self._apply(other, Tower.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(other, Tower.div)

    def __neg__(self):
        return FieldElement(self.tower, self.tower.neg(self.v))

    def inverse(self):
        return FieldElement(self.tower, self.tower.inv(self.v))

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return self.tower.is_zero(self.v)

    def __eq__(self, other):
        try:
            a, b = self._coerce(other)
        except ValueError:
            return False
        if b is NotImplemented:
            return NotImplemented
        return a.v == b.v

    def __hash__(self):
        # equality lifts both sides to the deeper tower, so hash the value
        # on the shortest prefix tower that holds it; a rational hashes as
        # its leaf, which equals the int or Fraction it came from
        v, depth = self.tower.shortest(self.v)
        return hash(v) if depth == 0 else hash((self.tower.levels[:depth], v))

    def sort_key(self):
        return self.tower.sort_key(self.v)

    def __repr__(self):
        return self.tower.fmt(self.v)

    __str__ = __repr__
