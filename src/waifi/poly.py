"""Sparse multivariate polynomials over a tower, with exact gcd, division,
resultants and a small recursive-descent parser for the input grammar.

Terms are kept in a dict mapping exponent tuples to raw tower values; the
variable tuple is always sorted, so equal polynomials have equal dicts.

There is one gcd per coefficient domain: rational polynomials are cleared
to integers and take the heuristic gcd of waifi.zz, univariate polynomials
over a proper tower take Euclid's algorithm, and binary forms over a proper
tower reduce to Euclid through their dehomogenisation.  The resultant has
one path over every tower: scalar subresultant PRS at integer points and
Newton interpolation, on integer operands over the rationals.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm, log2
from operator import add

from . import zz
from .errors import WaifiError
from .field import FieldElement, QQ_TOWER, join_terms, ratio

ALLOWED_VARS = ("x", "y", "z", "X", "Y", "Z")

#: parentheses nested deeper than this are a syntax error, whatever the
#: caller's stack depth (each level costs the parser four frames)
MAX_NESTING = 100

#: every '*' and '^' is a syntax error, at its position and before it is
#: expanded, when bounds computed from its operands pass one of these: the
#: total degree, the bits of a coefficient (2^99999*2^99999 needs 199,999,
#: 2^99999*x 100,000) and the work of the whole text (parse_poly)
MAX_DEGREE = 1000
MAX_BITS = 100_000
MAX_WORK = 750_000


class PolySyntaxError(WaifiError, ValueError):
    """Raised by parse_poly with line/column information."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownVariable(PolySyntaxError):
    pass


class MultiPoly:
    __slots__ = ("vars", "terms", "tower")

    def __init__(self, vars, terms, tower=QQ_TOWER):
        self.vars = tuple(vars)
        self.terms = terms
        self.tower = tower

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars=(), tower=QQ_TOWER):
        return MultiPoly(tuple(sorted(vars)), {}, tower)

    @staticmethod
    def constant(c, vars=(), tower=None):
        if tower is None:
            tower = c.tower if isinstance(c, FieldElement) else QQ_TOWER
        v = tower.element(c).v
        vars = tuple(sorted(vars))
        if tower.is_zero(v):
            return MultiPoly(vars, {}, tower)
        return MultiPoly(vars, {(0,) * len(vars): v}, tower)

    @staticmethod
    def variable(name, tower=QQ_TOWER):
        return MultiPoly((name,), {(1,): tower.one()}, tower)

    @staticmethod
    def from_coeff_dict(vars, coeffs, tower=QQ_TOWER):
        """Build from {exponent tuple: coefficient}; coefficients may be
        ints, Fractions or FieldElements of the tower."""
        vars = tuple(vars)
        terms = {}
        for exps, c in coeffs.items():
            v = tower.element(c).v
            if not tower.is_zero(v):
                terms[tuple(exps)] = v
        return MultiPoly(vars, terms, tower)._on_vars(tuple(sorted(vars)))

    # -- alignment ---------------------------------------------------------

    def _on_vars(self, vars):
        """The same polynomial on the variable tuple vars, in that order: a
        variable of vars missing from self.vars gets exponent 0, and one of
        self.vars left out of vars must not occur."""
        if vars == self.vars:
            return self
        n = len(self.vars)
        idx = [self.vars.index(v) if v in self.vars else n for v in vars]
        terms = {}
        for e, c in self.terms.items():
            e += (0,)  # what position n reads
            terms[tuple([e[i] for i in idx])] = c
        return MultiPoly(vars, terms, self.tower)

    def with_vars(self, vars):
        """Embed into the polynomial ring on a superset of variables: self
        when its ring already holds every variable of vars."""
        if all(v in self.vars for v in vars):
            return self
        return self._on_vars(tuple(sorted(set(vars) | set(self.vars))))

    def lift_to(self, tower):
        if tower == self.tower:
            return self
        terms = {e: tower.lift_value(c, self.tower) for e, c in self.terms.items()}
        return MultiPoly(self.vars, terms, tower)

    @staticmethod
    def _pair(f, g):
        if isinstance(g, (int, Fraction, FieldElement)):
            g = MultiPoly.constant(g, f.vars)
        if not isinstance(g, MultiPoly):
            return None, None
        if f.tower != g.tower:
            tower = f.tower.join(g.tower)
            f, g = f.lift_to(tower), g.lift_to(tower)
        if f.vars != g.vars:
            allv = tuple(sorted(set(f.vars) | set(g.vars)))
            f, g = f._on_vars(allv), g._on_vars(allv)
        return f, g

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        f, g = MultiPoly._pair(self, other)
        if f is None:
            return NotImplemented
        return MultiPoly(f.vars, _add_into(dict(f.terms), g.terms, f.tower), f.tower)

    __radd__ = __add__

    def __neg__(self):
        tw = self.tower
        return MultiPoly(self.vars, {e: tw.neg(c) for e, c in self.terms.items()}, tw)

    def __sub__(self, other):
        f, g = MultiPoly._pair(self, other)
        if f is None:
            return NotImplemented
        return f + (-g)

    def __mul__(self, other):
        f, g = MultiPoly._pair(self, other)
        if f is None:
            return NotImplemented
        return MultiPoly(f.vars, _times(f.terms, g.terms, f.tower), f.tower)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        tw = self.tower
        return MultiPoly(self.vars, _power(self.terms, e, tw, len(self.vars)), tw)

    def __eq__(self, other):
        f, g = MultiPoly._pair(self, other)
        if f is None:
            return NotImplemented
        return f.terms == g.terms

    def __hash__(self):
        # equality aligns variables and towers, so hash only the effective
        # variables and the terms on them; a constant hashes as its value
        p = self.drop_unused_vars()
        if not p.vars:
            return hash(p.constant_value())
        terms = frozenset((e, FieldElement(p.tower, c)) for e, c in p.terms.items())
        return hash((p.vars, terms))

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        v = self.terms.get((0,) * len(self.vars), self.tower.zero())
        return FieldElement(self.tower, v)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def order(self):
        """Smallest total degree of a term; None for the zero polynomial."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def degree_in(self, var):
        if var not in self.vars or not self.terms:
            return 0 if self.terms else -1
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def initial_form(self, m):
        """Terms of total degree exactly m."""
        terms = {e: c for e, c in self.terms.items() if sum(e) == m}
        return MultiPoly(self.vars, terms, self.tower)

    def coefficient(self, exps):
        v = self.terms.get(tuple(exps), self.tower.zero())
        return FieldElement(self.tower, v)

    def effective_vars(self):
        out = []
        for i, v in enumerate(self.vars):
            if any(e[i] > 0 for e in self.terms):
                out.append(v)
        return tuple(out)

    def drop_unused_vars(self):
        return self._on_vars(self.effective_vars())

    # -- calculus and substitution ----------------------------------------

    def diff(self, var):
        if var not in self.vars:
            return MultiPoly.zero(self.vars, self.tower)
        i = self.vars.index(var)
        # distinct monomials have distinct nonzero derivatives
        terms = {
            e[:i] + (e[i] - 1,) + e[i + 1 :]: self.tower.scalar_mul(e[i], c)
            for e, c in self.terms.items()
            if e[i]
        }
        return MultiPoly(self.vars, terms, self.tower)

    def substitute(self, mapping):
        """Simultaneous substitution var -> polynomial / field element /
        rational, term by term in MultiPoly arithmetic.

        The result lives on the sorted union of the kept variables and the
        variables of every substituted value that actually occurs (exponent
        at least 1 in some term), over the deepest of the towers involved.
        No library code calls it: setting a variable to a constant is
        restrict, a Taylor shift is shift.  It stays because bench/tracing.py
        counts its calls, until the benchmark drops it from that list.
        """
        subs = {
            v: val if isinstance(val, MultiPoly) else MultiPoly.constant(val)
            for v, val in mapping.items()
            if v in self.vars
        }
        if not subs:
            return self
        kept = [i for i, v in enumerate(self.vars) if v not in subs]
        kept_vars = [self.vars[i] for i in kept]
        out = MultiPoly.zero(kept_vars, self.tower)
        for e, c in self.terms.items():
            term = MultiPoly(kept_vars, {tuple(e[i] for i in kept): c}, self.tower)
            for v, k in zip(self.vars, e):
                if k and v in subs:
                    term = term * subs[v] ** k
            out = out + term
        return out

    def _scalar(self, value):
        """(tower, raw value) of a FieldElement or a rational, over the
        deeper of its tower and self's."""
        tw = self.tower
        if isinstance(value, FieldElement):
            tw = tw.join(value.tower)
        return tw, tw.element(value).v

    def _columns(self, i, tower):
        """Coefficient lists in the variable at position i, keyed by the
        exponents of the other variables: [c0, c1, ...] with None for a
        missing power, coefficients lifted to tower."""
        columns = {}
        lift = tower != self.tower
        for e, c in self.terms.items():
            if lift:
                c = tower.lift_value(c, self.tower)
            col = columns.setdefault(e[:i] + e[i + 1 :], [])
            k = e[i]
            if len(col) <= k:
                col.extend([None] * (k + 1 - len(col)))
            col[k] = c
        return columns

    def shift(self, var, value):
        """Taylor shift var -> var + value (a FieldElement or a rational).

        The result of substitute({var: var + value}) on the ring self.vars:
        self when var never occurs, otherwise over the deeper of the two
        towers.  Each coefficient column is shifted by synthetic division on
        raw tower values, over the rationals as over a proper tower.
        """
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        if not any(e[i] for e in self.terms):
            return self
        tower, lam = self._scalar(value)
        if tower.is_zero(lam):
            return self.lift_to(tower)
        terms = {}
        for rest, col in self._columns(i, tower).items():
            # synthetic division by var - lam, d times in place
            d = len(col) - 1
            for j in range(d):
                for m in range(d - 1, j - 1, -1):
                    c = col[m + 1]
                    if c is None:
                        continue
                    c = tower.mul(lam, c)
                    col[m] = c if col[m] is None else tower.add(col[m], c)
            for k, c in enumerate(col):
                if c is not None and not tower.is_zero(c):
                    terms[rest[:i] + (k,) + rest[i:]] = c
        return MultiPoly(self.vars, terms, tower)

    def restrict(self, var, value):
        """Set var to a FieldElement or a rational: a polynomial in the
        remaining variables of the ring.

        The result of substitute({var: value}): self when var is not in the
        ring, over the deeper of the two towers only when var occurs.  A zero
        value keeps the terms free of var; any other is Horner's rule on the
        coefficient list of each monomial in the other variables.
        """
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        vars = self.vars[:i] + self.vars[i + 1 :]
        tower, lam = self.tower, None
        if any(e[i] for e in self.terms):
            tower, lam = self._scalar(value)
        if lam is None or tower.is_zero(lam):
            # var never occurs or is set to zero: the terms free of var
            terms = {e[:i] + e[i + 1 :]: c for e, c in self.terms.items() if not e[i]}
            return MultiPoly(vars, terms, self.tower).lift_to(tower)
        terms = {}
        for rest, col in self._columns(i, tower).items():
            acc = col[-1]
            for c in reversed(col[:-1]):
                acc = tower.mul(lam, acc)
                if c is not None:
                    acc = tower.add(acc, c)
            if not tower.is_zero(acc):
                terms[rest] = acc
        return MultiPoly(vars, terms, tower)

    def evaluate(self, point):
        """Evaluate at a dict var -> FieldElement/rational, one restrict per
        variable; returns a FieldElement (all effective variables must be
        assigned).  No library caller: the API the tests check points with."""
        res = self
        for var, value in point.items():
            res = res.restrict(var, value)
        if not res.is_constant():
            raise ValueError("not all variables were assigned")
        return res.constant_value()

    def rename_vars(self, mapping):
        new = tuple(mapping.get(v, v) for v in self.vars)
        if len(set(new)) != len(new):
            raise ValueError("renaming collides")
        return MultiPoly(new, self.terms, self.tower)._on_vars(tuple(sorted(new)))

    # -- division, gcd, resultant -----------------------------------------

    def leading(self):
        """Lex-leading (exponent tuple, raw coefficient)."""
        e = max(self.terms)
        return e, self.terms[e]

    def monic(self):
        """Scale so the lex-leading coefficient is 1."""
        if not self.terms:
            return self
        _, c = self.leading()
        tw = self.tower
        if tw.as_rational(c) == 1:
            return self
        inv = tw.inv(c)
        return MultiPoly(
            self.vars, {e: tw.mul(inv, v) for e, v in self.terms.items()}, tw
        )

    def divide_exact(self, g):
        """Exact quotient self/g, or None when g does not divide self."""
        f, g = MultiPoly._pair(self, g)
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        tw = f.tower
        ge, gc = g.leading()
        ginv = tw.inv(gc)
        rest = [(e, c) for e, c in g.terms.items() if e != ge]
        # one working remainder, changed in place; each step cancels its
        # leading term and adds a quotient term of a smaller exponent
        quot, rem = {}, dict(f.terms)
        while rem:
            re = max(rem)
            de = tuple(a - b for a, b in zip(re, ge))
            if any(d < 0 for d in de):
                return None
            c = quot[de] = tw.mul(rem.pop(re), ginv)
            for e, gce in rest:
                e = tuple(map(add, de, e))
                t = tw.mul(c, gce)
                if e in rem:
                    t = tw.sub(rem[e], t)
                    if tw.is_zero(t):
                        del rem[e]
                        continue
                    rem[e] = t
                else:
                    rem[e] = tw.neg(t)
        return MultiPoly(f.vars, quot, tw)

    # -- printing ----------------------------------------------------------

    def __repr__(self):
        return self.to_string()

    __str__ = __repr__

    def to_string(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                v if k == 1 else f"{v}^{k}" for v, k in zip(self.vars, e) if k
            )
            parts.append(self.tower.fmt_term(c, mono))
        return join_terms(parts, " ")


# -- term-dict kernels ------------------------------------------------------
# Dicts {exponent tuple: nonzero raw value of the tower}, all on one variable
# layout: the arithmetic of MultiPoly and of the parser.


def _add_into(acc, terms, tower):
    """acc += terms in place; returns acc."""
    for e, c in terms.items():
        if e in acc:
            s = tower.add(acc[e], c)
            if tower.is_zero(s):
                del acc[e]
            else:
                acc[e] = s
        else:
            acc[e] = c
    return acc


def _times(f, g, tower):
    """The product of two term dicts."""
    terms = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            p = tower.mul(c1, c2)
            if e in terms:
                s = tower.add(terms[e], p)
                if tower.is_zero(s):
                    del terms[e]
                else:
                    terms[e] = s
            elif not tower.is_zero(p):
                terms[e] = p
    return terms


def _chain(k):
    """The products (i, j) of the k-th power by squaring, in order: each
    multiplies f^i by f^j, starting from f."""
    r, s = 0, 1
    while k:
        if k & 1:
            if r:
                yield r, s
            r += s
        k >>= 1
        if k:
            yield s, s
            s *= 2


def _power(f, k, tower, nvars):
    """The k-th power of a term dict on nvars variables, by squaring; one
    term over Q in one step."""
    if k == 0:
        return {(0,) * nvars: tower.one()}
    if len(f) == 1 and tower.depth == 0:
        ((e, c),) = f.items()
        return {tuple(a * k for a in e): c**k}
    powers = {1: f}
    for i, j in _chain(k):
        powers[i + j] = _times(powers[i], powers[j], tower)
    return powers[k]


# -- gcd ------------------------------------------------------------------


def poly_gcd(f, g):
    """Exact gcd over the coefficient field, normalised so the lex-leading
    coefficient is 1.  poly_gcd(0, 0) = 0.

    Rational input is cleared to integers for waifi.zz.gcd.  Over a proper
    tower the input must be a pair of univariate polynomials in one
    variable, which take Euclid's algorithm, or a pair of binary forms,
    which go through their dehomogenisation; any other pair that shares a
    variable raises ValueError.
    """
    f, g = MultiPoly._pair(f, g)
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    f = f.drop_unused_vars()
    g = g.drop_unused_vars()
    if f.is_constant() or g.is_constant():
        return MultiPoly.constant(1, (), f.tower)
    shared = tuple(v for v in f.effective_vars() if v in g.effective_vars())
    if not shared:
        return MultiPoly.constant(1, (), f.tower)
    names = tuple(sorted(set(f.vars) | set(g.vars)))
    if f.tower.depth == 0:
        # gcd over the integers; dividing by the lex-leading coefficient
        # gives the monic gcd over the rationals
        h = zz.gcd(to_zz(f, names)[0], to_zz(g, names)[0], len(names))
        return from_zz(h, h[max(h)], names)
    if len(f.effective_vars()) == 1 and f.effective_vars() == g.effective_vars():
        return _euclid_univ_gcd(f, g, shared[0])
    if len(names) == 2 and f.is_homogeneous() and g.is_homogeneous():
        # f = u^a*f1 and g = u^b*g1 with u dividing neither f1 nor g1: the
        # gcd is u^min(a, b) times the homogenised gcd of f(1, v) and g(1, v)
        u, v = names
        f, g = f.with_vars(names), g.with_vars(names)
        a = min(e[0] for p in (f, g) for e in p.terms)
        h = poly_gcd(f.restrict(u, 1), g.restrict(u, 1)).with_vars((v,))
        d = h.total_degree()
        terms = {(a + d - k, k): c for (k,), c in h.terms.items()}
        return MultiPoly(names, terms, f.tower).monic()
    raise ValueError("gcd over a tower needs univariate polynomials or binary forms")


def to_zz(p, names):
    """A rational-coefficient polynomial as (h, den): h a dict {exponent
    tuple on `names`: nonzero int}, for a tuple `names` holding every
    variable that occurs in p, and den > 0 the least common denominator, so
    p = h/den."""
    p = p._on_vars(names)
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}, den


def from_zz(h, den, names):
    """Inverse of to_zz: h/den as a MultiPoly in `names`, for an int dict h
    on `names` and a non-zero integer den."""
    terms = {e: ratio(c, den) for e, c in h.items()}
    return MultiPoly(names, terms, QQ_TOWER)


def _euclid_univ_gcd(f, g, var):
    """Monic Euclidean gcd of nonzero polynomials in the one variable var
    over the tower, on dense lists of raw coefficients."""
    tower, depth = f.tower, f.tower.depth
    a, b = (
        [p.terms.get((i,), tower.zero()) for i in range(p.degree_in(var) + 1)]
        for p in (f, g)
    )
    while b:
        # a monic divisor keeps the remainders' coefficients small
        b = tower.monic(b, depth)
        a, b = b, tower.pdivmod(a, b, depth)[1]
    terms = {(i,): c for i, c in enumerate(a) if not tower.is_zero(c, depth)}
    return MultiPoly((var,), terms, tower)


# -- resultants -----------------------------------------------------------


def resultant(f, g, var):
    """Resultant of f and g with respect to var, with the sign of
    lc(f)^deg(g) * prod g(roots of f).

    Both polynomials must involve at most one variable besides var, the
    parameter; the result is a polynomial in it (or a constant).  The
    coefficients of var are dense lists in the parameter; Newton
    interpolation runs through scalar resultants at bound + 1 of the
    integers 0, 1, -1, 2, ... where neither leading coefficient vanishes.
    Over the rationals the operands are first cleared to integers.
    """
    f, g = MultiPoly._pair(f, g)
    tw = f.tower
    m, n = f.degree_in(var), g.degree_in(var)
    if m < 1 or n < 1:
        # degree zero in var: Res(f, g) = f^deg(g) (or symmetric)
        if m < 1 and n < 1:
            return MultiPoly.constant(1, (), tw)
        return f.restrict(var, 0) ** n if m < 1 else g.restrict(var, 0) ** m
    others = (set(f.effective_vars()) | set(g.effective_vars())) - {var}
    if len(others) > 1:
        raise ValueError("resultant supports at most one parameter variable")
    (param,) = others or (None,)
    den = 1
    if tw.depth == 0:
        # Res(den_f f, den_g g) = den_f^n den_g^m Res(f, g)
        (F, den_f), (G, den_g) = (to_zz(p, p.vars) for p in (f, g))
        f, g, den = MultiPoly(f.vars, F), MultiPoly(g.vars, G), den_f**n * den_g**m
    fc, gc = _dense(f, var, param, m), _dense(g, var, param, n)
    # the degree in param of the Sylvester determinant is at most bound
    bound = (max(map(len, fc)) - 1) * n + (max(map(len, gc)) - 1) * m
    points, values, t = [], [], 0
    while len(points) <= bound:
        a, b = ([_horner(tw, col, t) for col in cols] for cols in (fc, gc))
        if not (tw.is_zero(a[-1]) or tw.is_zero(b[-1])):
            points.append(t)
            values.append(_scalar_resultant(tw, a, b))
        t = -t if t > 0 else 1 - t
    coeffs = _newton(tw, points, values)
    if den != 1:
        coeffs = [ratio(c, den) for c in coeffs]
    if param is None:
        return MultiPoly.constant(FieldElement(tw, coeffs[0]))
    terms = {(k,): c for k, c in enumerate(coeffs) if not tw.is_zero(c)}
    return MultiPoly((param,), terms, tw)


def _dense(p, var, param, d):
    """The coefficients of var^0 .. var^d in p, as dense lists (low to high)
    of raw values in param (of length at most 1 when param is None)."""
    i, j = p.vars.index(var), param and p.vars.index(param)
    cols = [[] for _ in range(d + 1)]
    for e, c in p.terms.items():
        col, k = cols[e[i]], 0 if j is None else e[j]
        col.extend([p.tower.zero()] * (k + 1 - len(col)))
        col[k] = c
    return cols


def _horner(tower, col, t):
    """The dense list col (low to high) of raw values at the integer t."""
    acc = tower.zero()
    for c in reversed(col):
        acc = tower.add(tower.scalar_mul(t, acc), c)
    return acc


def _scalar_resultant(tower, a, b):
    """Res(a, b) of dense lists of raw values with nonzero leading entries,
    by the subresultant PRS (Collins 1967; Brown-Traub 1971; Cohen, A
    Course in Computational Algebraic Number Theory, alg. 3.3.7).  Each
    pseudo-remainder is divided by g h^delta, which divides it exactly, so
    the coefficients grow slowly and integer operands stay integers."""
    mul, one = tower.mul, tower.one()

    def power(x, k):
        out = one
        for _ in range(k):
            out = mul(out, x)
        return out

    def divide(xs, s):
        # the exact quotients x / s: of integers at depth 0, which costs
        # less than a Fraction product; above it, by one inverse of s
        if tower.depth == 0:
            return [ratio(x, s) for x in xs]
        s = tower.inv(s)
        return [mul(x, s) for x in xs]

    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = one
    while len(b) > 1:
        delta, n = len(a) - len(b), len(b) - 1
        sign *= (-1) ** ((len(a) - 1) * n)
        # the pseudo-remainder lc(b)^(delta + 1) (a mod b)
        r = list(a)
        for k in range(delta, -1, -1):
            c = r.pop()
            r = [mul(b[-1], x) for x in r]
            for i in range(n):
                r[k + i] = tower.sub(r[k + i], mul(c, b[i]))
        while r and tower.is_zero(r[-1]):
            r.pop()
        if not r:
            return tower.zero()
        a, b = b, divide(r, mul(g, power(h, delta)))
        g = a[-1]
        if delta:
            (h,) = divide([power(g, delta)], power(h, delta - 1))
    # Res = sign h^(1 - deg a) lc(b)^deg(a)
    (res,) = divide([power(b[0], len(a) - 1)], power(h, len(a) - 2))
    return res if sign > 0 else tower.neg(res)


def _newton(tower, points, values):
    """Coefficients (low to high) of the polynomial of degree below
    len(points) through the raw values at the distinct integer points:
    divided differences, then the Newton form expanded by Horner's rule.
    Integer values at integer points have integer divided differences, as
    the remainder of the interpolant by a monic integer polynomial."""
    d, n = list(values), len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            step, diff = points[i] - points[i - j], tower.sub(d[i], d[i - 1])
            # as in _scalar_resultant, an exact integer quotient at depth 0
            if tower.depth == 0:
                d[i] = ratio(diff, step)
            else:
                d[i] = tower.scalar_mul(Fraction(1, step), diff)
    zero, coeffs = tower.zero(), [d[-1]]
    for k in range(n - 2, -1, -1):
        # coeffs * (t - points[k]) + d[k]
        coeffs = [
            tower.sub(hi, tower.scalar_mul(points[k], lo))
            for hi, lo in zip([zero] + coeffs, coeffs + [zero])
        ]
        coeffs[0] = tower.add(coeffs[0], d[k])
    return coeffs


# -- parser ---------------------------------------------------------------


def parse_poly(text):
    """Parse a polynomial in the external grammar.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := primary ['^' int]
    primary:= coeff | var | '(' expr ')'
    coeff  := int ['/' int]

    Parentheses nest at most MAX_NESTING deep, and each '*' and '^' is
    held to MAX_DEGREE, MAX_BITS and MAX_WORK.  A unit of work is one
    product of two small coefficients, about 1 us on an Intel Xeon core
    under CPython 3.11: a product of t and t' terms of A and B bits in all
    costs t t' + A B / 2^20, five times that with a denominator, a power
    each product of its squaring chain, and each '*' and '^' also the
    terms its result may have; (x + 1)^1000 costs 484,712.
    The result lives on the sorted variables the text names, whether or not
    they survive cancellation.
    """
    return _Parser(text).parse()


# The parser builds every subexpression as a dict {exponent tuple over
# ALLOWED_VARS: nonzero depth-0 raw value} and makes one MultiPoly at the end.
_SPACE = re.compile(r"[ \t\r\n]*")
# ASCII digits only: str.isdigit and \d also take "²" and "٣"
_DIGITS = re.compile(r"[0-9]*")
_ONE_EXP = (0,) * len(ALLOWED_VARS)
_VAR_EXP = {v: tuple(int(v == w) for w in ALLOWED_VARS) for v in ALLOWED_VARS}


def _shape(terms):
    """(t, v, deg, h, m, q) for a term dict f = F/D over the least common
    denominator D of its coefficients: its t terms, the v variables they
    use (0 for one term, whose powers have one term), its total degree,
    h = log2 max(t max|F|, D), the mean m over its terms of
    log2 max(t |F_i|, D), and whether D > 1.  Each numerator and
    denominator of f^i g^j is at most 2^(i h_f + j h_g)."""
    if len(terms) == 1:
        ((e, c),) = terms.items()
        h = max(log2(abs(c.numerator)), log2(c.denominator))
        return 1, 0, sum(e), h, h, c.denominator > 1
    if not terms:
        return 0, 0, 0, 0.0, 0.0, False
    t, values = len(terms), terms.values()
    den = lcm(*[c.denominator for c in values])
    hs = [log2(max(t * abs(c.numerator) * den // c.denominator, den)) for c in values]
    v = sum(map(any, zip(*terms)))
    return t, v, max(map(sum, terms)), max(hs), sum(hs) / t, den > 1


def _power_size(shape, k):
    """Bounds on the terms of f^k, the bits of a coefficient and their sum:
    a term per product of k of the t terms of f (0^0 = 1 has one) and per
    monomial of degree at most k deg f, below 2^(k m) on average over the
    products.  Call it once k deg f is capped, which bounds C(t + k - 1, k)
    for t > 1; a float k h overflows past 2^1023."""
    t, v, deg, h, m, _ = shape
    bits = int(k * h if k < 1e300 else k * Fraction(h)) + 1
    if t < 2:
        return int(t or not k), bits, t * bits
    products = comb(t + k - 1, k)
    terms = min(products, comb(v + k * deg, v))
    return terms, bits, min(terms * bits, products * (int(k * m) + 1))


def _work(f, i, g, j):
    """The work of the product of f^i and g^j, for the shapes f and g: a
    unit per pair of terms, and a b / 2^20 per pair of coefficients of a
    and b bits, which sum to the product of the summed bits."""
    (s, _, a), (t, _, b) = _power_size(f, i), _power_size(g, j)
    work = s * t + a * b // 2**20
    return 5 * work if f[5] or g[5] else work


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.names = set()
        self.work = 0

    def _error(self, message, cls=PolySyntaxError, pos=None):
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        raise cls(message, line, pos - self.text.rfind("\n", 0, pos))

    def _peek(self):
        """The next character after whitespace, which is skipped; "" at the
        end."""
        pos = self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[pos : pos + 1]

    def parse(self):
        terms = self._expr()
        if self._peek():
            self._error(f"unexpected character {self.text[self.pos]!r}")
        vars = tuple(sorted(self.names))
        idx = [ALLOWED_VARS.index(v) for v in vars]
        terms = {tuple([e[i] for i in idx]): c for e, c in terms.items()}
        return MultiPoly(vars, terms, QQ_TOWER)

    def _expr(self):
        result, sign = {}, self._peek()
        while True:
            if sign in ("+", "-"):
                self.pos += 1
            term = self._term()
            if sign == "-":
                term = {e: -c for e, c in term.items()}
            _add_into(result, term, QQ_TOWER)
            sign = self._peek()
            if sign not in ("+", "-"):
                return result

    def _term(self):
        result = self._factor()
        while self._peek() == "*":
            at = self.pos
            self.pos += 1
            factor = self._factor()
            f, g = _shape(result), _shape(factor)
            size = f[0] * g[0], int(f[3] + g[3]) + 1
            self._expand(at, f[2] + g[2], lambda: size, [(f, 1, g, 1)])
            result = _times(result, factor, QQ_TOWER)
        return result

    def _factor(self):
        base = self._primary()
        if self._peek() == "^":
            at = self.pos
            self.pos += 1
            k = self._int()
            f = _shape(base)
            products = ((f, i, f, j) for i, j in _chain(k))
            self._expand(at, f[2] * k, lambda: _power_size(f, k)[:2], products)
            base = _power(base, k, QQ_TOWER, len(ALLOWED_VARS))
        return base

    def _expand(self, at, degree, size, products):
        """The one rule for the '*' or '^' at `at`, before it is expanded:
        its degree, its bits, and the text's work, plus its terms and each
        f^i g^j of the products (f, i, g, j).  size() gives (terms, bits)
        once the degree has passed, which bounds its binomials."""
        self._cap("total degree {}", degree, MAX_DEGREE, at)
        terms, bits = size()
        self._cap("coefficient bound {} bits", bits, MAX_BITS, at)
        self.work += terms + sum(_work(*p) for p in products)
        self._cap("work bound {}", self.work, MAX_WORK, at)

    def _cap(self, bound, value, cap, pos):
        """A syntax error at pos when value exceeds cap; bound names the
        value, with {} where it goes.  A value of 100 digits or more goes as
        its digit count, since str() of an int is quadratic: the count
        starts at most at that of 2^(b - 1), for the bit length b, and
        takes a step or two."""
        if value > cap:
            if value >= 10**99:
                d = (value.bit_length() - 1) * 301029995 // 10**9 + 1
                p = 10**d
                while value >= p:
                    d, p = d + 1, p * 10
                value = f"<{d} digits>"
            self._error(f"{bound.format(value)} exceeds cap {cap}", pos=pos)

    def _primary(self):
        ch = self._peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                self._error("parentheses nested too deeply")
            self.depth += 1
            self.pos += 1
            inner = self._expr()
            if self._peek() != ")":
                self._error("expected ')'")
            self.pos += 1
            self.depth -= 1
            return inner
        if "0" <= ch <= "9":
            num = self._int()
            if self._peek() == "/":
                self.pos += 1
                den = self._int()
                if den == 0:
                    self._error("zero denominator")
                num = ratio(num, den)
            return {_ONE_EXP: num} if num else {}
        if ch.isalpha():
            start = self.pos
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isalnum():
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in ALLOWED_VARS:
                self._error(
                    f"unknown variable {name!r}", UnknownVariable, start
                )
            self.names.add(name)
            return {_VAR_EXP[name]: 1}
        if ch == "":
            self._error("unexpected end of input")
        self._error(f"unexpected character {ch!r}")

    def _int(self):
        self._peek()
        start = self.pos
        self.pos = _DIGITS.match(self.text, start).end()
        if start == self.pos:
            self._error("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            # past the interpreter's int/str digit limit, which cli.main lifts
            self._error("integer has too many digits", pos=start)
