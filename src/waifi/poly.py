"""Sparse multivariate polynomials over a tower, with exact gcd, division,
resultants and a small recursive-descent parser for the input grammar.

Terms are kept in a dict mapping exponent tuples to raw tower values; the
variable tuple is always sorted, so equal polynomials have equal dicts.

There is one gcd per coefficient domain: rational polynomials go to sympy's
sparse integer ring, univariate polynomials over a proper tower take
Euclid's algorithm, and binary forms over a proper tower reduce to Euclid
through their dehomogenisation.  The resultant splits the same way: sympy's
over the rationals, scalar Euclid and Newton interpolation over a tower.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from operator import add

from sympy.polys.domains import ZZ
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

from .errors import WaifiError
from .field import FieldElement, QQ_TOWER, ratio

ALLOWED_VARS = ("x", "y", "z", "X", "Y", "Z")


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
        p = MultiPoly(vars, terms, tower)
        if vars != tuple(sorted(vars)):
            p = p._reorder(tuple(sorted(vars)))
        return p

    def _reorder(self, new_vars):
        idx = [self.vars.index(v) for v in new_vars]
        terms = {tuple(e[i] for i in idx): c for e, c in self.terms.items()}
        return MultiPoly(new_vars, terms, self.tower)

    # -- alignment ---------------------------------------------------------

    def with_vars(self, vars):
        """Embed into the polynomial ring on a superset of variables."""
        vars = tuple(sorted(set(vars) | set(self.vars)))
        if vars == self.vars:
            return self
        pos = {v: i for i, v in enumerate(vars)}
        n = len(vars)
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for v, k in zip(self.vars, e):
                ne[pos[v]] = k
            terms[tuple(ne)] = c
        return MultiPoly(vars, terms, self.tower)

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
            f = f.with_vars(allv)
            g = g.with_vars(allv)
        return f, g

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        f, g = MultiPoly._pair(self, other)
        if f is None:
            return NotImplemented
        tw = f.tower
        terms = dict(f.terms)
        for e, c in g.terms.items():
            if e in terms:
                s = tw.add(terms[e], c)
                if tw.is_zero(s):
                    del terms[e]
                else:
                    terms[e] = s
            else:
                terms[e] = c
        return MultiPoly(f.vars, terms, tw)

    __radd__ = __add__

    def __neg__(self):
        tw = self.tower
        return MultiPoly(self.vars, {e: tw.neg(c) for e, c in self.terms.items()}, tw)

    def __sub__(self, other):
        f, g = MultiPoly._pair(self, other)
        if f is None:
            return NotImplemented
        return f + (-g)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        f, g = MultiPoly._pair(self, other)
        if f is None:
            return NotImplemented
        tw = f.tower
        terms = {}
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                p = tw.mul(c1, c2)
                if e in terms:
                    s = tw.add(terms[e], p)
                    if tw.is_zero(s):
                        del terms[e]
                    else:
                        terms[e] = s
                elif not tw.is_zero(p):
                    terms[e] = p
        return MultiPoly(f.vars, terms, tw)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(1, self.vars, self.tower)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.tower.element(other)
        if isinstance(other, FieldElement):
            return self * other.inverse()
        return NotImplemented

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
        eff = self.effective_vars()
        if eff == self.vars:
            return self
        keep = [self.vars.index(v) for v in eff]
        terms = {tuple(e[i] for i in keep): c for e, c in self.terms.items()}
        return MultiPoly(eff, terms, self.tower)

    # -- calculus and substitution ----------------------------------------

    def diff(self, var):
        if var not in self.vars:
            return MultiPoly.zero(self.vars, self.tower)
        i = self.vars.index(var)
        tw = self.tower
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1 :]
            v = tw.scalar_mul(e[i], c)
            if ne in terms:
                v = tw.add(terms[ne], v)
            if not tw.is_zero(v):
                terms[ne] = v
            elif ne in terms:
                del terms[ne]
        return MultiPoly(self.vars, terms, tw)

    def substitute(self, mapping):
        """Simultaneous substitution var -> polynomial / field element.

        The result lives on the sorted union of the kept variables and the
        variables of every substituted value that actually occurs (exponent
        at least 1 in some term), over the deepest of the towers involved.
        No library code calls it: setting a variable to a constant is
        restrict, a Taylor shift is shift.  It stays because bench/tracing.py
        counts its calls, until the benchmark drops it from that list.
        """
        tw = self.tower
        subs = []  # (position in self.vars, value)
        kept = []  # positions of the variables left alone
        for i, v in enumerate(self.vars):
            if v not in mapping:
                kept.append(i)
                continue
            val = mapping[v]
            if not isinstance(val, MultiPoly):
                val = MultiPoly.constant(val)
            subs.append((i, val))
        if not subs:
            return self
        used = [(i, val) for i, val in subs if any(e[i] for e in self.terms)]
        tower = tw
        names = {self.vars[i] for i in kept}
        for _, val in used:
            tower = tower.join(val.tower)
            names.update(val.vars)
        vars = tuple(sorted(names))
        n = len(vars)
        kept_pos = [(i, vars.index(self.vars[i])) for i in kept]
        # (position, [None, value, value^2, ...]) on the result ring, grown
        # on demand
        powers = [
            (i, [None, val.lift_to(tower).with_vars(vars)]) for i, val in used
        ]
        terms = {}
        lift = tower != tw
        for e, c in self.terms.items():
            if lift:
                c = tower.lift_value(c, tw)
            base = [0] * n
            for i, j in kept_pos:
                base[j] = e[i]
            prod = None
            for i, pw in powers:
                k = e[i]
                if not k:
                    continue
                while len(pw) <= k:
                    pw.append(pw[-1] * pw[1])
                prod = pw[k] if prod is None else prod * pw[k]
            if prod is None:  # no substituted variable occurs in this term
                items = [(tuple(base), c)]
            else:
                items = [
                    (tuple(map(add, pe, base)), tower.mul(c, pc))
                    for pe, pc in prod.terms.items()
                ]
            for ne, v in items:
                terms[ne] = tower.add(terms[ne], v) if ne in terms else v
        terms = {e: c for e, c in terms.items() if not tower.is_zero(c)}
        return MultiPoly(vars, terms, tower)

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
        assigned)."""
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
        order = tuple(sorted(new))
        idx = [new.index(v) for v in order]
        terms = {tuple(e[i] for i in idx): c for e, c in self.terms.items()}
        return MultiPoly(order, terms, self.tower)

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
        inv = self.tower.inv(c)
        tw = self.tower
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
        quot = MultiPoly.zero(f.vars, tw)
        rem = f
        while not rem.is_zero():
            re, rc = rem.leading()
            de = tuple(a - b for a, b in zip(re, ge))
            if any(d < 0 for d in de):
                return None
            c = tw.mul(rc, ginv)
            t = MultiPoly(f.vars, {de: c}, tw)
            quot = quot + t
            rem = rem - t * g
        return quot

    # -- printing ----------------------------------------------------------

    def __repr__(self):
        return self.to_string()

    __str__ = __repr__

    def to_string(self):
        if not self.terms:
            return "0"
        tw = self.tower
        items = sorted(self.terms.items(), key=lambda t: t[0], reverse=True)
        parts = []
        for e, c in items:
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.vars, e)
                if k > 0
            )
            q = tw.as_rational(c)
            if q is None:
                cs = "(" + tw.fmt(c) + ")"
                s = cs + ("*" + mono if mono else "")
            elif not mono:
                s = str(q)
            elif q == 1:
                s = mono
            elif q == -1:
                s = "-" + mono
            else:
                s = f"{q}*{mono}"
            parts.append(s)
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out


# -- gcd ------------------------------------------------------------------


def poly_gcd(f, g):
    """Exact gcd over the coefficient field, normalised so the lex-leading
    coefficient is 1.  poly_gcd(0, 0) = 0.

    Rational input runs in sympy's integer ring.  Over a proper tower the
    input must be a pair of univariate polynomials in one variable, which
    take Euclid's algorithm, or a pair of binary forms, which go through
    their dehomogenisation; any other pair that shares a variable raises
    ValueError.
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
        # heuristic gcd over the integers; dividing by the lex-leading
        # coefficient gives the monic gcd over the rationals
        h = to_zz(f, names)[0].gcd(to_zz(g, names)[0])
        return from_zz(h, int(h.LC), names)
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


@cache
def _zz_ring(names):
    # built once per generator tuple: every rational gcd and factorisation
    # asks for a ring, and constructing one is a sizeable part of a small gcd
    return PolyRing(names, ZZ, lex)


def to_zz(p, names):
    """A rational-coefficient polynomial as (h, den): h in sympy's sparse
    integer ring on the generators `names` (lex order on them, in any
    order, holding every variable that occurs in p) and den > 0 the least
    common denominator, so p = h/den."""
    p = p.with_vars(names)
    if p.vars != names:
        p = p._reorder(names)
    den = lcm(*(c.denominator for c in p.terms.values()))
    rep = {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    return _zz_ring(names).from_dict(rep), den


def from_zz(h, den, names):
    """Inverse of to_zz: h/den as a MultiPoly in `names`, for h in the
    integer ring on `names` and a non-zero integer den."""
    terms = {e: ratio(int(c), den) for e, c in h.items()}
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
    parameter; the result is a polynomial in it (or a constant).  Over the
    rationals with a parameter it is sympy's integer resultant.  Otherwise
    the coefficients of var are dense lists in the parameter; Newton
    interpolation runs through scalar Euclid resultants at bound + 1 of the
    integers 0, 1, -1, 2, ... where neither leading coefficient vanishes.
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
    if tw.depth == 0 and param is not None:
        # in sympy's integer ring, Res(den_f*f, den_g*g) = den_f^n den_g^m
        # Res(f, g); sympy 1.14 has the sign wrong when m < n are both odd,
        # so it gets the operand of higher degree first
        (F, den_f), (G, den_g) = (to_zz(p, (var, param)) for p in (f, g))
        h = F.resultant(G) if m >= n else (-1) ** (m * n) * G.resultant(F)
        return from_zz(h, den_f**n * den_g**m, (param,))
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
    if param is None:
        return MultiPoly.constant(FieldElement(tw, values[0]))
    coeffs = _newton(tw, points, values)
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
    by Euclid (Collins 1967; Brown-Traub 1971): Res(a, b) = (-1)^(deg a
    deg b) lc(b)^(deg a - deg r) Res(b, r) for r = a mod b, and
    Res(a, c) = c^deg(a) for a constant c."""
    res = tower.one()
    while len(b) > 1:
        r = tower.pdivmod(a, b, tower.depth)[1]
        if not r:
            return tower.zero()
        if (len(a) - 1) * (len(b) - 1) % 2:
            res = tower.neg(res)
        for _ in range(len(a) - len(r)):
            res = tower.mul(res, b[-1])
        a, b = b, r
    for _ in range(len(a) - 1):
        res = tower.mul(res, b[0])
    return res


def _newton(tower, points, values):
    """Coefficients (low to high) of the polynomial of degree below
    len(points) through the raw values at the distinct integer points:
    divided differences, then the Newton form expanded by Horner's rule."""
    d, n = list(values), len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            step = Fraction(1, points[i] - points[i - j])
            d[i] = tower.scalar_mul(step, tower.sub(d[i], d[i - 1]))
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
    """
    return _Parser(text).parse()


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _loc(self, pos=None):
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def _error(self, message, cls=PolySyntaxError, pos=None):
        line, col = self._loc(pos)
        raise cls(message, line, col)

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def parse(self):
        expr = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            self._error(f"unexpected character {self.text[self.pos]!r}")
        return expr

    def _expr(self):
        sign = 1
        ch = self._peek()
        if ch and ch in "+-":
            self.pos += 1
            sign = -1 if ch == "-" else 1
        result = self._term()
        if sign < 0:
            result = -result
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                result = result + self._term()
            elif ch == "-":
                self.pos += 1
                result = result - self._term()
            else:
                return result

    def _term(self):
        result = self._factor()
        while self._peek() == "*":
            self.pos += 1
            result = result * self._factor()
        return result

    def _factor(self):
        base = self._primary()
        if self._peek() == "^":
            self.pos += 1
            e = self._int()
            if e < 0:
                self._error("negative exponent")
            base = base ** e
        return base

    def _primary(self):
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            if self._peek() != ")":
                self._error("expected ')'")
            self.pos += 1
            return inner
        if ch.isdigit():
            num = self._int()
            if self._peek() == "/":
                self.pos += 1
                den = self._int()
                if den == 0:
                    self._error("zero denominator")
                return MultiPoly.constant(Fraction(num, den))
            return MultiPoly.constant(num)
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
            return MultiPoly.variable(name)
        if ch == "":
            self._error("unexpected end of input")
        self._error(f"unexpected character {ch!r}")

    def _int(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self._error("expected an integer")
        return int(self.text[start : self.pos])
