"""Sparse multivariate polynomials over a tower, with exact gcd, division,
resultants and a small recursive-descent parser for the input grammar.

Terms are kept in a dict mapping exponent tuples to raw tower values; the
variable tuple is always sorted, so equal polynomials have equal dicts.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

import sympy

from . import linalg
from .field import FieldElement, QQ_TOWER, Tower

ALLOWED_VARS = ("x", "y", "z", "X", "Y", "Z")


class PolySyntaxError(ValueError):
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
        if isinstance(c, FieldElement):
            tower = c.tower if tower is None else tower
            v = c.lift_to(tower).v
        else:
            tower = QQ_TOWER if tower is None else tower
            v = tower.lift_rational(Fraction(c))
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
            if isinstance(c, FieldElement):
                v = c.lift_to(tower).v
            else:
                v = tower.lift_rational(Fraction(c))
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
        if not self.tower.is_prefix_of(tower):
            raise ValueError("cannot lift to a non-extension tower")
        terms = {e: tower.lift_value(c, self.tower) for e, c in self.terms.items()}
        return MultiPoly(self.vars, terms, tower)

    @staticmethod
    def _pair(f, g):
        if isinstance(g, (int, Fraction)):
            g = MultiPoly.constant(g, f.vars, f.tower)
        elif isinstance(g, FieldElement):
            g = MultiPoly.constant(g)
        if not isinstance(g, MultiPoly):
            return None, None
        if f.tower != g.tower:
            if f.tower.is_prefix_of(g.tower):
                f = f.lift_to(g.tower)
            else:
                g = g.lift_to(f.tower)
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
            other = FieldElement.rational(Fraction(other), self.tower)
        if isinstance(other, FieldElement):
            return self * other.inverse()
        return NotImplemented

    def __eq__(self, other):
        f, g = MultiPoly._pair(self, other)
        if f is None:
            return NotImplemented
        return f.terms == g.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items()), self.tower))

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

    def initial_form(self, m=None):
        """Terms of total degree exactly m (default: the order)."""
        if m is None:
            m = self.order()
            if m is None:
                return self
        terms = {e: c for e, c in self.terms.items() if sum(e) == m}
        return MultiPoly(self.vars, terms, self.tower)

    def jet(self, k):
        """Terms of total degree at most k."""
        terms = {e: c for e, c in self.terms.items() if sum(e) <= k}
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
            v = tw.scalar_mul(Fraction(e[i]), c)
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
        """
        tw = self.tower
        subs = []  # (position in self.vars, value)
        kept = []  # positions of the variables left alone
        for i, v in enumerate(self.vars):
            if v not in mapping:
                kept.append(i)
                continue
            val = mapping[v]
            if isinstance(val, FieldElement):
                val = MultiPoly.constant(val)
            elif not isinstance(val, MultiPoly):
                val = MultiPoly.constant(Fraction(val), (), tw)
            subs.append((i, val))
        if not subs:
            return self
        used = [(i, val) for i, val in subs if any(e[i] for e in self.terms)]
        tower = tw
        names = {self.vars[i] for i in kept}
        for _, val in used:
            if tower.is_prefix_of(val.tower):
                tower = val.tower
            elif not val.tower.is_prefix_of(tower):
                raise ValueError("cannot lift to a non-extension tower")
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

    def evaluate(self, point):
        """Evaluate at a dict var -> FieldElement/rational; returns a
        FieldElement (all effective variables must be assigned)."""
        res = self.substitute(point)
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

    def divides(self, other):
        f, _ = MultiPoly._pair(self, other)
        return MultiPoly._pair(other, self)[0].divide_exact(self) is not None

    def as_univariate(self, var):
        """Dense coefficient list (low to high) in var, entries MultiPoly in
        the remaining variables."""
        rest = tuple(v for v in self.vars if v != var)
        if var not in self.vars:
            return [self]
        i = self.vars.index(var)
        d = self.degree_in(var)
        coeffs = [MultiPoly.zero(rest, self.tower) for _ in range(max(d + 1, 1))]
        for e, c in self.terms.items():
            re = tuple(k for j, k in enumerate(e) if j != i)
            coeffs[e[i]] = coeffs[e[i]] + MultiPoly(rest, {re: c}, self.tower)
        return coeffs

    @staticmethod
    def from_univariate(coeffs, var):
        out = None
        v = MultiPoly.variable(var, coeffs[0].tower if coeffs else QQ_TOWER)
        for i, c in enumerate(coeffs):
            t = c.with_vars(c.vars + (var,)) * v ** i
            out = t if out is None else out + t
        return out if out is not None else MultiPoly.zero((var,))

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
    coefficient is 1.  poly_gcd(0, 0) = 0."""
    f, g = MultiPoly._pair(f, g)
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    f = f.drop_unused_vars()
    g = g.drop_unused_vars()
    if f.is_constant() or g.is_constant():
        one = MultiPoly.constant(1, (), f.tower)
        return one
    shared = tuple(v for v in f.effective_vars() if v in g.effective_vars())
    if not shared:
        return MultiPoly.constant(1, (), f.tower)
    if f.tower.depth == 0:
        names = tuple(sorted(set(f.vars) | set(g.vars)))
        h = to_sympy(f, names).gcd(to_sympy(g, names))
        return from_sympy(h, names).monic()
    if len(f.effective_vars()) == 1 and f.effective_vars() == g.effective_vars():
        return _euclid_univ_gcd(f, g, shared[0])
    # main variable: smallest worst-case degree keeps the recursion shallow
    main = min(shared, key=lambda v: max(f.degree_in(v), g.degree_in(v)))
    fc = f.as_univariate(main)
    gc = g.as_univariate(main)
    cont_f = _gcd_list(fc)
    cont_g = _gcd_list(gc)
    cont = poly_gcd(cont_f, cont_g)
    fp = [c.divide_exact(cont_f) for c in fc]
    gp = [c.divide_exact(cont_g) for c in gc]
    h = _prs_gcd(fp, gp)
    result = cont * MultiPoly.from_univariate(h, main)
    return result.monic()


def to_sympy(p, names):
    """A rational-coefficient polynomial as a sympy Poly over QQ in the
    generators `names`, a sorted superset of p.vars."""
    p = p.with_vars(names)
    rep = {}
    for e, c in p.terms.items():
        q = p.tower.as_rational(c)
        rep[e] = sympy.QQ(q.numerator, q.denominator)
    return sympy.Poly.from_dict(rep, *map(sympy.Symbol, names), domain=sympy.QQ)


def from_sympy(h, names):
    """Inverse of to_sympy: a sympy Poly over QQ in `names` as a MultiPoly."""
    terms = {
        e: Fraction(int(c.numerator), int(c.denominator))
        for e, c in h.as_dict(native=True).items()
    }
    return MultiPoly(names, terms, QQ_TOWER)


def _euclid_univ_gcd(f, g, var):
    """Monic Euclidean gcd of univariate polynomials over the tower."""
    tower = f.tower

    def clist(p):
        p = p.drop_unused_vars()
        return [p.coefficient((i,)) for i in range(p.degree_in(var) + 1)]

    a, b = clist(f), clist(g)
    while b:
        inv = b[-1].inverse()
        b = [x * inv for x in b]
        while len(a) >= len(b):
            c = a[-1]
            k = len(a) - len(b)
            for i in range(len(b) - 1):
                a[k + i] = a[k + i] - c * b[i]
            a.pop()
            while a and a[-1].is_zero():
                a.pop()
        a, b = b, a
    out = MultiPoly.from_coeff_dict(
        (var,), {(i,): c for i, c in enumerate(a)}, tower
    )
    return out.monic()


def _gcd_list(polys):
    acc = None
    for p in polys:
        if p.is_zero():
            continue
        acc = p.monic() if acc is None else poly_gcd(acc, p)
        if acc.is_constant():
            return MultiPoly.constant(1, (), p.tower)
    if acc is None:
        return MultiPoly.zero((), polys[0].tower if polys else QQ_TOWER)
    return acc


def _trim_poly(p):
    while p and p[-1].is_zero():
        p.pop()
    return p


def _primitive(coeffs):
    c = _gcd_list(coeffs)
    if c.is_zero() or c.is_constant():
        return coeffs
    return [x.divide_exact(c) for x in coeffs]


def _prs_gcd(fp, gp):
    """Primitive PRS gcd of two primitive univariate polynomials given as
    coefficient lists of MultiPoly (low to high)."""
    a = _trim_poly(list(fp))
    b = _trim_poly(list(gp))
    if len(a) < len(b):
        a, b = b, a
    while True:
        b = _trim_poly(b)
        if not b:
            return _primitive(_trim_poly(a))
        if len(b) == 1:
            return [MultiPoly.constant(1, (), b[0].tower)]
        r = _prem(a, b)
        a, b = b, _primitive(_trim_poly(r))


def _prem(a, b):
    """Pseudo-remainder of dense coefficient lists a by b."""
    a = list(a)
    lc = b[-1]
    while len(a) >= len(b):
        alc = a[-1]
        k = len(a) - len(b)
        a = [lc * x for x in a]
        for i in range(len(b)):
            a[k + i] = a[k + i] - alc * b[i]
        a.pop()
        a = _trim_poly(a)
        if not a:
            break
    return a


# -- resultants -----------------------------------------------------------


def sylvester_matrix(fc, gc):
    """Sylvester matrix from dense coefficient lists (low to high)."""
    m = len(fc) - 1
    n = len(gc) - 1
    if m < 0 or n < 0:
        raise ValueError("resultant of a zero polynomial")
    size = m + n
    rows = []
    for i in range(n):
        row = [None] * size
        for j, c in enumerate(reversed(fc)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [None] * size
        for j, c in enumerate(reversed(gc)):
            row[i + j] = c
        rows.append(row)
    return rows


def resultant(f, g, var):
    """Resultant of f and g with respect to var.

    Both polynomials must involve at most one variable besides var; the
    result is a polynomial in that variable (or a constant), computed by
    evaluation and Lagrange interpolation to keep the elimination scalar.
    """
    f, g = MultiPoly._pair(f, g)
    tw = f.tower
    fc = f.as_univariate(var)
    gc = g.as_univariate(var)
    if len(fc) == 1 or len(gc) == 1:
        # degree zero in var: Res(f, g) = f^deg(g) (or symmetric)
        if len(fc) == 1 and len(gc) == 1:
            return MultiPoly.constant(1, (), tw)
        if len(fc) == 1:
            return fc[0] ** (len(gc) - 1)
        return gc[0] ** (len(fc) - 1)
    others = {v for c in fc + gc for v in c.effective_vars()}
    if len(others) > 1:
        raise ValueError("resultant supports at most one parameter variable")
    if not others:
        zero = FieldElement(tw, tw.zero())
        mat = [
            [zero if c is None else c.constant_value() for c in row]
            for row in sylvester_matrix(fc, gc)
        ]
        d = linalg.det(mat)
        return MultiPoly.constant(d)
    (param,) = others
    bound = (
        f.degree_in(param) * (len(gc) - 1)
        + g.degree_in(param) * (len(fc) - 1)
    )
    sym = sylvester_matrix(fc, gc)
    zero = FieldElement(tw, tw.zero())
    points = []
    values = []
    c = 0
    while len(points) <= bound:
        pt = Fraction(c)
        c = -c if c > 0 else -c + 1
        mat = []
        for row in sym:
            mat.append(
                [
                    zero if entry is None else entry.evaluate({param: pt})
                    for entry in row
                ]
            )
        points.append(pt)
        values.append(linalg.det(mat))
    return _lagrange(points, values, param)


def _lagrange(points, values, var):
    tower = QQ_TOWER
    for v in values:
        if v.tower.depth > tower.depth:
            tower = v.tower
    x = MultiPoly.variable(var, tower)
    total = MultiPoly.zero((var,), tower)
    for i, (xi, yi) in enumerate(zip(points, values)):
        if yi.is_zero():
            continue
        num = MultiPoly.constant(1, (var,), tower)
        den = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            num = num * (x - MultiPoly.constant(xj, (var,), tower))
            den *= xi - xj
        total = total + num * (yi.lift_to(tower) / FieldElement.rational(den, tower))
    return total


# -- parser ---------------------------------------------------------------


def parse_poly(text, allowed=ALLOWED_VARS):
    """Parse a polynomial in the external grammar.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := primary ['^' int]
    primary:= coeff | var | '(' expr ')'
    coeff  := int ['/' int]
    """
    return _Parser(text, allowed).parse()


class _Parser:
    def __init__(self, text, allowed):
        self.text = text
        self.allowed = allowed
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
        if ch in "+-":
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
            if name not in self.allowed:
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
