"""Univariate factorisation and root finding over the rationals and over
extension towers.

Rational factorisation is delegated to sympy.  Over a proper tower, a
squarefree polynomial is factored through its norm: resultants against the
top minimal polynomial push the problem one level down, the shifted norm is
factored recursively, and gcds pull the factors back up.  Roots that do not
exist yet can be adjoined, growing the tower up to its degree cap.
"""

from __future__ import annotations

from fractions import Fraction

from .field import FieldElement, QQ_TOWER, Tower
from .poly import MultiPoly, from_sympy, poly_gcd, to_sympy

_ZVAR = "@z"


def _qq_factor(f, var):
    const, factors = to_sympy(f, (var,)).factor_list()
    unit = Fraction(const.p, const.q)
    return unit, [(from_sympy(p, (var,)), m) for p, m in factors]


def univ_factor(f):
    """Factor a univariate polynomial over its coefficient field.

    Returns a list of (factor, multiplicity) pairs whose product is f.  A
    non-trivial constant is reported as a leading degree-0 entry.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    eff = f.effective_vars()
    if len(eff) > 1:
        raise ValueError("univ_factor expects a univariate polynomial")
    if not eff:
        return [(f, 1)]
    var = eff[0]
    f = f.drop_unused_vars()
    if f.tower.depth == 0:
        unit, factors = _qq_factor(f, var)
        factors.sort(key=lambda t: (t[0].total_degree(), t[0].to_string()))
        if unit != 1:
            return [(MultiPoly.constant(unit), 1)] + factors
        return factors
    tower = f.tower
    lead = f.coefficient((f.degree_in(var),))
    monic = f * lead.inverse()
    squarefree = monic.divide_exact(poly_gcd(monic, monic.diff(var)))
    parts = _factor_squarefree(squarefree, var, tower)
    out = []
    rem = monic
    for p in sorted(parts, key=lambda q: (q.total_degree(), q.to_string())):
        mult = 0
        while True:
            q = rem.divide_exact(p)
            if q is None:
                break
            rem = q
            mult += 1
        out.append((p, mult))
    if not (lead == 1):
        out = [(MultiPoly.constant(lead), 1)] + out
    return out


def _factor_squarefree(f, var, tower):
    """Irreducible monic factors of a squarefree monic univariate f."""
    if f.degree_in(var) <= 1:
        return [f]
    if tower.depth == 0:
        _, factors = _qq_factor(f, var)
        return [p.monic() for p, _ in factors]
    sub = Tower(tower.levels[:-1], tower.max_degree)
    name, mp = tower.levels[-1]
    # minimal polynomial of the top generator, over the lower tower
    m_poly = MultiPoly.from_coeff_dict(
        (_ZVAR,),
        {(i,): FieldElement(sub, c) for i, c in enumerate(mp)},
        sub,
    )
    # rewrite f as a two-variable polynomial over the lower tower
    two = MultiPoly.zero((var, _ZVAR), sub)
    terms = {}
    for (e,), c in f.drop_unused_vars().terms.items():
        for j, comp in enumerate(c):
            if sub.is_zero(comp):
                continue
            key = (e, j) if var < _ZVAR else (j, e)
            terms[key] = sub.add(terms.get(key, sub.zero()), comp)
    vars2 = tuple(sorted((var, _ZVAR)))
    two = MultiPoly(vars2, terms, sub)
    t_poly = MultiPoly.variable(var, sub)
    z_poly = MultiPoly.variable(_ZVAR, sub)
    s = 0
    while True:
        shifted = two.substitute({var: t_poly - s * z_poly})
        from .poly import resultant

        norm = resultant(m_poly, shifted, _ZVAR)
        norm = norm.with_vars((var,)).drop_unused_vars().with_vars((var,))
        if norm.degree_in(var) == f.degree_in(var) * (len(mp) - 1):
            g = poly_gcd(norm, norm.diff(var))
            if g.is_constant():
                break
        s += 1
        if s > 40:
            raise RuntimeError("no squarefree norm shift found")
    sub_factors = _factor_squarefree(norm.monic(), var, sub)
    theta = FieldElement.generator(tower)
    out = []
    for nf in sub_factors:
        lifted = nf.lift_to(tower)
        shifted_back = lifted.substitute(
            {var: MultiPoly.variable(var, tower) + MultiPoly.constant(s * theta)}
        )
        g = poly_gcd(f, shifted_back)
        if not g.is_constant():
            out.append(g.monic())
    return out


def squarefree_part(f, var):
    g = poly_gcd(f, f.diff(var))
    return f.divide_exact(g).monic()


def roots_in_extension(f, tower=None, adjoin=True):
    """All roots of a univariate polynomial, adjoining new generators when
    needed.  Returns (roots, tower); roots are FieldElements of the returned
    tower, sorted by their coordinate vectors."""
    if tower is None:
        tower = f.tower
    eff = f.effective_vars()
    if not eff:
        return [], tower
    (var,) = eff
    f = f.drop_unused_vars().lift_to(tower) if f.tower.is_prefix_of(tower) else f
    g = squarefree_part(f, var)
    while True:
        factors = _factor_squarefree(g, var, tower)
        roots = []
        nonlinear = []
        for p in factors:
            if p.degree_in(var) == 1:
                c0 = p.coefficient((0,))
                roots.append(-c0)
            else:
                nonlinear.append(p)
        if not nonlinear or not adjoin:
            roots.sort(key=lambda r: r.sort_key())
            return roots, tower
        nonlinear.sort(key=lambda p: (p.total_degree(), p.to_string()))
        pick = nonlinear[0]
        coeffs = tuple(
            pick.coefficient((i,)).v for i in range(pick.degree_in(var) + 1)
        )
        tower = tower.adjoin(tower.fresh_name(), coeffs)
        g = g.lift_to(tower)


def adjoin_root(tower, f):
    """Adjoin one root of an irreducible univariate polynomial.

    Returns (new tower, root).  Raises ValueError when f is reducible over
    the rationals, is not of degree at least 2, or already has a root in the
    tower; raises ExtensionDegreeExceeded past the degree cap.
    """
    eff = f.effective_vars()
    if len(eff) != 1:
        raise ValueError("adjoin_root expects a univariate polynomial")
    (var,) = eff
    f = f.drop_unused_vars()
    if f.degree_in(var) < 2:
        raise ValueError("polynomial must have degree at least 2")
    if f.tower.depth == 0:
        _, factors = _qq_factor(f, var)
        if len(factors) != 1 or factors[0][1] != 1:
            raise ValueError("polynomial is not irreducible over the rationals")
    base = f.monic().lift_to(tower) if f.tower.is_prefix_of(tower) else f.monic()
    if tower.depth > 0:
        parts = _factor_squarefree(base, var, tower)
        if any(p.degree_in(var) == 1 for p in parts):
            raise ValueError("polynomial already has a root in the tower")
        parts.sort(key=lambda p: (p.total_degree(), p.to_string()))
        base = parts[0]
    coeffs = tuple(
        base.coefficient((i,)).v for i in range(base.degree_in(var) + 1)
    )
    new = tower.adjoin(tower.fresh_name(), coeffs)
    return new, FieldElement.generator(new)
