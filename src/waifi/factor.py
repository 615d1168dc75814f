"""Univariate factorisation and root finding over the rationals and over
extension towers.

Over the rationals, factorisation and gcds go through sympy's sparse
integer ring: a polynomial is cleared to integers plus one denominator
(poly.to_zz), factored over the integers, and the unit is the integer
content over that denominator, as sympy's own rational factorisation does.
Over a proper tower, a squarefree polynomial is first brought down to the
shortest prefix K_k of the tower that holds its coefficients and factored
there.  Over K_k it is factored through its norm (_factor_norm): resultants
against the top minimal polynomial push the problem one level down, the
shifted norm is factored recursively, and gcds pull the factors back up.
Both directions are Taylor shifts by a multiple of the top generator.  The
factors are then lifted to the tower one level at a time.  At level j, a
factor of degree d irreducible over K_(j-1) stays irreducible when
e = [K_j : K_(j-1)] is coprime to d: a root generates a degree-d extension
of K_(j-1), so d and e both divide [K_j(root) : K_(j-1)] <= d e, which is
then d e, and the root has degree d over K_j.  Only the other factors take
a norm, over K_j alone.  Roots that do not exist yet can be adjoined, growing
the tower up to its degree cap; after an adjoin only the factors that are
still nonlinear can split, and only at the new level.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import WaifiError
from .field import FieldElement
from .poly import MultiPoly, from_zz, poly_gcd, resultant, to_zz

_ZVAR = "@z"


class NoSquarefreeShift(WaifiError, RuntimeError):
    """No shift s <= 40 gave a squarefree norm of the right degree."""


def _qq_factor(f, var):
    # sympy factors over the rationals by clearing denominators and
    # factoring over the integers; doing that here gives the same factors
    h, den = to_zz(f, (var,))
    content, factors = h.factor_list()
    unit = Fraction(int(content), den)
    return unit, [(from_zz(p, 1, (var,)), m) for p, m in factors]


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
    parts = _factor_squarefree(squarefree_part(monic, var), var, tower)
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
    """Irreducible monic factors over tower of a squarefree monic univariate
    f: factored over the shortest prefix K_k of tower that holds the
    coefficients of f, then lifted level by level (_lift_factors)."""
    k = max(tower.shortest(c)[1] for c in f.terms.values())
    base = tower.prefix(k)
    low = MultiPoly(
        f.vars, {e: tower.shortest(c, floor=k)[0] for e, c in f.terms.items()}, base
    )
    return _lift_factors(_factor_norm(low, var, base), var, tower, k)


def _lift_factors(factors, var, tower, k):
    """Irreducible monic factors over tower of the product of factors, each
    irreducible over the prefix K_k.  Level j keeps a factor of degree d
    whole when gcd(d, [K_j : K_(j-1)]) = 1, and takes the norm of the others
    over K_j alone."""
    for j in range(k + 1, tower.depth + 1):
        level = tower.prefix(j)
        e = tower.level_degree(j)
        out = []
        for p in factors:
            p = p.lift_to(level)
            if gcd(p.degree_in(var), e) == 1:
                out.append(p)
            else:
                out.extend(_factor_norm(p, var, level))
        factors = out
    return factors


def _factor_norm(f, var, tower):
    """Irreducible monic factors of a squarefree monic univariate f over
    tower, through Trager's norm over the level below."""
    if f.degree_in(var) <= 1:
        return [f]
    if tower.depth == 0:
        _, factors = _qq_factor(f, var)
        return [p.monic() for p, _ in factors]
    sub = tower.prefix(tower.depth - 1)
    mp = tower.levels[-1][1]
    # minimal polynomial of the top generator theta, in @z over the lower tower
    coeffs = {(i,): c for i, c in enumerate(mp) if not sub.is_zero(c)}
    m_poly = MultiPoly((_ZVAR,), coeffs, sub)
    theta = FieldElement.generator(tower)
    f = f.drop_unused_vars()
    # with every coefficient in the level below, the s = 0 norm is f^e
    s = 0 if any(tower.shortest(c)[1] == tower.depth for c in f.terms.values()) else 1
    while True:
        # f(var - s*theta) lowered agrees with f(var - s*@z) modulo the monic
        # m_poly, and Res_z(m, g) = prod g(roots of m) depends on g mod m only
        shifted = _lower(f.shift(var, -s * theta), var, sub)
        norm = resultant(m_poly, shifted, _ZVAR)
        if norm.degree_in(var) == f.degree_in(var) * (len(mp) - 1):
            g = poly_gcd(norm, norm.diff(var))
            if g.is_constant():
                break
        s += 1
        if s > 40:
            raise NoSquarefreeShift("no squarefree norm shift found")
    sub_factors = _factor_squarefree(norm.monic(), var, sub)
    out = []
    for nf in sub_factors:
        g = poly_gcd(f, nf.shift(var, s * theta))
        if not g.is_constant():
            out.append(g.monic())
    return out


def _lower(f, var, sub):
    """A univariate f in var over a tower one level above sub, as a
    polynomial in (var, @z) over sub with the top generator read as @z."""
    terms = {}
    for (e,), c in f.terms.items():
        for j, comp in enumerate(c):
            if not sub.is_zero(comp):
                terms[(e, j) if var < _ZVAR else (j, e)] = comp
    return MultiPoly(tuple(sorted((var, _ZVAR))), terms, sub)


def squarefree_part(f, var):
    g = poly_gcd(f, f.diff(var))
    return f.divide_exact(g).monic()


def roots_in_extension(f, tower):
    """All roots of a univariate polynomial, adjoining new generators when
    needed: the one place where a tower grows.  Returns (roots, tower);
    roots are FieldElements of the returned tower, sorted by their
    coordinate vectors.  A constant has no roots."""
    eff = f.effective_vars()
    if not eff:
        return [], tower
    (var,) = eff
    f = f.drop_unused_vars().lift_to(tower)
    factors = _factor_squarefree(squarefree_part(f, var), var, tower)
    roots = []
    while True:
        nonlinear = []
        for p in factors:
            if p.degree_in(var) == 1:
                roots.append(-p.coefficient((0,)))
            else:
                nonlinear.append(p)
        if not nonlinear:
            roots = [r.lift_to(tower) for r in roots]
            roots.sort(key=lambda r: r.sort_key())
            return roots, tower
        # adjoin a root of the first nonlinear factor; only the nonlinear
        # factors can split further, and only at the new level
        nonlinear.sort(key=lambda p: (p.total_degree(), p.to_string()))
        pick = nonlinear[0]
        coeffs = tuple(
            pick.coefficient((i,)).v for i in range(pick.degree_in(var) + 1)
        )
        k = tower.depth
        tower = tower.adjoin(tower.fresh_name(), coeffs)
        factors = _lift_factors(nonlinear, var, tower, k)


def affine_common_zeros(f, g, tower):
    """Common zeros (x0, y0) of two coprime polynomials in x, y: y0 runs
    over the roots of Res_x(f, g), x0 over those of the gcd at y = y0."""
    if f.is_constant() or g.is_constant():
        return [], tower
    points = []
    ry = resultant(f, g, "x")
    yroots, tower = roots_in_extension(ry.with_vars(("y",)), tower)
    for y0 in yroots:
        h = poly_gcd(f.restrict("y", y0), g.restrict("y", y0))
        xroots, tower = roots_in_extension(h, tower)
        points.extend((x0, y0) for x0 in xroots)
    return points, tower


def infinity_common_zeros(at_infinity, tower):
    """The common zeros on Z = 0 of the restrictions at_infinity of the
    forms, not all zero: None for the point (1:0:0), which comes first, then
    xi for each point (xi:1:0) in root order.  Returns (points, tower)."""
    forms = [h for h in at_infinity if not h.is_zero()]
    h = forms[0].monic()
    for other in forms[1:]:
        h = poly_gcd(h, other)
    # the point (1:0:0) corresponds to the factor Y of the binary form
    at_inf = [None] if h.restrict("Y", 0).is_zero() else []
    univ = h.restrict("Y", 1).rename_vars({"X": "x"})
    roots, tower = roots_in_extension(univ, tower)
    return at_inf + roots, tower


def plane_triples(at_inf, affine, tower):
    """Coordinate triples of the points at infinity at_inf (as returned by
    infinity_common_zeros), then of the affine points (x0, y0) sorted by
    coordinates.  The coordinates 0 and 1 live on tower, the roots on the
    tower they were found in."""
    affine = sorted(affine, key=lambda p: (p[0].sort_key(), p[1].sort_key()))
    one = FieldElement.rational(1, tower)
    zero = FieldElement.rational(0, tower)
    triples = [(one, zero, zero) if xi is None else (xi, one, zero) for xi in at_inf]
    triples.extend((x0, y0, one) for x0, y0 in affine)
    return triples


def plane_common_zeros(at_infinity, f, g, tower):
    """Common zeros in the projective plane, as coordinate triples: the
    points at infinity (infinity_common_zeros of at_infinity), then the
    common zeros (x0:y0:1) of the coprime polynomials f, g in x, y (the
    restrictions to Z = 1), found over the tower grown by the points at
    infinity.  Returns (triples, tower)."""
    at_inf, tower = infinity_common_zeros(at_infinity, tower)
    affine, tower = affine_common_zeros(f, g, tower)
    return plane_triples(at_inf, affine, tower), tower
