"""Local blow-ups of 1-forms and curves: strict transforms, characteristic
polynomials and singularity classification.

All local data lives at an origin of a two-variable chart.  Blowing up at a
divisor coordinate lambda recentres first, so every blow-up is a blow-up at
the local origin; the V1 chart keeps the first variable as the divisor
equation, the V2 chart keeps the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt

from .errors import WaifiError
from .poly import MultiPoly

V1 = "V1"
V2 = "V2"

NONSINGULAR = "nonsingular"
SIMPLE = "simple"
ORDINARY = "ordinary-nondicritical"
DICRITICAL = "dicritical"


class DivisibilityViolation(WaifiError, RuntimeError):
    """The exceptional power removed by a blow-up was not m or m+1."""


@dataclass(frozen=True)
class LocalOneForm:
    """a d(first) + b d(second) at a chart origin."""

    a: MultiPoly
    b: MultiPoly
    vars: tuple

    def __post_init__(self):
        if tuple(sorted(self.vars)) != self.vars:
            raise ValueError("local variables must be given in sorted order")

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()


def multiplicity(omega):
    """Algebraic multiplicity at the origin: the order of the lowest jet."""
    if omega.is_zero():
        raise ValueError("zero 1-form")
    orders = [p.order() for p in (omega.a, omega.b) if not p.is_zero()]
    return min(orders)


def char_poly(omega, m):
    """Characteristic polynomial of the lowest jet.

    With omega = p dy - q dx (so p is the second component and q minus the
    first), this is y p_m - x q_m, m the multiplicity; identically zero
    exactly at dicritical singularities.  Multiplying by a variable bumps an
    exponent, so the two jets are added term by term.
    """
    tower = omega.a.tower.join(omega.b.tower)
    terms = {}
    for p, (di, dj) in ((omega.b, (0, 1)), (omega.a, (1, 0))):
        p = p.with_vars(omega.vars).lift_to(tower)
        for (i, j), c in p.terms.items():
            if i + j == m:
                e = (i + di, j + dj)
                terms[e] = tower.add(terms[e], c) if e in terms else c
    terms = {e: c for e, c in terms.items() if not tower.is_zero(c)}
    return MultiPoly(omega.vars, terms, tower)


def div_power(p, var, e):
    """p divided by var^e; e is at most common_power([p], var)."""
    if e == 0 or p.is_zero():
        return p
    i = p.vars.index(var)
    terms = {ex[:i] + (ex[i] - e,) + ex[i + 1 :]: c for ex, c in p.terms.items()}
    return MultiPoly(p.vars, terms, p.tower)


def common_power(polys, var):
    """The largest e with var^e dividing each of polys: the least exponent
    of var in their terms, 0 when var is not in a ring and infinite when
    all of them are zero."""
    e = inf
    for p in polys:
        if p.terms:
            i = p.vars.index(var) if var in p.vars else None
            e = min(e, 0 if i is None else min(exps[i] for exps in p.terms))
    return e


def _axes(branch, vars):
    """(divisor, other) of one blow-up of the origin of vars = (u, v).

    V1 pulls back along (u, v) -> (u, u (v + center)) and keeps u = 0 as
    the divisor; V2 along (u, v) -> (v (u + center), v) and keeps v = 0.
    divisor names the divisor variable and other the remaining one.  The
    pull-back is the exponent map of _remap followed by the Taylor shift
    other -> other + center.
    """
    u, v = vars
    if branch == V1:
        return u, v
    if branch == V2:
        return v, u
    raise ValueError("branch must be V1 or V2")


def _remap(p, vars, axes, times, less):
    """p under the monomial part of the chart map with axes (divisor,
    other), (i, j) -> (i + j, j) on V1 and (i, i + j) on V2 in the exponents
    of (u, v), multiplied by the chart variable named times (if any) and
    divided by divisor^less; other variables are untouched.  The caller
    checks the division: a negative divisor exponent left means the
    pull-back was not divisible."""
    divisor, other = axes
    p = p.with_vars(vars)
    d = p.vars.index(divisor)
    o = p.vars.index(other)
    bump_d = int(times == divisor) - less
    bump_o = int(times == other)
    terms = {}
    for e, c in p.terms.items():
        ne = list(e)
        ne[d] += e[o] + bump_d
        ne[o] += bump_o
        terms[tuple(ne)] = c
    return MultiPoly(p.vars, terms, p.tower)


def strict_transform(p, center, branch, vars, e):
    """The pull-back of p through the chart of branch at center (see _axes)
    divided by the e-th power of the divisor variable; None when the
    pull-back is not divisible by it."""
    axes = divisor, other = _axes(branch, vars)
    out = _remap(p, vars, axes, None, e)
    return None if common_power([out], divisor) < 0 else out.shift(other, center)


def blow_up_form(omega, branch, e):
    """Strict transform of omega under one blow-up of the origin (see
    _axes, with centre 0).

    Both components are divided by the maximal common power of the divisor
    variable, which must be the expected power e: m at a non-dicritical
    point and m+1 at a dicritical one, m the multiplicity.  The V1 chart at
    a point lambda of the divisor is this transform shifted by
    v -> v + lambda.
    """
    vars = omega.vars
    axes = divisor, other = _axes(branch, vars)
    # b can be over a deeper tower than a
    a, b = omega.a, omega.b.lift_to(omega.a.tower.join(omega.b.tower))
    # a du + b dv pulls back to (a + v b) du + u b dv on V1 and
    # v a du + (u a + b) dv on V2; each part comes divided by the expected
    # power e of the divisor, so the least exponent left must be 0
    if branch == V1:
        na = _remap(a, vars, axes, None, e) + _remap(b, vars, axes, other, e)
        nb = _remap(b, vars, axes, divisor, e)
    else:
        na = _remap(a, vars, axes, divisor, e)
        nb = _remap(a, vars, axes, other, e) + _remap(b, vars, axes, None, e)
    removed = e + common_power([na, nb], divisor)
    if removed != e:
        raise DivisibilityViolation(
            f"removed exceptional power {removed}, expected {e}"
        )
    return LocalOneForm(na, nb, vars)


def blow_up_curve(equation, center, branch, vars):
    """Strict transform of a local curve under the same blow-up maps.

    Divides the pull-back by the divisor variable to the multiplicity of the
    curve at the blown-up origin.  Returns the new local equation.
    """
    mult = equation.order()
    if mult is None:
        raise ValueError("zero curve cannot be tracked")
    out = strict_transform(equation, center, branch, vars, mult)
    if out is None:
        raise DivisibilityViolation("curve pull-back not divisible to multiplicity")
    return out


def _is_rational_square(q):
    """Whether the rational q >= 0 is the square of a rational."""
    n, d = q.numerator, q.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def _ratio_in_positive_rationals(T, Delta):
    """Whether the two eigenvalues of a matrix with trace T and determinant
    Delta != 0 have a ratio in Q+ (exact test)."""
    if Delta.is_zero():
        raise ValueError("Delta must be nonzero here")
    # T^2/Delta is a rational r exactly when the rational coordinates of T^2
    # are r times those of Delta: no tower inverse is needed
    square = T * T
    tower = square.tower.join(Delta.tower)
    t, d = square.lift_to(tower).sort_key(), Delta.lift_to(tower).sort_key()
    k = next(i for i, c in enumerate(d) if c != 0)
    if any(a * d[k] != t[k] * c for a, c in zip(t, d)):
        return False
    s = Fraction(t[k], d[k]) - 2
    # ratio + 1/ratio = s; real positive ratio needs s >= 2, rational ratio
    # needs the discriminant s^2 - 4 to be a rational square
    return s >= 2 and _is_rational_square(s * s - 4)


def classify(omega):
    """One of nonsingular / simple / ordinary-nondicritical / dicritical."""
    if omega.is_zero():
        raise ValueError("zero 1-form")
    m = multiplicity(omega)
    if m == 0:
        return NONSINGULAR
    if char_poly(omega, m).is_zero():
        return DICRITICAL
    if m != 1:
        return ORDINARY
    u, v = omega.vars
    # linear part of the dual vector field (p, q) = (b, -a)
    p1 = omega.b.initial_form(1).with_vars(omega.vars)
    q1 = (-omega.a).initial_form(1).with_vars(omega.vars)
    a11 = p1.coefficient((1, 0))
    a12 = p1.coefficient((0, 1))
    a21 = q1.coefficient((1, 0))
    a22 = q1.coefficient((0, 1))
    T = a11 + a22
    Delta = a11 * a22 - a12 * a21
    if Delta.is_zero():
        # one eigenvalue zero: simple iff the other is not (T != 0)
        return SIMPLE if not T.is_zero() else ORDINARY
    if _ratio_in_positive_rationals(T, Delta):
        return ORDINARY
    return SIMPLE
