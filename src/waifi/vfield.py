"""Affine polynomial vector fields, their projective 1-forms, local
equations at plane points, invariant curves and cofactors."""

from __future__ import annotations

from dataclasses import dataclass

from .blowup import UV, common_power, div_power
from .errors import InputError
from .poly import MultiPoly, poly_gcd


class NotInvariant(ValueError):
    """The candidate curve is not invariant for the vector field."""


@dataclass(frozen=True)
class AffineVectorField:
    """The system x' = p(x,y), y' = q(x,y)."""

    p: MultiPoly
    q: MultiPoly

    def __post_init__(self):
        if self.p.is_zero() and self.q.is_zero():
            raise InputError("p and q cannot both vanish")
        bad = set(self.p.effective_vars() + self.q.effective_vars()) - {"x", "y"}
        if bad:
            raise InputError(f"vector field must use x,y only, found {sorted(bad)}")

    @property
    def degree(self):
        return max(self.p.total_degree(), self.q.total_degree())


@dataclass(frozen=True)
class ProjectiveOneForm:
    """A dX + B dY + C dZ with XA + YB + ZC = 0."""

    A: MultiPoly
    B: MultiPoly
    C: MultiPoly

    def check(self):
        X = MultiPoly.variable("X")
        Y = MultiPoly.variable("Y")
        Z = MultiPoly.variable("Z")
        if not (X * self.A + Y * self.B + Z * self.C).is_zero():
            raise InputError("XA+YB+ZC != 0")
        for comp in (self.A, self.B, self.C):
            if not comp.is_homogeneous():
                raise InputError("components must be homogeneous")

    def reduced(self):
        """Divide out the common polynomial factor h of A, B, C.

        One gcd suffices: g = gcd(A, B) = Z^k g1 with Z not dividing g1,
        and g1 divides ZC = -(XA + YB), so g1 divides C and
        h = gcd(g, C) = g1 Z^min(k, ord_Z C).  The reduced A and B then
        share only the power Z^(k - min(k, ord_Z C)).  InputError when g1
        does not divide C, which the relation XA + YB + ZC = 0 rules out.
        """
        g = poly_gcd(self.A, self.B)
        if g.is_zero():
            return self
        h = div_power(g, "Z", common_power([g], "Z") - common_power([g, self.C], "Z"))
        if h.is_constant():
            return self
        C = self.C.divide_exact(h)
        if C is None:
            raise InputError("XA+YB+ZC != 0")
        return ProjectiveOneForm(self.A.divide_exact(h), self.B.divide_exact(h), C)


def homogenize(p, d):
    """Z^d p(X/Z, Y/Z) as a degree-d homogeneous polynomial."""
    terms = {}
    for e, c in p.terms.items():
        exp = dict(zip(p.vars, e))
        a = exp.get("x", 0)
        b = exp.get("y", 0)
        if a + b > d:
            raise ValueError("degree of p exceeds homogenization degree")
        terms[(a, b, d - a - b)] = c
    return MultiPoly(("X", "Y", "Z"), terms, p.tower)


def dehomogenize(F, one="Z", names=("x", "y")):
    """The affine part of a form in X, Y, Z on the chart one = 1, the other
    two variables (in X, Y, Z order) renamed to names."""
    others = [w for w in ("X", "Y", "Z") if w != one]
    return F.restrict(one, 1).rename_vars(dict(zip(others, names)))


def projectivize(V):
    """Extend the affine field to the projective plane as a reduced 1-form.

    p and q are divided by their gcd first, d is the degree of the
    quotients, and P = Z^d p(X/Z,Y/Z) and Q likewise.  The form
    A = -ZQ, B = ZP, C = XQ - YP (so the affine restriction is p dy - q dx
    divided by the gcd, and the line at infinity is invariant) is then
    divided by the power of Z its components share, 0 or 1.  That is its
    reduced form: a common factor of P and Q would dehomogenise to one of
    the coprime quotients, or be Z, which does not divide the one of degree
    d, so A, B and C share at most the Z of gcd(A, B) = Z gcd(P, Q).
    """
    g = poly_gcd(V.p, V.q)
    p, q = V.p.divide_exact(g), V.q.divide_exact(g)
    d = max(p.total_degree(), q.total_degree())
    Z = MultiPoly.variable("Z")
    X = MultiPoly.variable("X")
    Y = MultiPoly.variable("Y")
    P = homogenize(p, d)
    Q = homogenize(q, d)
    comps = (-(Z * Q), Z * P, X * Q - Y * P)
    e = common_power(comps, "Z")
    return ProjectiveOneForm(*(div_power(c, "Z", e) for c in comps))


def chart_at(triple):
    """The chart of the plane point (x : y : z), Z if z != 0, else Y if
    y != 0, else X, and the point's coordinates in that chart: the other
    two coordinates, in X, Y, Z order, divided by the chart's one.  A
    coordinate divided by 1 stays on its own tower."""
    x, y, z = triple
    k = 2 if not z.is_zero() else 1 if not y.is_zero() else 0
    w = triple[k]
    centre = tuple(c if w == 1 else c / w for i, c in enumerate(triple) if i != k)
    return "XYZ"[k], centre


def localize(polys, triple):
    """Local equations at the plane point triple of the forms polys in X,
    Y, Z: each dehomogenised on the chart of chart_at(triple), its other
    two variables named u and v in X, Y, Z order and shifted to the point.
    A poly stays on its own tower where the point's coordinate is 0.

    The two components of a reduced 1-form that a chart keeps share no
    factor, so no gcd is taken: on chart Z, say, a common factor h of A and
    B divides XA + YB = -ZC, and h shares no factor with C because the form
    is reduced, so h is a power of Z, which is 1 on the chart.  A common
    factor of the dehomogenised components would homogenise to such an h.
    """
    one, centre = chart_at(triple)
    out = []
    for F in polys:
        local = dehomogenize(F, one, UV)
        for var, c in zip(UV, centre):
            if not c.is_zero():
                local = local.shift(var, c)
        out.append(local.with_vars(UV))
    return out


def cofactor(V, f):
    """Exact cofactor k with p f_x + q f_y = k f; raises NotInvariant."""
    if f.is_constant():
        raise ValueError("curve must be nonconstant")
    lie = V.p * f.diff("x") + V.q * f.diff("y")
    if lie.is_zero():
        return MultiPoly.zero(("x", "y"), lie.tower)
    k = lie.divide_exact(f)
    if k is None:
        raise NotInvariant(f"{f} is not invariant")
    return k


def verify_first_integral(V, H):
    """(is_integral, residual) with residual = p H_x + q H_y."""
    if H.is_constant():
        raise ValueError("candidate first integral must be nonconstant")
    residual = V.p * H.diff("x") + V.q * H.diff("y")
    return residual.is_zero(), residual
