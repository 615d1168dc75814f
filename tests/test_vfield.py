import random

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from test_independent_oracles import as_input, random_field
from test_linsys import reference_localize

from waifi.blowup import UV
from waifi.errors import WaifiError
from waifi.factor import affine_common_zeros, plane_triples
from waifi.field import QQ_TOWER
from waifi.poly import MultiPoly, parse_poly
from waifi.reduction import points_at_infinity
from waifi.vfield import (
    AffineVectorField,
    NotInvariant,
    ProjectiveOneForm,
    chart_at,
    cofactor,
    dehomogenize,
    homogenize,
    localize,
    projectivize,
    verify_first_integral,
)


def field(p, q):
    return AffineVectorField(parse_poly(p), parse_poly(q))


def main_example_field():
    # the running high-degree example: omega = a dx + b dy, (p, q) = (b, -a)
    a = parse_poly(
        "10*x^7 - 9*x^6 + 6*x^5*y + 9*x^4*y - 6*x^3*y + 6*x^2*y^2 + 2*x*y^2"
    )
    b = parse_poly("2*x^6 - x^4 + 6*x^3*y - x^2*y + 4*y^2")
    return AffineVectorField(b, -a)


def test_homogenize():
    p = parse_poly("x^2 + y - 1")
    P = homogenize(p, 2)
    assert P == parse_poly("X^2 + Y*Z - Z^2")
    with pytest.raises(ValueError):
        homogenize(p, 1)


def test_projectivize_euler_relation():
    for p, q in [("-y", "x"), ("2*y", "3*x^2"), ("x^2+1", "x*y")]:
        om = projectivize(field(p, q))
        om.check()


def test_projectivize_main_example():
    om = projectivize(main_example_field())
    om.check()
    assert om.A == parse_poly(
        "10*X^7*Z - 9*X^6*Z^2 + 6*X^5*Y*Z^2 + 9*X^4*Y*Z^3 - 6*X^3*Y*Z^4"
        " + 6*X^2*Y^2*Z^4 + 2*X*Y^2*Z^5"
    )
    assert om.B == parse_poly(
        "2*X^6*Z^2 - X^4*Z^4 + 6*X^3*Y*Z^4 - X^2*Y*Z^5 + 4*Y^2*Z^6"
    )
    assert om.C == parse_poly(
        "-10*X^8 + 9*X^7*Z - 8*X^6*Y*Z - 9*X^5*Y*Z^2 + 7*X^4*Y*Z^3"
        " - 12*X^3*Y^2*Z^3 - X^2*Y^2*Z^4 - 4*Y^3*Z^5"
    )


def test_projectivize_sympy_expansion_oracle():
    X, Y, Z, x, y = sympy.symbols("X Y Z x y")
    p = x ** 2 - y
    q = x * y + 1
    d = 2
    P = sympy.expand(Z ** d * p.subs({x: X / Z, y: Y / Z}))
    Q = sympy.expand(Z ** d * q.subs({x: X / Z, y: Y / Z}))
    om = projectivize(field("x^2 - y", "x*y + 1"))

    def to_sympy(m):
        expr = 0
        for e, c in m.terms.items():
            fr = m.tower.as_rational(c)
            term = sympy.Rational(fr.numerator, fr.denominator)
            for v, k in zip(m.vars, e):
                term *= {"X": X, "Y": Y, "Z": Z}[v] ** k
            expr += term
        return sympy.expand(expr)

    comps = [sympy.expand(c) for c in (-Z * Q, Z * P, X * Q - Y * P)]
    # the top-degree parts x^2 and x*y are radial (x*xy - y*x^2 = 0), so Z
    # divides C too, and the reduced form is the three divided by Z
    g = sympy.gcd(sympy.gcd(comps[0], comps[1]), comps[2])
    assert g == Z
    for ours, theirs in zip((om.A, om.B, om.C), comps):
        assert to_sympy(ours) == sympy.expand(sympy.cancel(theirs / g))


def test_reduced_removes_common_factor():
    om = projectivize(field("x", "y"))
    red = om.reduced()
    assert red.A == parse_poly("-Y")
    assert red.B == parse_poly("X")
    assert red.C.is_zero()


def as_uv(text, names):
    """The polynomial text in the two variables names, renamed to u, v, on
    the ring UV."""
    return parse_poly(text).rename_vars(dict(zip(names, UV))).with_vars(UV)


def plane_point(digits):
    """The rational plane point with the integer coordinates digits."""
    return tuple(QQ_TOWER.element(int(c)) for c in digits)


def on_chart(omega, triple):
    """The two components of omega the chart of triple keeps."""
    k = "XYZ".index(chart_at(triple)[0])
    comps = (omega.A, omega.B, omega.C)
    return comps[:k] + comps[k + 1 :]


def test_localize_affine():
    om = projectivize(field("-y", "x"))
    origin = plane_point("001")
    a, b = localize(on_chart(om, origin), origin)
    # a dx + b dy with a = -q, b = p at the origin of chart Z
    assert a == as_uv("-x", ("x", "y"))
    assert b == as_uv("-y", ("x", "y"))


def test_localize_at_infinity():
    # the X-chart of the quintic example: 5 u^4 v du - (5 u^5 + 2 v^3) dv,
    # (u, v) = (y, z); its projectivisation has the common factor Z, which
    # reduced() removes
    om = projectivize(field("5*y^4", "-2*x")).reduced()
    point = plane_point("100")
    assert chart_at(point)[0] == "X"
    a, b = localize(on_chart(om, point), point)
    assert (a.vars, b.vars) == (UV, UV)
    assert a == as_uv("5*y^4*z", ("y", "z"))
    assert b == as_uv("-5*y^5 - 2*z^3", ("y", "z"))


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 2),
    st.integers(-3, 3).filter(bool),
    max_size=4,
)
factors = st.sampled_from(["1", "x", "y", "x - 1", "x + y + 2", "y^2 + 1"])


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, factors)
def test_localized_components_are_coprime(p_terms, q_terms, h):
    # a field of degree 1-3, sometimes with a common factor h of p and q
    xy = ("x", "y")
    hp = parse_poly(h)
    p = hp * MultiPoly.from_coeff_dict(xy, p_terms)
    q = hp * MultiPoly.from_coeff_dict(xy, q_terms)
    assume(not (p.is_zero() and q.is_zero()))
    V = AffineVectorField(p, q)
    assume(1 <= V.degree <= 3)
    om = projectivize(V).reduced()
    # the origins of the three charts
    for point in map(plane_point, ("100", "010", "001")):
        loc = localize(on_chart(om, point), point)
        a, b = (sympy.sympify(c.to_string().replace("^", "**")) for c in loc)
        gcd = sympy.gcd(a, b)
        assert gcd != 0 and not gcd.free_symbols


# -- localize against the chart restrictions it replaced ----------------------

#: chart -> its local variables before they were named u, v everywhere
REFERENCE_CHARTS = {"X": ("y", "z"), "Y": ("x", "z"), "Z": ("x", "y")}


def reference_restrict_to_chart(omega, chart):
    """A reduced form restricted to a chart as reduce took it, once per
    chart: the components of the chart's two variables, dehomogenised to
    the chart's own names.  Returns them and the names."""
    u, v = REFERENCE_CHARTS[chart]
    comps = {"X": omega.A, "Y": omega.B, "Z": omega.C}
    return [
        dehomogenize(comps[w], chart, (u, v)).with_vars((u, v))
        for w in ("X", "Y", "Z")
        if w != chart
    ], (u, v)


def reference_translate(polys, vars, centre):
    """Recentre at a plane point: w -> w + c for each nonzero shift."""
    out = []
    for p in polys:
        for w, c in zip(vars, centre):
            if not c.is_zero():
                p = p.shift(w, c)
        out.append(p)
    return out


WAI_ANCHORS = [
    (
        "2*x^6 - x^4 + 6*x^3*y - x^2*y + 4*y^2",
        "-10*x^7 + 9*x^6 - 6*x^5*y - 9*x^4*y + 6*x^3*y - 6*x^2*y^2 - 2*x*y^2",
    ),
    ("5*y^4", "-2*x"),
    ("-y", "x"),
    # H = (x^2 - 7)(y^2 - 5)
    ("-2*x^2*y + 14*y", "2*x*y^2 - 10*x"),
]


def seed_seven_fields():
    rng = random.Random(7)
    for _ in range(100):
        yield tuple(as_input(c) for c in random_field(rng))


def test_localize_matches_the_chart_restrictions():
    # at every plane point of the anchors and of the random fields, the
    # kept components of the reduced form, localised, equal the old chart
    # restriction recentred and renamed to (u, v), tower and all; every
    # component localised and lifted to the points' tower equals the
    # linear systems' reference
    charts = set()
    for p, q in WAI_ANCHORS + list(seed_seven_fields()):
        omega = projectivize(field(p, q))
        try:
            start = points_at_infinity(omega, max_tower_degree=8)
            points, tower = affine_common_zeros(start.f, start.g, start.tower)
        except WaifiError:
            continue
        comps = (omega.A, omega.B, omega.C)
        for triple in plane_triples(start.at_infinity, points, tower):
            chart, centre = chart_at(triple)
            charts.add(chart)
            polys, vars = reference_restrict_to_chart(omega, chart)
            ref = [
                p.rename_vars(dict(zip(vars, UV)))
                for p in reference_translate(polys, vars, centre)
            ]
            ours = localize(on_chart(omega, triple), triple)
            for mine, theirs in zip(ours, ref):
                assert (mine.vars, mine.tower, mine.terms) == (
                    theirs.vars,
                    theirs.tower,
                    theirs.terms,
                )
            for F, mine in zip(comps, localize(comps, triple)):
                theirs = reference_localize(F, triple, tower).with_vars(UV)
                assert mine.vars == theirs.vars
                assert mine.lift_to(tower).terms == theirs.terms
    assert charts == {"X", "Y", "Z"}


def test_cofactor():
    V = field("x", "-y")
    kx = cofactor(V, parse_poly("x"))
    ky = cofactor(V, parse_poly("y"))
    assert kx == parse_poly("1").with_vars(("x", "y"))
    assert ky == parse_poly("-1").with_vars(("x", "y"))
    with pytest.raises(NotInvariant):
        cofactor(V, parse_poly("x + y + 1"))


def test_cofactors_main_example():
    V = main_example_field()
    cases = [
        ("y - x^2 + x^3", "2*x*(-x^2 - 4*x^3 + 3*x^4 - 5*y + 3*x*y)"),
        ("y + x^3", "2*x*(3*x^2 - 5*x^3 + 3*x^4 - y + 3*x*y)"),
        ("x^2 + y", "x*(-2*x^2 + 9*x^3 - 6*x^4 + 6*y - 6*x*y)"),
    ]
    for fs, ks in cases:
        assert cofactor(V, parse_poly(fs)) == parse_poly(ks)


def test_verify_first_integral():
    V = field("x", "-y")
    ok, residual = verify_first_integral(V, parse_poly("x*y"))
    assert ok and residual.is_zero()
    ok, residual = verify_first_integral(V, parse_poly("x + y"))
    assert not ok and not residual.is_zero()
