import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from waifi.poly import MultiPoly, parse_poly
from waifi.vfield import (
    AffineVectorField,
    NotInvariant,
    ProjectiveOneForm,
    cofactor,
    homogenize,
    projectivize,
    restrict_to_chart,
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


def test_restrict_to_chart_affine():
    om = projectivize(field("-y", "x"))
    loc = restrict_to_chart(om, "Z")
    # p dy - q dx = -y dy ... careful: a dx + b dy with a = -q, b = p
    assert loc.a == parse_poly("-x").with_vars(("x", "y"))
    assert loc.b == parse_poly("-y").with_vars(("x", "y"))


def test_restrict_to_chart_infinity():
    # the X-chart of the quintic example: 5 y^4 z dy - (5 y^5 + 2 z^3) dz;
    # its projectivisation has the common factor Z, which reduced() removes
    om = projectivize(field("5*y^4", "-2*x")).reduced()
    loc = restrict_to_chart(om, "X")
    assert loc.vars == ("y", "z")
    assert loc.a == parse_poly("5*y^4*z").with_vars(("y", "z"))
    assert loc.b == parse_poly("-5*y^5 - 2*z^3").with_vars(("y", "z"))


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 2),
    st.integers(-3, 3).filter(bool),
    max_size=4,
)
factors = st.sampled_from(["1", "x", "y", "x - 1", "x + y + 2", "y^2 + 1"])


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, factors)
def test_restricted_components_are_coprime(p_terms, q_terms, h):
    # a field of degree 1-3, sometimes with a common factor h of p and q
    xy = ("x", "y")
    hp = parse_poly(h)
    p = hp * MultiPoly.from_coeff_dict(xy, p_terms)
    q = hp * MultiPoly.from_coeff_dict(xy, q_terms)
    assume(not (p.is_zero() and q.is_zero()))
    V = AffineVectorField(p, q)
    assume(1 <= V.degree <= 3)
    om = projectivize(V).reduced()
    for chart in ("X", "Y", "Z"):
        loc = restrict_to_chart(om, chart)
        a, b = (sympy.sympify(c.to_string().replace("^", "**")) for c in (loc.a, loc.b))
        gcd = sympy.gcd(a, b)
        assert gcd != 0 and not gcd.free_symbols


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
