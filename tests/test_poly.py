import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from waifi.field import FieldElement, QQ_TOWER, Tower
from waifi.poly import (
    MultiPoly,
    PolySyntaxError,
    UnknownVariable,
    from_sympy,
    parse_poly,
    poly_gcd,
    resultant,
    to_sympy as bridge_to_sympy,
)


def to_sympy(p, syms):
    expr = 0
    for e, c in p.terms.items():
        q = p.tower.as_rational(c)
        term = sympy.Rational(q.numerator, q.denominator)
        for v, k in zip(p.vars, e):
            term *= syms[v] ** k
        expr += term
    return sympy.expand(expr)


X, Y = sympy.symbols("x y")
SYMS = {"x": X, "y": Y}


def test_parse_examples():
    p = parse_poly("2*x^6 - x^4 + 6*x^3*y - x^2*y + 4*y^2")
    assert p.total_degree() == 6
    assert p.coefficient((3, 1)) == FieldElement.rational(6, QQ_TOWER)
    assert parse_poly("0").is_zero()
    assert parse_poly("(x+y)^2") == parse_poly("x^2 + 2*x*y + y^2")
    assert parse_poly("1/2*x - 1/2*x").is_zero()


def test_parse_errors():
    with pytest.raises(PolySyntaxError):
        parse_poly("x +")
    with pytest.raises(UnknownVariable):
        parse_poly("x + w")
    with pytest.raises(PolySyntaxError):
        parse_poly("x^-2")


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(500):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = (rng.randint(0, 5), rng.randint(0, 5))
            terms[e] = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        p = MultiPoly.from_coeff_dict(("x", "y"), terms)
        assert parse_poly(p.to_string()) == p


def test_arithmetic_and_calculus():
    p = parse_poly("x^2*y + 3*x")
    q = parse_poly("y - 1")
    assert (p * q) - (q * p) == MultiPoly.zero()
    assert p.diff("x") == parse_poly("2*x*y + 3")
    assert p.diff("y") == parse_poly("x^2")
    assert p.substitute({"y": 1}) == parse_poly("x^2 + 3*x")
    assert p.evaluate({"x": 2, "y": 3}) == FieldElement.rational(18, QQ_TOWER)


def test_divide_exact():
    p = parse_poly("x^2 - y^2")
    assert p.divide_exact(parse_poly("x - y")) == parse_poly("x + y")
    assert p.divide_exact(parse_poly("x + 1")) is None


def test_gcd_simple():
    g = poly_gcd(parse_poly("x^2 - y^2"), parse_poly("x^2 - 2*x*y + y^2"))
    assert g == parse_poly("x - y")
    assert poly_gcd(parse_poly("x"), parse_poly("y")).is_constant()


def test_gcd_against_sympy_oracle():
    rng = random.Random(11)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            terms[(rng.randint(0, 3), rng.randint(0, 3))] = Fraction(
                rng.randint(-5, 5), rng.randint(1, 3)
            )
        return MultiPoly.from_coeff_dict(("x", "y"), terms)

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        f, g = a * c, b * c
        ours = poly_gcd(f, g)
        if f.is_zero() and g.is_zero():
            assert ours.is_zero()
            continue
        assert ours.divides(f) and ours.divides(g)
        theirs = sympy.Poly(
            sympy.gcd(to_sympy(f, SYMS), to_sympy(g, SYMS)), X, Y, domain="QQ"
        ).monic()
        assert to_sympy(ours, SYMS) == theirs.as_expr()


def test_resultant_matches_sympy():
    cases = [
        ("x^2 + y^2 - 1", "x - y", "x"),
        ("x^3 - y", "x^2 - y", "x"),
        ("x^2 + 1", "x^2 - 2", "x"),
    ]
    for fs, gs, var in cases:
        r = resultant(parse_poly(fs), parse_poly(gs), var)
        expect = sympy.resultant(
            to_sympy(parse_poly(fs), SYMS), to_sympy(parse_poly(gs), SYMS), SYMS[var]
        )
        assert to_sympy(r.with_vars(("x", "y")), SYMS) == sympy.expand(expect)


def test_resultant_over_extension():
    t = Tower().adjoin("i", (Fraction(1), Fraction(0), Fraction(1)))
    i = FieldElement.generator(t)
    x = MultiPoly.variable("x", t)
    f = x * x + 1
    g = x - MultiPoly.constant(i)
    r = resultant(f, g, "x")
    assert r.is_zero()


def test_homogeneous_queries():
    p = parse_poly("x^2*y + x*y^2")
    assert p.is_homogeneous()
    assert p.order() == 3
    assert p.initial_form(3) == p
    assert not parse_poly("x^2 + x").is_homogeneous()


# -- substitute: property test against a reference and against sympy -------

QI = Tower().adjoin("i", (Fraction(1), Fraction(0), Fraction(1)))  # i^2 = -1
QS = Tower().adjoin("s", (Fraction(-2), Fraction(0), Fraction(1)))  # s^2 = 2
ROOTS = {QI: sympy.I, QS: sympy.sqrt(2)}
Z = sympy.Symbol("z")
ALL_SYMS = {"x": X, "y": Y, "z": Z}


def reference_substitute(p, mapping):
    """Term-by-term substitution through MultiPoly arithmetic."""
    tw = p.tower
    subs = {}
    for k, val in mapping.items():
        if isinstance(val, MultiPoly):
            subs[k] = val
        elif isinstance(val, FieldElement):
            subs[k] = MultiPoly.constant(val)
        else:
            subs[k] = MultiPoly.constant(Fraction(val), (), tw)
    if not any(v in p.vars for v in subs):
        return p
    kept = [v for v in p.vars if v not in subs]
    result = MultiPoly.zero(kept, tw)
    for e, c in p.terms.items():
        kept_e = tuple(k for v, k in zip(p.vars, e) if v in kept)
        term = MultiPoly(tuple(kept), {kept_e: c}, tw)
        for v, k in zip(p.vars, e):
            if v in subs and k:
                term = term * subs[v] ** k
        result = result + term
    return result


def coeff_to_sympy(tower, c):
    if tower.depth == 0:
        return sympy.Rational(c.numerator, c.denominator)
    a, b = c
    return sympy.Rational(a.numerator, a.denominator) + sympy.Rational(
        b.numerator, b.denominator
    ) * ROOTS[tower]


def value_to_sympy(val):
    if isinstance(val, MultiPoly):
        expr = sympy.Integer(0)
        for e, c in val.terms.items():
            term = coeff_to_sympy(val.tower, c)
            for v, k in zip(val.vars, e):
                term *= ALL_SYMS[v] ** k
            expr += term
        return expr
    if isinstance(val, FieldElement):
        return coeff_to_sympy(val.tower, val.v)
    return sympy.Rational(Fraction(val).numerator, Fraction(val).denominator)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def field_elements(tower):
    if tower.depth == 0:
        return rationals.map(lambda q: FieldElement.rational(q, tower))
    return st.tuples(rationals, rationals).map(lambda v: FieldElement(tower, v))


def polys(vars, tower):
    exps = st.tuples(*[st.integers(0, 3)] * len(vars))
    return st.dictionaries(exps, field_elements(tower), max_size=5).map(
        lambda d: MultiPoly.from_coeff_dict(vars, d, tower)
    )


@st.composite
def substitution_cases(draw):
    main = draw(st.sampled_from([QQ_TOWER, QI, QS]))
    towers = st.sampled_from([QQ_TOWER, main])
    p = draw(polys(draw(st.sampled_from([("x",), ("y",), ("x", "y")])), draw(towers)))
    keys = draw(
        st.lists(st.sampled_from(("x", "y", "z")), min_size=1, max_size=3, unique=True)
    )
    mapping = {}
    for k in keys:
        tw = draw(towers)
        other = "y" if k == "x" else "x"
        kind = draw(
            st.sampled_from(("int", "fraction", "element", "blow-up", "shift", "poly"))
        )
        if kind == "int":
            val = draw(st.integers(-3, 3))
        elif kind == "fraction":
            val = draw(rationals)
        elif kind == "element":
            val = draw(field_elements(main))
        elif kind == "blow-up":  # k -> other * (k + lambda)
            lam = MultiPoly.constant(draw(field_elements(tw)))
            val = MultiPoly.variable(other, tw) * (MultiPoly.variable(k, tw) + lam)
        elif kind == "shift":  # k -> k + a
            val = MultiPoly.variable(k, tw) + MultiPoly.constant(draw(field_elements(tw)))
        else:
            val = draw(polys(("x", "y", "z"), tw))
        mapping[k] = val
    if draw(st.booleans()):
        # a factor that the substitution sends to zero: k - c for a constant c
        k = keys[0]
        c = draw(field_elements(draw(towers)))
        mapping[k] = c
        p = p * (MultiPoly.variable(k, p.tower) - MultiPoly.constant(c))
    return p, mapping


@settings(max_examples=200, deadline=None)
@given(substitution_cases())
def test_substitute_matches_reference_and_sympy(case):
    p, mapping = case
    ours = p.substitute(mapping)
    ref = reference_substitute(p, mapping)
    assert ours.vars == ref.vars
    assert ours.tower == ref.tower
    assert ours.terms == ref.terms
    expect = value_to_sympy(p).subs(
        {ALL_SYMS[k]: value_to_sympy(v) for k, v in mapping.items()},
        simultaneous=True,
    )
    assert sympy.expand(value_to_sympy(ours) - expect) == 0


def test_substitute_edge_cases():
    p = parse_poly("x^2 + 3*x")
    # a variable that is absent, or present only with exponent 0
    assert p.substitute({"y": 5}) is p
    q = p.with_vars(("x", "y")).substitute({"y": parse_poly("z^2 + 1")})
    assert q.vars == ("x",) and q == p
    # cancellation to zero keeps the ring of the values used
    zero = parse_poly("x - y").substitute({"x": parse_poly("y")})
    assert zero.is_zero() and zero.vars == ("y",)
    # a substituted value over a deeper tower lifts the result
    i = FieldElement.generator(QI)
    r = p.substitute({"x": i})
    assert r.tower == QI and r == MultiPoly.constant(i * i + 3 * i)


# -- the dict-level sympy bridge: differential tests against sympy ---------


def test_bridge_roundtrip():
    for text in ("0", "7/3", "x^3 - 1/2*x*y + y^2", "x*z - 4"):
        p = parse_poly(text)
        names = tuple(sorted(set(p.vars) | {"x", "y"}))
        back = from_sympy(bridge_to_sympy(p, names), names)
        assert back.vars == names and back == p
        assert back.terms == p.with_vars(names).terms


def test_gcd_edge_cases():
    f = parse_poly("2*x^2*y - 2*y")
    assert poly_gcd(MultiPoly.zero(), MultiPoly.zero()).is_zero()
    assert poly_gcd(f, MultiPoly.zero()) == parse_poly("x^2*y - y")
    assert poly_gcd(parse_poly("3"), f) == parse_poly("1")
    assert poly_gcd(parse_poly("x + 1"), parse_poly("y + 2")) == parse_poly("1")
    assert poly_gcd(f, parse_poly("x*z - z")) == parse_poly("x - 1")
