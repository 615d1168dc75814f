import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from waifi.field import FieldElement, QQ_TOWER, Tower
from waifi.poly import (
    ALLOWED_VARS,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_POWER_SIZE,
    MAX_TERMS,
    MultiPoly,
    PolySyntaxError,
    UnknownVariable,
    _euclid_univ_gcd,
    from_zz,
    parse_poly,
    poly_gcd,
    resultant,
    to_zz,
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


@pytest.mark.parametrize("text, column", [("", 1), ("   ", 4)])
def test_parse_end_of_input_column(text, column):
    # the end of input is no sign: the error points at the end, not past it
    with pytest.raises(PolySyntaxError, match="unexpected end of input") as exc:
        parse_poly(text)
    assert (exc.value.line, exc.value.column) == (1, column)


def nested(n, inner="x"):
    return "(" * n + inner + ")" * n


def test_parse_nesting_limit():
    # the limit is a constant, not the caller's stack: deep nesting is a
    # syntax error at the first parenthesis past it
    assert parse_poly(nested(50)) == parse_poly("x")
    assert parse_poly(nested(MAX_NESTING, "-x")) == -parse_poly("x")
    for n in (MAX_NESTING + 1, 1000, 10000):
        with pytest.raises(PolySyntaxError, match="nested too deeply") as exc:
            parse_poly(nested(n))
        assert (exc.value.line, exc.value.column) == (1, MAX_NESTING + 1)
    # the depth is the nesting, not the number of parentheses
    assert parse_poly(" + ".join([nested(MAX_NESTING)] * 3)) == parse_poly("3*x")


def test_parse_ascii_digits_only():
    for text, column in (("x^\u00b2", 3), ("\u0663*x", 1), ("2/\u0663", 3)):
        with pytest.raises(PolySyntaxError) as exc:
            parse_poly(text)
        assert (exc.value.line, exc.value.column) == (1, column)


def test_parse_past_the_str_digit_limit():
    # outside cli.main the interpreter's int/str digit limit (4300 by
    # default) holds: a longer literal is a syntax error, not a ValueError
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits:
        pytest.skip("no int/str digit limit in this interpreter")
    assert parse_poly("7" * digits + "*x").total_degree() == 1
    with pytest.raises(PolySyntaxError, match="too many digits") as exc:
        parse_poly("x + " + "7" * (digits + 1) + "*x")
    assert (exc.value.line, exc.value.column) == (1, 5)


def test_parse_degree_cap():
    # a power or product past the cap is a syntax error at its operator,
    # raised before it is expanded; constants have degree 0 at any size
    assert parse_poly(f"x^{MAX_DEGREE}").total_degree() == MAX_DEGREE
    assert parse_poly(f"x^{MAX_DEGREE - 1}*y").total_degree() == MAX_DEGREE
    assert parse_poly("(x - x)^5000").is_zero()
    assert parse_poly("1^99999999999*x - (2^20000)") == parse_poly("x") - 2**20000
    for text, column in (
        (f"x^{MAX_DEGREE + 1}", 2),
        ("x^99999999999", 2),
        (f"y + (x*y)^{MAX_DEGREE // 2 + 1}", 10),
        (f"x^{MAX_DEGREE} * 2*y", 11),
        (f"(x^600 + 1)*(y^401)", 12),
    ):
        with pytest.raises(PolySyntaxError, match="exceeds cap") as exc:
            parse_poly(text)
        assert (exc.value.line, exc.value.column) == (1, column)


def test_parse_power_bits_cap():
    # the bound on a power's coefficients is checked at its '^', before the
    # power is computed; 2^20000 and any power of 1 are read whole
    assert parse_poly("-(2^20000)") == MultiPoly.constant(-(2**20000))
    assert parse_poly("(-1)^99999999999*x") == -parse_poly("x")
    assert parse_poly("(1/2)^100") == MultiPoly.constant(Fraction(1, 2**100))
    assert parse_poly(f"2^{MAX_POWER_BITS - 1}") == MultiPoly.constant(
        2 ** (MAX_POWER_BITS - 1)
    )
    for text, column in (
        ("2^99999999999", 2),
        (f"x + 2^{MAX_POWER_BITS}", 6),
        ("3^1000000", 2),
        (f"(1/2)^{MAX_POWER_BITS}", 6),
        ("(2^60000*x + 1)^2", 16),
        ("((2^50000)^1)^2", 14),
    ):
        with pytest.raises(PolySyntaxError, match="bits exceeds cap") as exc:
            parse_poly(text)
        assert (exc.value.line, exc.value.column) == (1, column)


def test_parse_term_cap():
    # a power is bounded by the products of its terms and by the monomials
    # of its degree in its variables, a product by t_f * t_g
    assert len(parse_poly("(x+y+z+X+Y+Z)^12").terms) == 6188
    assert len(parse_poly("(x*y*z*X*Y*Z)^166").terms) == 1
    assert len(parse_poly("(x + 1)^1000").terms) == 1001
    assert parse_poly("(x - x)^5000").is_zero()
    for text, column in (
        ("(x+y+z+X+Y+Z)^1000", 14),
        ("(x+y+z+X+Y+Z)^20", 14),
        ("(x+y)^100 * (z+X)^100", 11),
    ):
        with pytest.raises(PolySyntaxError, match="exceeds cap") as exc:
            parse_poly(text)
        assert (exc.value.line, exc.value.column) == (1, column)
        assert f"cap {MAX_TERMS}" in str(exc.value)


def test_parse_power_size_cap():
    # a power under both the term and the bit cap is still refused at its
    # '^' when terms times bits exceed the size cap; (x + 1)^1000 and
    # (x+y+z+X+Y+Z)^12 are about 1.0 M and 0.2 M bit-terms
    assert len(parse_poly("(x + 1)^1000").terms) == 1001
    assert len(parse_poly("(2^80*x+y+z+X+Y+Z)^13").terms) == 8568
    for text, column in (
        ("(2^7000*x+y+z+X+Y+Z)^13", 21),
        ("x + (2^7000*x+y+z+X+Y+Z)^13 + (2^7000*x+y+z+X+Y+Z)^13", 25),
        ("(2^1000*x+y+1)^50", 15),
    ):
        with pytest.raises(PolySyntaxError, match="bit-terms exceeds cap") as exc:
            parse_poly(text)
        assert (exc.value.line, exc.value.column) == (1, column)
        assert f"cap {MAX_POWER_SIZE}" in str(exc.value)


def test_integers_past_the_str_digit_limit_print_whole():
    # the printer needs no change to the interpreter's int/str digit limit,
    # even at the smallest limit the interpreter accepts
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no int/str digit limit in this interpreter")
    n = 7**6000
    shown = [
        MultiPoly.constant(n, ("x",)),
        MultiPoly.constant(Fraction(-n, 3**9001), ("x",)),
        parse_poly("x") * -n,
        FieldElement(QST, ((n, Fraction(1, 10**5000)), (1, 2))),
    ]
    try:
        sys.set_int_max_str_digits(640)
        printed = [str(v) for v in shown]
        assert sys.get_int_max_str_digits() == 640
        sys.set_int_max_str_digits(0)
        expected = [str(n), str(Fraction(-n, 3**9001)), f"{-n}*x"]
        expected.append(f"(2*s+1)*t+({Fraction(1, 10**5000)}*s+{n})")
    finally:
        sys.set_int_max_str_digits(limit)
    assert printed == expected


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


def test_equal_polynomials_hash_equal():
    t = Tower().adjoin("s", (Fraction(-2), Fraction(0), Fraction(1)))
    f = parse_poly("x + 1")
    copies = [f, f.with_vars(("x", "y")), f.lift_to(t)]
    assert all(g == f for g in copies)
    assert len(set(copies)) == 1
    assert len({f, parse_poly("y + 1"), parse_poly("x + 2")}) == 3
    # a constant polynomial equals its value
    two = MultiPoly.constant(2, ("x",), t)
    assert two == 2 and len({two, 2, FieldElement.rational(2)}) == 1
    assert len({MultiPoly.zero(("x", "y")), MultiPoly.zero(), 0}) == 1


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
    syms = {"x": X, "y": Y, "z": sympy.Symbol("z")}

    def rand_poly(vars):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            e = tuple(rng.randint(0, 3) for _ in vars)
            terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return MultiPoly.from_coeff_dict(vars, terms)

    def rand_content():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12))

    cases = []
    for vars in (("x", "y"), ("x", "y", "z")):
        for _ in range(60):
            a, b, c = rand_poly(vars), rand_poly(vars), rand_poly(vars)
            cases.append((a * c, b * c))
            # the same pair with rational content on both sides
            cases.append((a * c * rand_content(), b * c * rand_content()))
    for f, g in cases:
        ours = poly_gcd(f, g)
        if f.is_zero() and g.is_zero():
            assert ours.is_zero()
            continue
        assert f.divide_exact(ours) is not None and g.divide_exact(ours) is not None
        gens = [syms[v] for v in f.vars]
        theirs = sympy.Poly(
            sympy.gcd(to_sympy(f, syms), to_sympy(g, syms)), *gens, domain="QQ"
        ).monic()
        assert to_sympy(ours, syms) == theirs.as_expr()


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


# -- substitute, shift and restrict: property tests against a reference ----

QI = Tower().adjoin("i", (Fraction(1), Fraction(0), Fraction(1)))  # i^2 = -1
QS = Tower().adjoin("s", (Fraction(-2), Fraction(0), Fraction(1)))  # s^2 = 2
ROOTS = {QI: sympy.I, QS: sympy.sqrt(2)}
Z = sympy.Symbol("z")
ALL_SYMS = {"x": X, "y": Y, "z": Z}


def reference_substitute(p, mapping):
    """Term-by-term substitution through MultiPoly arithmetic: the
    reference of substitute, shift and restrict."""
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


def value_to_sympy(val, syms=ALL_SYMS):
    if isinstance(val, MultiPoly):
        expr = sympy.Integer(0)
        for e, c in val.terms.items():
            term = coeff_to_sympy(val.tower, c)
            for v, k in zip(val.vars, e):
                term *= syms[v] ** k
            expr += term
        return expr
    if isinstance(val, FieldElement):
        return coeff_to_sympy(val.tower, val.v)
    return sympy.Rational(Fraction(val).numerator, Fraction(val).denominator)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def field_elements(tower):
    """Elements of a tower whose levels all have degree 2."""
    raw = rationals
    for _ in range(tower.depth):
        raw = st.tuples(raw, raw)
    return raw.map(lambda v: FieldElement(tower, v))


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


U, V = sympy.symbols("u v")


def uv_to_sympy(p):
    """A polynomial in u, v over QS as a sympy expression in sqrt(2)."""
    syms = {"u": U, "v": V}
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = coeff_to_sympy(p.tower, c)
        for var, k in zip(p.vars, e):
            term *= syms[var] ** k
        expr += term
    return sympy.expand(expr)


# -- gcd over a tower: binary forms against the content/PRS recursion ------

# t^2 = 3 over Q(sqrt 2): a tower of depth 2
QST = QS.adjoin("t", (QS.lift_rational(-3), QS.zero(), QS.one()))


@st.composite
def binary_forms(draw, tower, max_degree=2):
    """A non-zero form in u, v of degree at most max_degree, each
    coefficient zero about half the time."""
    d = draw(st.integers(0, max_degree))
    coeff = st.one_of(st.just(FieldElement.rational(0, tower)), field_elements(tower))
    cs = draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))
    p = MultiPoly.from_coeff_dict(
        ("u", "v"), {(i, d - i): c for i, c in enumerate(cs)}, tower
    )
    assume(not p.is_zero())
    return p


def as_univariate(p, var):
    """Dense coefficient list (low to high) of p in var, entries MultiPoly
    in the remaining variables."""
    if var not in p.vars:
        return [p]
    rest = tuple(v for v in p.vars if v != var)
    i = p.vars.index(var)
    d = max(p.degree_in(var), 0)
    coeffs = [MultiPoly.zero(rest, p.tower) for _ in range(d + 1)]
    for e, c in p.terms.items():
        re = e[:i] + e[i + 1 :]
        coeffs[e[i]] = coeffs[e[i]] + MultiPoly(rest, {re: c}, p.tower)
    return coeffs


def reference_gcd(f, g):
    """The gcd poly_gcd took over a proper tower before binary forms went
    through their dehomogenisation: the gcd of the contents in a main
    variable times a primitive PRS of the primitive parts."""
    f, g = MultiPoly._pair(f, g)
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    f, g = f.drop_unused_vars(), g.drop_unused_vars()
    shared = tuple(v for v in f.vars if v in g.vars)
    if f.is_constant() or g.is_constant() or not shared:
        return MultiPoly.constant(1, (), f.tower)
    if len(f.vars) == 1 and f.vars == g.vars:
        return _euclid_univ_gcd(f, g, shared[0])
    # main variable: smallest worst-case degree keeps the recursion shallow
    main = min(shared, key=lambda v: max(f.degree_in(v), g.degree_in(v)))
    fc, gc = as_univariate(f, main), as_univariate(g, main)
    cont_f, cont_g = reference_content(fc), reference_content(gc)
    h = reference_prs(
        [c.divide_exact(cont_f) for c in fc], [c.divide_exact(cont_g) for c in gc]
    )
    x = MultiPoly.variable(main, f.tower)
    result = MultiPoly.zero((main,), f.tower)
    for i, c in enumerate(h):
        result = result + c.with_vars(c.vars + (main,)) * x**i
    return (reference_gcd(cont_f, cont_g) * result).monic()


def reference_content(polys):
    acc = None
    for p in polys:
        if p.is_zero():
            continue
        acc = p.monic() if acc is None else reference_gcd(acc, p)
        if acc.is_constant():
            return MultiPoly.constant(1, (), p.tower)
    if acc is None:
        return MultiPoly.zero((), polys[0].tower if polys else QQ_TOWER)
    return acc


def trim(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def reference_primitive(coeffs):
    c = reference_content(coeffs)
    if c.is_zero() or c.is_constant():
        return coeffs
    return [x.divide_exact(c) for x in coeffs]


def reference_prs(fp, gp):
    """Primitive PRS gcd of two primitive coefficient lists (low to high)."""
    a, b = trim(list(fp)), trim(list(gp))
    if len(a) < len(b):
        a, b = b, a
    while True:
        b = trim(b)
        if not b:
            return reference_primitive(trim(a))
        if len(b) == 1:
            return [MultiPoly.constant(1, (), b[0].tower)]
        # pseudo-remainder of a by b
        r, lc = list(a), b[-1]
        while len(r) >= len(b):
            rlc, k = r[-1], len(r) - len(b)
            r = [lc * x for x in r]
            for i in range(len(b)):
                r[k + i] = r[k + i] - rlc * b[i]
            r.pop()
            if not trim(r):
                break
        a, b = b, reference_primitive(trim(r))


@st.composite
def binary_form_pairs(draw):
    tower = draw(st.sampled_from([QS, QST]))
    h, p, q = (draw(binary_forms(tower)) for _ in range(3))
    return h * p, h * q


@settings(max_examples=60, deadline=None)
@given(binary_form_pairs())
# u^2 and u*v: forms whose effective variables differ
@example(
    (
        MultiPoly.from_coeff_dict(("u", "v"), {(2, 0): 1}, QS),
        MultiPoly.from_coeff_dict(("u", "v"), {(1, 1): 1}, QS),
    )
)
def test_binary_form_gcd_matches_prs_reference(fg):
    f, g = fg
    ours = poly_gcd(f, g).with_vars(("u", "v"))
    ref = reference_gcd(f, g).with_vars(("u", "v"))
    assert ours.tower == ref.tower == f.tower
    assert ours.terms == ref.terms


@settings(max_examples=40, deadline=None)
@given(binary_forms(QS), binary_forms(QS), binary_forms(QS))
def test_gcd_over_extension_matches_sympy(h, p, q):
    # sympy's gcd over QQ(sqrt 2) is the oracle of the degree
    f, g = h * p, h * q
    ours = poly_gcd(f, g)
    assert f.divide_exact(ours) is not None and g.divide_exact(ours) is not None
    theirs = sympy.gcd(uv_to_sympy(f), uv_to_sympy(g), extension=sympy.sqrt(2))
    assert ours.total_degree() == sympy.Poly(theirs, U, V).total_degree()


def test_gcd_over_tower_rejects_other_multivariate_pairs():
    s = FieldElement.generator(QS)
    u, v = MultiPoly.variable("u", QS), MultiPoly.variable("v", QS)
    with pytest.raises(ValueError, match="univariate polynomials or binary forms"):
        poly_gcd(u * u + v, (u - s) * v)


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


@st.composite
def shift_cases(draw):
    tower = draw(st.sampled_from([QQ_TOWER, QS]))
    p = draw(polys(draw(st.sampled_from([("x",), ("x", "y"), ("x", "y", "z")])), tower))
    # var absent from the ring, in it with exponent 0 only, or occurring
    var = draw(st.sampled_from(("x", "y", "z", "w")))
    if draw(st.booleans()):
        p = p.with_vars(p.vars + (var,))
    value = draw(
        st.one_of(
            st.integers(-3, 3),
            rationals,
            field_elements(QS),
            st.just(FieldElement.rational(0, QS)),
        )
    )
    return p, var, value


@settings(max_examples=200, deadline=None)
@given(shift_cases())
def test_shift_matches_substitute(case):
    p, var, value = case
    ours = p.shift(var, value)
    ref = reference_substitute(
        p, {var: MultiPoly.variable(var) + MultiPoly.constant(value)}
    )
    # substitute drops a substituted variable that never occurs from the
    # ring; shift keeps the ring
    ref = ref.with_vars(p.vars)
    assert ours.vars == ref.vars == p.vars
    assert ours.tower == ref.tower
    assert ours.terms == ref.terms
    if var not in p.effective_vars():
        assert ours is p


# pencil members carry coefficients of size 10^6; the x-columns of SPARSE
# miss powers (x^5 next to x^3 and x^2), and its constant has a denominator
SPARSE = parse_poly(
    "1000003*x^5*y*z - 999999/7*x^3*y^2 + 123456*x^2*z^3 - 1000000*y^3 + 7/1000000"
)


@pytest.mark.parametrize(
    "value", [Fraction(3, 7), Fraction(-5, 2), -4, 0, Fraction(-1000000, 999999)]
)
@pytest.mark.parametrize("var", ["x", "y", "z"])
def test_rational_shift_matches_reference(var, value):
    ours = SPARSE.shift(var, value)
    ref = reference_substitute(
        SPARSE, {var: MultiPoly.variable(var) + MultiPoly.constant(Fraction(value))}
    )
    assert ours.vars == SPARSE.vars and ours.tower == QQ_TOWER
    assert ours.terms == ref.terms
    # leaves stay canonical: an int whenever the value is integral
    assert all(type(c) is int or c.denominator > 1 for c in ours.terms.values())


@st.composite
def restrict_cases(draw):
    p, var, value = draw(shift_cases())
    if draw(st.booleans()):
        # a factor that vanishes at var = value
        p = p * (MultiPoly.variable(var, p.tower) - MultiPoly.constant(value))
    return p, var, value


@settings(max_examples=200, deadline=None)
@given(restrict_cases())
def test_restrict_matches_reference(case):
    p, var, value = case
    ours = p.restrict(var, value)
    ref = reference_substitute(p, {var: value})
    assert ours.vars == ref.vars
    assert ours.tower == ref.tower
    assert ours.terms == ref.terms
    if var not in p.vars:
        assert ours is p


@st.composite
def evaluation_cases(draw):
    p = draw(polys(draw(st.sampled_from([("x",), ("x", "y"), ("x", "y", "z")])), QQ_TOWER))
    # every variable of the ring, and perhaps one that is not in it
    names = draw(st.permutations(p.vars + draw(st.sampled_from([(), ("w",)]))))
    point = {v: draw(st.one_of(st.integers(-3, 3), rationals)) for v in names}
    return p, point


@settings(max_examples=100, deadline=None)
@given(evaluation_cases())
def test_evaluate_matches_sympy(case):
    p, point = case
    ours = p.evaluate(point)
    expect = value_to_sympy(p).subs(
        {ALL_SYMS[v]: value_to_sympy(c) for v, c in point.items() if v in ALL_SYMS}
    )
    assert ours.tower == QQ_TOWER
    assert value_to_sympy(ours) == expect


def test_resultant_sign_convention():
    # Res_x(x + y, x^3 - y) = g(-y) for the monic linear f; sympy's
    # resultant returns y^3 + y here, the opposite sign
    r = resultant(parse_poly("x + y"), parse_poly("x^3 - y"), "x")
    assert r == parse_poly("-y^3 - y")


# -- the sympy bridge: sparse polynomials over the integers -----------------


def test_bridge_roundtrip():
    for text in ("0", "7/3", "x^3 - 1/2*x*y + y^2", "x*z - 4"):
        p = parse_poly(text)
        names = tuple(sorted(set(p.vars) | {"x", "y"}))
        h, den = to_zz(p, names)
        assert h.ring.symbols == tuple(map(sympy.Symbol, names))
        assert gcd(den, *h.values()) == 1  # the least common denominator
        back = from_zz(h, den, names)
        assert back.vars == names and back == p
        assert back.terms == p.with_vars(names).terms


def test_gcd_edge_cases():
    f = parse_poly("2*x^2*y - 2*y")
    assert poly_gcd(MultiPoly.zero(), MultiPoly.zero()).is_zero()
    assert poly_gcd(f, MultiPoly.zero()) == parse_poly("x^2*y - y")
    assert poly_gcd(parse_poly("3"), f) == parse_poly("1")
    assert poly_gcd(parse_poly("x + 1"), parse_poly("y + 2")) == parse_poly("1")
    assert poly_gcd(f, parse_poly("x*z - z")) == parse_poly("x - 1")


def test_printer_on_a_coefficient_from_a_lower_level():
    # Q(a)(b) with a^2 = 2 and b^2 = 3: the coefficient of b is a + 1, a
    # value of the level below, printed in parentheses
    qa = Tower().adjoin("a", (-2, 0, 1))
    tower = qa.adjoin("b", (qa.lift_rational(-3), qa.zero(), qa.one()))
    value = FieldElement(tower, (qa.zero(), (1, 1)))
    assert str(value) == "(a+1)*b"
    assert str(-value) == "(-a-1)*b"
    x = MultiPoly.variable("x", tower)
    assert (value * x - 3).to_string() == "((a+1)*b)*x - 3"
    # a, a value of the level below, takes one pair of parentheses, not two
    a = FieldElement(tower, ((0, 1), qa.zero()))
    assert str(a) == "a"
    assert (x**2 - value * x + a).to_string() == "x^2 + ((-a-1)*b)*x + (a)"


# -- the dict parser and the in-place division against their references ----


class ReferenceParser:
    """The parser the dict parser replaced: every subexpression a MultiPoly,
    combined by MultiPoly arithmetic, with no degree cap."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

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
            base = base**e
        return base

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
                return MultiPoly.constant(Fraction(num, den))
            return MultiPoly.constant(num)
        if ch.isalpha():
            start = self.pos
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isalnum():
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in ALLOWED_VARS:
                self._error(f"unknown variable {name!r}", UnknownVariable, start)
            return MultiPoly.variable(name)
        if ch == "":
            self._error("unexpected end of input")
        self._error(f"unexpected character {ch!r}")

    def _int(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if start == self.pos:
            self._error("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            self._error("integer has too many digits", pos=start)


@st.composite
def grammar_texts(draw, depth=2):
    """(text, bound): a string of the input grammar with whitespace, signs,
    rationals, powers (zeroth too) and nesting, and a bound on the number of
    terms of every subexpression.  Every integer is at most 5."""
    space = st.sampled_from(["", "", " ", "  ", "\n", "\t", "\r\n"])

    def primary(d):
        kind = draw(st.sampled_from(["int", "ratio", "var", "var", "paren"][: 5 if d else 4]))
        if kind == "int":
            return str(draw(st.integers(0, 5))), 1
        if kind == "ratio":
            num, den = draw(st.integers(0, 5)), draw(st.integers(1, 5))
            return f"{num}{draw(space)}/{draw(space)}{den}", 1
        if kind == "var":
            return draw(st.sampled_from(ALLOWED_VARS)), 1
        text, bound = expr(d - 1)
        return f"({draw(space)}{text}{draw(space)})", bound

    def factor(d):
        text, bound = primary(d)
        if draw(st.booleans()):
            k = draw(st.integers(0, 3))
            text, bound = f"{text}{draw(space)}^{draw(space)}{k}", bound**k
        return text, bound

    def term(d):
        parts = [factor(d) for _ in range(draw(st.integers(1, 3)))]
        bound = 1
        for _, b in parts:
            bound *= b
        return f"{draw(space)}*{draw(space)}".join(t for t, _ in parts), bound

    def expr(d):
        text, bound = "", 0
        for i in range(draw(st.integers(1, 3))):
            sign = draw(st.sampled_from(["+", "-"] if i else ["", "", "+", "-"]))
            t, b = term(d)
            text += f"{draw(space)}{sign}{draw(space)}{t}"
            bound += b
        return text, bound

    return expr(depth)


def parse_outcome(parse, text):
    """(vars, terms in dict order, tower, printed) of a parse, or the
    error's class, message, line and column."""
    try:
        p = parse(text)
    except PolySyntaxError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return p.vars, list(p.terms.items()), p.tower, p.to_string()


@st.composite
def corrupted_texts(draw):
    """A grammar string with one character inserted, deleted or replaced.
    No digit is touched or made adjacent to another and no '^' is written
    over a character, so no exponent grows past the string's own."""
    text, bound = draw(grammar_texts())
    assume(bound <= 40)

    def clear(i):
        return not (0 <= i < len(text) and text[i].isdigit())

    kind = draw(st.sampled_from(["insert", "delete", "replace"]))
    if kind == "insert":
        spots = [i for i in range(len(text) + 1) if clear(i - 1) and clear(i)]
        assume(spots)
        i = draw(st.sampled_from(spots))
        ch = draw(st.sampled_from("+-*/^()x Yw\n#²"))
        return text[:i] + ch + text[i:]
    spots = [i for i in range(len(text)) if clear(i - 1) and clear(i) and clear(i + 1)]
    assume(spots)
    i = draw(st.sampled_from(spots))
    ch = "" if kind == "delete" else draw(st.sampled_from("+-*/()x Yw\n#²"))
    return text[:i] + ch + text[i + 1 :]


@settings(max_examples=300, deadline=None)
@given(grammar_texts())
@example(("x - x", 2))
@example(("(x + y)^0", 2))
@example(("-1/2*X^2*(Z - 2/4)^3 + 0", 4))
@example(("((x)^2 - (y^1)) * 3/5 - (0)^0", 3))
def test_dict_parser_matches_the_multipoly_parser(case):
    text, bound = case
    assume(bound <= 40)
    new = parse_outcome(parse_poly, text)
    assert new == parse_outcome(lambda t: ReferenceParser(t).parse(), text)
    # MultiPoly's products and powers share the parser's term-dict kernels,
    # so sympy checks the value too; a coefficient n/d binds tighter than ^
    syms = {v: sympy.Symbol(v) for v in ALLOWED_VARS}
    plain = re.sub(r"(\d+) ?/ ?(\d+)", r"(\1/\2)", " ".join(text.split()))
    expr = sympy.parse_expr(plain.replace("^", "**"), syms)
    p = parse_poly(text)
    assert sympy.expand(expr - value_to_sympy(p.with_vars(ALLOWED_VARS), syms)) == 0


@settings(max_examples=300, deadline=None)
@given(corrupted_texts())
@example("x +")
@example("(x + y")
@example("x ^ (2)")
@example("3/0*x")
@example("x*\n  w^2")
def test_dict_parser_errors_match_the_multipoly_parser(text):
    new = parse_outcome(parse_poly, text)
    assert new == parse_outcome(lambda t: ReferenceParser(t).parse(), text)


def reference_divide_exact(f, g):
    """The division the in-place kernel replaced: the quotient and the
    remainder rebuilt by MultiPoly arithmetic at every step."""
    f, g = MultiPoly._pair(f, g)
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
        t = MultiPoly(f.vars, {de: tw.mul(rc, ginv)}, tw)
        quot = quot + t
        rem = rem - t * g
    return quot


@st.composite
def division_cases(draw):
    """(f, g, q): f = q*g, or f = q*g + r for a random r (often no
    multiple of g), over Q or the depth-2 tower Q(sqrt 2, sqrt 3)."""
    tower = draw(st.sampled_from([QQ_TOWER, QST]))
    rings = st.sampled_from([("x",), ("y",), ("x", "y"), ("x", "y", "z")])
    g = draw(polys(draw(rings), tower))
    assume(g.total_degree() > 0)
    q = draw(polys(draw(rings), tower))
    f = q * g
    if draw(st.booleans()):
        f = f + draw(polys(draw(rings), tower))
        q = None
    return f, g, q


@settings(max_examples=100, deadline=None)
@given(division_cases())
def test_divide_exact_matches_repeated_subtraction(case):
    f, g, q = case
    got, want = f.divide_exact(g), reference_divide_exact(f, g)
    if want is None:
        assert got is None
        return
    assert got.vars == want.vars and got.tower == want.tower
    assert list(got.terms.items()) == list(want.terms.items())
    if q is not None:
        assert got == q
