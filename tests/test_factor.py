from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from waifi import factor
from waifi.factor import (
    affine_common_zeros,
    plane_common_zeros,
    roots_in_extension,
    univ_factor,
)
from waifi.field import FieldElement, QQ_TOWER, Tower
from waifi.poly import MultiPoly, parse_poly, poly_gcd, resultant
from waifi.reduction import reduce
from waifi.vfield import AffineVectorField, homogenize, projectivize


def test_univ_factor_rational():
    # 5t^5 + 2t^3 = t^3 (5t^2 + 2); oracle by trial division
    f = parse_poly("5*x^5 + 2*x^3")
    factors = univ_factor(f)
    rebuilt = MultiPoly.constant(1, ("x",))
    for p, m in factors:
        rebuilt = rebuilt * p ** m
    assert rebuilt == f
    nontrivial = [(p.to_string(), m) for p, m in factors if not p.is_constant()]
    assert nontrivial == [("x", 3), ("5*x^2 + 2", 1)]


def test_univ_factor_irreducible():
    factors = univ_factor(parse_poly("x^2 + 1"))
    assert len(factors) == 1 and factors[0][1] == 1


def test_roots_adjoin():
    roots, tower = roots_in_extension(parse_poly("x^2 + 1"), QQ_TOWER)
    assert tower.depth == 1
    assert len(roots) == 2
    for r in roots:
        assert (r * r + 1).is_zero()
    # over the grown tower, x^4 - 1 splits completely
    roots4, tower = roots_in_extension(parse_poly("x^4 - 1"), tower)
    assert len(roots4) == 4
    assert tower.depth == 1


def test_factor_over_extension():
    _, tower = roots_in_extension(parse_poly("x^2 + 1"), QQ_TOWER)
    x = MultiPoly.variable("x", tower)
    f = x ** 2 + 1
    factors = univ_factor(f)
    nonconst = [p for p, _ in factors if not p.is_constant()]
    assert len(nonconst) == 2
    prod = MultiPoly.constant(1, ("x",), tower)
    for p, m in factors:
        prod = prod * p ** m
    assert prod == f


def test_nested_factorization():
    # sqrt(2) then x^4 - 2 factors into two quadratics over Q(sqrt 2)
    (s, _), tower = roots_in_extension(parse_poly("x^2 - 2"), QQ_TOWER)
    assert tower.depth == 1 and s * s == 2
    x = MultiPoly.variable("x", tower)
    f = x ** 4 - 2
    factors = [p for p, _ in univ_factor(f) if not p.is_constant()]
    assert sorted(p.total_degree() for p in factors) == [2, 2]


X = sympy.Symbol("x")


def as_sympy(p):
    expr = sympy.Integer(0)
    for (k,), c in p.drop_unused_vars().with_vars(("x",)).terms.items():
        expr += sympy.Rational(c.numerator, c.denominator) * X ** k
    return expr


univariates = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=1, max_size=4
).map(
    lambda cs: MultiPoly.from_coeff_dict(("x",), {(i,): c for i, c in enumerate(cs)})
)


@settings(max_examples=100, deadline=None)
@given(st.lists(univariates, min_size=1, max_size=3))
def test_univ_factor_matches_sympy(parts):
    f = MultiPoly.constant(1, ("x",))
    for p in parts:
        f = f * p
    if f.is_zero():
        with pytest.raises(ValueError):
            univ_factor(f)
        return
    ours = univ_factor(f)
    rebuilt = MultiPoly.constant(1, ("x",))
    for p, m in ours:
        rebuilt = rebuilt * p ** m
    assert rebuilt == f
    _, theirs = sympy.factor_list(as_sympy(f), X)
    assert sorted(
        (str(as_sympy(p.monic())), m) for p, m in ours if not p.is_constant()
    ) == sorted((str(sympy.Poly(q, X).monic().as_expr()), m) for q, m in theirs)


def test_univ_factor_edge_cases():
    with pytest.raises(ValueError):
        univ_factor(MultiPoly.zero(("x",)))
    three = MultiPoly.constant(3, ("x",))
    assert univ_factor(three) == [(three, 1)]
    with pytest.raises(ValueError):
        univ_factor(parse_poly("x*y + 1"))
    factors = univ_factor(parse_poly("2*x^2 - 2"))
    assert [(p.to_string(), m) for p, m in factors] == [
        ("2", 1), ("x + 1", 1), ("x - 1", 1)
    ]


def test_univ_factor_rational_unit_and_order():
    # non-integer leading coefficients: the unit takes the rational content,
    # the factors are primitive over the integers, in (degree, text) order
    cases = {
        "-5/6*x^2*(2*x + 1)*(3*x - 1)": [
            ("-5/6", 1), ("2*x + 1", 1), ("3*x - 1", 1), ("x", 2)
        ],
        "7/4*x^4 - 7/4": [("7/4", 1), ("x + 1", 1), ("x - 1", 1), ("x^2 + 1", 1)],
        "2/9*(x^2 - 2)^2*(3*x + 1/2)": [("1/9", 1), ("6*x + 1", 1), ("x^2 - 2", 2)],
    }
    for text, expect in cases.items():
        factors = univ_factor(parse_poly(text))
        assert [(p.to_string(), m) for p, m in factors] == expect


@st.composite
def planted_systems(draw):
    """Coprime f, g whose common zeros are (x0, r(x0)) for the roots x0 of
    m = prod (x - a_i) [* (x^2 - 2)]: f and g are an invertible constant
    combination of m and y - r.  swap exchanges x and y, so that one of them
    can be free of x."""
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    roots = draw(st.lists(st.integers(-3, 3), max_size=2, unique=True))
    m = MultiPoly.constant(1, ("x",))
    for a in roots:
        m = m * (x - a)
    if draw(st.booleans()) or not roots:
        m = m * (x * x - 2)
    r = MultiPoly.zero(("x",))
    for k, c in enumerate(draw(st.lists(st.integers(-2, 2), max_size=3))):
        r = r + c * x ** k
    k, c, j = (draw(st.integers(-2, 2)) for _ in range(3))
    if c == j * k:
        c += 1
    f = m + k * (y - r)
    g = c * (y - r) + j * m
    if draw(st.booleans()):
        f, g = (h.rename_vars({"x": "y", "y": "x"}) for h in (f, g))
    return f.with_vars(("x", "y")), g.with_vars(("x", "y"))


@settings(max_examples=40, deadline=None)
@given(planted_systems())
def test_plane_common_zeros_matches_sympy(fg):
    f, g = fg
    at_infinity = [
        homogenize(h, h.total_degree()).restrict("Z", 0) for h in (f, g)
    ]
    triples, tower = plane_common_zeros(at_infinity, f, g, Tower())
    affine = [(x0, y0) for x0, y0, z0 in triples if not z0.is_zero()]
    for x0, y0 in affine:
        assert f.evaluate({"x": x0, "y": y0}).is_zero()
        assert g.evaluate({"x": x0, "y": y0}).is_zero()
    keys = [(x0.sort_key(), y0.sort_key()) for x0, y0 in affine]
    assert keys == sorted(set(keys))
    x, y = sympy.symbols("x y")
    expr = [sympy.sympify(h.to_string().replace("^", "**")) for h in (f, g)]
    assert len(affine) == len(sympy.solve_poly_system(expr, x, y))


def reference_affine_common_zeros(f, g, tower):
    """The two-branch solver affine_common_zeros replaced: a polynomial
    free of x gives the y0 directly, the other one the x0 over them."""
    fdx = f.degree_in("x") if "x" in f.vars else 0
    gdx = g.degree_in("x") if "x" in g.vars else 0
    if f.is_constant() or g.is_constant() or fdx == gdx == 0:
        return [], tower
    points = []
    if fdx == 0 or gdx == 0:
        pure, other = (f, g) if fdx == 0 else (g, f)
        yroots, tower = roots_in_extension(pure.with_vars(("y",)), tower)
        for y0 in yroots:
            h = other.restrict("y", y0)
            if not h.is_constant():
                xroots, tower = roots_in_extension(h, tower)
                points.extend((x0, y0) for x0 in xroots)
        return points, tower
    ry = resultant(f, g, "x")
    if ry.is_constant():
        return [], tower
    yroots, tower = roots_in_extension(ry.with_vars(("y",)), tower)
    for y0 in yroots:
        h = poly_gcd(f.restrict("y", y0), g.restrict("y", y0))
        if not h.is_constant():
            xroots, tower = roots_in_extension(h, tower)
            points.extend((x0, y0) for x0 in xroots)
    return points, tower


def _xy(text):
    return parse_poly(text).with_vars(("x", "y"))


@settings(max_examples=60, deadline=None)
@given(planted_systems())
# f or g free of x, or both, or a constant
@example((_xy("y^2 - 2"), _xy("x^2 - 3")))
@example((_xy("x^2 - 3"), _xy("y^2 - 2")))
@example((_xy("y^2 - 2"), _xy("x*y - 1")))
@example((_xy("(y - 1)^2*(y^2 + 1)"), _xy("x^3 - y")))
@example((_xy("y^2 - 2"), _xy("y^2 - 3")))
@example((_xy("3"), _xy("x^2 - 2")))
@example((_xy("y - 1"), _xy("x*(y - 2) + 1")))
def test_affine_common_zeros_matches_two_branch_reference(fg):
    f, g = fg
    ours, t1 = affine_common_zeros(f, g, Tower())
    ref, t2 = reference_affine_common_zeros(f, g, Tower())
    assert t1.levels == t2.levels
    assert [(x0.tower.levels, x0.v, y0.tower.levels, y0.v) for x0, y0 in ours] == [
        (x0.tower.levels, x0.v, y0.tower.levels, y0.v) for x0, y0 in ref
    ]


def test_deep_tower_field_factors_small_norms(monkeypatch):
    # the affine points of the Hamiltonian field of this H need a tower of
    # degree 16 in four levels; a cubic with coefficients two levels down,
    # normed down the whole tower, gave rational norms of degree 48, whose
    # factorisation took minutes.  Normed over its coefficient field and
    # lifted by the degree rule, no rational norm exceeds degree 16.
    H = parse_poly("(y - 2)^3*x*(y^3 - x^2 + y)")
    degrees = []
    real = factor._qq_factor

    def spy(f, var):
        degrees.append(f.degree_in(var))
        return real(f, var)

    monkeypatch.setattr(factor, "_qq_factor", spy)
    res = reduce(projectivize(AffineVectorField(-H.diff("y"), H.diff("x"))))
    assert res.tower.degree() == 16 and res.tower.depth == 4
    assert degrees and max(degrees) <= 16


# -- Trager pull-backs by deflation ---------------------------------------


def reference_factor_norm(f, var, tower):
    """_factor_norm as it was: every factor of the norm pulled back by a
    gcd with f itself."""
    if f.degree_in(var) <= 1:
        return [f]
    sub = tower.prefix(tower.depth - 1)
    mp = tower.levels[-1][1]
    coeffs = {(i,): c for i, c in enumerate(mp) if not sub.is_zero(c)}
    m_poly = MultiPoly((factor._ZVAR,), coeffs, sub)
    theta = FieldElement.generator(tower)
    f = f.drop_unused_vars()
    s = 0 if any(tower.shortest(c)[1] == tower.depth for c in f.terms.values()) else 1
    while True:
        shifted = factor._lower(f.shift(var, -s * theta), var, sub)
        norm = resultant(m_poly, shifted, factor._ZVAR)
        if norm.degree_in(var) == f.degree_in(var) * (len(mp) - 1):
            if poly_gcd(norm, norm.diff(var)).is_constant():
                break
        s += 1
    out = []
    for nf in factor._factor_squarefree(norm.monic(), var, sub):
        g = poly_gcd(f, nf.shift(var, s * theta))
        if not g.is_constant():
            out.append(g.monic())
    return out


Q_SQRT2 = Tower().adjoin("a", (-2, 0, 1))
Q_I = Tower().adjoin("i", (1, 0, 1))
Q_SQRT2_SQRT3 = Q_SQRT2.adjoin("b", ((-3, 0), (0, 0), (1, 0)))
small_leaves = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=3).map(
    QQ_TOWER.lift_rational
)


def tower_values(depth):
    if depth == 0:
        return small_leaves
    return st.tuples(tower_values(depth - 1), tower_values(depth - 1))


def conjugate(tower, v, depth, level):
    """v under the automorphism that negates the generator of `level`: each
    level of these towers adjoins a square root of a rational."""
    if depth == level:
        return (v[0], tower.neg(v[1], depth - 1))
    return tuple(conjugate(tower, c, depth - 1, level) for c in v)


@st.composite
def conjugate_products(draw):
    """(f, tower): a squarefree monic product in x of monic factors of degree
    1 or 2 over the tower, each with or without some of its conjugates."""
    tower = draw(st.sampled_from([Q_SQRT2, Q_I, Q_SQRT2_SQRT3]))
    x = MultiPoly.variable("x", tower)
    f = MultiPoly.constant(1, ("x",), tower)
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 2))
        cs = [draw(tower_values(tower.depth)) for _ in range(d)]
        for level in draw(st.sets(st.integers(0, tower.depth))):
            if level:
                cs += [conjugate(tower, c, tower.depth, level) for c in cs[-d:]]
        for k in range(0, len(cs), d):
            terms = {(i,): FieldElement(tower, c) for i, c in enumerate(cs[k : k + d])}
            f = f * (x**d + MultiPoly.from_coeff_dict(("x",), terms, tower))
    assume(poly_gcd(f, f.diff("x")).is_constant())
    return f, tower


@settings(max_examples=80, deadline=None)
@given(conjugate_products())
@example((parse_poly("x^2 - 2").lift_to(Q_SQRT2), Q_SQRT2))
@example((parse_poly("x^4 - 2").lift_to(Q_SQRT2), Q_SQRT2))
@example((parse_poly("x^4 - 10*x^2 + 1").lift_to(Q_SQRT2_SQRT3), Q_SQRT2_SQRT3))
def test_factor_norm_deflates_in_reference_order(case):
    f, tower = case
    ours, pull_backs = factor_norm_and_pull_backs(f, tower)
    theirs = reference_factor_norm(f, "x", tower)
    assert [p.to_string() for p in ours] == [p.to_string() for p in theirs]
    assert ours == theirs
    # one gcd for each factor but the last, each with what the factors
    # before it left of f
    assert len(pull_backs) <= len(ours) - 1
    degrees = [p.degree_in("x") for p in ours]
    left = [f.degree_in("x") - sum(degrees[:i]) for i in range(len(pull_backs))]
    assert pull_backs == left


def factor_norm_and_pull_backs(f, tower):
    """_factor_norm(f) over tower, and the degree of the first operand of
    each of its gcds over tower: the pull-backs (the gcds of the norm lie
    below the top level)."""
    degrees = []

    def spy(a, b):
        if a.tower == tower:
            degrees.append(a.degree_in("x"))
        return poly_gcd(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factor, "poly_gcd", spy)
        return factor._factor_norm(f, "x", tower), degrees


def test_irreducible_norm_takes_no_pull_back():
    # x^2 - a over Q(a), a^2 = 2, has the norm x^4 - 2, irreducible over Q
    x = MultiPoly.variable("x", Q_SQRT2)
    f = x**2 - FieldElement.generator(Q_SQRT2)
    assert factor_norm_and_pull_backs(f, Q_SQRT2) == ([f], [])
    # x^4 - 10x^2 + 1 has the four roots +-a +-b in Q(a, b): three
    # pull-backs, from what is left of degree 4, 3 and 2
    f = parse_poly("x^4 - 10*x^2 + 1").lift_to(Q_SQRT2_SQRT3)
    factors, degrees = factor_norm_and_pull_backs(f, Q_SQRT2_SQRT3)
    assert [p.total_degree() for p in factors] == [1] * 4 and degrees == [4, 3, 2]
