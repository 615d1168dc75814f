from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from waifi.blowup import (
    DICRITICAL,
    DivisibilityViolation,
    LocalOneForm,
    NONSINGULAR,
    ORDINARY,
    SIMPLE,
    UV,
    V1,
    V2,
    _axes,
    _ratio_in_positive_rationals,
    _remap,
    blow_up_curve,
    blow_up_form,
    char_poly,
    classify,
    common_power,
    div_power,
    multiplicity,
    strict_transform,
)
from waifi.field import FieldElement, QQ_TOWER, Tower
from waifi.poly import MultiPoly, parse_poly


def parse_uv(text):
    """A polynomial written in u and v, on the ring UV (the parser reads x
    and y in their place)."""
    xy = parse_poly(text.replace("u", "x").replace("v", "y"))
    return xy.rename_vars({"x": "u", "y": "v"}).with_vars(UV)


def lof(a, b):
    return LocalOneForm(parse_uv(a), parse_uv(b))


def assert_form(omega, a, b):
    assert omega.a == parse_uv(a)
    assert omega.b == parse_uv(b)


def kind(omega):
    """classify at the multiplicity the walk passes."""
    return classify(omega, multiplicity(omega))


def test_multiplicity_and_char_poly():
    om = lof("5*u^4*v", "-5*u^5 - 2*v^3")
    assert multiplicity(om) == 3
    assert char_poly(om, 3) == parse_uv("-2*v^4")


def test_classify_nonsingular():
    assert kind(lof("1 + u", "v")) == NONSINGULAR


def test_classify_simple_saddle():
    # dual field (u, -v): eigenvalue ratio -1
    assert kind(lof("v", "u")) == SIMPLE


def test_classify_ordinary_node():
    # dual field (u, 2*v): eigenvalue ratio 2 in Q+
    assert kind(lof("-2*v", "u")) == ORDINARY


def test_classify_simple_one_zero_eigenvalue():
    # dual field (u, 0): trace nonzero with Delta = 0
    assert kind(lof("0", "u")) == SIMPLE


def test_classify_ordinary_nilpotent():
    # dual field (v, 0): both eigenvalues zero
    assert kind(lof("0", "v")) == ORDINARY


def test_classify_dicritical_radial():
    assert kind(lof("-v", "u")) == DICRITICAL


def expected_power(omega):
    """The divisor power the walk expects a blow-up of omega to remove: the
    multiplicity m, and m + 1 at a dicritical point."""
    m = multiplicity(omega)
    return m + 1 if classify(omega, m) == DICRITICAL else m


def blow(omega, branch):
    """blow_up_form at the origin with the divisor power the walk passes."""
    return blow_up_form(omega, branch, expected_power(omega))


def at_divisor_point(form, lam):
    """The V1 chart at divisor direction lam, as the walk takes it: the
    transform at 0 shifted by v -> v + lam."""
    return LocalOneForm(form.a.shift("v", lam), form.b.shift("v", lam))


def test_classify_ordinary_higher_multiplicity():
    assert kind(lof("v^2", "u^2")) == ORDINARY


def test_dicritical_blow_up_divides_extra_power():
    # radial point: the exceptional power removed is m + 1 = 2 and the
    # transform is nonsingular along the divisor
    om = lof("-v", "u")
    out = blow(om, V1)
    assert_form(out, "0", "1")
    assert kind(out) == NONSINGULAR


def test_chain_first_branch():
    # the degree-5 example at infinity, following the first singular branch
    om1 = lof("5*u^4*v", "-5*u^5 - 2*v^3")
    assert kind(om1) == ORDINARY

    om2 = blow(om1, V1)
    assert_form(om2, "-2*v^4", "-5*u^3 - 2*u*v^3")
    assert kind(om2) == ORDINARY

    om3 = blow(om2, V1)
    assert_form(om3, "-5*v - 4*u*v^4", "-5*u - 2*u^2*v^3")
    assert kind(om3) == SIMPLE


def test_chain_second_branch():
    om2 = lof("-2*v^4", "-5*u^3 - 2*u*v^3")

    om3 = blow(om2, V2)
    assert_form(om3, "-2*v^2", "-5*u^3 - 4*u*v")
    assert kind(om3) == ORDINARY

    om4 = blow(om3, V1)
    assert_form(om4, "-5*u*v - 6*v^2", "-5*u^2 - 4*u*v")
    assert kind(om4) == ORDINARY

    om5 = blow(om4, V1)
    assert_form(om5, "-10*v - 10*v^2", "-5*u - 4*u*v")
    # besides the origin, the new divisor carries a singular point in the
    # direction -1; its centred chart is om5 shifted to -1
    for comp in (om5.a, om5.b):
        assert comp.evaluate({"u": 0, "v": -1}).is_zero()

    om6 = at_divisor_point(om5, -1)
    assert_form(om6, "10*v - 10*v^2", "-u - 4*u*v")
    # eigenvalues -1 and -10: a resonant node, still ordinary
    assert kind(om6) == ORDINARY


def test_chain_other_infinity_point():
    om1 = lof("2*u", "5*v^4")
    assert kind(om1) == ORDINARY

    om2 = blow(om1, V2)
    assert_form(om2, "2*u*v", "2*u^2 + 5*v^3")

    om3 = blow(om2, V2)
    assert_form(om3, "2*u*v", "4*u^2 + 5*v")
    assert kind(om3) == ORDINARY

    om4 = blow(om3, V1)
    assert_form(om4, "6*u*v + 5*v^2", "4*u^2 + 5*u*v")
    assert kind(om4) == ORDINARY


def test_blow_up_at_shifted_center():
    # the chart at divisor direction lambda, the chart at 0 shifted, is the
    # pull-back through (u, v) -> (u, u (v + lambda))
    om = lof("-5*u*v - 6*v^2", "-5*u^2 - 4*u*v")
    atm1 = at_divisor_point(blow(om, V1), -1)
    ref = reference_blow_up_form(om, -1, V1)
    assert (atm1.a, atm1.b) == (ref.a, ref.b)


def test_blow_up_rejects_bad_branch():
    with pytest.raises(ValueError):
        blow_up_form(lof("v", "u"), "V3", 1)
    with pytest.raises(ValueError):
        strict_transform(parse_uv("v"), 0, "V3", 1)


def test_blow_up_curve_smooth_transverse():
    c = parse_uv("v")
    out = blow_up_curve(c, 0, V1)
    assert out == parse_uv("v")


def test_blow_up_curve_parabola():
    c = parse_uv("v - u^2")
    out = blow_up_curve(c, 0, V1)
    assert out == parse_uv("v - u")
    # after the shift to center 1 the strict transform misses the origin
    out1 = blow_up_curve(c, 1, V1)
    assert out1.order() == 0


def test_blow_up_curve_cusp_resolves():
    c = parse_uv("v^2 - u^3")
    out = blow_up_curve(c, 0, V1)
    assert out == parse_uv("v^2 - u")
    out2 = blow_up_curve(out, 0, V2)
    assert out2 == parse_uv("v - u")


QS = Tower().adjoin("s", (Fraction(-2), Fraction(0), Fraction(1)))  # s^2 = 2
small = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def transform_cases(draw):
    tower = draw(st.sampled_from([QQ_TOWER, QS]))
    if tower.depth == 0:
        coeffs = small.filter(bool).map(lambda q: FieldElement.rational(q, tower))
    else:
        coeffs = st.tuples(small, small).filter(any).map(
            lambda v: FieldElement(tower, v)
        )
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=5))
    p = MultiPoly.from_coeff_dict(("u", "v"), terms, tower)
    center = draw(
        st.one_of(
            st.integers(-2, 2),
            small,
            st.tuples(small, small).map(lambda v: FieldElement(QS, v)),
        )
    )
    branch = draw(st.sampled_from([V1, V2]))
    e = draw(st.integers(0, p.order() + 2))
    return p, center, branch, e


def pull_back(p, center, branch):
    """p(u, u (v + center)) for V1, p(v (u + center), v) for V2, expanded
    term by term."""
    tower = p.tower
    if isinstance(center, FieldElement):
        tower = QS
        lam = MultiPoly.constant(center)
    else:
        lam = MultiPoly.constant(center, (), tower)
    u = MultiPoly.variable("u", tower)
    v = MultiPoly.variable("v", tower)
    x, y = (u, u * (v + lam)) if branch == V1 else (v * (u + lam), v)
    out = MultiPoly.zero(("u", "v"), tower)
    for (a, b), c in p.terms.items():
        out = out + MultiPoly.constant(FieldElement(p.tower, c)) * x ** a * y ** b
    return out


@settings(max_examples=150, deadline=None)
@given(transform_cases())
def test_strict_transform_divides_pull_back(case):
    p, center, branch, e = case
    out = strict_transform(p, center, branch, e)
    # the pull-back is divisible by exactly the order of p
    assert (out is None) == (e > p.order())
    if out is not None:
        divisor = MultiPoly.variable("u" if branch == V1 else "v", out.tower)
        assert (divisor ** e * out - pull_back(p, center, branch)).is_zero()
    assert blow_up_curve(p, center, branch) == strict_transform(
        p, center, branch, p.order()
    )


# -- blow_up_form: the exponent-map kernel against substitute-and-multiply --


def reference_blow_up_form(omega, center, branch):
    """The pull-back through substitute and MultiPoly products: substitute
    v -> u (v + center) (V1) or u -> v (u + center) (V2) in both
    components, combine them with the chart differentials and divide by
    the common power of the divisor."""
    m = multiplicity(omega)
    u, v = UV
    tower = omega.a.tower
    if isinstance(center, FieldElement):
        lam = MultiPoly.constant(center)
        if center.tower.depth > tower.depth:
            tower = center.tower
    else:
        lam = MultiPoly.constant(Fraction(center), (), tower)
    up = MultiPoly.variable(u, tower)
    vp = MultiPoly.variable(v, tower)
    if branch == V1:
        divisor, slope = u, vp + lam
        sub = {v: up * slope}
    elif branch == V2:
        divisor, slope = v, up + lam
        sub = {u: vp * slope}
    else:
        raise ValueError("branch must be V1 or V2")
    a0 = omega.a.substitute(sub)
    b0 = omega.b.substitute(sub)
    if branch == V1:
        na, nb = a0 + slope * b0, up * b0
    else:
        na, nb = vp * a0, slope * a0 + b0
    na = na.with_vars(UV)
    nb = nb.with_vars(UV)
    i = UV.index(divisor)
    e = min(exps[i] for p in (na, nb) for exps in p.terms)
    expected = m + 1 if char_poly(omega, m).is_zero() else m
    if e != expected:
        raise DivisibilityViolation(
            f"removed exceptional power {e}, expected {expected}"
        )

    def divide(p):
        terms = {ex[:i] + (ex[i] - e,) + ex[i + 1 :]: c for ex, c in p.terms.items()}
        return MultiPoly(p.vars, terms, p.tower)

    return LocalOneForm(divide(na), divide(nb))


def local_polys(tower, degrees, min_size=0):
    """Polynomials in u, v over tower with terms of total degree in degrees."""
    if tower.depth == 0:
        coeffs = small.filter(bool).map(lambda q: FieldElement.rational(q, tower))
    else:
        coeffs = st.tuples(small, small).filter(any).map(
            lambda v: FieldElement(tower, v)
        )
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda e: sum(e) in degrees
    )
    return st.dictionaries(exps, coeffs, min_size=min_size, max_size=4).map(
        lambda d: MultiPoly.from_coeff_dict(("u", "v"), d, tower)
    )


@st.composite
def form_cases(draw):
    towers = st.sampled_from([QQ_TOWER, QS])
    ta, tb = draw(towers), draw(towers)
    if draw(st.booleans()):
        # dicritical: the m-jet is h (-v du + u dv) for a form h of degree m - 1
        m = draw(st.integers(1, 3))
        h = draw(local_polys(ta, {m - 1}, min_size=1))
        u = MultiPoly.variable("u", ta)
        v = MultiPoly.variable("v", ta)
        a = -(v * h) + draw(local_polys(ta, range(m + 1, 7)))
        b = u * h + draw(local_polys(tb, range(m + 1, 7)))
    else:
        a = draw(local_polys(ta, range(7), min_size=1))
        b = draw(local_polys(tb, range(7)))
        if draw(st.booleans()):
            a, b = b, a
    omega = LocalOneForm(a.with_vars(UV), b.with_vars(UV))
    branch = draw(st.sampled_from([V1, V2, V1, V2, "V3"]))
    # the walk blows up V2 only at its origin
    center = 0
    if branch == V1:
        center = draw(
            st.one_of(
                st.integers(-2, 2),
                small,
                st.tuples(small, small).map(lambda v: FieldElement(QS, v)),
            )
        )
    return omega, center, branch


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, DivisibilityViolation) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(form_cases())
def test_blow_up_form_matches_substitution(case):
    omega, center, branch = case
    ours = outcome(blow_up_form, omega, branch, expected_power(omega))
    if branch == V1 and not isinstance(ours, tuple):
        ours = at_divisor_point(ours, center)
    ref = outcome(reference_blow_up_form, omega, center, branch)
    if isinstance(ours, tuple) or isinstance(ref, tuple):
        assert ours == ref
        return
    for mine, theirs in ((ours.a, ref.a), (ours.b, ref.b)):
        # a shift leaves a component free of v in its own tower, which may
        # lie below the tower of the centre
        assert mine.vars == theirs.vars
        assert mine.tower.is_prefix_of(theirs.tower)
        assert mine.lift_to(theirs.tower).terms == theirs.terms


def reference_remap_blow_up_form(omega, branch, dicritical):
    """blow_up_form as it was: three _remap polynomials, added, and the
    sums divided by their common power of the divisor."""
    m = multiplicity(omega)
    axes = divisor, other = _axes(branch)
    a, b = omega.a, omega.b.lift_to(omega.a.tower.join(omega.b.tower))
    if branch == V1:
        na = _remap(a, axes, None, 0) + _remap(b, axes, other, 0)
        nb = _remap(b, axes, divisor, 0)
    else:
        na = _remap(a, axes, divisor, 0)
        nb = _remap(a, axes, other, 0) + _remap(b, axes, None, 0)
    e = common_power([na, nb], divisor)
    expected = m + 1 if dicritical else m
    if e != expected:
        raise DivisibilityViolation(
            f"removed exceptional power {e}, expected {expected}"
        )
    return LocalOneForm(div_power(na, divisor, e), div_power(nb, divisor, e))


@settings(max_examples=300, deadline=None)
@given(form_cases())
def test_blow_up_form_matches_the_remap_reference(case):
    # forms over Q and Q(sqrt 2), b sometimes deeper than a, dicritical or
    # not, on both branches and a bad one; each component must keep the
    # vars, the tower and the terms of the composition
    omega, _, branch = case
    ref = outcome(
        reference_remap_blow_up_form, omega, branch, kind(omega) == DICRITICAL
    )
    ours = outcome(blow_up_form, omega, branch, expected_power(omega))
    if isinstance(ours, tuple) or isinstance(ref, tuple):
        assert ours == ref
        return
    for mine, theirs in ((ours.a, ref.a), (ours.b, ref.b)):
        assert mine.vars == theirs.vars
        assert mine.tower == theirs.tower
        assert mine.terms == theirs.terms


# -- the eigenvalue-ratio test --------------------------------------------


def reference_ratio_in_positive_rationals(T, Delta):
    """The test as it was: through the quotient T^2/Delta in the tower."""
    s = (T * T) / Delta - 2
    q = s.tower.as_rational(s.v)
    if q is None or q < 2:
        return False
    disc = q * q - 4
    n, d = disc.numerator, disc.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


QI = Tower().adjoin("i", (1, 0, 1))  # i^2 = -1
QS3 = QS.adjoin("t", ((-3, 0), (0, 0), (1, 0)))  # t^2 = 3 over Q(s)
nonzero_small = small.filter(bool)


def tower_elements(tower, depth=None):
    depth = tower.depth if depth is None else depth
    if depth == 0:
        return small.map(QQ_TOWER.lift_rational)
    return st.tuples(*[tower_elements(tower, depth - 1)] * tower.level_degree(depth))


@st.composite
def trace_det_pairs(draw):
    """(T, Delta): a random pair; or Delta = T^2/r for a rational r, which
    makes the ratio test's quotient rational with Delta irrational as soon
    as T is; or that Delta moved off the line of T^2 along the top
    generator, so that only the first coordinates keep the ratio r."""
    tower = draw(st.sampled_from([QQ_TOWER, QS, QI, QS3]))
    T = FieldElement(tower, draw(tower_elements(tower)))
    kind = draw(st.sampled_from(["random", "rational", "moved"]))
    if kind == "random" or T.is_zero():
        Delta = FieldElement(tower, draw(tower_elements(tower)))
    else:
        # r = (q + 1)^2/q gives eigenvalues of ratio q
        q = draw(small.filter(lambda q: q > 0))
        r = draw(st.sampled_from([(q + 1) ** 2 / q, q, -q]))
        Delta = T * T / r
        if kind == "moved" and tower.depth:
            Delta = Delta + draw(nonzero_small) * FieldElement.generator(tower)
    assume(not Delta.is_zero())
    return T, Delta


@settings(max_examples=300, deadline=None)
@given(trace_det_pairs())
def test_ratio_test_matches_division_form(pair):
    T, Delta = pair
    assert _ratio_in_positive_rationals(T, Delta) == (
        reference_ratio_in_positive_rationals(T, Delta)
    )


def test_ratio_test_with_irrational_delta():
    r2 = FieldElement.generator(QS)
    # T = 3 r2, Delta = 2 r2: T^2/Delta = 9 r2 is irrational
    assert not _ratio_in_positive_rationals(3 * r2, 2 * r2)
    # T^2/Delta = 9/2 = 2 + (2 + 1/2): the eigenvalues have ratio 2
    T = 3 + 3 * r2
    assert _ratio_in_positive_rationals(T, T * T * Fraction(2, 9))
    # the same Delta moved along r2: T^2/Delta is irrational
    assert not _ratio_in_positive_rationals(T, T * T * Fraction(2, 9) + r2)
