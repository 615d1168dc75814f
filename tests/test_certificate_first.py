"""integrate certifies from the points at infinity first.

The oracle is the decision from every point, with no attempt at infinity:
`reference_decide` below reduces all singular points and then runs S, R,
the curves and each route's certificate.  decide must give the same
certificate (display factors, exponents, degree, R and route, and raw
factors of the same degrees with the same product) or the same reason or
error on every field.  Two differences are deliberate: where the reference
exceeds the tower cap or the depth on affine points, decide may certify
from the points at infinity, and then the printed integral is checked in
sympy instead; and a field whose line at infinity is not invariant gets
line-not-invariant from decide before any point is reduced, where the
reference may first exceed a budget.
"""

import random

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from waifi.field import ExtensionDegreeExceeded, SplitRequired
from waifi.integrability import (
    LINE_NOT_INVARIANT,
    R_NOT_RANK_ONE,
    WRONG_FREE_MAXIMAL_COUNT,
    AnalysisFailure,
    _certify,
    _check_line_invariant,
    _decide_from,
    _z_divides,
    assemble_S,
    compute_R,
    decide,
    extract_curves,
)
from waifi.poly import MultiPoly, parse_poly
from waifi.reduction import StructureMismatch, reduce
from waifi.vfield import AffineVectorField, dehomogenize, projectivize

ROUTES = ["pairing", "darboux"]
BUDGETS = ("ExtensionDegreeExceeded", "DepthExceeded")


def reference_decide(V, routes, max_depth=64, max_tower_degree=16):
    """The decision from the reduction of every singular point."""
    res = reduce(projectivize(V), max_depth=max_depth, max_tower_degree=max_tower_degree)
    try:
        if not _z_divides(res.one_form):
            raise AnalysisFailure(LINE_NOT_INVARIANT, "Z=0 is not invariant")
        _check_line_invariant(res)
        try:
            family = assemble_S(res)
        except StructureMismatch as exc:
            raise AnalysisFailure(WRONG_FREE_MAXIMAL_COUNT, str(exc))
        R = compute_R(family)
        curves = extract_curves(family, R)
    except AnalysisFailure as exc:
        return [(None, exc.reason)] * len(routes)
    front = (family, R, curves, [dehomogenize(F) for F in curves])
    out = []
    for route in routes:
        try:
            out.append((_certify(V, front, route), None))
        except AnalysisFailure as exc:
            out.append((None, exc.reason))
    return out


def integral(cert):
    """The product of the certificate's factors to their exponents, which
    must be rational.  The factors themselves may be written over another
    generator: from the points at infinity alone, x^2 - 2 can split as
    x +- 2*a with a^2 = 1/2 instead of x +- a with a^2 = 2."""
    H = MultiPoly.constant(1, ("x", "y"))
    for f, n in zip(cert.factors, cert.exponents):
        H = H * f**n
    coeffs = {e: H.tower.as_rational(c) for e, c in H.terms.items()}
    assert None not in coeffs.values()
    return MultiPoly.from_coeff_dict(("x", "y"), coeffs).to_string()


def outcome(decider, V, routes=ROUTES, **kw):
    """What a user can see of a decision: each route's certificate (its
    JSON, with the display factors, R and the route) or reason, or the
    error it ends in; and the raw factors' degrees and product."""
    try:
        results = decider(V, routes, **kw)
    except (ValueError, RuntimeError, ExtensionDegreeExceeded, SplitRequired) as exc:
        return type(exc).__name__, str(exc)
    return [
        (
            None
            if cert is None
            else (
                cert.as_json(),
                [f.total_degree() for f in cert.factors],
                cert.exponents,
                integral(cert),
            ),
            reason,
        )
        for cert, reason in results
    ]


def sympy_residual(V, doc):
    """p*H_x + q*H_y for the printed factors of a certificate, in sympy."""
    x, y = sympy.symbols("x y")

    def expr(text):
        return sympy.sympify(text.replace("^", "**"))

    H = sympy.Mul(*[expr(f["poly"]) ** f["exponent"] for f in doc["factors"]])
    p, q = expr(V.p.to_string()), expr(V.q.to_string())
    return sympy.expand(p * sympy.diff(H, x) + q * sympy.diff(H, y))


def assert_same_decision(V, routes=ROUTES, **kw):
    ours = outcome(decide, V, routes, **kw)
    reference = outcome(reference_decide, V, routes, **kw)
    if reference[0] in BUDGETS and isinstance(ours, list):
        # the deliberate differences: points beyond the tower cap or the
        # depth are never built when the points at infinity certify, or
        # when the line at infinity is not invariant
        if ours[0][1] == LINE_NOT_INVARIANT:
            assert ours == [(None, LINE_NOT_INVARIANT)] * len(routes)
            assert not _z_divides(projectivize(V).reduced())
        else:
            for cert, reason in ours:
                assert reason is None and sympy_residual(V, cert[0]) == 0
    else:
        assert ours == reference
    return ours


def field(p, q):
    return AffineVectorField(parse_poly(p), parse_poly(q))


# -- planted Hamiltonians ---------------------------------------------------


def _curve(spec):
    """y + c(x), the line x, or the conjugate lines x^2 - a."""
    kind, data = spec
    if kind == "x":
        return parse_poly("x")
    if kind == "lines":
        return parse_poly(f"x^2 - {data}")
    return parse_poly("y") + MultiPoly.from_coeff_dict(
        ("x", "y"), {(k, 0): c for k, c in enumerate(data) if c}
    )


curves = st.one_of(
    st.just(("x", None)),
    st.tuples(st.just("lines"), st.sampled_from([2, 3, 5])),
    st.tuples(
        st.just("graph"),
        st.lists(st.integers(-2, 2), min_size=2, max_size=3).map(tuple),
    ),
)


@st.composite
def planted_hamiltonians(draw):
    factors = draw(
        st.lists(
            st.tuples(curves, st.integers(1, 2)),
            min_size=1,
            max_size=2,
            unique_by=lambda t: t[0],
        )
    )
    H = MultiPoly.constant(1, ("x", "y"))
    for spec, n in factors:
        H = H * _curve(spec) ** n
    return H


@settings(max_examples=40, deadline=None)
@given(planted_hamiltonians())
# the conjugate lines x = +-sqrt 2 are also affine singular points
@example(parse_poly("(x^2 - 2)*y"))
def test_planted_hamiltonians_decide_as_from_every_point(H):
    V = AffineVectorField(-H.diff("y"), H.diff("x"))
    assert_same_decision(V)


def test_degree_ten_both_routes_decide_as_from_every_point():
    V = field(
        "2*x^6 - x^4 + 6*x^3*y - x^2*y + 4*y^2",
        "-(10*x^7 - 9*x^6 + 6*x^5*y + 9*x^4*y - 6*x^3*y + 6*x^2*y^2 + 2*x*y^2)",
    )
    ((pairing, _), (darboux, _)) = assert_same_decision(V)
    assert pairing[0]["degree"] == darboux[0]["degree"] == 10


# -- the non-WAI cases of the benchmark --------------------------------------


def perturbation(seed):
    """Acceptance test 7's seeded perturbation of the field (x, x^2 - 2y)."""
    rng = random.Random(seed)
    dp = {e: rng.choice([-1, 0, 1]) for e in [(0, 1), (2, 0), (0, 2)]}
    dq = {e: rng.choice([-1, 0, 1]) for e in [(1, 0), (1, 1), (0, 2)]}
    p = parse_poly("x") + MultiPoly.from_coeff_dict(("x", "y"), dp)
    q = parse_poly("-2*y + x^2") + MultiPoly.from_coeff_dict(("x", "y"), dq)
    return AffineVectorField(p, q)


NON_WAI = {
    "negative-control": lambda: field("y + x^3", "x - y^3"),
    "negative-control-2": lambda: field("y - x^3", "x + y^3"),
    "radial": lambda: field("x", "y"),
    **{f"perturbation-{s}": (lambda s=s: perturbation(s)) for s in range(12)},
}


@pytest.mark.parametrize("name", sorted(NON_WAI))
def test_non_wai_cases_decide_as_from_every_point(name):
    results = assert_same_decision(NON_WAI[name]())
    # an error (the tower cap) or a reason for each route
    assert isinstance(results, tuple) or all(cert is None for cert, _ in results)


def test_affine_dicritical_point_keeps_line_not_invariant():
    # perturbation 10: p = -x^2 + x + y, q = x^2 + x*y - y^2 - 2*y
    V = perturbation(10)
    assert V.p == parse_poly("-x^2 + x + y")
    assert V.q == parse_poly("x^2 + x*y - y^2 - 2*y")
    # from the points at infinity alone the decision fails on R ...
    res = reduce(projectivize(V), affine=False)
    assert _decide_from(V, res, ["darboux"]) == [(None, R_NOT_RANK_ONE)]
    # ... but an affine point is dicritical, and that reason comes first
    assert decide(V, ["darboux"]) == [(None, LINE_NOT_INVARIANT)]


def test_line_not_invariant_comes_before_any_point_is_reduced(monkeypatch):
    # x*q_3 - y*p_3 = 0: Z does not divide A and B.  Reducing every point
    # needs a tower of degree 42, beyond the default cap of 16
    V = field("x^3 + y^2 - 3", "x^2*y + x - 5")
    assert not _z_divides(projectivize(V).reduced())
    with pytest.raises(ExtensionDegreeExceeded):
        reference_decide(V, ROUTES)
    monkeypatch.setattr("waifi.integrability.reduce_form", None)
    for cap in (16, 1):
        assert decide(V, ROUTES, max_tower_degree=cap) == [
            (None, LINE_NOT_INVARIANT)
        ] * 2
    assert_same_decision(V)
