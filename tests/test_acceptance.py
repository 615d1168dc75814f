"""End-to-end acceptance suite: worked examples, randomized property
suites, and negative controls, each with a runtime budget."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
from test_blowup import parse_uv

from waifi.blowup import (
    DivisibilityViolation,
    LocalOneForm,
    UV,
    V1,
    V2,
    blow_up_form,
    char_poly,
    multiplicity,
)
from waifi.infnear import Cluster, Configuration, InfNearPoint, pairing
from waifi.integrability import (
    LINE_NOT_INVARIANT,
    algorithm1,
    algorithm2,
    assemble_S,
    compute_R,
    extract_curves,
)
from waifi.linsys import linear_system, pencil_base_points, pencil_vector_field
from waifi.poly import MultiPoly, parse_poly
from waifi.reduction import dicritical_points, reduce
from waifi.vfield import (
    AffineVectorField,
    ProjectiveOneForm,
    cofactor,
    projectivize,
    verify_first_integral,
)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"took {elapsed:.1f}s, budget {self.limit}s"


def quintic_form():
    return ProjectiveOneForm(
        parse_poly("2*X*Z^4"),
        parse_poly("5*Y^4*Z"),
        parse_poly("-5*Y^5 - 2*X^2*Z^3"),
    )


def main_field():
    a = parse_poly(
        "10*x^7 - 9*x^6 + 6*x^5*y + 9*x^4*y - 6*x^3*y + 6*x^2*y^2 + 2*x*y^2"
    )
    b = parse_poly("2*x^6 - x^4 + 6*x^3*y - x^2*y + 4*y^2")
    return AffineVectorField(b, -a)


def proportional(lf, a_str, b_str):
    """The local 1-form equals (a, b) up to one common constant factor."""
    a = parse_uv(a_str)
    b = parse_uv(b_str)
    assert lf.a * b == lf.b * a
    ref, got = (a, lf.a) if not a.is_zero() else (b, lf.b)
    ratio = got.divide_exact(ref)
    assert ratio.is_constant() and not ratio.is_zero()
    assert lf.a == a * ratio
    assert lf.b == b * ratio


def test_acceptance_1_reduction_of_quintic_example():
    budget = Budget(10)
    res = reduce(quintic_form())
    conf = res.singular_configuration

    assert len(conf) == 18
    prox = {pid: sorted(conf.point(pid).proximate_to) for pid in conf.order}
    # satellite points and their double proximities
    assert prox[2] == [0, 1]
    assert prox[3] == [1, 2]
    assert prox[17] == [15, 16]
    assert [pid for pid in conf.order if conf.point(pid).satellite] == [2, 3, 17]

    # the dicritical configuration is a 14-point chain with one dicritical tip
    assert res.dicritical_configuration.order == tuple(range(14))
    assert dicritical_points(res) == [13]

    # strict-transform forms along the reduction, up to unit factors
    proportional(res.local_forms[0], "5*u^4*v", "-5*u^5 - 2*v^3")
    proportional(res.local_forms[1], "-2*v^4", "-5*u^3 - 2*u*v^3")
    proportional(res.local_forms[2], "-2*v^2", "-5*u^3 - 4*u*v")
    proportional(res.local_forms[3], "-5*u*v - 6*v^2", "-5*u^2 - 4*u*v")
    proportional(res.local_forms[4], "10*v - 10*v^2", "-u - 4*u*v")
    proportional(res.local_forms[13], "v - 46*u^9*v^2", "-u - 4*u^10*v")
    proportional(res.local_forms[14], "2*u", "5*v^4")
    proportional(res.local_forms[15], "2*u*v", "2*u^2 + 5*v^3")
    proportional(res.local_forms[16], "2*u*v", "4*u^2 + 5*v")
    proportional(res.local_forms[17], "6*u*v + 5*v^2", "4*u^2 + 5*u*v")
    budget.check()


def test_acceptance_2_cubic_linear_system():
    budget = Budget(1)

    def pt(pid, parent, branch, coordinate, prox):
        level = 0 if parent is None else None
        return InfNearPoint(pid, parent, branch, coordinate, level, frozenset(prox))

    conf = Configuration(
        [
            pt(0, None, None, (1, 0, 1), ()),
            pt(1, None, None, (0, 0, 1), ()),
            pt(2, 1, "V1", Fraction(3), (1,)),
            pt(3, 2, "V2", None, (2,)),
        ]
    )
    sys = linear_system(3, Cluster(conf, {0: 2, 1: 2, 2: 1, 3: 1}))
    assert len(sys) == 2
    allowed = {(1, 2, 0), (0, 3, 0)}  # X*Y^2 and Y^3
    for b in sys:
        assert set(b.terms) <= allowed
    assert {e for b in sys for e in b.terms} == allowed
    budget.check()


def test_acceptance_3_pencil_base_points():
    budget = Budget(10)
    F1 = parse_poly("X^2*Z^3 + Y^5")
    F2 = parse_poly("Z^5")
    bp = pencil_base_points(F1, F2)
    conf = bp.configuration

    mults = [bp.multiplicities[pid] for pid in conf.order]
    assert mults == [3, 2] + [1] * 12
    assert bp.dicritical == frozenset({13})

    om = pencil_vector_field(F1, F2)
    assert om.A == parse_poly("2*X*Z^4")
    assert om.B == parse_poly("5*Y^4*Z")
    assert om.C == parse_poly("-2*X^2*Z^3 - 5*Y^5")

    # base points of the pencil = dicritical configuration of its field
    res = reduce(om)
    assert conf == res.dicritical_configuration
    assert set(bp.dicritical) == {
        pid
        for pid in res.dicritical_configuration.order
        if res.classification[pid] == "dicritical"
    }
    budget.check()


def erow(neg, pos):
    row = [0] * 30
    row[neg] = -1
    for j in pos:
        row[j] = 1
    return row


def expected_S_matrix():
    rows = [
        [3, 2] + [1] * 13 + [0] * 15,
        [3, 2, 1, 1, 1] + [0] * 10 + [1] * 10 + [0] * 5,
        [2, 1, 1] + [0] * 22 + [1] * 5,
        erow(1, (2, 3)),
        erow(2, (3, 25)),
        erow(3, (4,)),
        erow(4, (5, 15)),
    ]
    for k in range(5, 14):
        rows.append(erow(k, (k + 1,)))
    for k in range(15, 24):
        rows.append(erow(k, (k + 1,)))
    for k in range(25, 29):
        rows.append(erow(k, (k + 1,)))
    return rows


def test_acceptance_4_degree_ten_example_pairing_route():
    budget = Budget(60)
    V = main_field()
    res = reduce(projectivize(V))
    conf = res.dicritical_configuration

    assert conf.order == tuple(range(29))
    assert dicritical_points(res) == [13, 23, 28]
    assert frozenset(res.infinity_points) == frozenset({0, 1})

    family = assemble_S(res)
    vectors = family.c_vectors + [
        family.e_vectors[p] for p in sorted(family.e_vectors)
    ]
    matrix = [[int(x) for x in v.as_list()] for v in vectors]
    assert matrix == expected_S_matrix()

    R = compute_R(family)
    assert [int(x) for x in R.as_list()] == [10, 6, 4, 2, 2] + [1] * 20 + [2] * 5

    curves = extract_curves(family, R)
    assert [c.to_string() for c in curves] == [
        "X^3 - X^2*Z + Y*Z^2",
        "X^3 + Y*Z^2",
        "X^2 + Y*Z",
    ]

    cert, reason = algorithm1(V)
    assert reason is None
    assert cert.degree == 10
    assert cert.exponents == [1, 1, 2]

    H = (
        parse_poly("y - x^2 + x^3")
        * parse_poly("y + x^3")
        * parse_poly("x^2 + y") ** 2
    )
    ok, residual = verify_first_integral(V, H)
    assert ok and residual.is_zero()
    budget.check()


def test_acceptance_5_degree_ten_example_darboux_route():
    budget = Budget(10)
    V = main_field()
    cert, reason = algorithm2(V)
    assert reason is None
    factors = cert.factors
    assert [f.to_string() for f in factors] == [
        "x^3 - x^2 + y",
        "x^3 + y",
        "x^2 + y",
    ]
    expected_cofactors = [
        "2*x*(-x^2 - 4*x^3 + 3*x^4 - 5*y + 3*x*y)",
        "2*x*(3*x^2 - 5*x^3 + 3*x^4 - y + 3*x*y)",
        "x*(-2*x^2 + 9*x^3 - 6*x^4 + 6*y - 6*x*y)",
    ]
    for f, ks in zip(factors, expected_cofactors):
        assert cofactor(V, f) == parse_poly(ks)
    assert cert.exponents == [1, 1, 2]
    assert cert.degree == 10
    # agreement with the pairing route
    cert1, _ = algorithm1(V)
    assert cert1.factors == cert.factors
    assert cert1.exponents == cert.exponents
    budget.check()


def random_wai_product(rng, max_factors=2, max_deg=2, max_exp=2):
    """A product of powers of curves with one place at infinity."""

    def rand_curve():
        if rng.random() < 0.2:
            return parse_poly("x")
        deg = rng.randint(1, max_deg)
        s = "y"
        for k in range(deg + 1):
            c = rng.randint(-2, 2)
            if c:
                s += f" + {c}*x^{k}" if c > 0 else f" - {-c}*x^{k}"
        return parse_poly(s)

    k = rng.randint(1, max_factors)
    factors = []
    seen = set()
    tries = 0
    while len(factors) < k and tries < 20:
        tries += 1
        f = rand_curve()
        if f.to_string() in seen:
            continue
        seen.add(f.to_string())
        factors.append((f, rng.randint(1, max_exp)))
    H = MultiPoly.constant(1, ("x", "y"))
    for f, n in factors:
        H = H * f ** n
    return H


def test_acceptance_6a_certificate_invariants_random_hamiltonians():
    rng = random.Random(2024)
    successes = 0
    for _ in range(100):
        H = random_wai_product(rng)
        V = AffineVectorField(-H.diff("y"), H.diff("x"))
        cert, reason = algorithm2(V)
        assert reason is None, f"unexpected failure {reason} for H = {H.to_string()}"
        successes += 1
        R = cert.R
        comps = [int(R.components[p]) for p in R.index]
        n = int(R.v0)
        # <R, R> = 0, i.e. n^2 equals the sum of squared multiplicities
        assert pairing(R, R) == 0
        assert n * n == sum(c * c for c in comps)
        # coprimality of the full solution vector
        g = 0
        for x in [n] + comps:
            g = gcd(g, x)
        assert g == 1
        # dual verification: zero residual and a vanishing cofactor relation
        assert cert.residual.is_zero()
        combo = MultiPoly.zero(("x", "y"))
        for f, ni in zip(cert.factors, cert.exponents):
            combo = combo + cofactor(V, f) * ni
        assert combo.is_zero()
        # n equals the sum of R over the infinity points, and the proximity
        # inequality holds on the dicritical configuration
        res = reduce(projectivize(V))
        conf = res.dicritical_configuration
        inf = frozenset(res.infinity_points) & set(conf.order)
        assert n == sum(R.components[p] for p in inf)
        for p in conf:
            assert R.components[p.pid] >= sum(
                R.components[q.pid] for q in conf if p.pid in q.proximate_to
            )
    assert successes == 100


def test_acceptance_6b_noether_and_proximity_on_random_pencils():
    rng = random.Random(77)
    checked = 0
    while checked < 100:
        H = random_wai_product(rng, max_factors=2, max_deg=2, max_exp=2)
        d = H.total_degree()
        if d < 1:
            continue
        terms = {}
        for e, c in H.terms.items():
            exps = dict(zip(H.vars, e))
            a, b = exps.get("x", 0), exps.get("y", 0)
            terms[(a, b, d - a - b)] = H.tower.as_rational(c)
        F1 = MultiPoly.from_coeff_dict(("X", "Y", "Z"), terms)
        F2 = parse_poly("Z") ** d
        bp = pencil_base_points(F1, F2)
        conf = bp.configuration
        assert sum(m * m for m in bp.multiplicities.values()) == d * d
        for p in conf:
            assert bp.multiplicities[p.pid] >= sum(
                bp.multiplicities[q.pid] for q in conf if p.pid in q.proximate_to
            )
        checked += 1
    assert checked == 100


def test_acceptance_6c_blow_up_divisibility_random_forms():
    rng = random.Random(9)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            terms[(rng.randint(0, 3), rng.randint(0, 3))] = rng.randint(-4, 4)
        return MultiPoly.from_coeff_dict(UV, {e: c for e, c in terms.items() if c})

    checked = 0
    while checked < 100:
        a, b = rand_poly(), rand_poly()
        om = LocalOneForm(a, b)
        if om.a.is_zero() and om.b.is_zero():
            continue
        m = multiplicity(om)
        if m < 1:
            continue
        e = m + 1 if char_poly(om, m).is_zero() else m
        for branch in (V1, V2):
            # the exceptional power removed must be m, or m + 1 at a
            # dicritical point; anything else raises DivisibilityViolation.
            # A V1 chart at lambda != 0 is this transform shifted, which
            # removes no power of the divisor.
            try:
                out = blow_up_form(om, branch, e)
            except DivisibilityViolation as exc:
                pytest.fail(f"divisibility violated for {a}, {b}: {exc}")
            assert not (out.a.is_zero() and out.b.is_zero())
        checked += 1
    assert checked == 100


def test_acceptance_7_negative_and_extension_controls():
    budget = Budget(60)
    # the radial field: stable reason code on repeated runs
    for _ in range(2):
        cert, reason = algorithm2(AffineVectorField(parse_poly("x"), parse_poly("y")))
        assert cert is None
        assert reason == LINE_NOT_INVARIANT

    # seeded random perturbations of an integrable quadratic field
    pinned = {1: "R-not-rank-one", 3: "R-not-rank-one", 7: "exponents-invalid"}
    for seed, expected_reason in pinned.items():
        rng = random.Random(seed)
        dp = {e: rng.choice([-1, 0, 1]) for e in [(0, 1), (2, 0), (0, 2)]}
        dq = {e: rng.choice([-1, 0, 1]) for e in [(1, 0), (1, 1), (0, 2)]}
        p = parse_poly("x") + MultiPoly.from_coeff_dict(("x", "y"), dp)
        q = parse_poly("-2*y + x^2") + MultiPoly.from_coeff_dict(("x", "y"), dq)
        cert, reason = algorithm2(AffineVectorField(p, q))
        assert cert is None
        assert reason == expected_reason

    # extension-field control: conjugate lines recombine to x^2 + y^2
    cert, reason = algorithm2(AffineVectorField(parse_poly("-y"), parse_poly("x")))
    assert reason is None
    assert cert.degree == 2
    assert [f.to_string() for f in cert.display_factors] == ["x^2 + y^2"]
    assert cert.display_exponents == [1]
    budget.check()
