import random
import sys
from fractions import Fraction

import pytest
from test_acceptance import random_wai_product

from waifi.infnear import Configuration, InfNearPoint, PairingVector
from waifi.integrability import (
    DEGREE_CHECKS_FAILED,
    EXPONENTS_INVALID,
    LINE_NOT_INVARIANT,
    NO_ADMISSIBLE_PLACEMENT,
    R_NOT_RANK_ONE,
    S_DEPENDENT,
    VERIFICATION_FAILED,
    WRONG_FREE_MAXIMAL_COUNT,
    AnalysisFailure,
    SFamily,
    algorithm1,
    algorithm2,
    assemble_S,
    compute_R,
    exponents_darboux,
    exponents_pairing,
    poincare_bound,
    poincare_degree,
)
from waifi.poly import parse_poly
from waifi.reduction import reduce
from waifi.vfield import AffineVectorField, cofactor, projectivize


def field(p, q):
    return AffineVectorField(parse_poly(p), parse_poly(q))


def main_example_field():
    a = parse_poly(
        "10*x^7 - 9*x^6 + 6*x^5*y + 9*x^4*y - 6*x^3*y + 6*x^2*y^2 + 2*x*y^2"
    )
    b = parse_poly("2*x^6 - x^4 + 6*x^3*y - x^2*y + 4*y^2")
    return AffineVectorField(b, -a)


def erow(neg, pos):
    row = [0] * 30
    row[neg] = -1
    for j in pos:
        row[j] = 1
    return row


def expected_S_matrix():
    """The 29 x 30 matrix (c_1, c_2, c_3, then e_Q for the 26 non-maximal
    points); column 0 is the degree entry, column k the point with id k-1."""
    rows = [
        [3, 2] + [1] * 13 + [0] * 15,
        [3, 2, 1, 1, 1] + [0] * 10 + [1] * 10 + [0] * 5,
        [2, 1, 1] + [0] * 22 + [1] * 5,
        erow(1, (2, 3)),
        erow(2, (3, 25)),
        erow(3, (4,)),
        erow(4, (5, 15)),
    ]
    for k in range(5, 14):  # points 4..12
        rows.append(erow(k, (k + 1,)))
    for k in range(15, 24):  # points 14..22
        rows.append(erow(k, (k + 1,)))
    for k in range(25, 29):  # points 24..27
        rows.append(erow(k, (k + 1,)))
    return rows


def main_family():
    res = reduce(projectivize(main_example_field()))
    return res, assemble_S(res)


def test_main_example_S_matrix():
    res, family = main_family()
    assert family.maximal == family.free_maximal == [13, 23, 28]
    assert family.infinity == frozenset({0, 1})
    assert family.d_values == [3, 3, 2]
    matrix = [[int(x) for x in v.as_list()] for v in family.vectors]
    assert matrix == expected_S_matrix()


def test_main_example_R():
    _, family = main_family()
    R = compute_R(family)
    assert [int(x) for x in R.as_list()] == [10, 6, 4, 2, 2] + [1] * 20 + [2] * 5


def test_main_example_certificates_agree():
    V = main_example_field()
    cert1, reason1 = algorithm1(V)
    cert2, reason2 = algorithm2(V)
    assert reason1 is None and reason2 is None
    for cert in (cert1, cert2):
        assert cert.degree == 10
        assert [f.to_string() for f in cert.factors] == [
            "x^3 - x^2 + y",
            "x^3 + y",
            "x^2 + y",
        ]
        assert cert.exponents == [1, 1, 2]
        assert cert.residual.is_zero()
    assert cert1.factors == cert2.factors
    assert cert1.exponents == cert2.exponents
    doc = cert1.as_json()
    assert doc["degree"] == 10
    assert doc["residual"] == "0" and doc["reason"] is None
    assert [f["exponent"] for f in doc["factors"]] == [1, 1, 2]


def test_quintic_fixture():
    cert, reason = algorithm2(field("5*y^4", "-2*x"))
    assert reason is None
    assert cert.degree == 5
    assert [f.to_string() for f in cert.display_factors] == ["x^2 + y^5"]
    assert cert.display_exponents == [1]


def test_cusp_fixture():
    # the Hamiltonian field of y^2 - x^3
    cert, reason = algorithm2(field("2*y", "3*x^2"))
    assert reason is None
    assert cert.degree == 3
    assert [f.to_string() for f in cert.display_factors] == ["x^3 - y^2"]


def test_rotation_recombines_conjugate_lines():
    cert, reason = algorithm2(field("-y", "x"))
    assert reason is None
    assert cert.degree == 2
    # two conjugate lines internally, one rational factor for display
    assert len(cert.factors) == 2
    assert cert.exponents == [1, 1]
    assert [f.to_string() for f in cert.display_factors] == ["x^2 + y^2"]
    assert cert.display_exponents == [1]


def test_saddle_fixture():
    cert, reason = algorithm2(field("x", "-y"))
    assert reason is None
    assert sorted(f.to_string() for f in cert.factors) == ["x", "y"]
    assert cert.exponents == [1, 1]


def test_perturbed_field_still_decided():
    cert, reason = algorithm2(field("x", "-2*y + x^2"))
    assert reason is None
    assert cert.degree == 4
    assert sorted(f.to_string() for f in cert.factors) == ["x", "x^2 - 4*y"]
    assert sorted(cert.exponents) == [1, 2]


def test_radial_field_rejected():
    for algorithm in (algorithm1, algorithm2):
        cert, reason = algorithm(field("x", "y"))
        assert cert is None
        assert reason == LINE_NOT_INVARIANT


def test_rank_one_failure():
    cert, reason = algorithm2(field("2*y + x^2", "-2*x"))
    assert cert is None and reason == R_NOT_RANK_ONE


def test_dependent_S():
    # two maximal plane points with equal c-vectors: S has rank 1, not 2
    conf = Configuration(
        [
            InfNearPoint(0, None, None, (1, 0, 0), 0, frozenset()),
            InfNearPoint(1, None, None, (0, 1, 0), 0, frozenset()),
        ]
    )
    c = PairingVector.make(conf, 1, {0: 1})
    family = SFamily(
        configuration=conf,
        maximal=[0, 1],
        free_maximal=[0, 1],
        c_vectors=[c, c],
        e_vectors={},
        h_systems=[{0: 1, 1: 0}] * 2,
        d_values=[1, 1],
        infinity=frozenset({0, 1}),
    )
    with pytest.raises(AnalysisFailure) as exc:
        compute_R(family)
    assert exc.value.reason == S_DEPENDENT


def test_degree_check_failure():
    cert, reason = algorithm2(field("y + x^3", "x - y^3"))
    assert cert is None and reason == DEGREE_CHECKS_FAILED


def test_darboux_all_zero_cofactors():
    V = field("2*y", "3*x^2")
    f = parse_poly("y^2 - x^3")
    assert exponents_darboux([cofactor(V, f)]) == [1]


def bad_conf():
    def pt(pid, parent, prox):
        return InfNearPoint(
            pid,
            parent,
            None if parent is None else "V1",
            None,
            0 if parent is None else None,
            frozenset(prox),
        )

    return Configuration(
        [pt(0, None, ()), pt(1, 0, (0,)), pt(2, 1, (0, 1)), pt(3, 1, (1,))]
    )


def test_wrong_free_maximal_count():
    with pytest.raises(AnalysisFailure) as exc:
        poincare_degree(bad_conf(), frozenset({0}))
    assert exc.value.reason == WRONG_FREE_MAXIMAL_COUNT


def test_poincare_degree_main_example():
    res = reduce(projectivize(main_example_field()))
    conf = res.dicritical_configuration
    infinity = frozenset(res.infinity_points) & set(conf.order)
    assert poincare_degree(conf, infinity) == (10, [1, 1, 2])
    assert poincare_bound(conf) == 10


def test_poincare_degree_quintic():
    res = reduce(projectivize(field("5*y^4", "-2*x")))
    conf = res.dicritical_configuration
    infinity = frozenset(res.infinity_points) & set(conf.order)
    assert poincare_degree(conf, infinity) == (5, [1])
    assert poincare_bound(conf) == 5


def test_poincare_bound_no_placement():
    with pytest.raises(AnalysisFailure) as exc:
        poincare_bound(bad_conf())
    assert exc.value.reason == NO_ADMISSIBLE_PLACEMENT


def test_poincare_degree_matches_darboux_certificate():
    # the degree read off the dicritical configuration and the points on the
    # line at infinity is the degree of the minimal first integral; the
    # planted Hamiltonians of acceptance test 6a
    rng = random.Random(2024)
    for _ in range(40):
        H = random_wai_product(rng)
        V = AffineVectorField(-H.diff("y"), H.diff("x"))
        cert, reason = algorithm2(V)
        assert reason is None, H.to_string()
        res = reduce(projectivize(V))
        conf = res.dicritical_configuration
        infinity = frozenset(res.infinity_points) & set(conf.order)
        n, _ = poincare_degree(conf, infinity)
        assert n == cert.degree, H.to_string()


@pytest.mark.parametrize("V", [main_example_field(), field("5*y^4", "-2*x")])
def test_pairing_data_are_ints(V):
    # R, the pairing route's n_i and b_P, and poincare_degree come out as
    # ints: only compute_R's kernel combination is rational
    res = reduce(projectivize(V), affine=False)
    family = assemble_S(res)
    R = compute_R(family)
    n_i, b_P = exponents_pairing(family, R)
    conf = res.dicritical_configuration
    n, exps = poincare_degree(conf, frozenset(res.infinity_points) & set(conf.order))
    values = [R.v0, *R.components.values(), *n_i, *b_P.values(), n, *exps]
    assert {type(x) for x in values} == {int}


@pytest.mark.parametrize(
    "V, routes",
    [
        (field("5*y^4", "-2*x"), ["darboux"]),
        (main_example_field(), ["darboux"]),
        (main_example_field(), ["pairing", "darboux"]),
    ],
)
def test_certificate_work_is_pinned(V, routes, monkeypatch):
    # counts, not times: compute_R hands nullspace at most r rows and the
    # pairing route at most r + 1, both from one proximity system; for r > 1
    # each curve's linear system gets the chain under its M_i, a route takes
    # each curve's cofactor once, and the one gcd before the walk is
    # projectivize's, of p and q in x and y: none in reduced() or
    # points_at_infinity
    from waifi import integrability, linalg, reduction, vfield

    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append((name, sys._getframe(1).f_code.co_name, args))
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    spy(linalg, "nullspace")
    spy(integrability, "_proximity_system")
    spy(integrability, "compute_R")
    spy(integrability, "cofactor")
    spy(integrability, "linear_system")
    spy(vfield, "poly_gcd")
    spy(reduction, "poly_gcd")
    results = integrability.decide(V, routes)
    assert all(reason is None for _, reason in results)
    factors = results[0][0].factors

    def made(name, caller=None):
        return [a for n, c, a in calls if n == name and caller in (None, c)]

    ((family,),) = made("compute_R")
    ((rows,),) = made("nullspace", "compute_R")
    assert len(rows) <= len(family.maximal) < len(family.vectors)
    if "pairing" in routes:
        ((rows,),) = made("nullspace", "exponents_pairing")
        assert len(rows) <= len(family.maximal) + 1
    conf = family.configuration
    sizes = [len(K.configuration) for _, K in made("linear_system")]
    if len(family.maximal) > 1:
        assert sizes == [len(conf.ancestors(m)) for m in family.free_maximal]
    assert len(made("cofactor")) == len(routes) * len(factors)
    assert made("_proximity_system") == [(family,)]
    first, *walk = [c for n, c, _ in calls if n == "poly_gcd"]
    ((p, q),) = made("poly_gcd", "projectivize")
    assert first == "projectivize" and {*p.vars, *q.vars} <= {"x", "y"}
    assert set(walk) <= {"_divisor_singularities"}


@pytest.mark.parametrize(
    "guard, route, reason, detail",
    [
        ("sum", "darboux", DEGREE_CHECKS_FAILED, "exponent degrees do not sum to n"),
        ("gcd", "darboux", EXPONENTS_INVALID, "exponents are not coprime"),
        ("cofactors", "pairing", VERIFICATION_FAILED, "cofactor relation fails"),
    ],
)
def test_each_certify_guard_rejects_its_defect(guard, route, reason, detail, monkeypatch):
    # x^2 + y^5 certifies with n = 5 and exponent 1 on either route; each
    # patch plants the one defect its guard checks, after the checks before
    # it pass: exponent 2 (degree 10 != 5); exponent 2 with R doubled
    # (degrees sum to n = 10, gcd 2); cofactors off by 1, which the pairing
    # route takes only after the residual
    from waifi import integrability

    V = field("5*y^4", "-2*x")
    assert integrability.decide(V, [route])[0][1] is None
    if guard in ("sum", "gcd"):
        monkeypatch.setattr(integrability, "exponents_darboux", lambda ks: [2] * len(ks))
    if guard == "gcd":
        front_half = integrability._front_half

        def doubled_R(res):
            family, R, curves, factors = front_half(res)
            return family, R.scale(2), curves, factors

        monkeypatch.setattr(integrability, "_front_half", doubled_R)
    if guard == "cofactors":
        cofactors = integrability._cofactors
        monkeypatch.setattr(
            integrability, "_cofactors", lambda V, fs: [k + 1 for k in cofactors(V, fs)]
        )
    raised = []
    certify = integrability._certify

    def spy(*args):
        try:
            return certify(*args)
        except AnalysisFailure as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(integrability, "_certify", spy)
    assert integrability.decide(V, [route]) == [(None, reason)]
    # the attempt at infinity and the reduction of every point both fail there
    assert raised and set(raised) == {f"{reason}: {detail}"}
