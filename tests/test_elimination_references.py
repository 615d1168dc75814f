"""The certificate path against the eliminations it replaced.

Three references are kept here as they were before the shortcuts:

- `reference_compute_R`: R as the nullspace of the whole matrix of S, whose
  rank decides `S-dependent` and `R-not-rank-one`.  `compute_R` solves only
  the r x (r + 1) system left by the proximity equalities.
- `reference_reduced`: the form divided by gcd(gcd(A, B), C), two gcds.
  `ProjectiveOneForm.reduced` takes the one gcd of A and B.
- sympy's `Matrix.rref` and `Matrix.nullspace`, for the integer
  back-elimination of `linalg`.
- `reference_factor_squarefree`: Trager's norm down the whole tower.
  `factor._factor_squarefree` factors over the shortest prefix that holds
  the coefficients and lifts the factors level by level.
- `reference_roots_in_extension`: the whole squarefree part factored again
  after every adjoin.  `roots_in_extension` keeps the roots it found and
  factors again only the nonlinear factors.

Each must give the same R (or the same reason and message), the same
reduced form, the same nullspace or solution, and the same monic factors,
roots and generator names.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import assume, event, example, given, settings, strategies as st
from test_certificate_first import perturbation, planted_hamiltonians

from waifi import factor, linalg
from waifi.errors import InputError
from waifi.factor import (
    _factor_squarefree,
    _qq_factor,
    roots_in_extension,
    squarefree_part,
)
from waifi.field import ExtensionDegreeExceeded, FieldElement, QQ_TOWER, Tower
from waifi.infnear import Configuration, InfNearPoint, PairingVector, e_vector
from waifi.integrability import (
    DEGREE_CHECKS_FAILED,
    R_NON_INTEGRAL,
    R_NOT_RANK_ONE,
    S_DEPENDENT,
    AnalysisFailure,
    SFamily,
    assemble_S,
    assemble_S_from,
    compute_R,
)
from waifi.linsys import pencil_vector_field
from waifi.poly import MultiPoly, parse_poly, poly_gcd, resultant
from waifi.reduction import StructureMismatch, reduce
from waifi.vfield import AffineVectorField, ProjectiveOneForm, projectivize

# -- R ----------------------------------------------------------------------


def reference_compute_R(family):
    """R from the nullspace of all of S: rows s with the point entries
    negated, so that a row times R is the pairing <s, R>."""
    conf = family.configuration
    rows = []
    for s in family.vectors:
        lst = s.as_list()
        rows.append([lst[0]] + [-x for x in lst[1:]])
    vecs = linalg.nullspace(rows)
    if 1 + len(conf.order) - len(vecs) < len(rows):
        raise AnalysisFailure(S_DEPENDENT, "the family S is linearly dependent")
    if len(vecs) != 1:
        raise AnalysisFailure(R_NOT_RANK_ONE, f"solution space has dim {len(vecs)}")
    raw = [x.tower.as_rational(x.v) for x in vecs[0]]
    if None in raw:
        raise AnalysisFailure(R_NON_INTEGRAL, "non-rational R")
    denom = lcm(*[q.denominator for q in raw])
    ints = [int(q * denom) for q in raw]
    if ints[0] < 0:
        ints = [-n for n in ints]
    if any(n <= 0 for n in ints):
        raise AnalysisFailure(R_NON_INTEGRAL, "R has nonpositive components")
    g = gcd(*ints)
    ints = [n // g for n in ints]
    R = PairingVector.make(conf, ints[0], dict(zip(conf.order, ints[1:])))
    n = R.v0
    inf_sum = sum(R.components[p] for p in conf.order if p in family.infinity)
    if n != inf_sum:
        raise AnalysisFailure(
            DEGREE_CHECKS_FAILED, f"n={n} but sum over infinity points is {inf_sum}"
        )
    if n * n != sum(x * x for x in R.components.values()):
        raise AnalysisFailure(DEGREE_CHECKS_FAILED, "Noether degree identity fails")
    return R


def R_outcome(compute, family):
    try:
        return [str(x) for x in compute(family).as_list()]
    except AnalysisFailure as exc:
        return exc.reason, str(exc)


def assert_same_R(family):
    ours = R_outcome(compute_R, family)
    assert ours == R_outcome(reference_compute_R, family)
    return ours


def field_family(V, affine=True):
    """The S family of a field's reduction, or None when it has the wrong
    shape."""
    try:
        return assemble_S(reduce(projectivize(V), affine=affine))
    except StructureMismatch:
        return None


@settings(max_examples=25, deadline=None)
@given(planted_hamiltonians(), st.booleans())
def test_R_of_planted_fields(H, affine):
    family = field_family(AffineVectorField(-H.diff("y"), H.diff("x")), affine)
    assume(family is not None)
    assert isinstance(assert_same_R(family), list)


# the full reductions of perturbations 0 and 4 take seconds each, and those
# of 2 and 5 exceed the tower cap
@pytest.mark.parametrize(
    "seed, affine",
    [(s, False) for s in range(12)] + [(s, True) for s in (1, 3, 6, 7, 8, 9, 10, 11)],
)
def test_R_of_non_wai_perturbations(seed, affine):
    assert_same_R(field_family(perturbation(seed), affine))


def test_R_failures_of_perturbation_ten():
    # no dicritical point at infinity, and a negative R with the affine one
    ours = assert_same_R(field_family(perturbation(10), affine=False))
    assert ours == (R_NOT_RANK_ONE, f"{R_NOT_RANK_ONE}: solution space has dim 0")
    ours = assert_same_R(field_family(perturbation(10)))
    assert ours == (R_NON_INTEGRAL, f"{R_NON_INTEGRAL}: R has nonpositive components")


def test_R_of_the_degree_ten_anchor():
    a = parse_poly(
        "10*x^7 - 9*x^6 + 6*x^5*y + 9*x^4*y - 6*x^3*y + 6*x^2*y^2 + 2*x*y^2"
    )
    b = parse_poly("2*x^6 - x^4 + 6*x^3*y - x^2*y + 4*y^2")
    family = field_family(AffineVectorField(b, -a))
    assert len(family.maximal) == 3
    assert assert_same_R(family)[:2] == ["10", "6"]


@st.composite
def configurations(draw):
    """Parent-closed trees in pid order: each point is a root or lies over
    an earlier point, proximate to its parent and perhaps (a satellite) to
    one of the points its parent is proximate to."""
    points = []
    for pid in range(draw(st.integers(1, 8))):
        parent = None if pid == 0 else draw(st.none() | st.integers(0, pid - 1))
        if parent is None:
            points.append(InfNearPoint(pid, None, None, (pid, 1, 0), 0, frozenset()))
            continue
        above = points[parent]
        prox = {parent}
        if above.proximate_to and draw(st.booleans()):
            prox.add(draw(st.sampled_from(sorted(above.proximate_to))))
        points.append(
            InfNearPoint(pid, parent, "V1", None, above.level + 1, frozenset(prox))
        )
    conf = Configuration(points)
    assume(1 <= len(conf.maximal_points()) <= 3)
    return conf


@st.composite
def synthetic_families(draw):
    """S of a configuration with a random line at infinity: as assembled
    when the configuration has the free/maximal shape, otherwise (or on
    request) with small random c-vectors, which reach S-dependent."""
    conf = draw(configurations())
    infinity = frozenset(draw(st.sets(st.sampled_from(conf.order))))
    if draw(st.booleans()):
        try:
            return assemble_S_from(conf, infinity)
        except StructureMismatch:
            pass
    maximal = conf.maximal_points()
    entries = st.integers(0, 2)
    c_vectors = [
        PairingVector.make(
            conf, draw(entries), {pid: draw(entries) for pid in conf.order}
        )
        for _ in maximal
    ]
    return SFamily(
        configuration=conf,
        maximal=maximal,
        free_maximal=maximal,
        c_vectors=c_vectors,
        e_vectors={
            pid: e_vector(conf, pid) for pid in conf.order if pid not in maximal
        },
        h_systems=[],
        d_values=[],
        infinity=infinity,
    )


def two_roots_with_equal_c_vectors():
    # test_integrability's S-dependent case: S has rank 1, not 2
    conf = Configuration(
        [
            InfNearPoint(0, None, None, (1, 0, 0), 0, frozenset()),
            InfNearPoint(1, None, None, (0, 1, 0), 0, frozenset()),
        ]
    )
    c = PairingVector.make(conf, 1, {0: 1})
    return SFamily(
        configuration=conf,
        maximal=[0, 1],
        free_maximal=[0, 1],
        c_vectors=[c, c],
        e_vectors={},
        h_systems=[{0: 1, 1: 0}] * 2,
        d_values=[1, 1],
        infinity=frozenset({0, 1}),
    )


@settings(max_examples=150, deadline=None)
@given(synthetic_families())
@example(two_roots_with_equal_c_vectors())
def test_R_of_synthetic_configurations(family):
    assert_same_R(family)


def test_two_roots_with_equal_c_vectors_are_dependent():
    ours = assert_same_R(two_roots_with_equal_c_vectors())
    assert ours == (S_DEPENDENT, f"{S_DEPENDENT}: the family S is linearly dependent")


def test_empty_configuration_has_no_R():
    family = assemble_S_from(Configuration([]), frozenset())
    ours = assert_same_R(family)
    assert ours == (R_NOT_RANK_ONE, f"{R_NOT_RANK_ONE}: solution space has dim 0")


# -- reduced forms -----------------------------------------------------------


def reference_reduced(omega):
    """The form divided by gcd(gcd(A, B), C)."""
    g = poly_gcd(poly_gcd(omega.A, omega.B), omega.C)
    if g.is_constant() or g.is_zero():
        return omega
    return ProjectiveOneForm(
        omega.A.divide_exact(g), omega.B.divide_exact(g), omega.C.divide_exact(g)
    )


def assert_same_reduced(omega):
    ours, theirs = omega.reduced(), reference_reduced(omega)
    for a, b in zip((ours.A, ours.B, ours.C), (theirs.A, theirs.B, theirs.C)):
        assert a == b and a.to_string() == b.to_string()


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 2),
    st.integers(-3, 3).filter(bool),
    max_size=4,
)
affine_factors = st.sampled_from(["1", "x", "y", "x - 1", "x + y + 2", "y^2 + 1"])
form_factors = st.sampled_from(["1", "X", "Y + Z", "X^2 + Y^2", "X - 2*Z"])


def times(omega, F):
    return ProjectiveOneForm(F * omega.A, F * omega.B, F * omega.C)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, affine_factors, form_factors, st.integers(0, 2))
def test_reduced_with_planted_factors(p_terms, q_terms, h, F, k):
    # a common factor h of p and q, and a factor F * Z^k of all of A, B, C
    xy = ("x", "y")
    p = parse_poly(h) * MultiPoly.from_coeff_dict(xy, p_terms)
    q = parse_poly(h) * MultiPoly.from_coeff_dict(xy, q_terms)
    assume(not (p.is_zero() and q.is_zero()))
    omega = projectivize(AffineVectorField(p, q))
    assert_same_reduced(times(omega, parse_poly(F) * parse_poly("Z") ** k))


@pytest.mark.parametrize("h", ["1", "x", "x^2 + y^2 + 1"])
@pytest.mark.parametrize("F", ["1", "Z", "X*Z^2"])
def test_reduced_radial_field(h, F):
    # C = 0: the radial field x, y times h, and its form times F
    hp = parse_poly(h)
    omega = projectivize(AffineVectorField(hp * parse_poly("x"), hp * parse_poly("y")))
    assert omega.C.is_zero()
    assert_same_reduced(times(omega, parse_poly(F)))


binary_cubics = st.sampled_from(
    ["X^3", "Y^2*Z", "X^3 + Y^3 + Z^3", "X*Y*Z", "X^2*Z - Y^3", "(X + Y)^3", "Z^3",
     "X^3 - 2*X*Z^2"]
)


@settings(max_examples=30, deadline=None)
@given(binary_cubics, binary_cubics, form_factors)
def test_reduced_pencil_forms(F1, F2, F):
    F1, F2 = parse_poly(F1), parse_poly(F2)
    assume(poly_gcd(F1, F2).is_constant())
    A = F2 * F1.diff("X") - F1 * F2.diff("X")
    B = F2 * F1.diff("Y") - F1 * F2.diff("Y")
    C = F2 * F1.diff("Z") - F1 * F2.diff("Z")
    omega = ProjectiveOneForm(A, B, C)
    assert_same_reduced(omega)
    assert_same_reduced(times(omega, parse_poly(F)))
    assert pencil_vector_field(F1, F2) == reference_reduced(omega)


def test_reduced_rejects_a_form_off_the_euler_relation():
    # A and B share X + Y, which does not divide C
    omega = ProjectiveOneForm(
        parse_poly("X^2 + X*Y"), parse_poly("X*Y + Y^2"), parse_poly("Z")
    )
    with pytest.raises(InputError, match=r"XA\+YB\+ZC != 0"):
        omega.reduced()


# -- linalg against sympy -----------------------------------------------------


def fe(q):
    return FieldElement.rational(Fraction(q), QQ_TOWER)


def as_fractions(vec):
    return [QQ_TOWER.as_rational(x.v) for x in vec]


def sympy_fractions(vec):
    return [Fraction(int(x.p), int(x.q)) for x in vec]


@st.composite
def rank_deficient(draw, rational):
    """An n x m product of n x k and k x m matrices, k < min(n, m), with
    zero rows mixed in."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    k = draw(st.integers(0, min(n, m) - 1))
    entry = (
        st.fractions(min_value=-3, max_value=3, max_denominator=4)
        if rational
        else st.integers(-4, 4).map(Fraction)
    )
    left = [[draw(entry) for _ in range(k)] for _ in range(n)]
    right = [[draw(entry) for _ in range(m)] for _ in range(k)]
    rows = [
        [sum((a * right[t][j] for t, a in enumerate(row)), Fraction(0)) for j in range(m)]
        for row in left
    ]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * m)
    return rows


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                         for r in rows])


@settings(max_examples=80, deadline=None)
@given(st.booleans().flatmap(rank_deficient))
def test_nullspace_matches_sympy(rows):
    ours = linalg.nullspace([[fe(x) for x in r] for r in rows])
    ours = [as_fractions(v) for v in ours]
    theirs = [sympy_fractions(v) for v in to_sympy(rows).nullspace()]
    assert ours == theirs


@settings(max_examples=80, deadline=None)
@given(
    st.booleans().flatmap(rank_deficient),
    st.lists(st.integers(-3, 3), min_size=8, max_size=8),
    st.booleans(),
)
def test_solve_matches_sympy_rref(rows, seed_vec, consistent):
    m = len(rows[0])
    if consistent:
        x0 = [Fraction(v) for v in seed_vec[:m]]
        rhs = [sum((a * b for a, b in zip(r, x0)), Fraction(0)) for r in rows]
    else:
        rhs = [Fraction(v) for v in seed_vec[: len(rows)]]
        rhs += [Fraction(1)] * (len(rows) - len(rhs))
    ours = linalg.solve([[fe(x) for x in r] for r in rows], [fe(b) for b in rhs])
    aug, pivots = to_sympy([r + [b] for r, b in zip(rows, rhs)]).rref()
    if m in pivots:
        assert ours is None
        return
    expect = [Fraction(0)] * m
    for i, c in enumerate(pivots):
        expect[c] = sympy_fractions([aug[i, m]])[0]
    assert as_fractions(ours) == expect


# -- factors and roots over towers ---------------------------------------------


def reference_factor_squarefree(f, var, tower):
    """Irreducible monic factors of a squarefree monic univariate f, through
    Trager's norm down the whole tower, whatever field holds the
    coefficients of f."""
    if f.degree_in(var) <= 1:
        return [f]
    if tower.depth == 0:
        _, factors = _qq_factor(f, var)
        return [p.monic() for p, _ in factors]
    sub = Tower(tower.levels[:-1], tower.max_degree)
    mp = tower.levels[-1][1]
    m_poly = MultiPoly.from_coeff_dict(
        ("@z",), {(i,): FieldElement(sub, c) for i, c in enumerate(mp)}, sub
    )
    terms = {}
    for (e,), c in f.drop_unused_vars().terms.items():
        for j, comp in enumerate(c):
            if not sub.is_zero(comp):
                key = (e, j) if var < "@z" else (j, e)
                terms[key] = sub.add(terms.get(key, sub.zero()), comp)
    two = MultiPoly(tuple(sorted((var, "@z"))), terms, sub)
    t_poly = MultiPoly.variable(var, sub)
    z_poly = MultiPoly.variable("@z", sub)
    s = 0
    while True:
        shifted = two.substitute({var: t_poly - s * z_poly})
        norm = resultant(m_poly, shifted, "@z")
        norm = norm.with_vars((var,)).drop_unused_vars().with_vars((var,))
        if norm.degree_in(var) == f.degree_in(var) * (len(mp) - 1):
            if poly_gcd(norm, norm.diff(var)).is_constant():
                break
        s += 1
        assert s <= 40, "no squarefree norm shift"
    theta = FieldElement.generator(tower)
    out = []
    for nf in reference_factor_squarefree(norm.monic(), var, sub):
        g = poly_gcd(f, nf.shift(var, s * theta))
        if not g.is_constant():
            out.append(g.monic())
    return out


def reference_roots_in_extension(f, tower):
    """All roots of f, factoring the whole squarefree part of f again over
    the tower after every adjoin."""
    eff = f.effective_vars()
    if not eff:
        return [], tower
    (var,) = eff
    g = squarefree_part(f.drop_unused_vars().lift_to(tower), var)
    while True:
        roots, nonlinear = [], []
        for p in reference_factor_squarefree(g, var, tower):
            if p.degree_in(var) == 1:
                roots.append(-p.coefficient((0,)))
            else:
                nonlinear.append(p)
        if not nonlinear:
            return sorted(roots, key=lambda r: r.sort_key()), tower
        pick = min(nonlinear, key=lambda p: (p.total_degree(), p.to_string()))
        coeffs = tuple(pick.coefficient((i,)).v for i in range(pick.degree_in(var) + 1))
        tower = tower.adjoin(tower.fresh_name(), coeffs)
        g = g.lift_to(tower)


def factor_set(factors):
    return sorted((p.tower.levels, tuple(sorted(p.terms.items()))) for p in factors)


def element(draw, tower, depth):
    """A small element of the prefix of tower of the given depth: an integer
    plus small multiples of its generators."""
    out = FieldElement.rational(draw(st.integers(-2, 2)), tower.prefix(depth))
    for j in range(1, depth + 1):
        gen = FieldElement.generator(tower.prefix(j))
        out = out + draw(st.integers(-2, 2)) * gen
    return out


@st.composite
def towers(draw, max_degree=8):
    """A tower of depth 1 to 3, each level a root of t^2 - c or t^3 - c for
    a small element c of the tower so far (an irreducible factor of it when
    it splits), of degree at most max_degree."""
    tower = Tower()
    t = MultiPoly.variable("t")
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.sampled_from((2, 3)))
        if tower.degree() * k > max_degree:
            break
        c = element(draw, tower, draw(st.integers(0, tower.depth)))
        assume(not c.is_zero())
        _, grown = roots_in_extension(t.lift_to(tower) ** k - c, tower)
        assume(grown.depth == tower.depth + 1)
        tower = grown
    return tower


@st.composite
def tower_polys(draw, max_degree=8, cap=16):
    """(f, tower): a product of one to three monic factors of degree 1 to 3
    over a random tower of degree at most max_degree and the tower cap cap,
    each factor with its coefficients in a prefix of the tower, often a
    proper one."""
    tower = Tower(draw(towers(max_degree)).levels, cap)
    x = MultiPoly.variable("x", tower)
    f = MultiPoly.constant(1, ("x",), tower)
    for _ in range(draw(st.integers(1, 3))):
        depth = draw(st.integers(0, tower.depth))
        factor = x ** draw(st.integers(1, 3))
        for k in range(factor.degree_in("x")):
            factor = factor + element(draw, tower, depth) * x**k
        f = f * factor
    return f, tower


@settings(max_examples=40, deadline=None)
@given(tower_polys())
@example((parse_poly("x^3 - 2"), Tower().adjoin("a", (-2, 0, 1))))
def test_factor_squarefree_matches_full_tower_norm(f_tower):
    f, tower = f_tower
    f = squarefree_part(f.lift_to(tower), "x")
    ours = _factor_squarefree(f, "x", tower)
    assert factor_set(ours) == factor_set(reference_factor_squarefree(f, "x", tower))
    assert all(p.tower == tower for p in ours)


def roots_outcome(find, f, tower):
    try:
        roots, grown = find(f, tower)
    except ExtensionDegreeExceeded as exc:
        return str(exc)
    return grown.names(), grown.levels, [(r.tower.levels, r.v) for r in roots]


# the reference factors everything again up to the cap: a small cap keeps
# it quick, and both must then stop with the same message
@settings(max_examples=40, deadline=None)
@given(tower_polys(max_degree=4, cap=8))
@example((parse_poly("(x^2 - 2)*(x^2 - 3)*(x - 1)"), Tower()))
@example((parse_poly("(x^2 - 2)*(x^3 - 2)"), Tower()))
@example((parse_poly("(x^2 - 2)*(x^3 - 2)"), Tower((), 4)))
def test_roots_in_extension_matches_refactoring_everything(f_tower):
    f, tower = f_tower
    ours = roots_outcome(roots_in_extension, f, tower)
    assert ours == roots_outcome(reference_roots_in_extension, f, tower)
    event("over the cap" if isinstance(ours, str) else f"{len(ours[0])} levels")


def test_degree_rule_keeps_a_rational_cubic_whole_over_sqrt2(monkeypatch):
    tower = Tower().adjoin("a", (-2, 0, 1))
    norms = []
    real = factor._factor_norm

    def spy(f, var, K):
        norms.append(K.depth)
        return real(f, var, K)

    monkeypatch.setattr(factor, "_factor_norm", spy)
    cubic = parse_poly("x^3 - 2").lift_to(tower)
    (p,) = _factor_squarefree(cubic, "x", tower)
    assert p == cubic and p.tower == tower
    # factored once over Q, and no norm over Q(a): gcd(3, 2) = 1
    assert norms == [0]


def test_a_rational_quadratic_lifted_to_sqrt2_splits():
    tower = Tower().adjoin("a", (-2, 0, 1))
    factors = factor._lift_factors([parse_poly("x^2 - 2")], "x", tower, 0)
    assert sorted(p.to_string() for p in factors) == ["x + (-a)", "x + (a)"]
