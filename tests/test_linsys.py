from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from waifi.blowup import strict_transform
from waifi.field import FieldElement, QQ_TOWER
from waifi.infnear import (
    Cluster,
    Configuration,
    InfNearPoint,
    export_proximity_graph,
)
from waifi.linalg import nullspace
from waifi.linsys import (
    CommonComponent,
    EmptySystem,
    degree_monomials,
    linear_system,
    pencil_base_points,
    pencil_vector_field,
)
from waifi.poly import MultiPoly, parse_poly
from waifi.reduction import reduce
from waifi.vfield import AffineVectorField, dehomogenize, localize, projectivize


def pt(pid, parent, branch, coordinate, prox):
    level = 0 if parent is None else None
    return InfNearPoint(pid, parent, branch, coordinate, level, frozenset(prox))


def test_degree_monomials_order():
    assert degree_monomials(1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(degree_monomials(3)) == 10


def test_cubic_system_through_four_point_cluster():
    # K = {Q, P, P1, P2} with multiplicities (2, 2, 1, 1): Q and P plane
    # points, P1 in the first neighborhood of P at divisor coordinate 3,
    # P2 the V2 origin over P1
    conf = Configuration(
        [
            pt(0, None, None, (1, 0, 1), ()),
            pt(1, None, None, (0, 0, 1), ()),
            pt(2, 1, "V1", Fraction(3), (1,)),
            pt(3, 2, "V2", None, (2,)),
        ]
    )
    K = Cluster(conf, {0: 2, 1: 2, 2: 1, 3: 1})
    sys = linear_system(3, K)
    assert len(sys) == 2
    allowed = {(1, 2, 0), (0, 3, 0)}  # X*Y^2 and Y^3
    for b in sys:
        assert set(b.terms) <= allowed
    # both monomials are hit across the basis
    assert {e for b in sys for e in b.terms} == allowed


def test_empty_system():
    conf = Configuration([pt(0, None, None, (0, 0, 1), ())])
    K = Cluster(conf, {0: 2})
    with pytest.raises(EmptySystem):
        linear_system(1, K)


def test_unconstrained_system_is_full():
    conf = Configuration([pt(0, None, None, (0, 0, 1), ())])
    K = Cluster(conf, {0: 0})
    sys = linear_system(1, K)
    assert len(sys) == 3


def test_pencil_validation():
    X = parse_poly("X")
    Y = parse_poly("Y")
    Z = parse_poly("Z")
    with pytest.raises(CommonComponent):
        pencil_base_points(X * Y, X * Z)
    with pytest.raises(ValueError, match="positive degree"):
        pencil_base_points(parse_poly("1"), parse_poly("2"))
    with pytest.raises(ValueError):
        pencil_base_points(X, Y * Z)


def test_pencil_xy_z2():
    bp = pencil_base_points(parse_poly("X*Y"), parse_poly("Z^2"))
    conf = bp.configuration
    # two plane base points at infinity, each with a single dicritical point
    # in its first neighborhood
    assert conf.order == (0, 1, 2, 3)
    assert [conf.point(i).parent for i in conf.order] == [None, 0, None, 2]
    assert bp.multiplicities == {0: 1, 1: 1, 2: 1, 3: 1}
    assert bp.dicritical == frozenset({1, 3})
    located = [p.pid for p in conf if isinstance(p.coordinate, tuple)]
    assert located == [0, 2]


def assert_roots_are_common_zeros(conf, polys, count):
    """Every root carries its plane triple, a common zero of polys; one of
    them is an irrational point at infinity; the JSON keeps null for it."""
    triples = [conf.point(rid).coordinate for rid in conf.roots()]
    assert len(triples) == count
    for t in triples:
        assert isinstance(t, tuple)
        assert all(F.evaluate(dict(zip("XYZ", t))).is_zero() for F in polys)
    assert any(
        t[2] == 0 and any(c.tower.as_rational(c.v) is None for c in t) for t in triples
    )
    doc = export_proximity_graph(conf)
    assert all(p["coordinate"] is None for p in doc["points"] if p["parent"] is None)


def test_reduce_roots_carry_their_plane_triple():
    # the rotation: the points (+-i:1:0) at infinity; its simple centre
    # (0:0:1) is not in the configuration
    res = reduce(projectivize(AffineVectorField(parse_poly("-y"), parse_poly("x"))))
    omega = res.one_form
    assert_roots_are_common_zeros(
        res.singular_configuration, (omega.A, omega.B, omega.C), 2
    )


def test_pencil_roots_carry_their_plane_triple():
    # the base points (+-sqrt(2):1:0) at infinity, (-1:0:1) and (0:0:1)
    F1, F2 = parse_poly("X^2 - 2*Y^2 + X*Z"), parse_poly("Y*Z")
    assert_roots_are_common_zeros(pencil_base_points(F1, F2).configuration, (F1, F2), 4)


def test_linear_system_needs_root_triples():
    conf = Configuration([pt(0, None, None, None, ())])
    with pytest.raises(ValueError, match="no plane location for root point 0"):
        linear_system(1, Cluster(conf, {0: 1}))


def test_pencil_first_member_not_generic():
    # t = 1 gives the member Y*Z + X^2 - Y*Z = X^2, of multiplicity 2 at
    # (0:0:1) where the generic member has multiplicity 1; t = 2 is generic
    F1, F2 = parse_poly("Y*Z"), parse_poly("X^2 - Y*Z")
    bp = pencil_base_points(F1, F2)
    conf = bp.configuration
    assert len(conf) == 4
    assert set(bp.multiplicities.values()) == {1}
    assert bp.dicritical == frozenset({1, 3})
    (origin,) = [
        rid for rid in conf.roots()
        if conf.point(rid).coordinate[:2] == (0, 0)
    ]
    for t, generic in ((1, False), (2, True)):
        (loc,) = localize([F1 + t * F2], conf.point(origin).coordinate)
        assert (loc.order() == bp.multiplicities[origin]) == generic


def noether_sum(bp):
    return sum(m * m for m in bp.multiplicities.values())


def test_pencil_quintic_cluster():
    F1 = parse_poly("X^2*Z^3 + Y^5")
    F2 = parse_poly("Z^5")
    bp = pencil_base_points(F1, F2)
    conf = bp.configuration
    assert len(conf) == 14
    mults = [bp.multiplicities[pid] for pid in conf.order]
    assert mults == [3, 2] + [1] * 12
    assert bp.dicritical == frozenset({13})
    # Noether: the base cluster absorbs the whole intersection of two members
    assert noether_sum(bp) == 25
    # proximity inequality at every point
    for p in conf:
        prox_sum = sum(
            bp.multiplicities[q.pid] for q in conf if p.pid in q.proximate_to
        )
        assert bp.multiplicities[p.pid] >= prox_sum


def test_pencil_cluster_matches_reduction():
    # the base-point cluster of the pencil is the dicritical configuration of
    # the associated vector field
    F1 = parse_poly("X^2*Z^3 + Y^5")
    F2 = parse_poly("Z^5")
    bp = pencil_base_points(F1, F2)
    res = reduce(pencil_vector_field(F1, F2))
    assert bp.configuration == res.dicritical_configuration


def test_pencil_vector_field_form():
    F1 = parse_poly("X^2*Z^3 + Y^5")
    F2 = parse_poly("Z^5")
    om = pencil_vector_field(F1, F2)
    assert om.A == parse_poly("2*X*Z^4")
    assert om.B == parse_poly("5*Y^4*Z")
    assert om.C == parse_poly("-2*X^2*Z^3 - 5*Y^5")
    om.check()
    # it agrees with the projectivization of (p, q) = (5y^4, -2x)
    V = AffineVectorField(parse_poly("5*y^4"), parse_poly("-2*x"))
    other = projectivize(V).reduced()
    assert om.A * other.B == om.B * other.A
    assert om.A * other.C == om.C * other.A


def test_linear_system_recovers_pencil():
    F1 = parse_poly("X^2*Z^3 + Y^5")
    F2 = parse_poly("Z^5")
    bp = pencil_base_points(F1, F2)
    sys = linear_system(5, bp)
    assert len(sys) == 2
    vars3 = ("X", "Y", "Z")
    allowed = set(F1.with_vars(vars3).terms) | set(F2.with_vars(vars3).terms)
    for b in sys:
        assert set(b.terms) <= allowed


def test_pencil_noether_brute_force_oracle():
    # random-ish pencils of conics and cubics: the sum of squared base
    # multiplicities always equals the squared degree
    cases = [
        ("X^2 + Y*Z", "X*Z"),
        ("X^2 - Y^2", "Z^2"),
        ("X^2 + Y^2", "Z^2"),
        ("Y^2*Z - X^3", "Z^3"),
        ("X^2*Z + Y^3", "Y*Z^2"),
        ("X*Y^3 + Z^4", "Z^4"),
    ]
    for s1, s2 in cases:
        F1, F2 = parse_poly(s1), parse_poly(s2)
        bp = pencil_base_points(F1, F2)
        assert noether_sum(bp) == F1.total_degree() ** 2


# -- linear_system against a generic curve with symbolic coefficients -------


def reference_generic_curve(m, tower):
    mons = degree_monomials(m)
    names = [f"@c{j}" for j in range(len(mons))]
    F = MultiPoly.zero(tuple(sorted(names + ["X", "Y", "Z"])), tower)
    for name, (a, b, c) in zip(names, mons):
        F = F + (
            MultiPoly.variable(name, tower)
            * MultiPoly.variable("X", tower) ** a
            * MultiPoly.variable("Y", tower) ** b
            * MultiPoly.variable("Z", tower) ** c
        )
    return F, names, mons


def reference_localize(F, triple, tower):
    x0, y0, z0 = (tower.element(c) for c in triple)
    F = F.lift_to(tower)
    if not z0.is_zero():
        local = dehomogenize(F, "Z", ("u", "v"))
        return local.shift("u", x0 / z0).shift("v", y0 / z0)
    if not y0.is_zero():
        return dehomogenize(F, "Y", ("u", "v")).shift("u", x0 / y0)
    return dehomogenize(F, "X", ("u", "v"))


def reference_split_jet(eq, mu, cindex):
    """Constraint rows from all terms of (u,v)-degree below mu, and the
    polynomial with those terms removed."""
    iu = eq.vars.index("u") if "u" in eq.vars else None
    iv = eq.vars.index("v") if "v" in eq.vars else None
    tower = eq.tower
    U = len(cindex)
    groups = {}
    keep = {}
    for exps, c in eq.terms.items():
        d = (exps[iu] if iu is not None else 0) + (
            exps[iv] if iv is not None else 0
        )
        if d >= mu:
            keep[exps] = c
            continue
        j = None
        for var, e in zip(eq.vars, exps):
            if var in cindex and e:
                j = cindex[var]
        if j is None:
            raise EmptySystem("constant obstruction in a virtual transform")
        key = tuple(
            e if var in ("u", "v") else 0 for var, e in zip(eq.vars, exps)
        )
        row = groups.setdefault(key, [tower.zero()] * U)
        row[j] = tower.add(row[j], c)
    rows = [
        [FieldElement(tower, c) for c in row] for row in groups.values()
    ]
    return rows, MultiPoly(eq.vars, keep, tower)


def reference_linear_system(m, K):
    """The basis of L_m(K) from one generic curve in the unknowns @c<j>
    carried through the virtual transforms of the cluster."""
    if m < 1:
        raise ValueError("degree must be at least 1")
    conf = K.configuration
    tower = QQ_TOWER
    values = [conf.point(pid).coordinate for pid in conf.order]
    for value in values:
        for c in value if isinstance(value, tuple) else (value,):
            if isinstance(c, FieldElement):
                tower = tower.join(c.tower)

    F, names, mons = reference_generic_curve(m, tower)
    cindex = {name: j for j, name in enumerate(names)}
    constraints = []

    def walk(pid, eq):
        mu = K.multiplicities[pid]
        rows, pruned = reference_split_jet(eq, mu, cindex)
        constraints.extend(rows)
        for cid in conf.children(pid):
            child = conf.point(cid)
            lam = 0 if child.coordinate is None else child.coordinate
            child_eq = strict_transform(pruned, lam, child.branch, mu)
            assert child_eq is not None, "not divisible after pruning"
            walk(cid, child_eq)

    for rid in conf.roots():
        walk(rid, reference_localize(F, conf.point(rid).coordinate, tower))

    U = len(names)
    if not constraints:
        vectors = []
        for j in range(U):
            vec = [FieldElement.rational(0, tower)] * U
            vec[j] = FieldElement.rational(1, tower)
            vectors.append(vec)
    else:
        vectors = nullspace(constraints)
    if not vectors:
        raise EmptySystem(f"no curve of degree {m} passes through the cluster")
    basis = []
    for vec in vectors:
        terms = {}
        vt = vec[0].tower
        for coeff, exps in zip(vec, mons):
            if not coeff.is_zero():
                terms[exps] = coeff.lift_to(vt).v
        basis.append(MultiPoly(("X", "Y", "Z"), terms, vt))
    return basis


def basis_or_empty(system):
    try:
        return system()
    except EmptySystem:
        return EmptySystem


def assert_same_system(m, K):
    """linear_system and the reference give the same basis element by
    element, or both raise EmptySystem."""
    ours = basis_or_empty(lambda: linear_system(m, K))
    ref = basis_or_empty(lambda: reference_linear_system(m, K))
    if ours is EmptySystem or ref is EmptySystem:
        assert ours is ref
        return
    assert len(ours) == len(ref)
    for mine, theirs in zip(ours, ref):
        assert mine.vars == theirs.vars
        assert mine.tower == theirs.tower
        assert mine.terms == theirs.terms


def four_point_cluster():
    conf = Configuration(
        [
            pt(0, None, None, (1, 0, 1), ()),
            pt(1, None, None, (0, 0, 1), ()),
            pt(2, 1, "V1", Fraction(3), (1,)),
            pt(3, 2, "V2", None, (2,)),
        ]
    )
    return Cluster(conf, {0: 2, 1: 2, 2: 1, 3: 1})


def one_point_cluster(mu):
    return Cluster(Configuration([pt(0, None, None, (0, 0, 1), ())]), {0: mu})


@pytest.mark.parametrize(
    "K, m",
    [(four_point_cluster(), m) for m in (1, 2, 3, 4)]
    + [(one_point_cluster(mu), m) for mu in (0, 1, 2) for m in (1, 2)],
)
def test_linear_system_matches_reference_hand_made(K, m):
    assert_same_system(m, K)


def test_linear_system_matches_reference_quintic_pencil():
    bp = pencil_base_points(parse_poly("X^2*Z^3 + Y^5"), parse_poly("Z^5"))
    for m in (4, 5, 6):
        assert_same_system(m, bp)


@st.composite
def planted_pencils(draw):
    """A corpus-style H in x, y, homogenised to degree d: products of powers
    of x, curves y + c(x) and conics x^2 - a y^2 + b x + c y, whose
    directions at infinity are irrational for a = 2, 3 and complex for
    a = -1."""
    small = st.integers(-2, 2)
    curve = st.one_of(
        st.just({(1, 0): 1}),
        st.lists(small, min_size=2, max_size=3).map(
            lambda cs: {(0, 1): 1, **{(k, 0): c for k, c in enumerate(cs) if c}}
        ),
        st.tuples(st.sampled_from([2, 3, -1]), small, small).map(
            lambda t: {(2, 0): 1, (0, 2): -t[0], (1, 0): t[1], (0, 1): t[2]}
        ),
    )
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    H = MultiPoly.constant(1, ("x", "y"))
    for f, n in draw(
        st.lists(st.tuples(curve, st.integers(1, 2)), min_size=1, max_size=2)
    ):
        g = MultiPoly.zero(("x", "y"))
        for (a, b), c in f.items():
            g = g + c * x ** a * y ** b
        H = H * g ** n
    d = H.total_degree()
    assume(d <= 4)
    terms = {}
    for e, c in H.with_vars(("x", "y")).terms.items():
        terms[(e[0], e[1], d - e[0] - e[1])] = H.tower.as_rational(c)
    return MultiPoly.from_coeff_dict(("X", "Y", "Z"), terms), d


@settings(max_examples=30, deadline=None)
@given(planted_pencils())
def test_linear_system_matches_reference_on_planted_pencils(case):
    F1, d = case
    bp = pencil_base_points(F1, MultiPoly.variable("Z") ** d)
    for m in range(max(d - 1, 1), d + 2):
        assert_same_system(m, bp)
