from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from waifi.blowup import DICRITICAL, ORDINARY, SIMPLE, V1, V2, blow_up_curve
from waifi.field import FieldElement, QQ_TOWER, Tower
from waifi.poly import MultiPoly, parse_poly
from waifi.infnear import Configuration, InfNearPoint
from waifi.reduction import (
    INFINITY_LINE,
    _child_axes,
    StructureMismatch,
    dicritical_points,
    max_free_points,
    maximal_free_pairs,
    points_at_infinity,
    reduce,
)
from waifi.vfield import AffineVectorField, projectivize


def reduce_field(p, q):
    V = AffineVectorField(parse_poly(p), parse_poly(q))
    return reduce(projectivize(V))


def test_rotation_field_structure():
    res = reduce_field("-y", "x")
    conf = res.singular_configuration
    assert conf.order == (0, 1, 2, 3)
    # two conjugate points at infinity, each with one dicritical point above
    assert res.infinity_points == frozenset({0, 2})
    assert res.dicritical_configuration.order == (0, 1, 2, 3)
    assert dicritical_points(res) == [1, 3]
    assert res.classification[0] == ORDINARY
    assert res.classification[1] == DICRITICAL
    for pid in (1, 3):
        p = conf.point(pid)
        assert p.branch == "V2" and p.coordinate is None and p.free
    assert max_free_points(res) == [1, 3]


def test_degree_five_example_structure():
    res = reduce_field("5*y^4", "-2*x")
    conf = res.singular_configuration
    assert len(conf) == 18
    assert res.infinity_points == frozenset({0, 1})
    # the chain over the first infinity point: thirteen blow-ups ending at
    # the unique dicritical point
    assert res.dicritical_configuration.order == tuple(range(14))
    assert dicritical_points(res) == [13]
    assert res.classification[13] == DICRITICAL
    # satellite points and their extra proximities
    prox = {pid: sorted(conf.point(pid).proximate_to) for pid in conf.order}
    assert prox[2] == [0, 1]
    assert prox[3] == [1, 2]
    assert prox[17] == [15, 16]
    satellites = [pid for pid in conf.order if conf.point(pid).satellite]
    assert satellites == [2, 3, 17]
    # point 4 sits at divisor coordinate -1
    assert str(conf.point(4).coordinate) == "-1"
    # the second infinity point carries a chain not meeting the dicritical one
    assert conf.point(14).parent is None
    assert all(14 in conf.ancestors(pid) for pid in (15, 16, 17))
    assert all(pid not in res.dicritical_configuration for pid in (14, 15, 16, 17))
    # the dicritical point is itself free and maximal in D
    assert max_free_points(res) == [13]


def test_infinity_line_is_tracked():
    res = reduce_field("5*y^4", "-2*x")
    for pid in sorted(res.infinity_points):
        assert INFINITY_LINE in res.tracked_curves[pid]
    # exceptional divisors are tracked through later blow-ups: the satellite
    # point 2 lies on both E0 and E1
    assert {"E0", "E1"} <= set(res.tracked_curves[2])


def reference_track_curves(tracked, label, center, branch, vars):
    """Curves through the origin of a new chart as polynomials: the divisor
    of the blow-up, under label, then the strict transforms of the tracked
    curves that still pass through it."""
    out = {label: MultiPoly.variable(vars[0] if branch == V1 else vars[1])}
    for name, eq in tracked.items():
        new_eq = blow_up_curve(eq, center, branch, vars)
        o = new_eq.order()
        if o is not None and o >= 1:
            out[name] = new_eq
    return out


QS = Tower().adjoin("s", (Fraction(-2), Fraction(0), Fraction(1)))  # s^2 = 2
nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
v1_centers = st.one_of(
    st.just(FieldElement.rational(0, QQ_TOWER)),
    nonzero.map(lambda q: FieldElement.rational(q, QQ_TOWER)),
    st.tuples(nonzero, nonzero).map(lambda v: FieldElement(QS, v)),
)
steps = st.one_of(
    st.just((V2, FieldElement.rational(0, QQ_TOWER))),
    v1_centers.map(lambda c: (V1, c)),
)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from([0, 1])), st.lists(steps, min_size=1, max_size=6))
def test_axis_rule_matches_curve_tracking(start, chain):
    # the axes of a root chart, tracked both ways through a chain of
    # blow-ups at the origins of successive charts
    vars = ("y", "z")
    axes = {f"L{axis}": axis for axis in start}
    curves = {name: MultiPoly.variable(vars[axis]) for name, axis in axes.items()}
    for k, (branch, center) in enumerate(chain):
        curves = reference_track_curves(curves, f"E{k}", center, branch, vars)
        axes = _child_axes(axes, f"E{k}", branch, center)
        assert set(axes) == set(curves)
        for name, axis in axes.items():
            assert curves[name] == MultiPoly.variable(vars[axis]).with_vars(vars)


def test_cusp_field_structure():
    # d(y^2 - x^3): one affine singular point plus the infinity chain
    res = reduce_field("2*y", "3*x^2")
    conf = res.singular_configuration
    assert len(dicritical_points(res)) == 1
    affine_roots = [
        pid
        for pid in conf.roots()
        if INFINITY_LINE not in res.tracked_curves.get(pid, {})
    ]
    assert len(affine_roots) == 1


def test_determinism():
    a = reduce_field("5*y^4", "-2*x").report_json()
    b = reduce_field("5*y^4", "-2*x").report_json()
    assert a == b


def test_points_at_infinity_reused_and_walked_alone():
    # the degree-10 field: one point (0:1:0) at infinity, and affine
    # singular points, one of them blown up
    V = AffineVectorField(
        parse_poly("2*x^6 - x^4 + 6*x^3*y - x^2*y + 4*y^2"),
        parse_poly("-10*x^7 + 9*x^6 - 6*x^5*y - 9*x^4*y + 6*x^3*y - 6*x^2*y^2 - 2*x*y^2"),
    )
    omega = projectivize(V)
    full = reduce(omega)
    start = points_at_infinity(omega)
    assert start.at_infinity == [0]
    again = reduce(omega, start=start)
    assert again.report_json() == full.report_json()
    assert again.tower.levels == full.tower.levels
    alone = reduce(omega, start=start, affine=False)
    # the subtrees of the points at infinity come first, with the same ids
    assert alone.singular_configuration.roots() == [0]
    assert len(alone.singular_configuration) < len(full.singular_configuration)
    for pid in alone.singular_configuration.order:
        assert alone.classification[pid] == full.classification[pid]
    assert alone.dicritical_configuration.order == full.dicritical_configuration.order
    assert alone.infinity_points == full.infinity_points


def test_report_json_shape():
    res = reduce_field("-y", "x")
    doc = res.report_json()
    assert doc["infinity_points"] == [0, 2]
    assert doc["dicritical"] == [0, 1, 2, 3]
    ids = [p["id"] for p in doc["singular_points"]]
    assert ids == [0, 1, 2, 3]
    assert {p["id"] for p in doc["proximity_graph"]["points"] if p["dicritical"]} == {
        1,
        3,
    }


def test_max_free_points_mismatch_raises():
    # two maximal dicritical points but a single maximal free point: the
    # free/dicritical correspondence breaks down
    from types import SimpleNamespace

    def pt(pid, parent, prox):
        return InfNearPoint(
            pid,
            parent,
            None if parent is None else "V1",
            None,
            0 if parent is None else None,
            frozenset(prox),
        )

    dconf = Configuration(
        [pt(0, None, ()), pt(1, 0, (0,)), pt(2, 1, (0, 1)), pt(3, 1, (1,))]
    )
    res = SimpleNamespace(dicritical_configuration=dconf)
    with pytest.raises(StructureMismatch):
        max_free_points(res)


def reference_maximal_free_pairs(conf):
    """The rule maximal_free_pairs replaced: list the maximal free points,
    check that there are as many as maximal points, and take under each
    maximal point its last free point, which must be one of them and not
    shared."""
    R = conf.maximal_points()
    free = set(conf.free_points())
    maximal_free = [
        pid
        for pid in conf.order
        if pid in free
        and not any(q != pid and pid in conf.ancestors(q) for q in free)
    ]
    if len(maximal_free) != len(R):
        raise StructureMismatch("count")
    M = []
    for rid in R:
        best = None
        for pid in conf.ancestors(rid):
            if pid in free:
                best = pid
        if best is None or best not in maximal_free:
            raise StructureMismatch("not maximal")
        M.append(best)
    if len(set(M)) != len(M):
        raise StructureMismatch("shared")
    return R, M


@st.composite
def configurations(draw):
    """Forests of up to 10 points: each point above the plane is proximate
    to its parent and, when drawn satellite, to one ancestor below it."""
    points, chains = [], []
    for pid in range(draw(st.integers(1, 10))):
        parent = None if pid == 0 else draw(st.sampled_from([None, *range(pid)]))
        chain = [] if parent is None else chains[parent] + [parent]
        prox = set() if parent is None else {parent}
        if len(chain) > 1 and draw(st.booleans()):
            prox.add(draw(st.sampled_from(chain[:-1])))
        branch = None if parent is None else "V1"
        points.append(
            InfNearPoint(pid, parent, branch, None, len(chain), frozenset(prox))
        )
        chains.append(chain)
    return Configuration(points)


def outcome(rule, conf):
    try:
        return rule(conf)
    except StructureMismatch:
        return StructureMismatch


@settings(max_examples=400, deadline=None)
@given(configurations())
def test_maximal_free_pairs_matches_the_counting_rule(conf):
    assert outcome(maximal_free_pairs, conf) == outcome(
        reference_maximal_free_pairs, conf
    )
