"""Reduction of singularities of a projective 1-form.

The driver finds the singular points of the form in the plane, blows up every
ordinary (including dicritical) singularity, and keeps going on the divisor
singularities until only simple points remain.  Along the way it records the
singular configuration S, the dicritical configuration D, proximity data, and
which points the strict transform of the line at infinity passes through.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blowup import (
    DICRITICAL,
    LocalOneForm,
    NONSINGULAR,
    SIMPLE,
    V1,
    V2,
    blow_up_form,
    classify,
    multiplicity,
)
from .errors import WaifiError
from .factor import (
    affine_common_zeros,
    infinity_common_zeros,
    plane_triples,
    roots_in_extension,
)
from .field import MAX_TOWER_DEGREE, Tower
from .infnear import Configuration, InfNearPoint, export_proximity_graph
from .poly import MultiPoly, poly_gcd
from .vfield import ProjectiveOneForm, chart_at, dehomogenize, restrict_to_chart

#: the default blow-up depth budget (--max-depth)
MAX_DEPTH = 64


class DepthExceeded(WaifiError, RuntimeError):
    pass


class NonIsolatedSingularities(WaifiError, ValueError):
    pass


class StructureMismatch(ValueError):
    """The dicritical configuration does not have the free/maximal shape
    required for a WAI first integral."""


INFINITY_LINE = "infinity-line"


@dataclass
class ReductionResult:
    one_form: ProjectiveOneForm
    tower: Tower
    singular_configuration: Configuration
    dicritical_configuration: Configuration
    classification: dict
    dicritical: frozenset  # the dicritical points, by pid
    infinity_points: frozenset
    local_forms: dict
    tracked_curves: dict  # by pid: label -> axis (0 for u = 0, 1 for v = 0)

    def report_json(self):
        graph = export_proximity_graph(
            self.singular_configuration, dicritical=self.dicritical
        )
        return {
            "singular_points": graph["points"],
            "dicritical": list(self.dicritical_configuration.order),
            "infinity_points": sorted(self.infinity_points),
            "proximity_graph": graph,
            "classifications": {
                str(pid): cls for pid, cls in self.classification.items()
            },
        }


def _translate(form, shifts):
    """Recentre form at a plane point: w -> w + c for each nonzero shift."""
    a, b = form.a, form.b
    for w, c in shifts.items():
        if not c.is_zero():
            a, b = a.shift(w, c), b.shift(w, c)
    return LocalOneForm(a, b, form.vars)


def _child_axes(tracked, label, branch, center):
    """The tracked curves through the origin of a child chart, by label:
    each is a coordinate axis, 0 for u = 0 and 1 for v = 0.

    On V2 (centre 0) u pulls back to u v and v to v, so the u axis stays and
    the divisor, labelled label, is the v axis.  On V1 at lambda u pulls
    back to u and v to u (v + lambda): the divisor is the u axis, and the v
    axis stays only when lambda = 0.
    """
    stay = 0 if branch == V2 else 1 if center.is_zero() else None
    out = {name: axis for name, axis in tracked.items() if axis == stay}
    out[label] = 1 if branch == V2 else 0
    return out


def walk_resolution(roots, keep, expand, tower, max_depth, what):
    """Depth-first walk of the infinitely near points above plane points.

    roots lists (plane point, tracked curves, payload) in canonical order;
    tracked curves map each label to the chart axis the curve is (see
    _child_axes).  keep(payload) returns None to drop a point and its
    subtree, otherwise the point's record; expand(payload, record, tower)
    returns the children as (branch, centre, payload) in canonical order,
    with the tower grown by their centres.  A kept point gets the next pid
    and is proximate to the points whose divisors E<pid> it tracks; it
    raises DepthExceeded ("<what> deeper than ...") beyond max_depth.  A
    root's coordinate is its plane point.  A child tracks the divisor of
    its parent and the parent's curves that still pass through it.

    Returns the Configuration, the final tower, and dicts by pid of the
    records, the payloads and the tracked curves.
    """
    stack = [
        (None, None, plane, 0, tracked, payload)
        for plane, tracked, payload in reversed(roots)
    ]
    points, records, payloads, curves = [], {}, {}, {}
    while stack:
        parent, branch, coordinate, level, tracked, payload = stack.pop()
        record = keep(payload)
        if record is None:
            continue
        if level > max_depth:
            raise DepthExceeded(f"{what} deeper than {max_depth} levels")
        pid = len(points)
        prox = frozenset(int(label[1:]) for label in tracked if label.startswith("E"))
        points.append(InfNearPoint(pid, parent, branch, coordinate, level, prox))
        records[pid], payloads[pid], curves[pid] = record, payload, tracked
        children, tower = expand(payload, record, tower)
        pending = []
        for child_branch, center, child in children:
            through = _child_axes(tracked, f"E{pid}", child_branch, center)
            at = None if child_branch == V2 else center
            pending.append((pid, child_branch, at, level + 1, through, child))
        stack.extend(reversed(pending))
    return Configuration(points), tower, records, payloads, curves


def _keep_singular(form):
    """The class of a point the reduction blows up; None for nonsingular and
    simple points."""
    if form.is_zero():
        raise NonIsolatedSingularities("a strict transform vanished")
    cls = classify(form)
    return None if cls in (NONSINGULAR, SIMPLE) else cls


def _divisor_singularities(form, cls, tower):
    """The singular points on the divisor of one blow-up: the V2 origin,
    the single point outside the V1 chart, then the common roots on u = 0
    of the V1 strict transform.  The V1 chart at lambda is the chart at 0
    shifted by v -> v + lambda."""
    u, v = form.vars
    # the divisor power a blow-up removes: m, and m+1 at a dicritical point
    m = multiplicity(form)
    e = m + 1 if cls == DICRITICAL else m
    children = []
    strict2 = blow_up_form(form, V2, e)
    if strict2.a.coefficient((0, 0)).is_zero() and strict2.b.coefficient(
        (0, 0)
    ).is_zero():
        children.append((V2, 0, strict2))
    strict1 = blow_up_form(form, V1, e)
    na0 = strict1.a.restrict(u, 0).with_vars((v,))
    nb0 = strict1.b.restrict(u, 0).with_vars((v,))
    g = poly_gcd(na0, nb0)
    if g.is_zero():
        raise NonIsolatedSingularities("whole exceptional divisor singular")
    lam_roots, tower = roots_in_extension(g, tower)
    for lam in lam_roots:
        a, b = strict1.a.shift(v, lam), strict1.b.shift(v, lam)
        children.append((V1, lam, LocalOneForm(a, b, form.vars)))
    return children, tower


@dataclass
class PlaneStart:
    """The first step of a reduction: the reduced form, its affine chart
    (f, g) and its points at infinity, with the tower they were found in."""

    one_form: ProjectiveOneForm
    f: MultiPoly
    g: MultiPoly
    at_infinity: list  # None for (1:0:0), then xi for each (xi:1:0)
    tower: Tower


def points_at_infinity(omega, max_tower_degree=MAX_TOWER_DEGREE):
    """The points on Z = 0 of a reduced form omega (projectivize and
    ProjectiveOneForm.reduced return one).

    Its A and B share at most a power of Z (see ProjectiveOneForm.reduced),
    so the affine singular points are isolated with no further gcd."""
    if omega.A.is_zero() and omega.B.is_zero() and omega.C.is_zero():
        raise NonIsolatedSingularities("zero 1-form")
    f, g = dehomogenize(omega.A), dehomogenize(omega.B)
    at_inf, tower = infinity_common_zeros(
        [c.restrict("Z", 0) for c in (omega.A, omega.B, omega.C)],
        Tower((), max_degree=max_tower_degree),
    )
    return PlaneStart(omega, f, g, at_inf, tower)


def reduce(omega, max_depth=MAX_DEPTH, max_tower_degree=MAX_TOWER_DEGREE,
           start=None, affine=True):
    """Run the reduction of singularities of a reduced projective 1-form.

    start, the points_at_infinity of omega found before, is reused instead
    of found again.  The affine points are found over the tower of the
    points at infinity; affine=False leaves them out, and the walk covers
    only the points at infinity.
    """
    if start is None:
        start = points_at_infinity(omega, max_tower_degree)
    omega, tower = start.one_form, start.tower
    points = []
    if affine:
        points, tower = affine_common_zeros(start.f, start.g, tower)
    triples = plane_triples(start.at_infinity, points, tower)

    located = [(triple, *chart_at(triple)) for triple in triples]
    charts = {one: restrict_to_chart(omega, one) for one in {c for _, c, _ in located}}
    roots = []
    for triple, one, centre in located:
        loc = _translate(charts[one], dict(zip(charts[one].vars, centre)))
        # the line at infinity is the axis z = 0 of the X and Y charts
        tracked = {} if one == "Z" else {INFINITY_LINE: loc.vars.index("z")}
        roots.append((triple, tracked, loc))
    sconf, tower, classes, forms, curves = walk_resolution(
        roots, _keep_singular, _divisor_singularities, tower, max_depth, "reduction"
    )

    dicritical = frozenset(pid for pid, cls in classes.items() if cls == DICRITICAL)
    closure = set()
    for pid in dicritical:
        closure.update(sconf.ancestors(pid))
    return ReductionResult(
        one_form=omega,
        tower=tower,
        singular_configuration=sconf,
        dicritical_configuration=sconf.subconfiguration(closure),
        classification=classes,
        dicritical=dicritical,
        infinity_points=frozenset(
            pid for pid, tracked in curves.items() if INFINITY_LINE in tracked
        ),
        local_forms=forms,
        tracked_curves=curves,
    )


def dicritical_points(res):
    """Maximal points of the dicritical configuration, in canonical order."""
    return res.dicritical_configuration.maximal_points()


def maximal_free_pairs(conf):
    """The maximal points R_1..R_r of a dicritical configuration and the
    maximal free points M_1..M_r under them; raises StructureMismatch when
    the shape is wrong.

    M_i is the last free point under R_i.  The shape is right exactly when
    the M_i are distinct and none of them lies under another free point:
    every maximal free point is then some M_i, since it is the last free
    point under any maximal point above it."""
    R = conf.maximal_points()
    free = set(conf.free_points())
    M = []
    for rid in R:
        under = [pid for pid in conf.ancestors(rid) if pid in free]
        if not under:
            raise StructureMismatch(f"no free point under {rid}")
        M.append(under[-1])
    if len(set(M)) != len(M):
        raise StructureMismatch("two dicritical points over one free point")
    below_free = {pid for q in free for pid in conf.ancestors(q)[:-1]}
    if below_free.intersection(M):
        raise StructureMismatch("a last free point lies under another free point")
    return R, M


def max_free_points(res):
    """The maximal free points M_1..M_r aligned with the maximal dicritical
    points R_1..R_r; raises StructureMismatch when the shape is wrong."""
    return maximal_free_pairs(res.dicritical_configuration)[1]
