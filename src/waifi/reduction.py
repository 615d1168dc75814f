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
    track_curves,
)
from .factor import plane_common_zeros, roots_in_extension
from .field import Tower
from .infnear import Configuration, InfNearPoint, export_proximity_graph
from .poly import MultiPoly, poly_gcd
from .vfield import ProjectiveOneForm, dehomogenize, restrict_to_chart


class DepthExceeded(RuntimeError):
    pass


class NonIsolatedSingularities(ValueError):
    pass


class StructureMismatch(ValueError):
    """The dicritical configuration does not have the free/maximal shape
    required for a WAI first integral."""


INFINITY_LINE = "infinity-line"


@dataclass
class _Node:
    pid: int
    parent: int | None
    branch: str | None
    coordinate: object
    level: int
    form: LocalOneForm
    tracked: dict
    proximate_to: frozenset
    cls: str
    plane_coord: tuple | None


@dataclass
class ReductionResult:
    one_form: ProjectiveOneForm
    tower: Tower
    singular_configuration: Configuration
    dicritical_configuration: Configuration
    classification: dict
    infinity_points: frozenset
    local_forms: dict
    tracked_curves: dict
    plane_coords: dict

    def report_json(self):
        dic = set()
        for pid in self.dicritical_configuration.order:
            if self.classification[pid] == DICRITICAL:
                dic.add(pid)
        return {
            "singular_points": export_proximity_graph(
                self.singular_configuration, dicritical=dic
            )["points"],
            "dicritical": list(self.dicritical_configuration.order),
            "infinity_points": sorted(self.infinity_points),
            "proximity_graph": export_proximity_graph(
                self.singular_configuration, dicritical=dic
            ),
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


def reduce(omega, max_depth=64, max_tower_degree=16):
    """Run the full reduction of singularities of a projective 1-form."""
    omega = omega.reduced()
    if omega.A.is_zero() and omega.B.is_zero() and omega.C.is_zero():
        raise NonIsolatedSingularities("zero 1-form")
    tower = Tower((), max_degree=max_tower_degree)
    at_infinity = [c.restrict("Z", 0) for c in (omega.A, omega.B, omega.C)]
    f, g = dehomogenize(omega.A), dehomogenize(omega.B)
    if not (f.is_zero() or g.is_zero() or poly_gcd(f, g).is_constant()):
        raise NonIsolatedSingularities("A and B share a curve of zeros")
    triples, tower = plane_common_zeros(at_infinity, f, g, tower)

    # each chart once; the Z chart is (f, g), coprime when it has points
    xy = ("x", "y")
    charts = {"Z": LocalOneForm(f.with_vars(xy), g.with_vars(xy), xy)}
    for name in {"X" if y.is_zero() else "Y" for _, y, z in triples if z.is_zero()}:
        charts[name] = restrict_to_chart(omega, name)
    nodes = []
    # work stack of pending points; popped in canonical (depth-first) order
    stack = []
    for x, y, z in triples:
        if not z.is_zero():
            loc = _translate(charts["Z"], {"x": x, "y": y})
            tracked = {}
        else:
            if y.is_zero():
                loc = charts["X"]
            else:
                loc = _translate(charts["Y"], {"x": x})
            tracked = {INFINITY_LINE: MultiPoly.variable("z")}
        stack.append(
            {
                "parent": None,
                "branch": None,
                "coordinate": None,
                "level": 0,
                "form": loc,
                "tracked": tracked,
                "plane_coord": (x, y, z),
            }
        )
    stack.reverse()

    while stack:
        item = stack.pop()
        form = item["form"]
        if form.is_zero():
            raise NonIsolatedSingularities("a strict transform vanished")
        cls = classify(form)
        if cls in (NONSINGULAR, SIMPLE):
            continue
        if item["level"] > max_depth:
            raise DepthExceeded(f"reduction deeper than {max_depth} levels")
        pid = len(nodes)
        prox = frozenset(
            int(label[1:]) for label in item["tracked"] if label.startswith("E")
        )
        node = _Node(
            pid=pid,
            parent=item["parent"],
            branch=item["branch"],
            coordinate=item["coordinate"],
            level=item["level"],
            form=form,
            tracked=item["tracked"],
            proximate_to=prox,
            cls=cls,
            plane_coord=item["plane_coord"],
        )
        nodes.append(node)

        u, v = form.vars
        dicritical = cls == DICRITICAL
        children = []
        # the single point of the divisor outside the V1 chart
        strict2 = blow_up_form(form, 0, V2, dicritical)
        if strict2.a.coefficient((0, 0)).is_zero() and strict2.b.coefficient(
            (0, 0)
        ).is_zero():
            children.append(
                {
                    "parent": pid,
                    "branch": V2,
                    "coordinate": None,
                    "level": item["level"] + 1,
                    "form": strict2,
                    "tracked": track_curves(
                        node.tracked, f"E{pid}", 0, V2, form.vars, tower
                    ),
                    "plane_coord": None,
                }
            )
        # V1 chart: divisor singularities at common roots on u = 0
        strict1 = blow_up_form(form, 0, V1, dicritical)
        na0 = strict1.a.restrict(u, 0).with_vars((v,))
        nb0 = strict1.b.restrict(u, 0).with_vars((v,))
        g = poly_gcd(na0, nb0)
        if g.is_zero():
            raise NonIsolatedSingularities("whole exceptional divisor singular")
        lam_roots, tower = roots_in_extension(g, tower)
        for lam in lam_roots:
            children.append(
                {
                    "parent": pid,
                    "branch": V1,
                    "coordinate": lam,
                    "level": item["level"] + 1,
                    "form": strict1
                    if lam.is_zero()
                    else blow_up_form(form, lam, V1, dicritical),
                    "tracked": track_curves(
                        node.tracked, f"E{pid}", lam, V1, form.vars, tower
                    ),
                    "plane_coord": None,
                }
            )
        for child in reversed(children):
            stack.append(child)

    points = [
        InfNearPoint(
            n.pid, n.parent, n.branch, n.coordinate, n.level, n.proximate_to
        )
        for n in nodes
    ]
    sconf = Configuration(points)
    dic_ids = [n.pid for n in nodes if n.cls == DICRITICAL]
    closure = set()
    for pid in dic_ids:
        closure.update(sconf.ancestors(pid))
    dconf = sconf.subconfiguration(closure)
    infinity = frozenset(n.pid for n in nodes if INFINITY_LINE in n.tracked)
    return ReductionResult(
        one_form=omega,
        tower=tower,
        singular_configuration=sconf,
        dicritical_configuration=dconf,
        classification={n.pid: n.cls for n in nodes},
        infinity_points=infinity,
        local_forms={n.pid: n.form for n in nodes},
        tracked_curves={n.pid: dict(n.tracked) for n in nodes},
        plane_coords={
            n.pid: n.plane_coord for n in nodes if n.plane_coord is not None
        },
    )


def dicritical_points(res):
    """Maximal points of the dicritical configuration, in canonical order."""
    return res.dicritical_configuration.maximal_points()


def maximal_free_pairs(conf):
    """The maximal points R_1..R_r of a dicritical configuration and the
    maximal free points M_1..M_r under them; raises StructureMismatch when
    the shape is wrong."""
    R = conf.maximal_points()
    free = set(conf.free_points())
    maximal_free = [
        pid
        for pid in conf.order
        if pid in free
        and not any(q != pid and pid in conf.ancestors(q) for q in free)
    ]
    if len(maximal_free) != len(R):
        raise StructureMismatch(
            f"{len(maximal_free)} maximal free points for {len(R)} dicritical ones"
        )
    M = []
    for rid in R:
        best = None
        for pid in conf.ancestors(rid):
            if pid in free:
                best = pid
        if best is None or best not in maximal_free:
            raise StructureMismatch(f"no maximal free point under {rid}")
        M.append(best)
    if len(set(M)) != len(M):
        raise StructureMismatch("two dicritical points over one free point")
    return R, M


def max_free_points(res):
    """The maximal free points M_1..M_r aligned with the maximal dicritical
    points R_1..R_r; raises StructureMismatch when the shape is wrong."""
    return maximal_free_pairs(res.dicritical_configuration)[1]
