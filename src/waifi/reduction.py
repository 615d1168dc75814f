"""Reduction of singularities of a projective 1-form.

The driver finds the singular points of the form in the plane, blows up every
ordinary (including dicritical) singularity, and keeps going on the divisor
singularities until only simple points remain.  Along the way it records the
singular configuration S, the dicritical configuration D, proximity data, and
which points the strict transform of the line at infinity passes through.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import blowup
from .blowup import (
    DICRITICAL,
    LocalOneForm,
    NONSINGULAR,
    ORDINARY,
    SIMPLE,
    V1,
    V2,
    blow_up_curve,
    blow_up_form,
    classify,
)
from .factor import roots_in_extension
from .field import FieldElement, Tower
from .infnear import Configuration, InfNearPoint, export_proximity_graph
from .poly import MultiPoly, poly_gcd
from .vfield import ProjectiveOneForm, restrict_to_chart


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
                self.singular_configuration,
                dicritical=dic,
                infinity=self.infinity_points,
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
    u, v = form.vars
    sub = {}
    for w in (u, v):
        c = shifts.get(w)
        if c is not None and not _is_zero_shift(c):
            sub[w] = MultiPoly.variable(w) + MultiPoly.constant(c)
    if not sub:
        return form
    return LocalOneForm(
        form.a.substitute(sub).with_vars(form.vars),
        form.b.substitute(sub).with_vars(form.vars),
        form.vars,
        form.frame,
    )


def _is_zero_shift(c):
    if isinstance(c, FieldElement):
        return c.is_zero()
    return c == 0


def _plane_points_at_infinity(omega, tower):
    """Common zeros of A, B, C on Z = 0, as projective points."""
    at_inf = {"Z": 0}
    forms = []
    for comp in (omega.A, omega.B, omega.C):
        h = comp.substitute(at_inf)
        if not h.is_zero():
            forms.append(h)
    if not forms:
        raise NonIsolatedSingularities("the whole line at infinity is singular")
    h = forms[0].monic()
    for other in forms[1:]:
        h = poly_gcd(h, other)
    points = []
    if h.is_constant():
        return points, tower
    # the point (1:0:0) corresponds to the factor Y of the binary form
    if h.evaluate({"X": 1, "Y": 0}).is_zero():
        points.append(("X", None))
    univ = h.substitute({"X": MultiPoly.variable("x"), "Y": 1})
    roots, tower = roots_in_extension(univ, tower)
    for xi in roots:
        points.append(("Y", xi))
    return points, tower


def _affine_plane_points(omega, tower):
    f = omega.A.substitute({"Z": 1}).rename_vars({"X": "x", "Y": "y"})
    g = omega.B.substitute({"Z": 1}).rename_vars({"X": "x", "Y": "y"})
    if f.is_zero() and g.is_zero():
        raise NonIsolatedSingularities("vanishing affine components")
    if f.is_zero() or g.is_zero():
        h = g if f.is_zero() else f
        if h.is_constant():
            return [], tower
        raise NonIsolatedSingularities("a whole affine curve is singular")
    if not poly_gcd(f, g).is_constant():
        raise NonIsolatedSingularities("A and B share a curve of zeros")
    fdx = f.degree_in("x") if "x" in f.vars else 0
    gdx = g.degree_in("x") if "x" in g.vars else 0
    points = []
    if fdx == 0 and gdx == 0:
        return [], tower  # coprime polynomials in y alone: no common zero
    if fdx == 0 or gdx == 0:
        pure, other = (f, g) if fdx == 0 else (g, f)
        if pure.is_constant():
            return [], tower
        yroots, tower = roots_in_extension(pure.with_vars(("y",)), tower)
        for y0 in yroots:
            gx = other.substitute({"y": y0})
            if gx.is_zero():
                raise NonIsolatedSingularities("shared line of singularities")
            if gx.is_constant():
                continue
            xroots, tower = roots_in_extension(gx, tower)
            for x0 in xroots:
                points.append((x0, y0))
        return points, tower
    from .poly import resultant

    ry = resultant(f, g, "x")
    if ry.is_zero():
        raise NonIsolatedSingularities("resultant vanishes identically")
    if ry.is_constant():
        return [], tower
    yroots, tower = roots_in_extension(ry.with_vars(("y",)), tower)
    for y0 in yroots:
        fx = f.substitute({"y": y0})
        gx = g.substitute({"y": y0})
        if fx.is_zero() and gx.is_zero():
            raise NonIsolatedSingularities("shared line of singularities")
        h = poly_gcd(fx, gx)
        if h.is_constant():
            continue
        xroots, tower = roots_in_extension(h, tower)
        for x0 in xroots:
            points.append((x0, y0))
    return points, tower


def reduce(omega, max_depth=64, max_tower_degree=16):
    """Run the full reduction of singularities of a projective 1-form."""
    omega = omega.reduced()
    if omega.A.is_zero() and omega.B.is_zero() and omega.C.is_zero():
        raise NonIsolatedSingularities("zero 1-form")
    tower = Tower((), max_degree=max_tower_degree)

    inf_points, tower = _plane_points_at_infinity(omega, tower)
    aff_points, tower = _affine_plane_points(omega, tower)
    aff_points.sort(key=lambda p: (p[0].sort_key(), p[1].sort_key()))

    roots = []
    one = FieldElement.rational(1, tower)
    zero = FieldElement.rational(0, tower)
    for chart, xi in inf_points:
        if chart == "X":
            loc = restrict_to_chart(omega, "X")
            coords = (one, zero, zero)
        else:
            loc = restrict_to_chart(omega, "Y")
            loc = _translate(loc, {"x": xi})
            coords = (xi, one, zero)
        tracked = {INFINITY_LINE: MultiPoly.variable("z")}
        roots.append((loc, tracked, coords))
    for x0, y0 in aff_points:
        loc = restrict_to_chart(omega, "Z")
        loc = _translate(loc, {"x": x0, "y": y0})
        roots.append((loc, {}, (x0, y0, one)))

    nodes = []
    # work stack of pending points; popped in canonical (depth-first) order
    stack = []
    for loc, tracked, coords in reversed(roots):
        stack.append(
            {
                "parent": None,
                "branch": None,
                "coordinate": None,
                "level": 0,
                "form": loc,
                "tracked": tracked,
                "plane_coord": coords,
            }
        )

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
        children = []
        # the single point of the divisor outside the V1 chart
        strict2 = blow_up_form(form, 0, V2)
        if strict2.a.coefficient((0, 0)).is_zero() and strict2.b.coefficient(
            (0, 0)
        ).is_zero():
            tracked2 = {f"E{pid}": MultiPoly.variable(v, tower)}
            for label, eq in node.tracked.items():
                new_eq = blow_up_curve(eq, 0, V2, form.vars)
                o = new_eq.order()
                if o is not None and o >= 1:
                    tracked2[label] = new_eq
            children.append(
                {
                    "parent": pid,
                    "branch": V2,
                    "coordinate": None,
                    "level": item["level"] + 1,
                    "form": strict2,
                    "tracked": tracked2,
                    "plane_coord": None,
                }
            )
        # V1 chart: divisor singularities at common roots on u = 0
        strict1 = blow_up_form(form, 0, V1)
        na0 = strict1.a.substitute({u: 0}).with_vars((v,))
        nb0 = strict1.b.substitute({u: 0}).with_vars((v,))
        g = poly_gcd(na0, nb0)
        if g.is_zero():
            raise NonIsolatedSingularities("whole exceptional divisor singular")
        lam_roots, tower = roots_in_extension(g, tower)
        for lam in lam_roots:
            child_form = blow_up_form(form, lam, V1)
            tracked1 = {f"E{pid}": MultiPoly.variable(u, lam.tower)}
            for label, eq in node.tracked.items():
                new_eq = blow_up_curve(eq, lam, V1, form.vars)
                o = new_eq.order()
                if o is not None and o >= 1:
                    tracked1[label] = new_eq
            children.append(
                {
                    "parent": pid,
                    "branch": V1,
                    "coordinate": lam,
                    "level": item["level"] + 1,
                    "form": child_form,
                    "tracked": tracked1,
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


def max_free_points(res):
    """The maximal free points M_1..M_r aligned with the maximal dicritical
    points R_1..R_r; raises StructureMismatch when the shape is wrong."""
    dconf = res.dicritical_configuration
    R = dicritical_points(res)
    free = set(dconf.free_points())
    maximal_free = []
    for pid in dconf.order:
        if pid not in free:
            continue
        if any(
            q != pid and pid in dconf.ancestors(q) for q in free
        ):
            continue
        maximal_free.append(pid)
    if len(maximal_free) != len(R):
        raise StructureMismatch(
            f"{len(maximal_free)} maximal free points for {len(R)} dicritical ones"
        )
    M = []
    for rid in R:
        chain = dconf.ancestors(rid)
        best = None
        for pid in chain:
            if pid in free:
                best = pid
        if best is None or best not in maximal_free:
            raise StructureMismatch(f"no maximal free point under {rid}")
        M.append(best)
    if len(set(M)) != len(M):
        raise StructureMismatch("two dicritical points over one free point")
    return M
