"""Linear systems of curves through clusters, and base-point clusters of
pencils.

The linear system L_m(K) is assembled by carrying a generic degree-m curve
with symbolic coefficients through the virtual transforms of the cluster:
at each point every jet coefficient below the virtual multiplicity is a
linear functional of the unknowns, and the system's basis is the nullspace
of the collected constraints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .blowup import V1, V2, blow_up_chart, strict_transform
from .factor import plane_common_zeros, roots_in_extension
from .field import FieldElement, QQ_TOWER, Tower
from .infnear import Cluster
from .linalg import nullspace
from .poly import MultiPoly, poly_gcd
from .reduction import walk_resolution
from .vfield import ProjectiveOneForm, dehomogenize


class EmptySystem(ValueError):
    """Only the zero polynomial passes through the cluster."""


class CommonComponent(ValueError):
    """The two pencil generators share a polynomial factor."""


class NoGenericMember(RuntimeError):
    """Eight random pencil members all missed the generic multiplicities."""


@dataclass
class LinearSystemBasis:
    degree: int
    cluster: Cluster
    basis: list
    monomials: list


def degree_monomials(m):
    """Exponents (a, b, c) of the degree-m monomials X^a Y^b Z^c, in a fixed
    canonical (descending) order."""
    out = []
    for a in range(m, -1, -1):
        for b in range(m - a, -1, -1):
            out.append((a, b, m - a - b))
    return out


def _generic_curve(m, tower):
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


def _localize(F, triple, tower):
    """Local equation of a curve at a plane point, in variables (u, v)
    matching the chart conventions of reduction.reduce."""
    x0, y0, z0 = (tower.element(c) for c in triple)
    F = F.lift_to(tower)
    if not z0.is_zero():
        local = dehomogenize(F, "Z", ("u", "v"))
        return local.shift("u", x0 / z0).shift("v", y0 / z0)
    if not y0.is_zero():
        return dehomogenize(F, "Y", ("u", "v")).shift("u", x0 / y0)
    return dehomogenize(F, "X", ("u", "v"))


def _split_jet(eq, mu, cindex):
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
        rest = []
        for var, e in zip(eq.vars, exps):
            if var in cindex:
                if e:
                    j = cindex[var]
            elif var not in ("u", "v"):
                rest.append((var, e))
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


def _child_transforms(eq, mu, conf, pid):
    """(child id, strict transform of eq divided by the divisor to the power
    mu, or None when not divisible) for each child of pid, recentred at the
    child; eq is a local equation at pid in u, v."""
    for cid in conf.children(pid):
        child = conf.point(cid)
        lam = 0 if child.coordinate is None else child.coordinate
        chart = blow_up_chart(lam, child.branch, ("u", "v"), eq.tower)
        yield cid, strict_transform(eq, chart, mu)


def linear_system(m, K, plane_points=None):
    """Basis of the curves of degree m passing virtually through the cluster
    K.  Plane (root) locations are taken from the root points' coordinate
    triples, or from plane_points[pid]."""
    if m < 1:
        raise ValueError("degree must be at least 1")
    conf = K.configuration
    plane_points = plane_points or {}
    tower = QQ_TOWER
    values = [conf.point(pid).coordinate for pid in conf.order]
    for value in values + list(plane_points.values()):
        for c in value if isinstance(value, tuple) else (value,):
            if isinstance(c, FieldElement):
                tower = tower.join(c.tower)

    F, names, mons = _generic_curve(m, tower)
    cindex = {name: j for j, name in enumerate(names)}
    constraints = []

    def walk(pid, eq):
        mu = K.multiplicities[pid]
        rows, pruned = _split_jet(eq, mu, cindex)
        constraints.extend(rows)
        for cid, child_eq in _child_transforms(pruned, mu, conf, pid):
            if child_eq is None:
                raise AssertionError("virtual transform not divisible after pruning")
            walk(cid, child_eq)

    for rid in conf.roots():
        p = conf.point(rid)
        triple = p.coordinate if isinstance(p.coordinate, tuple) else None
        if triple is None:
            triple = plane_points.get(rid)
        if triple is None:
            raise ValueError(f"no plane location for root point {rid}")
        walk(rid, _localize(F, triple, tower))

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
    return LinearSystemBasis(m, K, basis, mons)


# -- pencils ---------------------------------------------------------------


@dataclass
class BasePointCluster:
    cluster: Cluster
    dicritical: frozenset
    tower: Tower
    plane_coords: dict

    @property
    def configuration(self):
        return self.cluster.configuration

    @property
    def multiplicities(self):
        return self.cluster.multiplicities


def _check_pencil(F1, F2):
    for F in (F1, F2):
        if F.is_zero() or not F.is_homogeneous():
            raise ValueError("pencil generators must be nonzero homogeneous")
        if set(F.effective_vars()) - {"X", "Y", "Z"}:
            raise ValueError("pencil generators must use X, Y, Z")
    if F1.total_degree() != F2.total_degree():
        raise ValueError("pencil generators must have equal degree")
    if not poly_gcd(F1, F2).is_constant():
        raise CommonComponent("the generators share a factor")


def _localize_member(F, triple, tower):
    """Local equation of a member at a plane point (u, v chart)."""
    return _localize(F, triple, tower).with_vars(("u", "v"))


def pencil_base_points(F1, F2, seed=0, max_depth=64, max_tower_degree=16):
    """Cluster of base points of the pencil <F1, F2>, with generic
    multiplicities and dicritical flags, verified on a generic member."""
    _check_pencil(F1, F2)
    triples, tower = plane_common_zeros(
        [F.restrict("Z", 0) for F in (F1, F2)],
        dehomogenize(F1),
        dehomogenize(F2),
        Tower((), max_degree=max_tower_degree),
    )
    roots = [
        (t, ("u", "v"), {}, tuple(_localize_member(F, t, tower) for F in (F1, F2)))
        for t in triples
    ]
    conf, tower, records, _, _, plane_coords = walk_resolution(
        roots, _generic_multiplicity, _base_point_children, tower, max_depth, "base points"
    )
    result = BasePointCluster(
        cluster=Cluster(conf, {pid: m for pid, (m, _) in records.items()}),
        # deg D < mP: the tangent cones of the members vary
        dicritical=frozenset(
            pid for pid, (m, D) in records.items() if m > max(D.total_degree(), 0)
        ),
        tower=tower,
        plane_coords=plane_coords,
    )
    _verify_generic_member(F1, F2, result, seed)
    return result


def _generic_multiplicity(fg):
    """(mP, D) at a base point: the multiplicity of a generic member and
    the gcd D of the initial forms of the generators; None once generic
    members no longer pass through the point."""
    f, g = fg
    of = f.order()
    og = g.order()
    mP = min(o for o in (of, og) if o is not None)
    if mP == 0:
        return None
    phi1 = f.initial_form(mP) if of == mP else MultiPoly.zero(f.vars, f.tower)
    phi2 = g.initial_form(mP) if og == mP else MultiPoly.zero(g.vars, g.tower)
    return mP, poly_gcd(phi1, phi2)


def _base_point_children(fg, record, tower):
    """The base points on the divisor: the tangent directions of D, with
    the strict transforms of the generators there."""
    f, g = fg
    mP, D = record
    if D.is_constant():
        return [], tower
    Dv = D.with_vars(("u", "v"))
    lams, tower = roots_in_extension(Dv.restrict("u", 1).with_vars(("v",)), tower)
    centers = [(V1, lam) for lam in lams]
    # the direction (0:1) of the divisor lies in the V2 chart
    if Dv.coefficient((0, Dv.total_degree())).is_zero():
        centers.insert(0, (V2, FieldElement.rational(0, tower)))
    children = []
    for branch, center in centers:
        chart = blow_up_chart(center, branch, ("u", "v"), tower)
        child = (strict_transform(f, chart, mP), strict_transform(g, chart, mP))
        children.append((branch, center, child))
    return children, tower


def _verify_generic_member(F1, F2, bp, seed):
    """Check that a generic member realizes the generic multiplicities; a
    bad draw (non-generic parameters) is redrawn up to 8 times."""
    rng = random.Random(seed)
    conf = bp.configuration
    for _ in range(8):
        alpha = rng.randint(1, 10 ** 6)
        beta = rng.randint(1, 10 ** 6)
        G = alpha * F1 + beta * F2
        ok = True
        for rid in conf.roots():
            loc = _localize_member(G, bp.plane_coords[rid], bp.tower)
            if not _check_member(loc, conf, rid, bp.multiplicities):
                ok = False
                break
        if ok:
            return
    raise NoGenericMember("no generic pencil member found after 8 draws")


def _check_member(eq, conf, pid, mults):
    mu = mults[pid]
    if eq.order() != mu:
        return False
    return all(
        divided is not None and _check_member(divided, conf, cid, mults)
        for cid, divided in _child_transforms(eq, mu, conf, pid)
    )


def pencil_vector_field(F1, F2):
    """The 1-form whose invariant curves are the members of the pencil."""
    _check_pencil(F1, F2)
    A = F2 * F1.diff("X") - F1 * F2.diff("X")
    B = F2 * F1.diff("Y") - F1 * F2.diff("Y")
    C = F2 * F1.diff("Z") - F1 * F2.diff("Z")
    return ProjectiveOneForm(A, B, C).reduced()
