"""Linear systems of curves through clusters, and base-point clusters of
pencils.

The linear system L_m(K) is assembled by carrying the degree-m monomials
through the virtual transforms of the cluster: at each point every jet
coefficient below the virtual multiplicity is a linear functional of the
curve's coefficients, and the system's basis is the nullspace of the
collected constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blowup import V1, V2, strict_transform
from .errors import InputError, WaifiError
from .factor import plane_common_zeros, roots_in_extension
from .field import MAX_TOWER_DEGREE, FieldElement, QQ_TOWER, Tower
from .infnear import Cluster
from .linalg import nullspace
from .poly import MultiPoly, poly_gcd
from .reduction import MAX_DEPTH, walk_resolution
from .vfield import ProjectiveOneForm, chart_at, dehomogenize


UV = ("u", "v")  # the local variables at every point of a cluster


class EmptySystem(ValueError):
    """Only the zero polynomial passes through the cluster."""


class CommonComponent(WaifiError, ValueError):
    """The two pencil generators share a polynomial factor."""


class NoGenericMember(WaifiError, RuntimeError):
    """No member F1 + t*F2, t = 1, ..., |K| + 1, realized the generic
    multiplicities of the cluster K."""


def degree_monomials(m):
    """Exponents (a, b, c) of the degree-m monomials X^a Y^b Z^c, in a fixed
    canonical (descending) order."""
    out = []
    for a in range(m, -1, -1):
        for b in range(m - a, -1, -1):
            out.append((a, b, m - a - b))
    return out


def _localize(curves, triple, tower):
    """Local equations of curves at a plane point, polynomials in (u, v)
    on its chart (vfield.chart_at)."""
    one, centre = chart_at(tuple(tower.element(c) for c in triple))
    out = []
    for F in curves:
        local = dehomogenize(F.lift_to(tower), one, UV)
        for var, c in zip(UV, centre):
            local = local.shift(var, c)
        out.append(local.with_vars(UV))
    return out


def _child_transforms(eqs, mu, conf, pid):
    """(child id, the strict transforms of eqs divided by the divisor to the
    power mu, None where not divisible) for each child of pid, recentred at
    the child; eqs are local equations at pid in u, v over one tower."""
    for cid in conf.children(pid):
        child = conf.point(cid)
        lam = 0 if child.coordinate is None else child.coordinate
        yield cid, [strict_transform(eq, lam, child.branch, UV, mu) for eq in eqs]


def linear_system(m, K):
    """Basis of the curves of degree m passing virtually through the cluster
    K, whose root points carry their plane triples as coordinates.

    Virtual transforms are linear in the curve, so each degree-m monomial is
    carried through the cluster on its own: at a point of virtual
    multiplicity mu, the coefficients of one (u, v)-monomial of degree below
    mu across the monomials' transforms make one constraint row, and those
    terms are dropped before the transforms move on to the children.
    """
    if m < 1:
        raise ValueError("degree must be at least 1")
    conf = K.configuration
    tower = QQ_TOWER
    for p in conf:
        for c in p.coordinate if isinstance(p.coordinate, tuple) else (p.coordinate,):
            if isinstance(c, FieldElement):
                tower = tower.join(c.tower)

    mons = degree_monomials(m)
    curves = [MultiPoly(("X", "Y", "Z"), {e: tower.one()}, tower) for e in mons]
    U = len(mons)
    constraints = []

    def walk(pid, columns, eqs):
        # eqs[k] is the nonzero transform of the monomial mons[columns[k]]
        mu = K.multiplicities[pid]
        rows = {}
        kept, pruned = [], []
        for j, eq in zip(columns, eqs):
            keep = {}
            for e, c in eq.terms.items():
                if e[0] + e[1] < mu:
                    rows.setdefault(e, {})[j] = c
                else:
                    keep[e] = c
            if keep:
                kept.append(j)
                pruned.append(MultiPoly(eq.vars, keep, eq.tower))
        zero = tower.zero()
        constraints.extend(
            [FieldElement(tower, row.get(j, zero)) for j in range(U)]
            for row in rows.values()
        )
        # a transform pruned to zero stays zero in every later chart
        if pruned:
            for cid, child_eqs in _child_transforms(pruned, mu, conf, pid):
                walk(cid, kept, child_eqs)

    for rid in conf.roots():
        triple = conf.point(rid).coordinate
        if not isinstance(triple, tuple):
            raise ValueError(f"no plane location for root point {rid}")
        walk(rid, range(U), _localize(curves, triple, tower))

    # with no constraint every monomial is free: the unit vectors over tower
    vectors = nullspace(constraints or [[FieldElement.rational(0, tower)] * U])
    if not vectors:
        raise EmptySystem(f"no curve of degree {m} passes through the cluster")
    return [
        MultiPoly(
            ("X", "Y", "Z"),
            {e: c.v for c, e in zip(vec, mons) if not c.is_zero()},
            vec[0].tower,
        )
        for vec in vectors
    ]


# -- pencils ---------------------------------------------------------------


@dataclass(frozen=True)
class BasePointCluster(Cluster):
    """The base points of a pencil with their generic multiplicities, the
    dicritical ones among them and the tower of their coordinates."""

    dicritical: frozenset
    tower: Tower


def _check_pencil(F1, F2):
    for F in (F1, F2):
        if F.is_zero() or not F.is_homogeneous():
            raise InputError("pencil generators must be nonzero homogeneous")
        if set(F.effective_vars()) - {"X", "Y", "Z"}:
            raise InputError("pencil generators must use X, Y, Z")
    if F1.total_degree() != F2.total_degree():
        raise InputError("pencil generators must have equal degree")
    if F1.total_degree() < 1:
        raise InputError("pencil generators must have positive degree")
    if not poly_gcd(F1, F2).is_constant():
        raise CommonComponent("the generators share a factor")


def pencil_base_points(F1, F2, max_depth=MAX_DEPTH, max_tower_degree=MAX_TOWER_DEGREE):
    """Cluster of base points of the pencil <F1, F2>, with generic
    multiplicities and dicritical flags, verified on a generic member."""
    _check_pencil(F1, F2)
    triples, tower = plane_common_zeros(
        [F.restrict("Z", 0) for F in (F1, F2)],
        dehomogenize(F1),
        dehomogenize(F2),
        Tower((), max_degree=max_tower_degree),
    )
    roots = [(t, {}, tuple(_localize((F1, F2), t, tower))) for t in triples]
    conf, tower, records, _, _ = walk_resolution(
        roots, _generic_multiplicity, _base_point_children, tower, max_depth, "base points"
    )
    result = BasePointCluster(
        conf,
        {pid: m for pid, (m, _) in records.items()},
        # deg D < mP: the tangent cones of the members vary
        dicritical=frozenset(
            pid for pid, (m, D) in records.items() if m > max(D.total_degree(), 0)
        ),
        tower=tower,
    )
    _verify_generic_member(F1, F2, result)
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
    Dv = D.with_vars(UV)
    lams, tower = roots_in_extension(Dv.restrict("u", 1).with_vars(("v",)), tower)
    centers = [(V1, lam) for lam in lams]
    # the direction (0:1) of the divisor lies in the V2 chart
    if Dv.coefficient((0, Dv.total_degree())).is_zero():
        centers.insert(0, (V2, FieldElement.rational(0, tower)))
    children = []
    for branch, center in centers:
        child = tuple(strict_transform(h, center, branch, UV, mP) for h in (f, g))
        children.append((branch, center, child))
    return children, tower


def _verify_generic_member(F1, F2, bp):
    """Check that a generic member realizes the generic multiplicities.

    The members F1 + t*F2 are tried for t = 1, ..., |K| + 1.  At each point
    of K only the ratio that cancels the initial forms of the generic
    multiplicity gives a worse member, and strict transforms are linear in
    the member, so at most |K| ratios fail: NoGenericMember means that this
    invariant broke.
    """
    conf = bp.configuration
    tries = len(conf.order) + 1
    for t in range(1, tries + 1):
        G = F1 + t * F2
        if all(
            _check_member(loc, conf, rid, bp.multiplicities)
            for rid in conf.roots()
            for loc in _localize([G], conf.point(rid).coordinate, bp.tower)
        ):
            return
    raise NoGenericMember(f"no member F1 + t*F2 with t = 1..{tries} is generic")


def _check_member(eq, conf, pid, mults):
    mu = mults[pid]
    if eq.order() != mu:
        return False
    return all(
        divided is not None and _check_member(divided, conf, cid, mults)
        for cid, (divided,) in _child_transforms([eq], mu, conf, pid)
    )


def pencil_vector_field(F1, F2):
    """The 1-form whose invariant curves are the members of the pencil."""
    _check_pencil(F1, F2)
    A = F2 * F1.diff("X") - F1 * F2.diff("X")
    B = F2 * F1.diff("Y") - F1 * F2.diff("Y")
    C = F2 * F1.diff("Z") - F1 * F2.diff("Z")
    return ProjectiveOneForm(A, B, C).reduced()
