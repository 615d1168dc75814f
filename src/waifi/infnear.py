"""Configurations of infinitely near points, proximity, clusters,
multiplicity systems and the bilinear pairing on weight vectors."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class IndexMismatch(ValueError):
    """Pairing vectors indexed by different configurations."""


class NotSubconfiguration(ValueError):
    pass


@dataclass(frozen=True)
class InfNearPoint:
    """A point of the plane (level 0) or of some exceptional divisor.

    coordinate is the triple (X : Y : Z) of a plane point, and for a point
    above the plane its location on the parent divisor (None for the single
    V2-origin of a divisor); proximate_to always contains the parent for
    points above the plane.
    """

    pid: int
    parent: int | None
    branch: str | None
    coordinate: object
    level: int
    proximate_to: frozenset

    @property
    def free(self):
        return len(self.proximate_to) <= 1

    @property
    def satellite(self):
        """Proximate to two points: the paper's term, kept as API."""
        return len(self.proximate_to) == 2


class Configuration:
    """A parent-closed, canonically ordered set of infinitely near points."""

    def __init__(self, points):
        self.points = {}
        for p in points:
            if p.pid in self.points:
                raise ValueError(f"duplicate point id {p.pid}")
            self.points[p.pid] = p
        for p in self.points.values():
            if p.parent is not None and p.parent not in self.points:
                raise ValueError(f"point {p.pid} missing parent {p.parent}")
            if p.parent is not None and p.parent not in p.proximate_to:
                raise ValueError(f"point {p.pid} not proximate to its parent")
            for q in p.proximate_to:
                if q not in self.points:
                    raise ValueError(f"point {p.pid} proximate to unknown {q}")

    @property
    def order(self):
        return tuple(self.points)

    def __len__(self):
        return len(self.points)

    def __contains__(self, pid):
        return pid in self.points

    def __iter__(self):
        return iter(self.points.values())

    def __eq__(self, other):
        return isinstance(other, Configuration) and self.points == other.points

    def point(self, pid):
        return self.points[pid]

    def ancestors(self, pid):
        """Chain of pid and all points it is infinitely near to (C^P)."""
        out = []
        while pid is not None:
            out.append(pid)
            pid = self.points[pid].parent
        return out[::-1]

    def children(self, pid):
        return [p.pid for p in self if p.parent == pid]

    def roots(self):
        return [p.pid for p in self if p.parent is None]

    def is_infinitely_near(self, pid, qid):
        """Whether pid lies above qid (or equals it); the paper's term, kept as API."""
        return qid in self.ancestors(pid)

    def maximal_points(self):
        """Points with no other configuration point above them."""
        nonmax = {p.parent for p in self if p.parent is not None}
        return [pid for pid in self.order if pid not in nonmax]

    def free_points(self):
        return [pid for pid in self.order if self.points[pid].free]

    def subconfiguration(self, pids):
        pids = set(pids)
        pts = []
        for pid in self.order:
            if pid not in pids:
                continue
            p = self.points[pid]
            pts.append(
                InfNearPoint(
                    p.pid,
                    p.parent,
                    p.branch,
                    p.coordinate,
                    p.level,
                    frozenset(q for q in p.proximate_to if q in pids),
                )
            )
        return Configuration(pts)


@dataclass(frozen=True)
class Cluster:
    configuration: Configuration
    multiplicities: dict

    def __post_init__(self):
        for pid in self.configuration.order:
            if pid not in self.multiplicities:
                raise ValueError(f"missing multiplicity for point {pid}")


def multiplicity_system(sub, full):
    """The multiplicity system m(C, C') of a subconfiguration.

    1 at maximal points of sub, 0 outside sub, otherwise the sum over points
    of sub proximate to the point.
    """
    sub_ids = set(sub.order)
    for pid in sub.order:
        if pid not in full:
            raise NotSubconfiguration(f"point {pid} not in the full configuration")
        if full.point(pid).parent not in (None, *sub_ids):
            raise NotSubconfiguration("subconfiguration is not parent-closed")
    maximal = set(sub.maximal_points())
    m = {pid: 0 for pid in full.order}
    # children before parents: process in reverse canonical order
    prox_in_sub = {
        pid: [q.pid for q in sub if pid in q.proximate_to] for pid in sub.order
    }
    for pid in reversed(sub.order):
        if pid in maximal:
            m[pid] = 1
        else:
            m[pid] = sum(m[q] for q in prox_in_sub[pid])
    return m


@dataclass(frozen=True)
class PairingVector:
    """(v0; components indexed by a fixed configuration): ints, or
    Fractions once scaled by a rational."""

    v0: int | Fraction
    components: dict
    index: tuple

    @staticmethod
    def make(conf, v0, comps):
        return PairingVector(
            v0, {pid: comps.get(pid, 0) for pid in conf.order}, conf.order
        )

    def __add__(self, other):
        if self.index != other.index:
            raise IndexMismatch("vectors over different configurations")
        return PairingVector(
            self.v0 + other.v0,
            {k: self.components[k] + other.components[k] for k in self.components},
            self.index,
        )

    def scale(self, c):
        return PairingVector(
            self.v0 * c,
            {k: v * c for k, v in self.components.items()},
            self.index,
        )

    def as_list(self):
        return [self.v0] + [self.components[pid] for pid in self.index]


def pairing(a, b):
    """<a,b> = a0 b0 - sum over points of aP bP."""
    if a.index != b.index:
        raise IndexMismatch("vectors over different configurations")
    total = a.v0 * b.v0
    for pid in a.index:
        total -= a.components[pid] * b.components[pid]
    return total


def e_vector(conf, pid):
    """(0; -1 at the point, +1 at points of the configuration proximate to
    it, 0 elsewhere)."""
    if pid not in conf:
        raise ValueError(f"point {pid} not in configuration")
    comps = {pid: -1}
    for q in conf:
        if pid in q.proximate_to:
            comps[q.pid] = 1
    return PairingVector.make(conf, 0, comps)


def export_proximity_graph(conf, dicritical=()):
    """JSON description plus DOT rendering helpers.

    Solid edges join parents to children (first infinitesimal neighborhood);
    dashed edges record the remaining proximities.  "coordinate" is the
    location on the parent divisor, so it is null for a plane point.
    """
    dicritical = set(dicritical)
    points = []
    for p in conf:
        at = None if p.parent is None else p.coordinate
        points.append(
            {
                "id": p.pid,
                "parent": p.parent,
                "branch": p.branch,
                "coordinate": None if at is None else str(at),
                "level": p.level,
                "proximate_to": sorted(p.proximate_to),
                "free": p.free,
                "dicritical": p.pid in dicritical,
            }
        )
    solid = [[p.parent, p.pid] for p in conf if p.parent is not None]
    dashed = [
        [q, p.pid]
        for p in conf
        for q in sorted(p.proximate_to)
        if q != p.parent
    ]
    return {"points": points, "solid_edges": solid, "dashed_edges": dashed}


def proximity_graph_dot(conf, dicritical=()):
    doc = export_proximity_graph(conf, dicritical=dicritical)
    lines = ["graph proximity {"]
    for p in doc["points"]:
        attrs = [f'label="P{p["id"]}"']
        if p["dicritical"]:
            attrs.append("shape=doublecircle")
        lines.append(f"  n{p['id']} [{', '.join(attrs)}];")
    for a, b in doc["solid_edges"]:
        lines.append(f"  n{a} -- n{b};")
    for a, b in doc["dashed_edges"]:
        lines.append(f"  n{a} -- n{b} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
