"""Deciding WAI polynomial integrability.

Given the dicritical configuration of a reduced vector field, this module
builds the vector family S, computes the orthogonal vector R, extracts the
candidate curves from cluster linear systems, solves for the exponents
(either through the pairing decomposition or through Darboux cofactors),
and verifies the product is a first integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from . import linalg
from .blowup import common_power
from .errors import WaifiError
from .field import MAX_TOWER_DEGREE
from .infnear import Cluster, PairingVector, e_vector, multiplicity_system, pairing
from .linsys import EmptySystem, linear_system
from .poly import MultiPoly
from .reduction import (
    MAX_DEPTH,
    StructureMismatch,
    maximal_free_pairs,
    points_at_infinity,
    reduce as reduce_form,
)
from .vfield import (
    AffineVectorField,
    NotInvariant,
    cofactor,
    dehomogenize,
    projectivize,
    verify_first_integral,
)

LINE_NOT_INVARIANT = "line-not-invariant"
WRONG_FREE_MAXIMAL_COUNT = "wrong-free-maximal-count"
S_DEPENDENT = "S-dependent"
R_NOT_RANK_ONE = "R-not-rank-one"
R_NON_INTEGRAL = "R-non-integral"
DEGREE_CHECKS_FAILED = "degree-checks-failed"
CURVE_NOT_UNIQUE = "curve-not-unique"
EXPONENTS_INVALID = "exponents-invalid"
VERIFICATION_FAILED = "verification-failed"
NO_ADMISSIBLE_PLACEMENT = "no-admissible-placement"


class AnalysisFailure(Exception):
    """A Theorem-level check failed: the field has no WAI first integral.
    A verdict with a reason code, not a WaifiError."""

    def __init__(self, reason, detail=""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass
class SFamily:
    configuration: object
    maximal: list          # R_1..R_r (pids)
    free_maximal: list     # M_1..M_r (pids)
    c_vectors: list        # PairingVector per R_i
    e_vectors: dict        # pid -> PairingVector, over N(X), by increasing pid
    h_systems: list        # per i: pid -> multiplicity
    d_values: list         # per i: degree d_i
    infinity: frozenset

    @property
    def vectors(self):
        """S in its fixed order: c_1..c_r, then the e_P by increasing pid."""
        return self.c_vectors + list(self.e_vectors.values())

    @cached_property
    def proximity(self):
        """_proximity_system(self), built once for compute_R and
        exponents_pairing."""
        return _proximity_system(self)


@dataclass
class IntegralCertificate:
    factors: list          # affine MultiPoly, possibly over an extension
    exponents: list
    degree: int
    R: PairingVector
    residual: MultiPoly
    route: str
    display_factors: list  # after conjugate recombination
    display_exponents: list

    def as_json(self):
        return {
            "degree": self.degree,
            "factors": [
                {"poly": f.to_string(), "exponent": n}
                for f, n in zip(self.display_factors, self.display_exponents)
            ],
            "R": [str(x) for x in self.R.as_list()],
            "route": self.route,
            "residual": "0",
            "reason": None,
        }


def assemble_S_from(conf, infinity):
    """The family S = {c_i} ∪ {e_Q} from combinatorial data alone."""
    R, M = maximal_free_pairs(conf)
    c_vectors = []
    h_systems = []
    d_values = []
    for mid in M:
        sub = conf.subconfiguration(conf.ancestors(mid))
        h = multiplicity_system(sub, conf)
        d = sum(h[q] for q in conf.order if q in infinity)
        c_vectors.append(PairingVector.make(conf, d, h))
        h_systems.append(h)
        d_values.append(d)
    maximal = set(R)
    e_vectors = {
        pid: e_vector(conf, pid) for pid in sorted(conf.order) if pid not in maximal
    }
    return SFamily(
        configuration=conf,
        maximal=R,
        free_maximal=M,
        c_vectors=c_vectors,
        e_vectors=e_vectors,
        h_systems=h_systems,
        d_values=d_values,
        infinity=frozenset(infinity),
    )


def assemble_S(res):
    return assemble_S_from(
        res.dicritical_configuration,
        frozenset(res.infinity_points) & set(res.dicritical_configuration.order),
    )


def _primitive_positive(raw, reason, what):
    """The primitive integer multiple of a vector of rationals (None for an
    entry that is not rational) whose entries all have one strict sign,
    made positive; AnalysisFailure(reason) otherwise.  The entries are
    scaled by the lcm of their denominators and divided by their gcd."""
    if None in raw:
        raise AnalysisFailure(reason, f"non-rational {what}")
    den = lcm(*[x.denominator for x in raw])
    ints = [int(x * den) for x in raw]
    g = gcd(*ints) or 1
    if ints[0] < 0:
        g = -g
    ints = [n // g for n in ints]
    if any(n <= 0 for n in ints):
        raise AnalysisFailure(reason, f"{what} has nonpositive components")
    return ints


def _rationals(vec):
    return [x.tower.as_rational(x.v) for x in vec]


def _proximity_system(family):
    """(w, rows): w_0 = (1; 0) and w_j = (0; h_j) for j = 1..r, with h_j the
    multiplicity system of the chain of points under the maximal point R_j,
    and the r x (r + 1) rows (<c_i, w_0>, ..., <c_i, w_r>).

    <e_P, v> = 0 is the proximity equality v_P = sum of v_Q over the points
    Q proximate to P, one for each non-maximal P.  h_j is 1 at R_j, 0 at the
    other maximal points and obeys every proximity equality, so the w_k span
    exactly the vectors that pair to 0 with every e_P.
    """
    conf = family.configuration
    chains = [conf.subconfiguration(conf.ancestors(rid)) for rid in family.maximal]
    w = [PairingVector.make(conf, 1, {})] + [
        PairingVector.make(conf, 0, multiplicity_system(sub, conf)) for sub in chains
    ]
    return w, [[pairing(c, wk) for wk in w] for c in family.c_vectors]


def compute_R(family):
    """The positive integer generator of the orthogonal complement of S.

    R pairs to 0 with every e_P, so R = sum x_k w_k over the w_k of
    _proximity_system, and only the r conditions <c_i, R> = 0 on the x_k
    are solved.  The e-rows are independent (each has -1 at its point and +1
    only at points above it), so S is dependent exactly when the small
    system has rank < r.
    """
    conf = family.configuration
    w, rows = family.proximity
    vecs = linalg.nullspace(rows)
    if len(w) - len(vecs) < len(rows):
        raise AnalysisFailure(S_DEPENDENT, "the family S is linearly dependent")
    if len(vecs) != 1:
        raise AnalysisFailure(R_NOT_RANK_ONE, f"solution space has dim {len(vecs)}")
    raw = sum((v.scale(x) for x, v in zip(_rationals(vecs[0]), w)), w[0].scale(0))
    ints = _primitive_positive(raw.as_list(), R_NON_INTEGRAL, "R")
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


def extract_curves(family, R):
    """Defining polynomials F_i of the candidate curves C_i."""
    conf = family.configuration
    r = len(family.maximal)
    if r == 1:
        n = R.v0
        K = Cluster(conf, R.components)
        try:
            basis = linear_system(n, K)
        except EmptySystem:
            raise AnalysisFailure(CURVE_NOT_UNIQUE, "empty pencil system")
        if len(basis) != 2:
            raise AnalysisFailure(
                CURVE_NOT_UNIQUE, f"expected a pencil, got dimension {len(basis)}"
            )
        # each basis vector is 0 in the other's free column, so Z^n lies
        # in the span only as a basis vector, and the other one, whose Z^n
        # coefficient is then 0, is the member
        zn = MultiPoly.variable("Z") ** n
        others = [b for b in basis if b != zn]
        if len(others) != 1:
            raise AnalysisFailure(CURVE_NOT_UNIQUE, "pencil does not contain Z^n")
        return [others[0].monic()]
    # h_i is zero off the chain under M_i, where it puts no condition
    curves = []
    for mid, h, d in zip(family.free_maximal, family.h_systems, family.d_values):
        chain = conf.ancestors(mid)
        K = Cluster(conf.subconfiguration(chain), {pid: h[pid] for pid in chain})
        try:
            basis = linear_system(d, K)
        except EmptySystem:
            raise AnalysisFailure(CURVE_NOT_UNIQUE, "no curve in the linear system")
        if len(basis) != 1:
            raise AnalysisFailure(
                CURVE_NOT_UNIQUE, f"linear system has dimension {len(basis)}"
            )
        curves.append(basis[0].monic())
    return curves


def exponents_pairing(family, R):
    """Solve R = sum n_i c_i + sum b_P e_P in the basis S.

    The e_P span the vectors that pair to 0 with every w_k of
    _proximity_system, so the n_i solve sum n_i <c_i, w_k> = <R, w_k>, the
    transpose of compute_R's rows: the kernel of (transpose | -<R, w>) is
    empty or, S being independent, one vector ending in 1.  Then b_P, parents
    first, is the sum of b_Q over the points Q that P is proximate to, minus
    the P-component of R - sum n_i c_i.
    """
    w, rows = family.proximity
    aug = [list(col) + [-pairing(R, v)] for col, v in zip(zip(*rows), w)]
    vecs = linalg.nullspace(aug)
    if not vecs:
        raise AnalysisFailure(EXPONENTS_INVALID, "R is not in the span of S")
    *n_i, _ = _rationals(vecs[0])
    rest = sum((c.scale(-n) for n, c in zip(n_i, family.c_vectors)), R)
    b_P = {}
    for pid in family.e_vectors:  # by increasing pid, so parents first
        prox = family.configuration.point(pid).proximate_to
        b_P[pid] = sum(b_P[q] for q in prox) - rest.components[pid]
    if any(q.denominator != 1 for q in n_i + list(b_P.values())):
        raise AnalysisFailure(EXPONENTS_INVALID, "non-integer coefficient")
    n_i = [int(n) for n in n_i]
    b_P = {pid: int(b) for pid, b in b_P.items()}
    if any(n <= 0 for n in n_i):
        raise AnalysisFailure(EXPONENTS_INVALID, "exponents must be positive")
    if any(b < 0 for b in b_P.values()):
        raise AnalysisFailure(EXPONENTS_INVALID, "negative e-coefficients")
    return n_i, b_P


def exponents_darboux(cofactors):
    """Coprime positive integers n_i with sum n_i k_i = 0 for the Darboux
    cofactors k_i of the curves."""
    cofactors = [k.with_vars(("x", "y")) for k in cofactors]
    exps = sorted({e for k in cofactors for e in k.terms})
    if not exps:
        # all cofactors vanish: any positive vector works, take all ones
        return [1] * len(cofactors)
    rows = [[k.coefficient(e) for k in cofactors] for e in exps]
    vecs = linalg.nullspace(rows)
    if len(vecs) != 1:
        raise AnalysisFailure(
            EXPONENTS_INVALID, f"cofactor relation space has dim {len(vecs)}"
        )
    return _primitive_positive(
        _rationals(vecs[0]), EXPONENTS_INVALID, "cofactor relation"
    )


def _over_q(f):
    """f as the same polynomial over Q, or None if a coefficient is not
    rational."""
    coeffs = {e: f.tower.as_rational(c) for e, c in f.terms.items()}
    if None in coeffs.values():
        return None
    return MultiPoly.from_coeff_dict(f.vars, coeffs)


def _recombine_conjugates(factors, exponents):
    """Group non-rational factors with equal exponent into rational products
    for display; the raw factorization stays in the certificate."""
    out = []
    by_exp = {}
    for f, n in zip(factors, exponents):
        rational = _over_q(f)
        if rational is not None:
            out.append((rational, n))
        else:
            by_exp.setdefault(n, []).append(f)
    for n, group in by_exp.items():
        prod = group[0]
        for f in group[1:]:
            prod = prod * f
        rational = _over_q(prod)
        if rational is not None:
            out.append((rational.monic(), n))
        else:
            out.extend((f, n) for f in group)
    return [f for f, _ in out], [n for _, n in out]


def _z_divides(omega):
    """Whether Z divides A and B, that is whether the line Z = 0 is
    invariant."""
    return common_power([omega.A, omega.B], "Z") > 0


def _check_line_invariant(res):
    """A dicritical plane point off Z = 0 is a base point of no pencil
    H - lambda Z^n."""
    conf = res.dicritical_configuration
    for rid in conf.roots():
        if conf.point(rid).coordinate[2] != 0:
            raise AnalysisFailure(
                LINE_NOT_INVARIANT,
                "a dicritical plane point lies outside the line at infinity",
            )


def _front_half(res):
    """The route-independent steps after the reduction: S, R and the curves
    with their affine factors."""
    _check_line_invariant(res)
    try:
        family = assemble_S(res)
    except StructureMismatch as exc:
        raise AnalysisFailure(WRONG_FREE_MAXIMAL_COUNT, str(exc))
    R = compute_R(family)
    curves = extract_curves(family, R)
    return family, R, curves, [dehomogenize(F) for F in curves]


def _cofactors(V, factors):
    try:
        return [cofactor(V, f) for f in factors]
    except NotInvariant as exc:
        raise AnalysisFailure(VERIFICATION_FAILED, str(exc))


def _certify(V, front, route):
    """One route's exponents, checked and verified twice: the certificate,
    or AnalysisFailure.  The Darboux route's cofactors serve the second
    check too; the pairing route takes them only after the residual."""
    family, R, curves, factors = front
    n = R.v0
    cofactors = None
    if route == "pairing":
        n_i, _ = exponents_pairing(family, R)
    else:
        cofactors = _cofactors(V, factors)
        n_i = exponents_darboux(cofactors)
    if sum(ni * F.total_degree() for ni, F in zip(n_i, curves)) != n:
        raise AnalysisFailure(DEGREE_CHECKS_FAILED, "exponent degrees do not sum to n")
    if gcd(*n_i) != 1:
        raise AnalysisFailure(EXPONENTS_INVALID, "exponents are not coprime")
    H = MultiPoly.constant(1, ("x", "y"))
    for f, ni in zip(factors, n_i):
        H = H * f ** ni
    ok, residual = verify_first_integral(V, H)
    if not ok:
        raise AnalysisFailure(VERIFICATION_FAILED, "residual is nonzero")
    # second, independent verification through cofactors
    if cofactors is None:
        cofactors = _cofactors(V, factors)
    combo = MultiPoly.zero(("x", "y"))
    for k, ni in zip(cofactors, n_i):
        combo = combo + ni * k
    if not combo.is_zero():
        raise AnalysisFailure(VERIFICATION_FAILED, "cofactor relation fails")
    disp_f, disp_e = _recombine_conjugates(factors, n_i)
    return IntegralCertificate(
        factors=factors,
        exponents=n_i,
        degree=n,
        R=R,
        residual=residual,
        route=route,
        display_factors=disp_f,
        display_exponents=disp_e,
    )


def _decide_from(V, res, routes):
    """(certificate, None) or (None, reason) for each route, all from one
    reduction, S, R and set of curves; a failure there gives every route
    its reason."""
    try:
        front = _front_half(res)
    except AnalysisFailure as exc:
        return [(None, exc.reason)] * len(routes)
    out = []
    for route in routes:
        try:
            out.append((_certify(V, front, route), None))
        except AnalysisFailure as exc:
            out.append((None, exc.reason))
    return out


def decide(V, routes, max_depth=MAX_DEPTH, max_tower_degree=MAX_TOWER_DEGREE):
    """(certificate, None) or (None, reason) for each route.

    A WAI integral H gives the pencil H - lambda Z^n, whose base points, the
    dicritical points of the field, all lie on Z = 0.  So the decision runs
    in this order:

    1. The form is reduced, A and B must share no curve of zeros, and the
       points at infinity are found.  When Z does not divide A and B, every
       route gets line-not-invariant at once: Z = 0 would be a member of
       the pencil, so it would be invariant.  No point is reduced.
    2. The reduction walks the points at infinity alone, from the tower
       they were found in; S, R, the curves and each route's certificate
       follow, each certificate verified twice (the residual and the
       cofactor relation).  If any route certifies, those are the results:
       no affine point can then be dicritical, so the reduction of every
       point gives the same configuration, unless it first exceeds the
       tower cap or the depth on an affine point.
    3. When no route certifies, or step 2 ends in a WaifiError, the
       decision starts again from all points: the affine points are found
       over the tower of step 1 and the reduction walks every point in
       canonical order.  Its reasons, errors, point ids and generator
       names are those of a decision that never tried step 2.
    """
    if not isinstance(V, AffineVectorField):
        raise TypeError("expected an AffineVectorField")
    omega = projectivize(V)
    start = points_at_infinity(omega, max_tower_degree)
    if not _z_divides(start.one_form):
        return [(None, LINE_NOT_INVARIANT)] * len(routes)
    try:
        res = reduce_form(omega, max_depth, start=start, affine=False)
        out = _decide_from(V, res, routes)
    except WaifiError:
        out = []
    if any(cert is not None for cert, _ in out):
        return out
    return _decide_from(V, reduce_form(omega, max_depth, start=start), routes)


def algorithm1(V, **kw):
    """Pairing-route decision: a certificate, or (None, reason)."""
    return decide(V, ["pairing"], **kw)[0]


def algorithm2(V, **kw):
    """Darboux-route decision: a certificate, or (None, reason)."""
    return decide(V, ["darboux"], **kw)[0]


def poincare_degree(conf, infinity):
    """Degree and exponents of the candidate integral from combinatorial
    data (the proximity structure of D(X) and the infinity points): the
    minimal integral's when the field has a WAI integral."""
    try:
        family = assemble_S_from(conf, frozenset(infinity))
    except StructureMismatch as exc:
        raise AnalysisFailure(WRONG_FREE_MAXIMAL_COUNT, str(exc))
    R = compute_R(family)
    n_i, _ = exponents_pairing(family, R)
    return R.v0, n_i


def _free_prefix_chains(conf, root):
    """All downward chains of consecutive free points starting at a root."""
    chains = []

    def grow(chain):
        chains.append(tuple(chain))
        tip = chain[-1]
        for cid in conf.children(tip):
            if conf.point(cid).free:
                grow(chain + [cid])

    grow([root])
    return chains


def poincare_bound(conf):
    """Largest degree over the admissible placements of the infinity line."""
    from itertools import product

    per_root = [_free_prefix_chains(conf, rid) for rid in conf.roots()]
    best = None
    for combo in product(*per_root):
        infinity = frozenset(pid for chain in combo for pid in chain)
        try:
            n, _ = poincare_degree(conf, infinity)
        except AnalysisFailure:
            continue
        if best is None or n > best:
            best = n
    if best is None:
        raise AnalysisFailure(
            NO_ADMISSIBLE_PLACEMENT, "every infinity-line placement fails"
        )
    return best
