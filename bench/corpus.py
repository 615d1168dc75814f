"""Seeded inputs of the three workloads.

Every op is one `waifi` subcommand call on one `key = value` input file.
Polynomials are built here in plain Python (dicts from exponent tuples to
integers), so the generator shares no code with the program it feeds.  The
seed reaches only these generators; the program sees only the files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

import oracle


@dataclass
class Op:
    name: str
    argv: list  # subcommand and its options; the input path and --json follow
    text: str  # contents of the input file
    check: Callable  # (rc, doc, stderr) -> message or None
    source: str  # where the expected outcome comes from


# -- polynomials as {exponents: int} --------------------------------------


def poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_pow(f, n):
    out = {(0,) * len(next(iter(f))): 1}
    for _ in range(n):
        out = poly_mul(out, f)
    return out


def poly_diff(f, i):
    out = {}
    for e, c in f.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def poly_neg(f):
    return {e: -c for e, c in f.items()}


def total_degree(f):
    return max(sum(e) for e in f)


def fmt(f, names):
    """Format so that waifi's parser accepts it: no `+-`, `^` for powers."""
    if not f:
        return "0"
    out = ""
    for e in sorted(f, key=lambda e: (sum(e), e), reverse=True):
        c = f[e]
        mono = "*".join(
            v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k
        )
        mag = abs(c)
        body = mono if mag == 1 and mono else str(mag) + ("*" + mono if mono else "")
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def field_input(p, q):
    return f"p = {fmt(p, 'xy')}\nq = {fmt(q, 'xy')}\n"


# -- the planted generator of acceptance tests 6a and 6b --------------------


def planted_hamiltonian(rng, max_factors=2, max_deg=2, max_exp=2):
    """A product of powers of curves y + c(x) and x, which have one place at
    infinity.  Draws from rng in the same order as the acceptance tests."""

    def rand_curve():
        if rng.random() < 0.2:
            return {(1, 0): 1}
        deg = rng.randint(1, max_deg)
        f = {(0, 1): 1}
        for k in range(deg + 1):
            c = rng.randint(-2, 2)
            if c:
                f[(k, 0)] = c
        return f

    k = rng.randint(1, max_factors)
    factors = []
    seen = set()
    tries = 0
    while len(factors) < k and tries < 20:
        tries += 1
        f = rand_curve()
        key = frozenset(f.items())
        if key in seen:
            continue
        seen.add(key)
        factors.append((f, rng.randint(1, max_exp)))
    H = {(0, 0): 1}
    for f, n in factors:
        H = poly_mul(H, poly_pow(f, n))
    return H


# -- workloads ---------------------------------------------------------------


def _integrate(name, H, source, degree=None, max_degree=None):
    """integrate on the Hamiltonian field p = -H_y, q = H_x of H(x, y)."""
    p, q = poly_neg(poly_diff(H, 1)), poly_diff(H, 0)
    check = oracle.integral(p, q, degree=degree, max_degree=max_degree)
    return Op(name, ["integrate"], field_input(p, q), check, source)


def _degree_ten():
    # acceptance tests 4 and 5: V = (b, -a)
    # a = 10x^7 - 9x^6 + 6x^5y + 9x^4y - 6x^3y + 6x^2y^2 + 2xy^2
    a = {(7, 0): 10, (6, 0): -9, (5, 1): 6, (4, 1): 9, (3, 1): -6, (2, 2): 6, (1, 2): 2}
    # b = 2x^6 - x^4 + 6x^3y - x^2y + 4y^2
    b = {(6, 0): 2, (4, 0): -1, (3, 1): 6, (2, 1): -1, (0, 2): 4}
    p, q = b, poly_neg(a)
    return Op(
        "degree-10-both",
        ["integrate", "--method", "both"],
        field_input(p, q),
        oracle.integral(p, q, degree=10),
        "tests/test_acceptance.py tests 4 and 5",
    )


def wai_anchors():
    return [
        _degree_ten(),
        # README: H = x^2 + y^5 for the quintic field p = 5*y^4, q = -2*x
        Op(
            "quintic",
            ["integrate"],
            "p = 5*y^4\nq = -2*x\n",
            oracle.integral({(0, 4): 5}, {(1, 0): -2}, degree=5),
            "README.md",
        ),
        Op(
            "rotation",
            ["integrate"],
            "p = -y\nq = x\n",
            oracle.integral({(0, 1): -1}, {(1, 0): 1}, degree=2),
            "tests/test_acceptance.py test 7",
        ),
        _integrate(
            "conjugate-lines",
            poly_mul({(2, 0): 1, (0, 0): -7}, {(0, 2): 1, (0, 0): -5}),
            "planted here: H = (x^2 - 7)(y^2 - 5)",
            degree=4,
        ),
    ]


def wai_stream(seed) -> Iterator[Op]:
    yield from wai_anchors()
    rng = random.Random(f"wai:{seed}")
    i = 0
    while True:
        H = planted_hamiltonian(rng)
        yield _integrate(
            f"planted-{i}", H, "planted", max_degree=total_degree(H)
        )
        i += 1


def perturbation(seed):
    """Acceptance test 7's perturbation of the field (x, x^2 - 2y)."""
    rng = random.Random(seed)
    dp = {e: rng.choice([-1, 0, 1]) for e in [(0, 1), (2, 0), (0, 2)]}
    dq = {e: rng.choice([-1, 0, 1]) for e in [(1, 0), (1, 1), (0, 2)]}
    p = {(1, 0): 1}
    q = {(0, 1): -2, (2, 0): 1}
    for base, delta in ((p, dp), (q, dq)):
        for e, c in delta.items():
            base[e] = base.get(e, 0) + c
    p = {e: c for e, c in p.items() if c}
    q = {e: c for e, c in q.items() if c}
    return field_input(p, q)


TESTS_7 = "tests/test_acceptance.py test 7"
PINNED_HERE = "pinned at this commit as a regression oracle"
# None: the tower degree budget (16) is exceeded, which ends as exit 1 and a
# one-line error (README, ROADMAP item 4)
BUDGET = (None, "README exit codes and ROADMAP item 4")
PERTURBATION_OUTCOMES = {
    0: ("R-not-rank-one", PINNED_HERE),
    1: ("R-not-rank-one", TESTS_7),
    2: BUDGET,
    3: ("R-not-rank-one", TESTS_7),
    4: ("R-not-rank-one", PINNED_HERE),
    5: BUDGET,
    6: ("R-not-rank-one", PINNED_HERE),
    7: ("exponents-invalid", TESTS_7),
    8: ("R-not-rank-one", PINNED_HERE),
    9: ("exponents-invalid", PINNED_HERE),
    10: ("line-not-invariant", PINNED_HERE),
    11: ("exponents-invalid", PINNED_HERE),
}


def non_wai_pool(seed):
    """Every case once, each with its expected outcome; the seed only sets
    the order."""
    cases = [
        ("negative-control", "p = y + x^3\nq = x - y^3\n",
         "degree-checks-failed", "tests/test_integrability.py"),
        ("negative-control-2", "p = y - x^3\nq = x + y^3\n",
         "degree-checks-failed", PINNED_HERE),
        ("radial", "p = x\nq = y\n", "line-not-invariant", TESTS_7),
    ]
    for s, (reason, source) in PERTURBATION_OUTCOMES.items():
        cases.append((f"perturbation-{s}", perturbation(s), reason, source))
    ops = []
    for name, text, reason, source in cases:
        check = oracle.budget_error() if reason is None else oracle.no_integral(reason)
        ops.append(Op(name, ["integrate"], text, check, source))
    random.Random(f"non-wai:{seed}").shuffle(ops)
    return ops


def non_wai_stream(seed) -> Iterator[Op]:
    pool = non_wai_pool(seed)
    while True:
        yield from pool


def pencil_op(name, F1, F2, d, source, **expect):
    return Op(
        name,
        ["pencil-basepoints"],
        f"F1 = {F1}\nF2 = {F2}\n",
        oracle.pencil(d, **expect),
        source,
    )


def pencils_stream(seed) -> Iterator[Op]:
    yield pencil_op(
        "quintic-pencil",
        "X^2*Z^3 + Y^5",
        "Z^5",
        5,
        "tests/test_acceptance.py test 3",
        multiplicities=[3, 2] + [1] * 12,
        dicritical=[13],
    )
    rng = random.Random(f"pencils:{seed}")
    i = 0
    while True:
        H = planted_hamiltonian(rng)
        d = total_degree(H)
        F1 = {(a, b, d - a - b): c for (a, b), c in H.items()}
        yield pencil_op(f"planted-{i}", fmt(F1, "XYZ"), f"Z^{d}", d, "planted")
        i += 1


@dataclass
class Workload:
    name: str
    stream: Callable  # seed -> iterator of Op
    warmup: Op  # the op run once before timing, and in each set-up probe
    round_size: int  # a run ends only after a whole number of rounds
    trace_ops: int  # ops in a traced run


def _by_name(ops, name):
    return next(op for op in ops if op.name == name)


_POOL = non_wai_pool(0)

WORKLOADS = {
    "wai": Workload(
        "wai",
        wai_stream,
        _by_name(wai_anchors(), "quintic"),
        round_size=1,
        trace_ops=100,
    ),
    "non-wai": Workload(
        "non-wai",
        non_wai_stream,
        _by_name(_POOL, "perturbation-3"),
        round_size=len(_POOL),
        trace_ops=len(_POOL),
    ),
    "pencils": Workload(
        "pencils",
        pencils_stream,
        next(pencils_stream(0)),
        round_size=1,
        trace_ops=300,
    ),
}
