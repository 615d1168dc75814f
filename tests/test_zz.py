"""waifi.zz, the integer gcd and factorisation, and the rational resultant
against sympy, the library they replaced at run time and keep as oracle."""

from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing
from sympy.polys.subresultants_qq_zz import sylvester

from waifi import factor, zz
from waifi.factor import _qq_factor
from waifi.poly import from_zz, parse_poly, resultant, to_zz
from waifi.reduction import reduce
from waifi.vfield import AffineVectorField, projectivize

NAMES = ("x", "y", "z")
X = sympy.Symbol("x")


def ring(k):
    return PolyRing(NAMES[:k], ZZ, lex)


def as_dict(h):
    return {tuple(e): int(c) for e, c in h.items()}


def positive(h):
    """h with a positive lex-leading coefficient."""
    return {e: -c for e, c in h.items()} if h[max(h)] < 0 else h


# -- gcd in one to three variables ----------------------------------------------


@st.composite
def gcd_cases(draw):
    """(f, g, k): products a c and b c of small int dicts in k variables,
    with a shared factor c, sometimes times an integer content."""
    k = draw(st.integers(1, 3))
    term = st.tuples(*[st.integers(0, 3)] * k)
    coeff = st.integers(-20, 20).filter(bool)
    polys = st.dictionaries(term, coeff, min_size=1, max_size=4)
    R = ring(k)
    a, b, c = (R.from_dict(draw(polys)) for _ in range(3))
    f, g = a * c * draw(st.sampled_from((1, 6, -4))), b * c
    return as_dict(f), as_dict(g), k


def assert_gcd_matches_sympy(f, g, k):
    R = ring(k)
    theirs = R.from_dict(f).gcd(R.from_dict(g))
    assert positive(zz.gcd(f, g, k)) == positive(as_dict(theirs))


@settings(max_examples=150, deadline=None)
@given(gcd_cases())
@example(({(2,): 1, (0,): -1}, {(2,): 1, (0,): -1}, 1))
@example(({(1, 1): -3, (0, 0): 7}, {(2, 0): 5, (0, 1): 14}, 2))
@example(({(2, 1, 0): 4, (0, 0, 3): -6}, {(2, 1, 0): 6, (0, 0, 3): -9}, 3))
def test_gcd_matches_sympy(case):
    assert_gcd_matches_sympy(*case)


@settings(max_examples=60, deadline=None)
@given(gcd_cases())
@example(({(3, 0): 1, (0, 2): -1}, {(2, 1): 2, (0, 0): 1}, 2))
def test_gcd_fallback_matches_sympy(case):
    # with the heuristic failing at every point, the primitive PRS decides,
    # contents included
    with mock.patch.object(zz, "_heu_gcd", lambda f, g, k: None):
        assert_gcd_matches_sympy(*case)


def test_gcd_when_one_image_vanishes():
    # xi = 2 * 1 + 29 = 31 is a root of the operand with the larger norm
    f, g = {(1,): 1, (0,): -31}, {(1,): 1, (0,): 1}
    assert positive(zz.gcd(f, g, 1)) == {(0,): 1}
    assert positive(zz.gcd({(2,): 1, (1,): -32, (0,): 31}, {(1,): 1, (0,): -31}, 1)) == f


# -- univariate factorisation ---------------------------------------------------


def sympy_factor(dense):
    """The distinct factors of sympy's factor_list over the integers, as
    dense lists, sorted."""
    R = ring(1)
    _, factors = R.from_dict({(i,): c for i, c in enumerate(dense) if c}).factor_list()
    out = []
    for p, _ in factors:
        coeffs = [0] * (p.degree() + 1)
        for (i,), c in p.items():
            coeffs[i] = int(c)
        out.append(coeffs)
    return sorted(out)


def dense_product(parts, unit):
    out = [unit]
    for p, m in parts:
        for _ in range(m):
            out = zz._mul1(out, p)
    return out


@st.composite
def factor_cases(draw):
    """A product of up to four small integer polynomials, each to a power
    up to 3, times a signed content: not squarefree on many draws."""
    part = st.lists(st.integers(-7, 7), min_size=2, max_size=5).filter(lambda cs: cs[-1])
    parts = draw(st.lists(st.tuples(part, st.integers(1, 3)), min_size=1, max_size=4))
    return dense_product(parts, draw(st.sampled_from((1, -1, 6, -10))))


SEEDED = [
    dense_product([([-1, 1], 3), ([1, 0, 1], 1), ([3, 2], 2)], -6),
    # Swinnerton-Dyer polynomials: irreducible, but split into factors of
    # degree at most 2 (resp. 4) modulo every prime
    [1, 0, -10, 0, 1],
    [576, 0, -960, 0, 352, 0, -40, 0, 1],
    [-1] + [0] * 11 + [1],  # x^12 - 1, six cyclotomic factors
    dense_product([([0, 1], 2), ([-2, 0, 1], 2), ([1, 0, 0, 1], 1)], 9),
]


@settings(max_examples=150, deadline=None)
@given(factor_cases())
def test_factor_matches_sympy(f):
    assert sorted(zz.factor(f)) == sympy_factor(f)


@pytest.mark.parametrize("f", SEEDED)
def test_factor_matches_sympy_on_seeded_cases(f):
    assert sorted(zz.factor(f)) == sympy_factor(f)


def sympy_qq_factor(f, var):
    """_qq_factor as it was, less the unit and the multiplicities: the
    factors of sympy's factor_list in its integer ring."""
    h, _ = to_zz(f, (var,))
    _, factors = PolyRing((var,), ZZ, lex).from_dict(h).factor_list()
    return [from_zz(as_dict(p), 1, (var,)) for p, _ in factors]


def printed(factors):
    return sorted(p.to_string() for p in factors)


def test_qq_factor_distinct_factors():
    # one factor per irreducible divisor, primitive over the integers with
    # a positive leading coefficient, whatever the content and the powers
    f = parse_poly("-3/2*(x - 1)^2*(x + 2)*(2*x - 1)*x^2")
    factors = _qq_factor(f, "x")
    assert printed(factors) == ["2*x - 1", "x", "x + 2", "x - 1"]
    assert printed(factors) == printed(sympy_qq_factor(f, "x"))


def test_norms_of_a_deep_tower_match_sympy(monkeypatch):
    # reduce on the Hamiltonian field of this H factors rational norms of
    # degree up to 16 (once 213 s in sympy's recombination)
    H = parse_poly("(y - 2)^3*x*(y^3 - x^2 + y)")
    seen = []
    real = factor._qq_factor

    def spy(f, var):
        seen.append((f, var))
        return real(f, var)

    monkeypatch.setattr(factor, "_qq_factor", spy)
    reduce(projectivize(AffineVectorField(-H.diff("y"), H.diff("x"))))
    assert max(f.total_degree() for f, _ in seen) == 16
    for f, var in seen:
        assert printed(real(f, var)) == printed(sympy_qq_factor(f, var))


# -- the rational resultant -------------------------------------------------------


@pytest.mark.parametrize("m, n", [(1, 3), (3, 5), (3, 1), (5, 3), (2, 3), (3, 2), (2, 2)])
def test_resultant_matches_sympy_in_both_parities(m, n):
    # sympy 1.14 returns the wrong sign when m < n are both odd; the old
    # code handed it the operand of higher degree first, and the Sylvester
    # determinant settles the sign
    f = parse_poly(f"x^{m} - y*x + 1/2")
    g = parse_poly(f"2*x^{n} + x - 1/3*y + 1")
    F, G = (sympy.sympify(str(p).replace("^", "**")) for p in (f, g))
    if m >= n:
        expect = sympy.resultant(F, G, X)
    else:
        expect = (-1) ** (m * n) * sympy.resultant(G, F, X)
    assert sympy.expand(expect - sylvester(F, G, X).det()) == 0
    ours = sympy.sympify(str(resultant(f, g, "x")).replace("^", "**"))
    assert sympy.expand(ours - expect) == 0
