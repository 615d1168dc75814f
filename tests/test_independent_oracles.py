"""The decision against oracles that share no code with waifi.

Fields go in and verdicts come out through the command line, in process,
and are checked in plain sympy:

- `has_integral`: whether some nonconstant polynomial H of degree at most k
  has p*H_x + q*H_y = 0, as a nonzero kernel of that linear map on the
  monomials of degree 1..k.
- Random fields (seeded): every run exits 0, 2 or 1 (one `error:` line and
  no traceback), and `--method both` never finds the routes in
  disagreement.  A certificate of degree n is minimal: no integral of
  degree below n exists.  "No integral" is checked up to degree 3.
- Planted curves with one place at infinity that are not graphs: y^a - x^b
  plus terms below its Newton edge, gcd(a, b) = 1, and their images under
  the automorphisms (x, y + c*x^k) and (x + c*y^k, y), which keep one place
  at infinity (Abhyankar-Moh).  The Hamiltonian field of a product of one
  or two of them certifies; the printed integral has a zero residual, a
  degree at most the planted one, and the planted H is a polynomial in it.

On every certified field `poincare` exits 0 at the budgets `integrate` ran
with and prints the same degree.

- Metamorphic invariance: the field mirrored in x = y, (q(y, x), p(y, x)),
  and the field times -2 get the same exit code and last line of output,
  and their printed integrals are a*H + b for the integral H of (p, q).
  The mirror moves points at infinity between the charts X and Y.
"""

import contextlib
import io
import random
import tempfile
from math import gcd
from pathlib import Path

import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import assume, event, given, settings, strategies as st

from waifi.cli import main

X, Y = sympy.symbols("x y")
BUDGET = ["--max-tower-degree", "8", "--max-depth", "16"]


def run(command, p, q, *flags):
    """(exit code, stdout, stderr) of one CLI command on the field (p, q)."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "field.txt"
        spec.write_text(f"p = {as_input(p)}\nq = {as_input(q)}\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(spec), *flags])
    return code, out.getvalue(), err.getvalue()


def as_input(expr):
    return str(sympy.expand(expr)).replace("**", "^")


def has_integral(p, q, k):
    """Whether a nonconstant polynomial H of degree at most k has
    p*H_x + q*H_y = 0."""
    mons = [X**i * Y ** (d - i) for d in range(1, k + 1) for i in range(d + 1)]
    images = [
        sympy.Poly(p * sympy.diff(m, X) + q * sympy.diff(m, Y), X, Y).as_dict()
        for m in mons
    ]
    keys = sorted({e for image in images for e in image})
    return rank([[image.get(e, 0) for image in images] for e in keys]) < len(mons)


def rank(rows):
    """The rank of an integer matrix, by elimination over QQ."""
    return DomainMatrix.from_Matrix(sympy.Matrix(rows)).rank()


def printed_integral(out):
    """The integral H and its degree from the two lines of integrate."""
    h_line, degree_line = out.splitlines()
    assert h_line.startswith("H = ") and degree_line.startswith("degree = ")
    H = sympy.sympify(h_line[len("H = "):].replace("^", "**"))
    return H, int(degree_line[len("degree = "):])


def assert_certified(p, q, code, out, *budget):
    """The certificate of integrate --method both run with the flags
    budget: a zero residual, no integral of lower degree, and the same
    degree from poincare, which must decide at the same budgets.  Returns
    (H, degree)."""
    assert code == 0, out
    H, n = printed_integral(out)
    if H.free_symbols <= {X, Y}:
        assert sympy.expand(p * sympy.diff(H, X) + q * sympy.diff(H, Y)) == 0
        assert sympy.Poly(H, X, Y).total_degree() == n
    assert n == 1 or not has_integral(p, q, n - 1)
    # a WAI integral has every dicritical point on the line at infinity,
    # where poincare reads the degree with the walk integrate took
    code, poincare, err = run("poincare", p, q, *budget)
    assert (code, err) == (0, ""), poincare + err
    assert poincare.startswith(f"degree = {n}, exponents = ")
    return H, n


# -- random fields ------------------------------------------------------------


def random_field(rng):
    """p and q of degree 1 to 3: each monomial of degree at most the drawn
    degree is kept with probability 0.35, with a coefficient in
    +-{1, 2, 3}; never both zero."""
    degree = rng.randint(1, 3)
    mons = [X**i * Y**j for i in range(degree + 1) for j in range(degree + 1 - i)]
    while True:
        p, q = (
            sum(rng.choice([-3, -2, -1, 1, 2, 3]) * m for m in mons if rng.random() < 0.35)
            for _ in range(2)
        )
        if p != 0 or q != 0:
            return sympy.sympify(p), sympy.sympify(q)


def test_random_fields_against_the_integral_search():
    rng = random.Random(7)
    outcomes = []
    for _ in range(100):
        p, q = random_field(rng)
        code, out, err = run("integrate", p, q, "--method", "both", *BUDGET)
        outcomes.append(code)
        where = f"p = {p}, q = {q}"
        if code == 1:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), where
            assert "disagree" not in err and "Traceback" not in err, where
            assert out == "", where
            continue
        assert err == "", where
        if code == 0:
            assert_certified(p, q, code, out, *BUDGET)
        else:
            assert code == 2, where
            assert out.startswith("no WAI polynomial first integral ("), where
            assert not has_integral(p, q, 3), where
    # each outcome occurs on this seed
    assert set(outcomes) == {0, 1, 2}


# -- planted curves with one place at infinity --------------------------------

# (a, b) with 2 <= a < b <= 5 and gcd(a, b) = 1
EXPONENT_PAIRS = [(a, b) for b in range(3, 6) for a in range(2, b) if gcd(a, b) == 1]
COEFFS = st.sampled_from([-2, -1, 1, 2])


@st.composite
def one_place_curves(draw, max_degree):
    """y^a - x^b plus terms x^i y^j with a*i + b*j < a*b, perhaps moved by
    (x, y + c*x^k) or (x + c*y^k, y) with k <= 2, of degree at most
    max_degree: irreducible, one place at infinity, and never a graph."""
    a, b = draw(st.sampled_from([(a, b) for a, b in EXPONENT_PAIRS if b <= max_degree]))
    below = [(i, j) for i in range(b) for j in range(a) if a * i + b * j < a * b]
    terms = draw(st.dictionaries(st.sampled_from(below), COEFFS, max_size=3))
    f = Y**a - X**b + sum(c * X**i * Y**j for (i, j), c in terms.items())
    move = draw(st.sampled_from(["none", "y", "x"]))
    c, k = draw(COEFFS), draw(st.integers(1, 2))
    if move == "y":
        f = f.subs(Y, Y + c * X**k)
    elif move == "x":
        f = f.subs(X, X + c * Y**k)
    f = sympy.expand(f)
    assume(sympy.Poly(f, X, Y).total_degree() <= max_degree)
    return f


@st.composite
def planted_integrals(draw):
    """A product of one or two distinct such curves with coprime exponents,
    of total degree at most 8: one curve with exponent 1, or two with
    exponents 1 and 1, the first of degree at most 5."""
    first = draw(one_place_curves(8))
    if draw(st.booleans()):
        event("1 curve")
        return first
    rest = 8 - sympy.Poly(first, X, Y).total_degree()
    assume(rest >= 3)
    second = draw(one_place_curves(rest))
    assume(second != first)
    event("2 curves")
    return first * second


def is_polynomial_in(H, G):
    """Whether H = P(G) for a polynomial P with rational coefficients."""
    dh, dg = (sympy.Poly(f, X, Y).total_degree() for f in (H, G))
    if dh % dg:
        return False
    powers = [sympy.Poly(G**i, X, Y).as_dict() for i in range(dh // dg + 1)]
    target = sympy.Poly(H, X, Y).as_dict()
    keys = sorted(set(target).union(*powers))
    basis = [[pw.get(e, 0) for pw in powers] for e in keys]
    return rank(basis) == rank([row + [target.get(e, 0)] for row, e in zip(basis, keys)])


@settings(max_examples=25, deadline=None)
@given(planted_integrals())
def test_planted_curves_with_one_place_at_infinity_certify(H):
    p, q = -sympy.diff(H, Y), sympy.diff(H, X)
    code, out, err = run("integrate", p, q, "--method", "both")
    assert err == ""
    G, n = assert_certified(p, q, code, out)
    assert G.free_symbols <= {X, Y}
    assert n <= sympy.Poly(H, X, Y).total_degree()
    assert is_polynomial_in(H, G)


# -- metamorphic invariance ---------------------------------------------------

MIRROR = {X: Y, Y: X}


def is_affine_in(G, H):
    """Whether G = a*H + b for rationals a != 0 and b."""
    g, h = (sympy.Poly(f, X, Y).as_dict() for f in (G, H))
    e = next(e for e in h if any(e))
    a = g.get(e, 0) / h[e]
    return a != 0 and not sympy.expand(G - a * H).free_symbols


def assert_invariant(p, q, *budget):
    """integrate on (p, q), on its mirror and on (-2p, -2q), at the flags
    budget: the same exit code and last stdout line, and on exit 0 integrals
    that are affine in each other once the mirror's is mirrored back."""
    fields = [(p, q), (q.xreplace(MIRROR), p.xreplace(MIRROR)), (-2 * p, -2 * q)]
    runs = [run("integrate", f, g, *budget) for f, g in fields]
    code, out, _ = runs[0]
    where = f"p = {p}, q = {q}"
    for other, other_out, _ in runs[1:]:
        assert (other, other_out.splitlines()[-1:]) == (code, out.splitlines()[-1:]), where
    if code == 0:
        H = printed_integral(out)[0]
        mirrored = printed_integral(runs[1][1])[0].xreplace(MIRROR)
        scaled = printed_integral(runs[2][1])[0]
        assert is_affine_in(mirrored, H) and is_affine_in(scaled, H), where
    return code


def test_random_fields_are_invariant_under_mirror_and_scaling():
    rng = random.Random(7)
    codes = {assert_invariant(*random_field(rng), *BUDGET) for _ in range(100)}
    assert codes == {0, 1, 2}


@settings(max_examples=10, deadline=None)
@given(planted_integrals())
def test_planted_fields_are_invariant_under_mirror_and_scaling(H):
    assert assert_invariant(-sympy.diff(H, Y), sympy.diff(H, X)) == 0
