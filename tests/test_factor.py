from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from waifi.factor import adjoin_root, roots_in_extension, univ_factor
from waifi.field import FieldElement, QQ_TOWER, Tower
from waifi.poly import MultiPoly, parse_poly


def test_univ_factor_rational():
    # 5t^5 + 2t^3 = t^3 (5t^2 + 2); oracle by trial division
    f = parse_poly("5*x^5 + 2*x^3")
    factors = univ_factor(f)
    rebuilt = MultiPoly.constant(1, ("x",))
    for p, m in factors:
        rebuilt = rebuilt * p ** m
    assert rebuilt == f
    nontrivial = [(p.to_string(), m) for p, m in factors if not p.is_constant()]
    assert nontrivial == [("x", 3), ("5*x^2 + 2", 1)]


def test_univ_factor_irreducible():
    factors = univ_factor(parse_poly("x^2 + 1"))
    assert len(factors) == 1 and factors[0][1] == 1


def test_roots_adjoin():
    roots, tower = roots_in_extension(parse_poly("x^2 + 1"), QQ_TOWER)
    assert tower.depth == 1
    assert len(roots) == 2
    for r in roots:
        assert (r * r + 1).is_zero()
    # over the grown tower, x^4 - 1 splits completely
    roots4, tower = roots_in_extension(parse_poly("x^4 - 1"), tower)
    assert len(roots4) == 4
    assert tower.depth == 1


def test_roots_no_adjoin():
    roots, tower = roots_in_extension(parse_poly("x^2 - 2"), QQ_TOWER, adjoin=False)
    assert roots == [] and tower.depth == 0


def test_factor_over_extension():
    _, tower = roots_in_extension(parse_poly("x^2 + 1"), QQ_TOWER)
    x = MultiPoly.variable("x", tower)
    f = x ** 2 + 1
    factors = univ_factor(f)
    nonconst = [p for p, _ in factors if not p.is_constant()]
    assert len(nonconst) == 2
    prod = MultiPoly.constant(1, ("x",), tower)
    for p, m in factors:
        prod = prod * p ** m
    assert prod == f


def test_adjoin_root_validations():
    with pytest.raises(ValueError):
        adjoin_root(QQ_TOWER, parse_poly("x^2 - 1"))  # reducible
    with pytest.raises(ValueError):
        adjoin_root(QQ_TOWER, parse_poly("x - 2"))  # degree too small
    tower, theta = adjoin_root(QQ_TOWER, parse_poly("x^2 - 2"))
    assert theta * theta == FieldElement.rational(2, tower)
    with pytest.raises(ValueError):
        adjoin_root(tower, parse_poly("x^2 - 2"))  # already has a root


def test_nested_factorization():
    # sqrt(2) then x^4 - 2 factors into two quadratics over Q(sqrt 2)
    tower, s = adjoin_root(QQ_TOWER, parse_poly("x^2 - 2"))
    x = MultiPoly.variable("x", tower)
    f = x ** 4 - 2
    factors = [p for p, _ in univ_factor(f) if not p.is_constant()]
    assert sorted(p.total_degree() for p in factors) == [2, 2]


X = sympy.Symbol("x")


def as_sympy(p):
    expr = sympy.Integer(0)
    for (k,), c in p.drop_unused_vars().with_vars(("x",)).terms.items():
        expr += sympy.Rational(c.numerator, c.denominator) * X ** k
    return expr


univariates = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=1, max_size=4
).map(
    lambda cs: MultiPoly.from_coeff_dict(("x",), {(i,): c for i, c in enumerate(cs)})
)


@settings(max_examples=100, deadline=None)
@given(st.lists(univariates, min_size=1, max_size=3))
def test_univ_factor_matches_sympy(parts):
    f = MultiPoly.constant(1, ("x",))
    for p in parts:
        f = f * p
    if f.is_zero():
        with pytest.raises(ValueError):
            univ_factor(f)
        return
    ours = univ_factor(f)
    rebuilt = MultiPoly.constant(1, ("x",))
    for p, m in ours:
        rebuilt = rebuilt * p ** m
    assert rebuilt == f
    _, theirs = sympy.factor_list(as_sympy(f), X)
    assert sorted(
        (str(as_sympy(p.monic())), m) for p, m in ours if not p.is_constant()
    ) == sorted((str(sympy.Poly(q, X).monic().as_expr()), m) for q, m in theirs)


def test_univ_factor_edge_cases():
    with pytest.raises(ValueError):
        univ_factor(MultiPoly.zero(("x",)))
    three = MultiPoly.constant(3, ("x",))
    assert univ_factor(three) == [(three, 1)]
    with pytest.raises(ValueError):
        univ_factor(parse_poly("x*y + 1"))
    factors = univ_factor(parse_poly("2*x^2 - 2"))
    assert [(p.to_string(), m) for p, m in factors] == [
        ("2", 1), ("x + 1", 1), ("x - 1", 1)
    ]
