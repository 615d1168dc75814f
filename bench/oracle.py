"""Checks of every op's outcome that do not rely on waifi.

Each check takes the exit code, the parsed `--json` stdout (or None) and the
stderr text of one op, and returns a message when the outcome is wrong.
Certificates are re-verified with sympy: `IntegralCertificate.as_json`
always prints `"residual": "0"`, so that field proves nothing.
"""

from __future__ import annotations

import sympy
from sympy.parsing.sympy_parser import parse_expr

X, Y = sympy.symbols("x y")


def _poly(terms):
    return sympy.Poly.from_dict(terms, X, Y, domain="QQ")


def _factor_poly(text):
    expr = parse_expr(text.replace("^", "**"), local_dict={"x": X, "y": Y})
    return sympy.Poly(expr, X, Y, domain="QQ")


def integral(p, q, degree=None, max_degree=None):
    """Exit 0 and a certificate H = prod f_i^n_i with p*H_x + q*H_y = 0."""
    P, Q = _poly(p), _poly(q)

    def check(rc, doc, stderr):
        if rc != 0 or doc is None:
            return f"expected exit 0 with a certificate, got exit {rc}"
        if degree is not None and doc["degree"] != degree:
            return f"degree {doc['degree']}, expected {degree}"
        if max_degree is not None and not 1 <= doc["degree"] <= max_degree:
            return f"degree {doc['degree']} exceeds the planted degree {max_degree}"
        H = sympy.Poly(1, X, Y, domain="QQ")
        try:
            for f in doc["factors"]:
                H = H * _factor_poly(f["poly"]) ** f["exponent"]
        except (sympy.SympifyError, sympy.PolificationFailed, SyntaxError, TypeError) as exc:
            return f"factor not a rational polynomial in x, y: {exc}"
        if H.total_degree() != doc["degree"]:
            return f"factors have degree {H.total_degree()}, reported {doc['degree']}"
        if not (P * H.diff(X) + Q * H.diff(Y)).is_zero:
            return "p*H_x + q*H_y is not zero"
        return None

    return check


def no_integral(reason):
    """Exit 2 with the pinned reason code."""

    def check(rc, doc, stderr):
        if rc != 2 or doc is None:
            return f"expected exit 2, got exit {rc}"
        if doc.get("reason") != reason:
            return f"reason {doc.get('reason')!r}, expected {reason!r}"
        return None

    return check


def budget_error():
    """Exit 1 and a one-line error: the documented end of a blown budget."""

    def check(rc, doc, stderr):
        if rc != 1:
            return f"expected exit 1, got exit {rc}"
        lines = stderr.strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith("error:"):
            return f"expected a one-line error, got {len(lines)} lines"
        return None

    return check


def pencil(d, multiplicities=None, dicritical=None):
    """Noether's formula sum m^2 = d^2 and the proximity inequalities."""

    def check(rc, doc, stderr):
        if rc != 0 or doc is None:
            return f"expected exit 0, got exit {rc}"
        mult = {int(k): v for k, v in doc["multiplicities"].items()}
        if sum(m * m for m in mult.values()) != d * d:
            return f"sum of squared multiplicities is not {d}^2"
        for p in doc["points"]:
            beyond = sum(
                mult[q["id"]] for q in doc["points"] if p["id"] in q["proximate_to"]
            )
            if mult[p["id"]] < beyond:
                return f"proximity inequality fails at point {p['id']}"
        if multiplicities is not None:
            got = [mult[p["id"]] for p in doc["points"]]
            if got != multiplicities:
                return f"multiplicities {got}, expected {multiplicities}"
        if dicritical is not None:
            got = [p["id"] for p in doc["points"] if p["dicritical"]]
            if got != dicritical:
                return f"dicritical points {got}, expected {dicritical}"
        return None

    return check
