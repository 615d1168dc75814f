import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from waifi.cli import main


def write(tmp_path, text, name="input.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_integrate_success_json(tmp_path, capsys):
    spec = write(tmp_path, "p = 5*y^4\nq = -2*x\n")
    code, out, _ = run(capsys, ["integrate", spec, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 5
    assert doc["factors"] == [{"poly": "x^2 + y^5", "exponent": 1}]
    assert doc["reason"] is None


def test_integrate_human_output(tmp_path, capsys):
    spec = write(tmp_path, "p = 5*y^4\nq = -2*x\n")
    code, out, _ = run(capsys, ["integrate", spec])
    assert code == 0
    assert "H = (x^2 + y^5)" in out
    assert "degree = 5" in out


def test_integrate_methods_agree(tmp_path, capsys):
    spec = write(tmp_path, "p = 2*y\nq = 3*x^2\n")
    outputs = []
    for method in ("pairing", "darboux", "both"):
        code, out, _ = run(capsys, ["integrate", spec, "--json", "--method", method])
        assert code == 0
        doc = json.loads(out)
        outputs.append((doc["degree"], doc["factors"]))
    assert outputs[0] == outputs[1] == outputs[2]


def test_integrate_negative_exit_code(tmp_path, capsys):
    spec = write(tmp_path, "p = x\nq = y\n")
    code, out, _ = run(capsys, ["integrate", spec, "--json"])
    assert code == 2
    doc = json.loads(out)
    assert doc["degree"] is None
    assert doc["reason"] == "line-not-invariant"


def test_integrate_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"p = -y\nq = x\n")))
    code, out, _ = run(capsys, ["integrate", "-", "--json"])
    assert code == 0
    assert json.loads(out)["degree"] == 2


def test_reduce_json_and_dot(tmp_path, capsys):
    spec = write(tmp_path, "p = 5*y^4\nq = -2*x\n")
    dot_path = tmp_path / "graph.dot"
    code, out, _ = run(capsys, ["reduce", spec, "--json", "--dot", str(dot_path)])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["singular_points"]) == 18
    assert doc["dicritical"] == list(range(14))
    assert doc["infinity_points"] == [0, 1]
    dot = dot_path.read_text()
    assert dot.startswith("graph proximity {")
    assert "style=dashed" in dot


def test_reduce_accepts_one_form_input(tmp_path, capsys):
    spec = write(
        tmp_path,
        "A = 2*X*Z^4\nB = 5*Y^4*Z\nC = -2*X^2*Z^3 - 5*Y^5\n",
    )
    code, out, _ = run(capsys, ["reduce", spec, "--json"])
    assert code == 0
    doc = json.loads(out)
    # same reduction as the (p, q) = (5y^4, -2x) field
    assert len(doc["singular_points"]) == 18


@pytest.mark.parametrize("factor", ["X + Y", "Z^2*(X - 2*Y)"])
def test_reduce_divides_a_one_form_by_its_common_factor(tmp_path, capsys, factor):
    # the quintic's form times a factor reduces as the (5y^4, -2x) field
    comps = ("2*X*Z^4", "5*Y^4*Z", "-2*X^2*Z^3 - 5*Y^5")
    text = "".join(f"{k} = ({factor})*({c})\n" for k, c in zip("ABC", comps))
    code, out, _ = run(capsys, ["reduce", write(tmp_path, text), "--json"])
    field = write(tmp_path, "p = 5*y^4\nq = -2*x\n", name="field.txt")
    assert code == 0
    assert out == run(capsys, ["reduce", field, "--json"])[1]


def test_reduce_determinism(tmp_path, capsys):
    spec = write(tmp_path, "p = 5*y^4\nq = -2*x\n")
    _, out1, _ = run(capsys, ["reduce", spec, "--json"])
    _, out2, _ = run(capsys, ["reduce", spec, "--json"])
    assert out1 == out2


def test_dicritical_command(tmp_path, capsys):
    spec = write(tmp_path, "p = -y\nq = x\n")
    code, out, _ = run(capsys, ["dicritical", spec, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert [p["id"] for p in doc["points"]] == [0, 1, 2, 3]
    assert [p["id"] for p in doc["points"] if p["dicritical"]] == [1, 3]
    assert doc["infinity_points"] == [0, 2]
    # the quintic: the human output tags P0 and P1 on-infinity-line
    spec = write(tmp_path, "p = 5*y^4\nq = -2*x\n", name="quintic.txt")
    code, out, _ = run(capsys, ["dicritical", spec, "--json"])
    assert code == 0
    assert json.loads(out)["infinity_points"] == [0, 1]


def test_reduce_human_output_tags_each_class_once(tmp_path, capsys):
    spec = write(tmp_path, "p = 5*y^4\nq = -2*x\n")
    code, out, _ = run(capsys, ["reduce", spec])
    assert code == 0
    assert "P13: V1 over 12 at 0; proximate to {12}; dicritical\n" in out
    assert "dicritical dicritical" not in out


def test_poincare_command(tmp_path, capsys):
    spec = write(tmp_path, "p = 5*y^4\nq = -2*x\n")
    code, out, _ = run(capsys, ["poincare", spec, "--json"])
    assert code == 0
    assert json.loads(out) == {"degree": 5, "exponents": [1]}
    code, out, _ = run(capsys, ["poincare", spec, "--json", "--bound"])
    assert code == 0
    assert json.loads(out) == {"bound": 5}
    # every placement of the infinity line fails: a verdict, exit 2
    spec = write(tmp_path, "p = x^2\nq = y^2\n", name="none.txt")
    code, out, _ = run(capsys, ["poincare", spec, "--json", "--bound"])
    assert code == 2
    assert json.loads(out) == {"degree": None, "reason": "no-admissible-placement"}
    code, out, _ = run(capsys, ["poincare", spec, "--bound"])
    assert (code, out) == (2, "undetermined (no-admissible-placement)\n")


def test_pencil_command(tmp_path, capsys):
    spec = write(tmp_path, "F1 = X^2*Z^3 + Y^5\nF2 = Z^5\n")
    code, out, _ = run(capsys, ["pencil-basepoints", spec, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 14
    mults = [doc["multiplicities"][str(i)] for i in range(14)]
    assert mults == [3, 2] + [1] * 12
    assert [p["id"] for p in doc["points"] if p["dicritical"]] == [13]


@pytest.mark.parametrize(
    "command, text, flags, message",
    [
        # the base points need Q(sqrt 2, sqrt 3), degree 4 over Q
        (
            "pencil-basepoints",
            "F1 = X^2 - 2*Z^2\nF2 = Y^2 - 3*Z^2\n",
            ["--max-tower-degree", "2"],
            "error: tower degree 4 exceeds cap 2\n",
        ),
        # the base points of the quintic pencil span 13 levels
        (
            "pencil-basepoints",
            "F1 = X^2*Z^3 + Y^5\nF2 = Z^5\n",
            ["--max-depth", "1"],
            "error: base points deeper than 1 levels\n",
        ),
        # so does the reduction of the quintic field
        (
            "reduce",
            "p = 5*y^4\nq = -2*x\n",
            ["--max-depth", "1"],
            "error: reduction deeper than 1 levels\n",
        ),
    ],
    ids=["tower-degree", "depth", "reduce-depth"],
)
def test_pencil_budget_exit_code(tmp_path, capsys, command, text, flags, message):
    # the budgets of the resolution walker, shared by pencils and reduce
    spec = write(tmp_path, text)
    code, out, err = run(capsys, [command, spec, "--json"] + flags)
    assert code == 1
    assert out == ""
    assert err == message


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--max-depth", "-1", "must be at least 0, not -1"),
        ("--max-tower-degree", "0", "must be at least 1, not 0"),
        ("--max-tower-degree", "-3", "must be at least 1, not -3"),
    ],
)
@pytest.mark.parametrize(
    "command, text",
    [
        ("integrate", "p = 5*y^4\nq = -2*x\n"),
        ("reduce", "p = 5*y^4\nq = -2*x\n"),
        ("pencil-basepoints", "F1 = X^2*Z^3 + Y^5\nF2 = Z^5\n"),
    ],
)
def test_meaningless_budget_is_a_usage_error(
    tmp_path, capsys, monkeypatch, command, text, flag, value, message
):
    # rejected while the arguments are parsed: no work starts
    import waifi.cli as cli

    def never(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "_read_spec", never)
    spec = write(tmp_path, text)
    code, out, err = run(capsys, [command, spec, flag, value])
    assert (code, out) == (1, "")
    assert err == f"error: argument {flag}: {message}\n"


def test_smallest_budgets_are_accepted(tmp_path, capsys):
    # a depth of 0 allows no blow-up, a tower degree of 1 no extension
    spec = write(tmp_path, "p = 5*y^4\nq = -2*x\n")
    code, _, err = run(capsys, ["reduce", spec, "--max-depth", "0"])
    assert (code, err) == (1, "error: reduction deeper than 0 levels\n")
    spec = write(tmp_path, "p = y^2 - 2\nq = x^2 - 3\n")
    code, _, err = run(capsys, ["integrate", spec, "--max-tower-degree", "1"])
    assert (code, err) == (1, "error: tower degree 2 exceeds cap 1\n")


def test_bad_input_exit_code(tmp_path, capsys):
    spec = write(tmp_path, "p = x +\nq = y\n")
    code, _, err = run(capsys, ["integrate", spec])
    assert code == 1
    assert "error:" in err
    spec2 = write(tmp_path, "p = x\n", name="missing.txt")
    code, _, err = run(capsys, ["integrate", spec2])
    assert code == 1
    code, _, err = run(capsys, ["integrate", str(tmp_path / "nope.txt")])
    assert code == 1
    # constant pencil generators
    spec3 = write(tmp_path, "F1 = 1\nF2 = 2\n", name="constant.txt")
    for argv in (["pencil-basepoints", spec3], ["pencil-basepoints", spec3, "--json"]):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: pencil generators must have positive degree\n"
    # usage errors: no input file, an unknown flag, no subcommand, the
    # removed --seed of pencil-basepoints
    for argv in (
        ["integrate"],
        ["integrate", spec, "--bogus"],
        [],
        ["pencil-basepoints", spec, "--seed", "3"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_non_utf8_input_is_one_error_line(tmp_path, capsys):
    spec = tmp_path / "latin1.txt"
    spec.write_bytes(b"p = x\xff\nq = y\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["integrate", str(spec)])
        run(capsys, ["integrate", write(tmp_path, "p = 5*y^4\nq = -2*x\n")])
    assert (code, out) == (1, "")
    assert err == "error: input is not UTF-8: byte 5 (invalid start byte)\n"
    # the input file is closed, not left to the garbage collector
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize(
    "data, message",
    [
        (b"p = x\xff\nq = y\n", "input is not UTF-8: byte 5 (invalid start byte)"),
        (b"p = \nq = y\n", "line 1: unexpected end of input (line 1, column 1)"),
    ],
)
def test_stdin_reads_like_a_file(tmp_path, capsys, monkeypatch, data, message):
    import io

    spec = tmp_path / "input.txt"
    spec.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    for path in ("-", str(spec)):
        assert run(capsys, ["integrate", path]) == (1, "", f"error: {message}\n")


def test_deep_nesting_is_one_error_line(tmp_path, capsys):
    deep = "(" * 1000 + "x" + ")" * 1000
    spec = write(tmp_path, f"p = {deep}\nq = y\n")
    code, out, err = run(capsys, ["integrate", spec])
    assert (code, out) == (1, "")
    assert err == (
        "error: line 1: parentheses nested too deeply (line 1, column 101)\n"
    )


def test_integers_past_the_str_digit_limit(tmp_path, capsys):
    # the interpreter refuses int/str conversions of more than 4300 digits
    # by default; main lifts that limit for its run and restores it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    spec = write(tmp_path, f"p = {'7' * 5000}*x\nq = 1\n")
    code, out, err = run(capsys, ["integrate", spec])
    assert (code, err) == (2, "")
    spec = write(tmp_path, "p = -(2^20000)\nq = 1\n", name="power.txt")
    code, out, err = run(capsys, ["integrate", spec])
    assert (code, err) == (0, "")
    # H = x + 2^20000 y, whose coefficient has 6021 digits
    first, last = out.splitlines()
    assert first.startswith("H = (x + 39802") and first.endswith("09376*y)")
    assert len(first) == len("H = (x + *y)") + 6021
    assert last == "degree = 1"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_tower_budget_exit_code(tmp_path, capsys):
    # the singular points need Q(sqrt 2, sqrt 3), degree 4 over Q
    spec = write(tmp_path, "p = y^2 - 2\nq = x^2 - 3\n")
    code, out, err = run(capsys, ["integrate", spec, "--max-tower-degree", "2"])
    assert code == 1
    assert out == ""
    assert err == "error: tower degree 4 exceeds cap 2\n"


@pytest.mark.parametrize("cap", [[], ["--max-tower-degree", "1"]])
def test_line_not_invariant_is_a_verdict_under_any_tower_cap(tmp_path, capsys, cap):
    # its affine points need a tower of degree 42, but the line at infinity
    # is not invariant, and that verdict comes before any point is reduced
    spec = write(tmp_path, "p = x^3 + y^2 - 3\nq = x^2*y + x - 5\n")
    code, out, err = run(capsys, ["integrate", spec, *cap])
    assert (code, out, err) == (
        2,
        "no WAI polynomial first integral (line-not-invariant)\n",
        "",
    )
    code, out, _ = run(capsys, ["integrate", spec, "--json", *cap])
    assert code == 2
    assert json.loads(out)["reason"] == "line-not-invariant"


def test_wai_field_certifies_within_a_small_tower_cap(tmp_path, capsys):
    # H = x^5 - x - y^2: its four simple affine singular points need a tower
    # of degree 8, but the certificate comes from the points at infinity
    spec = write(tmp_path, "p = -2*y\nq = 1 - 5*x^4\n")
    outputs = [
        run(capsys, ["integrate", spec, *cap]) for cap in ([], ["--max-tower-degree", "4"])
    ]
    assert outputs[0] == outputs[1] == (0, "H = (x^5 - x - y^2)\ndegree = 5\n", "")
    # the reduction still builds every point, and its cap still holds
    code, out, err = run(capsys, ["reduce", spec, "--max-tower-degree", "4"])
    assert (code, out) == (1, "")
    assert err == "error: tower degree 8 exceeds cap 4\n"


def test_invalid_one_form_rejected(tmp_path, capsys):
    # XA + YB + ZC != 0
    spec = write(tmp_path, "A = X\nB = Y\nC = Z\n")
    code, _, err = run(capsys, ["reduce", spec])
    assert code == 1
    assert "error:" in err


# -- internal failures leave as one error line with exit 1 ------------------


@pytest.mark.parametrize("field", ["verdict", "degree", "exponents"])
def test_routes_disagree_exit_code(tmp_path, capsys, monkeypatch, field):
    import dataclasses

    import waifi.integrability as integrability

    real = integrability._certify

    def certify(V, front, route):
        cert = real(V, front, route)
        if route != "pairing":
            return cert
        if field == "verdict":
            raise integrability.AnalysisFailure("planted-disagreement")
        if field == "degree":
            return dataclasses.replace(cert, degree=cert.degree + 1)
        return dataclasses.replace(cert, exponents=[n + 1 for n in cert.exponents])

    monkeypatch.setattr(integrability, "_certify", certify)
    spec = write(tmp_path, "p = 2*y\nq = 3*x^2\n")
    code, out, err = run(capsys, ["integrate", spec, "--method", "both", "--json"])
    assert (code, out) == (1, "")
    assert err == f"error: the two routes disagree on {field}\n"


def test_divisibility_violation_exit_code(tmp_path, capsys, monkeypatch):
    import waifi.reduction as reduction
    from waifi.blowup import DICRITICAL, ORDINARY

    real = reduction.classify

    def mislabel(form, m):
        # an ordinary point called dicritical: its blow-up removes m, not m+1
        cls = real(form, m)
        return DICRITICAL if cls == ORDINARY else cls

    monkeypatch.setattr(reduction, "classify", mislabel)
    spec = write(tmp_path, "p = 5*y^4\nq = -2*x\n")
    code, out, err = run(capsys, ["reduce", spec])
    assert (code, out) == (1, "")
    assert err.startswith("error: removed exceptional power ")
    assert err.count("\n") == 1


def test_no_squarefree_norm_shift_exit_code(tmp_path, capsys, monkeypatch):
    import waifi.factor as factor
    from waifi.poly import MultiPoly

    real = factor.resultant

    def resultant(f, g, var):
        # a norm that is never squarefree of the right degree
        return MultiPoly.zero() if var == factor._ZVAR else real(f, g, var)

    monkeypatch.setattr(factor, "resultant", resultant)
    # no certificate comes from the points at infinity (the field has no
    # WAI integral), so integrate goes on to the affine singular points
    # (+-sqrt 2, 0), which are factored over Q(sqrt 2)
    spec = write(tmp_path, "p = x^2 - 2\nq = y\n")
    code, out, err = run(capsys, ["integrate", spec])
    assert (code, out) == (1, "")
    assert err == "error: no squarefree norm shift found\n"


def test_no_generic_pencil_member_exit_code(tmp_path, capsys, monkeypatch):
    import waifi.linsys as linsys

    monkeypatch.setattr(linsys, "_check_member", lambda eq, conf, pid, mults: False)
    spec = write(tmp_path, "F1 = X^2*Z^3 + Y^5\nF2 = Z^5\n")
    code, out, err = run(capsys, ["pencil-basepoints", spec])
    assert (code, out) == (1, "")
    # the quintic pencil's cluster has 14 points
    assert err == "error: no member F1 + t*F2 with t = 1..15 is generic\n"


def test_split_required_exit_code(tmp_path, capsys, monkeypatch):
    from fractions import Fraction

    import waifi.reduction as reduction
    from waifi.field import SplitRequired

    def split(form, m):
        # x^2 - 1 = (x - 1)(x + 1) found while inverting at level 1
        one = Fraction(1)
        raise SplitRequired(1, ((-one, one), (one, one)))

    monkeypatch.setattr(reduction, "classify", split)
    spec = write(tmp_path, "p = 5*y^4\nq = -2*x\n")
    code, out, err = run(capsys, ["reduce", spec])
    assert (code, out) == (1, "")
    assert err == "error: modulus at level 1 factors\n"


def test_non_ascii_digits_are_one_error_line(tmp_path, capsys):
    # str.isdigit accepts the superscript two and the Arabic-Indic three;
    # integers are ASCII digits, so both are syntax errors at their position
    cases = {
        "p = x^²\nq = y\n": "expected an integer (line 1, column 3)",
        "p = ٣*x\nq = y\n": "unexpected character '٣' (line 1, column 1)",
    }
    for text, message in cases.items():
        spec = write(tmp_path, text)
        code, out, err = run(capsys, ["integrate", spec])
        assert (code, out) == (1, "")
        assert err == f"error: line 1: {message}\n"


def test_a_byte_order_mark_is_skipped(tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    spec = tmp_path / "bom.txt"
    spec.write_bytes(bom + b"p = 5*y^4\nq = -2*x\n")
    code, out, err = run(capsys, ["integrate", str(spec)])
    assert (code, out, err) == (0, "H = (x^2 + y^5)\ndegree = 5\n", "")
    # one mark only: a second is part of the first key
    spec.write_bytes(bom + bom + b"p = 5*y^4\nq = -2*x\n")
    code, out, err = run(capsys, ["integrate", str(spec)])
    assert (code, out) == (1, "")
    assert err == "error: line 1: unknown key '\\ufeffp' (integrate reads p, q)\n"
    # a byte offset counts the mark, like any other byte of the file
    spec.write_bytes(bom + b"p = x\xff\nq = y\n")
    code, out, err = run(capsys, ["integrate", str(spec)])
    assert (code, out) == (1, "")
    assert err == "error: input is not UTF-8: byte 8 (invalid start byte)\n"


FIELD = "p = 5*y^4\nq = -2*x\n"
FORM = "A = 2*X*Z^4\nB = 5*Y^4*Z\nC = -2*X^2*Z^3 - 5*Y^5\n"
PENCIL = "F1 = X^2*Z^3 + Y^5\nF2 = Z^5\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("integrate", FIELD + FORM, "line 3: unknown key 'A' (integrate reads p, q)"),
        ("integrate", FIELD + "r = 2\n", "line 3: unknown key 'r' (integrate reads p, q)"),
        (
            "reduce",
            FIELD + FORM,
            "keys p, q and A, B, C are two inputs (reduce reads p, q or A, B, C)",
        ),
        (
            "poincare",
            "C = 1\np = x\n",
            "keys p and C are two inputs (poincare reads p, q or A, B, C)",
        ),
        (
            "dicritical",
            FORM + "F1 = X\n",
            "line 4: unknown key 'F1' (dicritical reads p, q or A, B, C)",
        ),
        (
            "pencil-basepoints",
            PENCIL + FIELD,
            "line 3: unknown key 'p' (pencil-basepoints reads F1, F2)",
        ),
    ],
)
def test_one_input_model_per_file(tmp_path, capsys, command, text, message):
    spec = write(tmp_path, text)
    assert run(capsys, [command, spec]) == (1, "", f"error: {message}\n")


COMMENTED = "# H = x^2 + y^5\n\np = 5*y^4\n   \n  # next: q\nq = -2*x\n\n"


@pytest.mark.parametrize(
    "command, text, expect",
    [
        # blank, blank-looking and comment lines are skipped: the output is
        # that of the file without them
        ("integrate", COMMENTED, FIELD),
        ("pencil-basepoints", "\n# a pencil\n" + PENCIL, PENCIL),
        ("integrate", "p = 5*y^4\nq -2*x\n", "line 2: expected 'key = polynomial'"),
        ("integrate", FIELD + "p = y\n", "line 3: duplicate key 'p'"),
        ("pencil-basepoints", "F1 = X*Z + Y^2\n", "pencil input needs keys F1 and F2"),
    ],
)
def test_skipped_and_malformed_lines(tmp_path, capsys, command, text, expect):
    got = run(capsys, [command, write(tmp_path, text)])
    if expect in (FIELD, PENCIL):
        assert got[0] == 0
        assert got == run(capsys, [command, write(tmp_path, expect, name="plain.txt")])
    else:
        assert got == (1, "", f"error: {expect}\n")


def test_a_power_past_the_degree_cap_is_one_error_line(tmp_path, capsys):
    spec = write(tmp_path, "p = x^99999999999\nq = y\n")
    code, out, err = run(capsys, ["integrate", spec])
    assert (code, out) == (1, "")
    assert err == (
        "error: line 1: total degree 99999999999 exceeds cap 1000 (line 1, column 2)\n"
    )


@pytest.mark.parametrize(
    "power, message",
    [
        ("2^99999999999", "coefficient bound 100000000000 bits exceeds cap 100000"),
        (
            "(x+y+z+X+Y+Z)^1000",
            "work bound 186399978757629439460516 exceeds cap 750000",
        ),
        ("(2^7000*x+y+z+X+Y+Z)^13", "work bound 17605935 exceeds cap 750000"),
    ],
)
def test_a_power_past_the_size_caps_is_one_error_line(tmp_path, capsys, power, message):
    spec = write(tmp_path, f"p = {power}\nq = y\n")
    code, out, err = run(capsys, ["integrate", spec])
    assert (code, out) == (1, "")
    column = power.rindex("^") + 1
    assert err == f"error: line 1: {message} (line 1, column {column})\n"


@pytest.mark.parametrize(
    "p, message",
    [
        # sums of 100 admitted powers: the second or the third is past the
        # budget
        (
            " + ".join(["(x+1)^1000"] * 100),
            "work bound 969424 exceeds cap 750000 (line 1, column 19)",
        ),
        (
            " + ".join(["(2^80*x+y+z+X+Y+Z)^13"] * 100),
            "work bound 1059720 exceeds cap 750000 (line 1, column 67)",
        ),
        # a product of admitted constants: past the bit cap at its first '*'
        (
            "*".join(["2^99999"] * 13) + "*x",
            "coefficient bound 199999 bits exceeds cap 100000 (line 1, column 8)",
        ),
    ],
    ids=["powers-of-x-plus-1", "powers-of-six-terms", "product-of-constants"],
)
def test_cheap_text_past_the_parse_bounds_is_one_error_line(
    tmp_path, capsys, p, message
):
    spec = write(tmp_path, f"p = {p}\nq = y\n")
    assert run(capsys, ["integrate", spec]) == (1, "", f"error: line 1: {message}\n")


# -- the runtime needs no sympy ---------------------------------------------

RUNTIME_CASES = {
    # affine points over Q(sqrt) towers: resultants, factors and gcds
    "integrate": "p = y + x^3\nq = x - y^3\n",
    "poincare": "p = 5*y^4\nq = -2*x\n",
    "dicritical": "p = 2*y\nq = 3*x^2\n",
    "reduce": "p = -2*y\nq = 1 - 5*x^4\n",
    "pencil-basepoints": "F1 = X^2 - 2*Y^2 + X*Z\nF2 = Z^2\n",
}


@pytest.mark.parametrize("command", sorted(RUNTIME_CASES))
def test_runtime_never_imports_sympy(tmp_path, command):
    # a fresh interpreter: sympy, the tests' oracle, must not be loaded by
    # importing waifi or by running any subcommand
    import waifi

    spec = write(tmp_path, RUNTIME_CASES[command])
    script = (
        "import contextlib, io, sys\n"
        "from waifi import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main([{command!r}, {spec!r}])\n"
        "print(rc, 'sympy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(waifi.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    rc, loaded = done.stdout.split()
    assert rc in ("0", "2") and loaded == "False"
