import json

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

    monkeypatch.setattr("sys.stdin", io.StringIO("p = -y\nq = x\n"))
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


def test_poincare_command(tmp_path, capsys):
    spec = write(tmp_path, "p = 5*y^4\nq = -2*x\n")
    code, out, _ = run(capsys, ["poincare", spec, "--json"])
    assert code == 0
    assert json.loads(out) == {"degree": 5, "exponents": [1]}
    code, out, _ = run(capsys, ["poincare", spec, "--json", "--bound"])
    assert code == 0
    assert json.loads(out) == {"bound": 5}


def test_pencil_command(tmp_path, capsys):
    spec = write(tmp_path, "F1 = X^2*Z^3 + Y^5\nF2 = Z^5\n")
    code, out, _ = run(capsys, ["pencil-basepoints", spec, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 14
    mults = [doc["multiplicities"][str(i)] for i in range(14)]
    assert mults == [3, 2] + [1] * 12
    assert [p["id"] for p in doc["points"] if p["dicritical"]] == [13]


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


def test_tower_budget_exit_code(tmp_path, capsys):
    # the singular points need Q(sqrt 2, sqrt 3), degree 4 over Q
    spec = write(tmp_path, "p = y^2 - 2\nq = x^2 - 3\n")
    code, out, err = run(capsys, ["integrate", spec, "--max-tower-degree", "2"])
    assert code == 1
    assert out == ""
    assert err == "error: tower degree 4 exceeds cap 2\n"


def test_invalid_one_form_rejected(tmp_path, capsys):
    # XA + YB + ZC != 0
    spec = write(tmp_path, "A = X\nB = Y\nC = Z\n")
    code, _, err = run(capsys, ["reduce", spec])
    assert code == 1
    assert "error:" in err
