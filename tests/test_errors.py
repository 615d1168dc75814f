"""The failure model: every WaifiError leaves the CLI as one `error:` line
with exit 1, any other exception propagates, and the decision at infinity
falls through to the full reduction on any WaifiError."""

from fractions import Fraction

import pytest

import waifi.cli as cli
import waifi.integrability as integrability
import waifi.linsys as linsys
import waifi.reduction as reduction
from waifi.errors import WaifiError
from waifi.field import SplitRequired
from waifi.poly import PolySyntaxError, parse_poly
from waifi.vfield import AffineVectorField


def subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + subclasses(sub)
    return out


# importing waifi.cli imports every module that defines one
ERRORS = subclasses(WaifiError)


def test_every_cli_error_is_a_waifi_error():
    names = {cls.__name__ for cls in ERRORS}
    assert names >= {
        "InputError",
        "SplitRequired",
        "ExtensionDegreeExceeded",
        "NoSquarefreeShift",
        "DivisibilityViolation",
        "DepthExceeded",
        "NonIsolatedSingularities",
        "CommonComponent",
        "NoGenericMember",
        "PolySyntaxError",
        "RoutesDisagree",
    }


def planted(cls):
    if issubclass(cls, SplitRequired):
        one = Fraction(1)
        return cls(1, ((-one, one), (one, one)))
    if issubclass(cls, PolySyntaxError):
        return cls("planted failure", 1, 1)
    return cls("planted failure")


# (subcommand, input, module and name of a function called inside decide,
# reduce or pencil_base_points)
QUINTIC = "p = 5*y^4\nq = -2*x\n"
PENCIL = "F1 = X^2*Z^3 + Y^5\nF2 = Z^5\n"
SITES = {
    "decide": ("integrate", QUINTIC, integrability, "points_at_infinity"),
    "reduce": ("reduce", QUINTIC, reduction, "walk_resolution"),
    "pencil": ("pencil-basepoints", PENCIL, linsys, "walk_resolution"),
}


def run_planted(tmp_path, monkeypatch, site, exc):
    command, text, module, name = SITES[site]

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(module, name, fail)
    spec = tmp_path / "input.txt"
    spec.write_text(text)
    return cli.main([command, str(spec), "--json"])


@pytest.mark.parametrize("site", sorted(SITES))
@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_waifi_error_is_one_error_line(tmp_path, capsys, monkeypatch, site, cls):
    exc = planted(cls)
    code = run_planted(tmp_path, monkeypatch, site, exc)
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err == f"error: {exc}\n"


@pytest.mark.parametrize("site", sorted(SITES))
def test_other_exceptions_propagate(tmp_path, capsys, monkeypatch, site):
    # an internal ValueError is a bug, not bad input
    with pytest.raises(ValueError, match="planted bug"):
        run_planted(tmp_path, monkeypatch, site, ValueError("planted bug"))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_decide_falls_through_on_any_waifi_error(monkeypatch, cls):
    V = AffineVectorField(parse_poly("5*y^4"), parse_poly("-2*x"))
    expected = [cert.as_json() for cert, _ in integrability.decide(V, ["darboux"])]
    real = integrability.reduce_form
    calls = []

    def reduce_form(omega, max_depth, start=None, affine=True):
        calls.append(affine)
        if not affine:
            raise planted(cls)
        return real(omega, max_depth, start=start, affine=affine)

    monkeypatch.setattr(integrability, "reduce_form", reduce_form)
    out = integrability.decide(V, ["darboux"])
    assert calls == [False, True]
    assert [cert.as_json() for cert, _ in out] == expected
