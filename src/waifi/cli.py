"""Command-line front end.

Inputs are UTF-8 files of `key = value` lines: `p`/`q` for an affine vector
field, `A`/`B`/`C` for a homogeneous 1-form, `F1`/`F2` for a pencil.  Exit
codes: 0 success, 2 clean "no WAI integral" (reason in the report), 1 a
WaifiError or an unreadable input file.  Any other exception is a bug and
propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import InputError, WaifiError
from .field import MAX_TOWER_DEGREE
from .infnear import export_proximity_graph, proximity_graph_dot
from .integrability import AnalysisFailure, decide, poincare_bound, poincare_degree
from .linsys import pencil_base_points
from .poly import PolySyntaxError, parse_poly
from .reduction import MAX_DEPTH, reduce as reduce_form
from .vfield import AffineVectorField, ProjectiveOneForm, projectivize


class _Parser(argparse.ArgumentParser):
    """A usage error is an InputError: one error line and exit 1, like any
    other bad input (argparse itself would exit 2, the "no integral" code)."""

    def error(self, message):
        raise InputError(message)


class RoutesDisagree(WaifiError, RuntimeError):
    """integrate --method both: the pairing and Darboux routes differ."""


def _read_spec(path):
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8: byte {exc.start} ({exc.reason})")
    entries = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = polynomial'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise InputError(f"line {lineno}: duplicate key {key!r}")
        try:
            entries[key] = parse_poly(value.strip())
        except PolySyntaxError as exc:
            raise InputError(f"line {lineno}: {exc}")
    return entries


def _vector_field(entries):
    if "p" not in entries or "q" not in entries:
        raise InputError("vector-field input needs keys p and q")
    return AffineVectorField(entries["p"], entries["q"])


def _one_form(entries):
    if {"A", "B", "C"} <= set(entries):
        form = ProjectiveOneForm(entries["A"], entries["B"], entries["C"])
        form.check()
        return form
    return projectivize(_vector_field(entries))


def _emit(doc, args, human):
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(human)


def _human_points(conf, classification=None, dicritical=(), infinity=()):
    lines = []
    for p in conf:
        tags = []
        if classification is not None:
            tags.append(classification[p.pid])
        if p.pid in dicritical:
            tags.append("dicritical")
        if p.pid in infinity:
            tags.append("on-infinity-line")
        where = (
            "plane point"
            if p.parent is None
            else f"{p.branch} over {p.parent}"
            + ("" if p.coordinate is None else f" at {p.coordinate}")
        )
        prox = ",".join(str(q) for q in sorted(p.proximate_to))
        lines.append(
            f"P{p.pid}: {where}; proximate to {{{prox}}}"
            + ("; " + " ".join(tags) if tags else "")
        )
    return "\n".join(lines)


def _reduce_input(args):
    """The reduction of the field or 1-form read from args.input."""
    form = _one_form(_read_spec(args.input))
    return reduce_form(
        form, max_depth=args.max_depth, max_tower_degree=args.max_tower_degree
    )


def _cmd_reduce(args):
    res = _reduce_input(args)
    if args.dot:
        dot = proximity_graph_dot(res.singular_configuration, dicritical=res.dicritical)
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    human = _human_points(
        res.singular_configuration,
        classification=res.classification,
        infinity=res.infinity_points,
    )
    _emit(res.report_json(), args, human)
    return 0


def _cmd_dicritical(args):
    res = _reduce_input(args)
    conf = res.dicritical_configuration
    doc = export_proximity_graph(conf, dicritical=res.dicritical)
    doc["infinity_points"] = sorted(res.infinity_points & set(conf.order))
    human = _human_points(conf, dicritical=res.dicritical, infinity=res.infinity_points)
    _emit(doc, args, human)
    return 0


def _cmd_integrate(args):
    V = _vector_field(_read_spec(args.input))
    kw = {"max_depth": args.max_depth, "max_tower_degree": args.max_tower_degree}
    if args.method != "both":
        ((cert, reason),) = decide(V, [args.method], **kw)
    else:
        (cert1, _), (cert, reason) = decide(V, ["pairing", "darboux"], **kw)
        if (cert1 is None) != (cert is None):
            raise RoutesDisagree("the two routes disagree on verdict")
        for field in ("degree", "exponents"):
            if cert1 is not None and getattr(cert1, field) != getattr(cert, field):
                raise RoutesDisagree(f"the two routes disagree on {field}")
    if cert is None:
        doc = {
            "degree": None,
            "factors": [],
            "R": [],
            "route": args.method,
            "residual": None,
            "reason": reason,
        }
        _emit(doc, args, f"no WAI polynomial first integral ({reason})")
        return 2
    human = "H = " + " * ".join(
        f"({f.to_string()})" + (f"^{n}" if n != 1 else "")
        for f, n in zip(cert.display_factors, cert.display_exponents)
    ) + f"\ndegree = {cert.degree}"
    _emit(cert.as_json(), args, human)
    return 0


def _cmd_poincare(args):
    res = _reduce_input(args)
    conf = res.dicritical_configuration
    try:
        if args.bound:
            n = poincare_bound(conf)
            _emit({"bound": n}, args, f"degree bound = {n}")
        else:
            inf = frozenset(res.infinity_points) & set(conf.order)
            n, exps = poincare_degree(conf, inf)
            _emit(
                {"degree": n, "exponents": exps},
                args,
                f"degree = {n}, exponents = {exps}",
            )
        return 0
    except AnalysisFailure as exc:
        doc = {"degree": None, "reason": exc.reason}
        _emit(doc, args, f"undetermined ({exc.reason})")
        return 2


def _cmd_pencil(args):
    entries = _read_spec(args.input)
    if "F1" not in entries or "F2" not in entries:
        raise InputError("pencil input needs keys F1 and F2")
    bp = pencil_base_points(
        entries["F1"],
        entries["F2"],
        max_depth=args.max_depth,
        max_tower_degree=args.max_tower_degree,
    )
    conf = bp.configuration
    doc = export_proximity_graph(conf, dicritical=bp.dicritical)
    doc["multiplicities"] = {
        str(pid): bp.multiplicities[pid] for pid in conf.order
    }
    human = "\n".join(
        f"P{pid}: multiplicity {bp.multiplicities[pid]}"
        + (" dicritical" if pid in bp.dicritical else "")
        for pid in conf.order
    )
    _emit(doc, args, human)
    return 0


def build_parser():
    parser = _Parser(
        prog="waifi",
        description="WAI polynomial first integrals of planar polynomial "
        "vector fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="input file of key = polynomial lines, or -")
        p.add_argument("--json", action="store_true", help="machine output")
        p.add_argument("--max-depth", type=int, default=MAX_DEPTH)
        p.add_argument("--max-tower-degree", type=int, default=MAX_TOWER_DEGREE)

    p = sub.add_parser("reduce", help="reduction of singularities")
    common(p)
    p.add_argument("--dot", help="write the proximity graph in DOT format")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("dicritical", help="dicritical configuration")
    common(p)
    p.set_defaults(func=_cmd_dicritical)

    p = sub.add_parser("integrate", help="decide WAI integrability")
    common(p)
    p.add_argument(
        "--method", choices=("pairing", "darboux", "both"), default="darboux"
    )
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("poincare", help="degree of the minimal integral")
    common(p)
    p.add_argument("--bound", action="store_true", help="bound over placements")
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("pencil-basepoints", help="base points of a pencil")
    common(p)
    p.set_defaults(func=_cmd_pencil)
    return parser


_PARSER = build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        # a budget below its minimum is meaningless: a usage error, no work
        for flag, low in (("--max-depth", 0), ("--max-tower-degree", 1)):
            value = getattr(args, flag[2:].replace("-", "_"))
            if value < low:
                _PARSER.error(f"argument {flag}: must be at least {low}, not {value}")
        return args.func(args)
    except (WaifiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
