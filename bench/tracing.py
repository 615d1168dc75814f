"""Per-layer trace of waifi, installed from outside by patching attributes.

Nothing under `src/` is edited.  A function is replaced by a wrapper on its
defining module and on every `waifi` namespace that bound the same object
through `from .x import y` (for example `integrability.reduce_form`); lazy
function-local imports read the module attribute, so they see the wrapper
too.  Methods are replaced on their class.  `uninstall` restores everything.

Timed functions keep spans (name, start, end, id, parent, op) in memory;
self time is a span's duration minus the time its child spans cover, so
recursive calls are not counted twice.  Hot functions are only counted.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (owner, attribute, metric name); owner is a waifi module or "module.Class"
TIMED = [
    ("cli", "main", "cli.main"),
    ("poly", "parse_poly", "poly.parse_poly"),
    ("poly", "resultant", "poly.resultant"),
    ("poly", "poly_gcd", "poly.poly_gcd"),
    ("sympy", "gcd", "sympy.gcd"),
    ("sympy.Poly", "factor_list", "sympy.Poly.factor_list"),
    ("factor", "roots_in_extension", "factor.roots_in_extension"),
    ("factor", "univ_factor", "factor.univ_factor"),
    ("blowup", "blow_up_form", "blowup.blow_up_form"),
    ("blowup", "blow_up_curve", "blowup.blow_up_curve"),
    ("reduction", "reduce", "reduction.reduce"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linsys", "linear_system", "linsys.linear_system"),
    ("linsys", "pencil_base_points", "linsys.pencil_base_points"),
    ("integrability", "assemble_S", "integrability.assemble_S"),
    ("integrability", "compute_R", "integrability.compute_R"),
    ("integrability", "extract_curves", "integrability.extract_curves"),
    ("integrability", "exponents_darboux", "integrability.exponents_darboux"),
    ("integrability", "exponents_pairing", "integrability.exponents_pairing"),
    ("vfield", "projectivize", "vfield.projectivize"),
    ("vfield", "verify_first_integral", "vfield.verify_first_integral"),
    ("vfield", "cofactor", "vfield.cofactor"),
]

COUNTED = [
    ("field.Tower", "adjoin", "field.Tower.adjoin"),
    ("field.Tower", "mul", "field.Tower.mul"),
    ("field.Tower", "inv", "field.Tower.inv"),
    ("poly.MultiPoly", "__mul__", "poly.MultiPoly.__mul__"),
    ("poly.MultiPoly", "substitute", "poly.MultiPoly.substitute"),
    ("blowup", "classify", "blowup.classify"),
    ("infnear", "pairing", "infnear.pairing"),
]

# extra counts, derived from the arguments and results of one function:
# metric name -> (unit, that function)
EXTRA = {
    "poly.resultant.points": ("count", "poly.resultant"),
    "poly.resultant.useful_ratio": ("ratio", "poly.resultant"),
    "linalg.det.cells": ("count", "linalg.det"),
    "linalg.nullspace.cells": ("count", "linalg.nullspace"),
    "field.tower_degree.max": ("count", "field.Tower.adjoin"),
    "reduction.points": ("count", "reduction.reduce"),
}


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for _, _, name in TIMED:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
        units[name + ".errors"] = "count"
    for _, _, name in COUNTED:
        units[name + ".calls"] = "count"
    for name, (unit, _) in EXTRA.items():
        units[name] = unit
    return units


def _resultant_points(f, g, var):
    """Evaluation points that resultant's degree bound asks for."""
    df = f.degree_in(var) if var in f.vars else 0
    dg = g.degree_in(var) if var in g.vars else 0
    params = (set(f.effective_vars()) | set(g.effective_vars())) - {var}
    if df < 1 or dg < 1 or len(params) != 1:
        return 0, None
    (param,) = params
    fp = f.degree_in(param) if param in f.vars else 0
    gp = g.degree_in(param) if param in g.vars else 0
    return fp * dg + gp * df + 1, param


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, id, parent, op)
        self.stack = []  # open spans: [id, start, time covered by children]
        self.next_id = 0
        self.op = None
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.extra = Counter()
        self.absent = []
        self._patched = []  # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            frame = [self.next_id, perf_counter(), 0.0]
            self.next_id += 1
            self.stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                self.stack.pop()
                duration = end - frame[1]
                self.self_s[name] += duration - frame[2]
                if self.stack:
                    self.stack[-1][2] += duration
                self.calls[name] += 1
                if not ok:
                    self.errors[name] += 1
                self.spans.append((name, frame[1], end, frame[0], parent, self.op))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name, fn, after=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- hooks for the extra counts ------------------------------------------

    def _after_resultant(self, args, result):
        points, param = _resultant_points(*args[:3])
        self.extra["poly.resultant.points"] += points
        if points and not result.is_zero():
            deg = result.degree_in(param) if param in result.vars else 0
            self.extra["poly.resultant.useful"] += deg + 1

    def _cells(self, name):
        def after(args, result):
            rows = args[0]
            self.extra[name] += len(rows) * (len(rows[0]) if rows else 0)

        return after

    def _after_adjoin(self, args, result):
        key = "field.tower_degree.max"
        self.extra[key] = max(self.extra[key], result.degree())

    def _after_reduce(self, args, result):
        self.extra["reduction.points"] += len(result.singular_configuration)

    # -- installation --------------------------------------------------------

    def _resolve(self, owner):
        if owner.startswith("sympy"):
            import sympy

            return sympy.Poly if owner == "sympy.Poly" else sympy
        module, _, cls = owner.partition(".")
        target = sys.modules.get("waifi." + module)
        return getattr(target, cls, None) if cls else target

    def _patch(self, owner, attr, wrap):
        target = self._resolve(owner)
        original = getattr(target, attr, None) if target is not None else None
        if original is None:
            return False
        wrapper = wrap(original)
        if isinstance(target, type) or owner.startswith("sympy"):
            # aliases such as MultiPoly.__rmul__ = __mul__ share the counter
            spaces = [target]
        else:
            spaces = [
                m for n, m in sorted(sys.modules.items())
                if (n == "waifi" or n.startswith("waifi.")) and m is not None
            ]
        patched = len(self._patched)
        for space in spaces:
            for key, value in list(vars(space).items()):
                if value is original:
                    self._patched.append((space, key, value))
                    setattr(space, key, wrapper)
        return len(self._patched) > patched

    def install(self):
        self.absent = []
        after = {
            "poly.resultant": self._after_resultant,
            "linalg.det": self._cells("linalg.det.cells"),
            "linalg.nullspace": self._cells("linalg.nullspace.cells"),
            "reduction.reduce": self._after_reduce,
            "field.Tower.adjoin": self._after_adjoin,
        }
        for kind, table in ((self._timed, TIMED), (self._counted, COUNTED)):
            for owner, attr, name in table:
                hook = after.get(name)
                if not self._patch(owner, attr, lambda fn: kind(name, fn, hook)):
                    self.absent.append(name)

    def uninstall(self):
        for space, key, value in reversed(self._patched):
            setattr(space, key, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer values by metric name; metrics of absent functions are
        left out."""
        gone = set(self.absent)
        out = {}
        for _, _, name in TIMED:
            if name not in gone:
                out[name + ".calls"] = self.calls[name]
                out[name + ".self_s"] = self.self_s[name]
                out[name + ".errors"] = self.errors[name]
        for _, _, name in COUNTED:
            if name not in gone:
                out[name + ".calls"] = self.calls[name]
        points = self.extra["poly.resultant.points"]
        useful = self.extra["poly.resultant.useful"]
        self.extra["poly.resultant.useful_ratio"] = useful / points if points else 0.0
        for name, (_, source) in EXTRA.items():
            if source not in gone:
                out[name] = self.extra[name]
        return out
