"""Digests of the byte-identity corpus: one `sha256 name` line per command.

    python3 tools/corpus_digests.py > digests.txt

Run it from the root of a checkout; waifi is imported from that checkout's
`src/`.  Two checkouts print the same lines exactly when every command
gives the same exit code, stdout and stderr in both, so a refactor that
must keep its output byte-identical is checked with

    diff <(cd old && python3 tools/corpus_digests.py) \\
         <(cd new && python3 tools/corpus_digests.py)

The corpus has 1192 commands.  1125 are built from the inputs of
bench/corpus.py:
  integrate, integrate --method pairing, integrate --method both, poincare,
  poincare --bound, reduce and dicritical, each with --json, on the first
  40 wai ops of seeds 1-3 and on all 15 non-wai cases;
  pencil-basepoints --json on the first 60 pencils ops of seeds 1-3.
Then 60 are pencil-basepoints --json on pencils with irrational base
points (irrational_pencils), whose tangent directions are gcds of binary
forms over a tower.  The last 7 are the field commands on DEEP_TOWER_FIELD,
whose affine points build a tower of four levels.
Each command runs in-process through waifi.cli.main on an input file in a
temporary directory, whose path is masked in the output before hashing.
Nothing is written under bench/.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
import traceback
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # keep bench/ free of __pycache__
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import corpus  # noqa: E402
from waifi.cli import main  # noqa: E402

FIELD_COMMANDS = [
    ["integrate"],
    ["integrate", "--method", "pairing"],
    ["integrate", "--method", "both"],
    ["poincare"],
    ["poincare", "--bound"],
    ["reduce"],
    ["dicritical"],
]
SEEDS = (1, 2, 3)

#: the Hamiltonian field p = -H_y, q = H_x of H = (y - 2)^3 x (y^3 - x^2 + y):
#: its 12 affine points need a tower of degree 16 in four levels, and a
#: cubic with coefficients two levels down must be factored over all four
DEEP_TOWER_FIELD = (
    "deep-tower/hamiltonian",
    "p = 3*x^3*y^2 - 12*x^3*y + 12*x^3 - 6*x*y^5 + 30*x*y^4 - 52*x*y^3"
    " + 42*x*y^2 - 24*x*y + 8*x\n"
    "q = -3*x^2*y^3 + 18*x^2*y^2 - 36*x^2*y + 24*x^2 + y^6 - 6*y^5"
    " + 13*y^4 - 14*y^3 + 12*y^2 - 8*y\n",
)


def irrational_pencils(n=60, seed=12):
    """(name, text) of n pencils <F1, F2> from a fixed seed.  F1 is a conic
    X^2 - a*Y^2 + b*X*Z + c*Y*Z with a in {2, 3, 5, 7, -1, -2}, perhaps
    times a line or a second such conic; F2 is Z^d, Y^d, X^(d-1)*Z or
    (X + Y)^d for the degree d of F1.  A line X + p*Y + q*Z has q != 0, so
    that no F1 shares a component with its F2."""
    rng = random.Random(seed)

    def conic():
        a = rng.choice((2, 3, 5, 7, -1, -2))
        b, c = rng.randint(-2, 2), rng.randint(-2, 2)
        return f"(X^2 {-a:+d}*Y^2 {b:+d}*X*Z {c:+d}*Y*Z)"

    out = []
    for k in range(n):
        factors = [conic()]
        extra = rng.choice(("", "line", "conic"))
        if extra == "line":
            p, q = rng.randint(-2, 2), rng.choice((-2, -1, 1, 2))
            factors.append(f"(X {p:+d}*Y {q:+d}*Z)")
        elif extra == "conic":
            factors.append(conic())
        d = 2 * len(factors) - (extra == "line")
        partner = rng.choice((f"Z^{d}", f"Y^{d}", f"X^{d - 1}*Z", f"(X + Y)^{d}"))
        text = f"F1 = {'*'.join(factors)}\nF2 = {partner}\n"
        out.append((f"irrational-pencils/{k}", text))
    return out


def commands():
    """(name, argv before the input path, input text), in a fixed order."""
    fields = [
        (f"wai-{seed}/{op.name}", op.text)
        for seed in SEEDS
        for op in islice(corpus.wai_stream(seed), 40)
    ]
    fields += [(f"non-wai/{op.name}", op.text) for op in corpus.non_wai_pool(0)]
    out = [
        (f"{name} {' '.join(argv)}", argv, text)
        for name, text in fields
        for argv in FIELD_COMMANDS
    ]
    out += [
        (f"pencils-{seed}/{op.name} pencil-basepoints", ["pencil-basepoints"], op.text)
        for seed in SEEDS
        for op in islice(corpus.pencils_stream(seed), 60)
    ]
    out += [
        (f"{name} pencil-basepoints", ["pencil-basepoints"], text)
        for name, text in irrational_pencils()
    ]
    name, text = DEEP_TOWER_FIELD
    out += [(f"{name} {' '.join(argv)}", argv, text) for argv in FIELD_COMMANDS]
    return out


def digest(argv, text, path):
    """SHA-256 of the exit code, stdout and stderr of one command."""
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main([argv[0], str(path), *argv[1:], "--json"])
        except Exception as exc:  # an escaping exception is an outcome too
            traceback.print_exc(file=sys.__stderr__)
            rc = f"raised {type(exc).__name__}: {exc}"
    blob = f"{rc}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.replace(str(path), "<input>").encode()).hexdigest()


def run():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        for name, argv, text in commands():
            print(digest(argv, text, path), name, flush=True)


if __name__ == "__main__":
    run()
