"""Digests of the byte-identity corpus: one `sha256 name` line per command.

    python3 tools/corpus_digests.py > digests.txt

Run it from the root of a checkout; waifi is imported from that checkout's
`src/`.  Two checkouts print the same lines exactly when every command
gives the same exit code, stdout and stderr in both, so a refactor that
must keep its output byte-identical is checked with

    diff <(cd old && python3 tools/corpus_digests.py) \\
         <(cd new && python3 tools/corpus_digests.py)

The corpus has 1125 commands, built from the inputs of bench/corpus.py:
  integrate, integrate --method pairing, integrate --method both, poincare,
  poincare --bound, reduce and dicritical, each with --json, on the first
  40 wai ops of seeds 1-3 and on all 15 non-wai cases;
  pencil-basepoints --json on the first 60 pencils ops of seeds 1-3.
Each command runs in-process through waifi.cli.main on an input file in a
temporary directory, whose path is masked in the output before hashing.
Nothing is written under bench/.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
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
