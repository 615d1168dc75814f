"""Set-up probe, run in a fresh interpreter by run.py.

    python3 bench/probe.py SRC_DIR INPUT_FILE SUBCOMMAND [OPTIONS...]

Prints the seconds taken to import waifi from SRC_DIR and run one op.
"""

import time

start = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
from waifi import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[3:] + [sys.argv[2], "--json"])
print(time.perf_counter() - start)
