"""The failure model of waifi.

Every failure the library reports derives from WaifiError: bad input, an
exceeded budget (tower degree, depth) and a broken invariant that the code
checks.  The command line prints a WaifiError as one `error:` line and
exits 1.  Any other exception is a bug in waifi and is not caught.

A verdict is not a failure: "no WAI first integral" is an
integrability.AnalysisFailure with a reason code, which the command line
reports with exit 2.
"""

from __future__ import annotations


class WaifiError(Exception):
    """A failure waifi reports: one `error:` line and exit 1 in the CLI."""


class InputError(WaifiError, ValueError):
    """Input that waifi does not accept."""
