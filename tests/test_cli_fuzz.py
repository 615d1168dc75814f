"""The command-line boundary under fuzzed key files.

Key files are built from the input grammar and then mutated: keys go
missing, repeat or are unknown, values take Unicode digits, zero
denominators, NUL bytes, exponents just past each parse bound, sums of
many admitted powers and products of large admitted constants, and files
take CRLF line ends, byte-order marks and bytes that are not UTF-8.  Each
file runs through cli.main in process at small budgets, and the contract
holds: exit 0, 1 or 2, and on exit 1 exactly one `error:` line and nothing
on stdout, with no exception escaping.
"""

import contextlib
import io
from operator import add

from hypothesis import HealthCheck, given, settings, strategies as st

from waifi.cli import FIELD_KEYS, FORM_KEYS, PENCIL_KEYS, main
from waifi.poly import MAX_BITS, MAX_DEGREE

MODELS = {
    "integrate": (FIELD_KEYS,),
    "reduce": (FIELD_KEYS, FORM_KEYS),
    "dicritical": (FIELD_KEYS, FORM_KEYS),
    "poincare": (FIELD_KEYS, FORM_KEYS),
    "pencil-basepoints": (PENCIL_KEYS,),
}
BUDGETS = ["--max-depth", "2", "--max-tower-degree", "2"]

# admitted alone, charged more work than they take (CPython multiplies
# powers of 2 fast), so that 60 copies are past the budget within
# milliseconds
CHEAP_POWERS = ("(2^9000*x + 1)^11", "(2^5000*y + 1)^19", "(2^3000*x + 1)^30")

# each past one parse bound, and refused before it is expanded
PAST_A_BOUND = (
    f"x^{MAX_DEGREE + 1}",
    f"(x*y)^{MAX_DEGREE // 2 + 1}",
    f"2^{MAX_BITS}",
    f"(1/2)^{MAX_BITS}",
    "3^63093",
    "(x+y+z+X+Y+Z)^15",
    "(x+y+1)^100",
    # an exponent past what a float holds, also on a base of many terms
    "2^" + "9" * 400,
    "((x+y+z+X+Y+Z)^12)^" + "9" * 400,
    # an exponent of 200,000 digits, shown in its error line by that count
    "x^" + "9" * 200_000,
)


def monomials(names):
    coeff = st.integers(1, 3).map(str) | st.sampled_from(["1/2", "2/3", "7"])
    powers = st.lists(
        st.tuples(st.sampled_from(names), st.integers(1, 2)), min_size=0, max_size=2
    )
    return st.builds(
        lambda c, ps: "*".join([c] + [f"{v}^{k}" for v, k in ps]), coeff, powers
    )


def polynomials(names):
    """Small polynomials of the grammar in the variables names."""
    signs = st.lists(st.sampled_from([" + ", " - "]), min_size=4, max_size=4)
    terms = st.lists(monomials(names), min_size=1, max_size=4)
    sums = st.builds(lambda ss, ts: "".join(map(add, ss, ts)), signs, terms)
    powers = sums.map(lambda s: f"({s})^2")
    return sums | powers | sums.map(lambda s: f"-({s})*{names[0]}")


HOSTILE = st.one_of(
    st.sampled_from(PAST_A_BOUND),
    st.builds(
        lambda p, n: " + ".join([p] * n),
        st.sampled_from(CHEAP_POWERS),
        st.integers(60, 100),
    ),
    st.builds(
        lambda b, n: "*".join([f"2^{b}"] * n) + "*x",
        st.integers(MAX_BITS // 2, MAX_BITS - 1),
        st.integers(2, 13),
    ),
    st.sampled_from(["x^²", "٣*x", "x^٣", "3/0*x", "x/0", "1/(2)"]),
    st.sampled_from(["x\x00", "\x00", "x + \ufeffy", "x^", "(x", "x)", "", "2 3"]),
    st.text(max_size=8),
)


@st.composite
def key_files(draw):
    """(subcommand, bytes of a key file) for one input model of the
    subcommand, with mutated keys and values."""
    command = draw(st.sampled_from(sorted(MODELS)))
    keys = draw(st.sampled_from(MODELS[command]))
    names = ("x", "y") if keys == FIELD_KEYS else ("X", "Y", "Z")
    entries = [[key, draw(polynomials(names))] for key in keys]
    mutation = draw(
        st.sampled_from(
            ["none", "hostile", "missing", "duplicate", "unknown", "other", "bytes"]
        )
    )
    if mutation == "hostile":
        draw(st.sampled_from(entries))[1] = draw(HOSTILE)
    elif mutation == "missing":
        entries.pop(draw(st.integers(0, len(entries) - 1)))
    elif mutation == "duplicate":
        entries.append(list(draw(st.sampled_from(entries))))
    elif mutation == "unknown":
        entries.append([draw(st.sampled_from(["w", "P", "F3", "p q", ""])), "x"])
    elif mutation == "other":
        other = FORM_KEYS if keys != FORM_KEYS else FIELD_KEYS
        entries.append([draw(st.sampled_from(other)), "x"])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(f"{key} = {value}{end}" for key, value in entries)
    data = draw(st.sampled_from(["", "\ufeff"])).encode() + text.encode()
    if mutation == "bytes":
        data += b"x = \xff\n"
    return command, data


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(key_files())
def test_fuzzed_key_files_keep_the_exit_contract(tmp_path_factory, case):
    command, data = case
    path = tmp_path_factory.getbasetemp() / "fuzz-input.txt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *BUDGETS])
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_each_input_past_a_bound_is_one_short_error_line(tmp_path):
    path = tmp_path / "past.txt"
    for value in PAST_A_BOUND:
        path.write_text(f"p = {value}\nq = y\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["integrate", str(path)])
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert len(err.getvalue()) < 120
