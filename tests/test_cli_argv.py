"""The CLI's argv reader against argparse.

`oracles.build_parser` is the reference.  For every argv the reader must
give the same fields, or both must refuse with exit 1 and the same stderr
(usage line and message), or both must print the help and exit 0.  Two
kinds of argv are read differently on purpose, and the tests name them:

- INTEGER_FORMS: a value of -p that int() takes but that is not an
  optional "-" and ASCII digits ("٣", "1_1", " 3", "+3").  The
  reference runs with it; the reader refuses it.
- DASH_VALUES: "--" attached to an option ("-p=--").  argparse before
  3.13 hands main an empty list, on which -p and --format crash; the
  reader keeps "--" as the value, as argparse does from 3.13 on.

Two argv are read differently by argparse versions: "-hx" (refused before
3.13, the help from 3.13 on) and DASH_VALUES.  The reader's outcome on them
is pinned here on every version, and the comparison with the reference runs
only where a probe of the installed argparse finds the old behaviour, so a
backport is detected as well as a new release.
"""

import contextlib
import io
import os
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_parser
from phinewton.cli import _USAGE, _read_argv


def outcome(read, argv):
    """("ok", fields), or ("exit", code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return "ok", vars(read(list(argv)))
        except SystemExit as exc:
            return "exit", exc.code, err.getvalue()


def ours(argv):
    return outcome(_read_argv, argv)


def reference(argv):
    # argparse wraps its usage line to the terminal; the reader's is fixed
    # at 80 columns
    with mock.patch.dict(os.environ, COLUMNS="80"):
        return outcome(lambda a: build_parser().parse_args(a), argv)


AGREE = [
    # spellings
    ["x", "-p", "3"],
    ["x", "--prime", "3"],
    ["x", "--prime=3"],
    ["x", "-p3"],
    ["x", "-p=3"],
    ["x", "--pr", "3"],
    ["x", "-p", "2", "--form", "json"],
    ["x", "-p", "2", "--format=svg"],
    ["x", "-p", "2", "--phi", "x+1", "--check"],
    ["x", "-p", "2", "-p", "5", "--format", "svg", "--format", "text"],
    ["-p", "2", "--", "-x^2+x^3"],
    ["-p", "2", "x", "--"],
    ["-p", "-3", "x"],
    ["-x^2 + 1", "-p", "2"],
    ["--input", "f.txt", "-p", "2"],
    ["--input=f.txt", "-p", "2", "--output", "out.txt"],
    ["x^2-2x+3", "-p", "2", "--phi=-1+x"],
    ["-p", "2"],
    # refusals
    ["x", "-p", "2", "--seed", "7"],
    ["x", "-p", "2", "--seed=-4", "--check-only"],
    ["x"],
    ["x", "-p"],
    ["x", "-p", "2", "--phi"],
    ["x", "-p", "2", "--bogus"],
    ["x", "y", "-p", "2"],
    ["x", "-p", "2", "--format", "pdf"],
    ["-x^2+x^3", "-p", "2"],
    ["x", "-p", "abc"],
    ["x", "-p", "9" * 5000],
    ["x", "--p", "2"],
    ["x", "-p", "2", "--check-only=yes"],
    ["x", "-p", "2", "--"],
    ["x", "--", "-p", "2"],
    # help
    ["--help"],
    ["x", "-p", "abc", "-h"],
    ["-hp3"],
]

INTEGER_FORMS = [  # argv, field, what int() makes of the last token
    (["x^2+1", "-p", "٣"], "prime", 3),
    (["x^2+1", "-p", "1_1"], "prime", 11),
    (["x^2+1", "-p", " 3"], "prime", 3),
    (["x^2+1", "-p", "+3"], "prime", 3),
]

DASH_VALUES = [  # argv, field
    (["x", "-p=--"], "prime"),
    (["x", "-p", "2", "--format=--"], "fmt"),
    (["x", "-p", "2", "--phi=--"], "phi"),
]


def usage_error(message):
    return "exit", 1, f"{_USAGE}phinewton: error: {message}\n"


# The reader's outcome on the argv that argparse versions read differently.
HELP_WITH_VALUE = usage_error("argument -h/--help: ignored explicit argument 'x'")
DASH_OUTCOMES = {
    "prime": usage_error("argument -p/--prime: invalid int value: '--'"),
    "fmt": usage_error("argument --format: invalid choice: '--' "
                       "(choose from 'text', 'json', 'svg')"),
    "phi": ("ok", {"expression": "x", "input": None, "prime": 2, "phi": "--",
                   "fmt": "text", "check_only": False, "output": None}),
}
# Probes of the installed argparse: before 3.13 it refuses "-hx" and hands
# an attached "--" on as an empty list.
OLD_HELP = reference(["-hx"])[:2] == ("exit", 1)
OLD_DASHES = reference(["x", "-p", "2", "--phi=--"])[1]["phi"] == []


@pytest.mark.parametrize("argv", AGREE, ids=lambda argv: " ".join(t[:12] for t in argv))
def test_reader_agrees_with_argparse(argv):
    assert ours(argv) == reference(argv)


@pytest.mark.parametrize("argv, field, value", INTEGER_FORMS)
def test_integer_forms_differ_from_argparse(argv, field, value):
    assert reference(argv)[1][field] == value
    code, err = ours(argv)[1:]
    assert code == 1
    assert err.endswith(f"error: argument -p/--prime: invalid int value: {argv[-1]!r}\n")


def test_help_with_attached_value():
    assert ours(["-hx"]) == HELP_WITH_VALUE
    if OLD_HELP:
        assert reference(["-hx"]) == HELP_WITH_VALUE


@pytest.mark.parametrize("argv, field", DASH_VALUES)
def test_attached_dashes_differ_from_argparse(argv, field):
    assert ours(argv) == DASH_OUTCOMES[field]
    if OLD_DASHES:
        assert reference(argv)[1][field] == []


INTEGER_VALUES = {argv[-1] for argv, _, _ in INTEGER_FORMS}
TOKENS = sorted({t for argv in AGREE for t in argv if len(t) < 100} | INTEGER_VALUES
                | ({"-hx"} if OLD_HELP else set()))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argv=st.lists(st.sampled_from(TOKENS), max_size=6))
def test_reader_agrees_with_argparse_on_mixed_argv(argv):
    mine = ours(argv)
    if mine == reference(argv):
        return
    # Only an integer form may tell them apart: with "nan" in its place,
    # both must refuse alike.
    for k, token in enumerate(argv):
        if token in INTEGER_VALUES:
            swapped = argv[:k] + ["nan"] + argv[k + 1:]
            refusal = ours(swapped)
            if (refusal == reference(swapped) and refusal[1] == 1
                    and mine == (*refusal[:2], refusal[2].replace("'nan'", repr(token)))):
                return
    pytest.fail(f"{argv}: {mine} != {reference(argv)}")
