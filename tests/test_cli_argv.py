"""The CLI's argv grammar, pinned by tables, with argparse as a reference
where both accept.

`cli._read_argv` reads the small grammar its docstring states.  It is pure:
it returns the fields or raises UsageError, and writes nothing.  ACCEPTED
lists argv with the fields they read to, REFUSED argv with their message;
`main` prints that message under the usage line and returns 1, and prints
the help and returns 0 for an argv that reads to help.

`oracles.build_parser` is the argparse parser whose options the grammar
keeps.  Wherever both it and the reader accept an argv, they must read the
same fields.  They part on purpose elsewhere, and the tests name where:

- the reader takes options by exact name only: no unique-prefix
  abbreviation (--form), attached short value (-p3) or cluster (-hp3);
- "--" may come anywhere, also after the expression (x -p 2 --);
- INTEGER_FORMS: a value of -p that int() takes but that is not an
  optional "-" and ASCII digits ("٣", "1_1", " 3", "+3");
- DASH_VALUES: "--" attached to an option ("-p=--").  argparse before
  3.13 hands main an empty list, on which -p and --format crash; the
  reader keeps "--" as the value, as argparse does from 3.13 on.
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
from phinewton.cli import _HELP, _USAGE, UsageError, _read_argv, main

DEFAULTS = dict(expression=None, input=None, prime=None, phi=None, fmt="text",
                check_only=False, output=None, help=False)


def fields(**given):
    return {**DEFAULTS, **given}


def ours(argv):
    """("ok", fields) or ("error", message); the reader writes nothing."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            outcome = "ok", vars(_read_argv(list(argv)))
        except UsageError as exc:
            outcome = "error", str(exc)
    assert out.getvalue() == ""
    return outcome


def reference(argv):
    """("ok", fields) or ("exit", code, stderr) from argparse."""
    err = io.StringIO()
    # argparse wraps its usage line to the terminal; the reader's is fixed
    # at 80 columns
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return "ok", vars(build_parser().parse_args(list(argv)))
        except SystemExit as exc:
            return "exit", exc.code, err.getvalue()


ACCEPTED = {
    # spellings
    ("x", "-p", "3"): fields(expression="x", prime=3),
    ("x", "--prime", "3"): fields(expression="x", prime=3),
    ("x", "--prime=3"): fields(expression="x", prime=3),
    ("x", "-p=3"): fields(expression="x", prime=3),
    ("x", "-p", "2", "--format=svg"): fields(expression="x", prime=2, fmt="svg"),
    ("x", "-p", "2", "-p", "5", "--format", "svg", "--format", "text"):
        fields(expression="x", prime=5),
    ("--input", "f.txt", "-p", "2"): fields(input="f.txt", prime=2),
    ("--input=f.txt", "-p", "2", "--output", "out.txt"):
        fields(input="f.txt", prime=2, output="out.txt"),
    ("x^2-2x+3", "-p", "2", "--phi=-1+x"): fields(expression="x^2-2x+3", prime=2, phi="-1+x"),
    ("x", "-p", "2", "--phi=x + 1", "--check-only"):
        fields(expression="x", prime=2, phi="x + 1", check_only=True),
    ("x", "-p", "2", "--phi="): fields(expression="x", prime=2, phi=""),
    ("-p", "2"): fields(prime=2),
    # values and positionals that start with "-"
    ("-p", "-3", "x"): fields(expression="x", prime=-3),
    ("x", "-p", "2", "--phi", "-x + 1"): fields(expression="x", prime=2, phi="-x + 1"),
    ("x", "-p", "2", "--phi", "-.5"): fields(expression="x", prime=2, phi="-.5"),
    ("-x^2 + 1", "-p", "2"): fields(expression="-x^2 + 1", prime=2),
    ("-", "-p", "2"): fields(expression="-", prime=2),
    # "--"
    ("-p", "2", "--", "-x^2+x^3"): fields(expression="-x^2+x^3", prime=2),
    ("-p", "2", "x", "--"): fields(expression="x", prime=2),
    ("x", "-p", "2", "--"): fields(expression="x", prime=2),
    ("-p", "2", "--", "--"): fields(expression="--", prime=2),
    # help, with the fields read before it
    ("--help",): fields(help=True),
    ("-h", "-p", "abc"): fields(help=True),
    ("--bogus", "y", "-p", "2", "-h"): fields(expression="y", prime=2, help=True),
}

NEED_P = "the following arguments are required: -p/--prime"
REFUSED = {
    ("x",): NEED_P,
    ("x", "--bogus"): NEED_P,
    ("x", "--", "-p", "2"): NEED_P,
    ("x", "-p"): "argument -p/--prime: expected one argument",
    ("x", "-p", "--"): "argument -p/--prime: expected one argument",
    ("x", "-p", "--phi", "x"): "argument -p/--prime: expected one argument",
    ("x", "-p", "2", "--phi"): "argument --phi: expected one argument",
    ("x", "-p", "abc"): "argument -p/--prime: invalid int value: 'abc'",
    ("x", "-p", "9" * 5000): f"argument -p/--prime: invalid int value: '{'9' * 5000}'",
    ("x", "-p", "abc", "-h"): "argument -p/--prime: invalid int value: 'abc'",
    ("x", "-p", "2", "--format", "pdf"):
        "argument --format: invalid choice: 'pdf' (choose from 'text', 'json', 'svg')",
    ("x", "-p", "2", "--check-only=yes"):
        "argument --check-only: ignored explicit argument 'yes'",
    ("--help=x",): "argument -h/--help: ignored explicit argument 'x'",
    ("x", "-p", "2", "--seed", "7"): "unrecognized arguments: --seed 7",
    ("x", "-p", "2", "--seed=-4", "--check-only"): "unrecognized arguments: --seed=-4",
    ("x", "-p", "2", "--bogus"): "unrecognized arguments: --bogus",
    ("x", "y", "-p", "2"): "unrecognized arguments: y",
    ("--bogus", "x", "y", "-p", "2"): "unrecognized arguments: --bogus y",
    ("-p", "2", "x", "--", "y"): "unrecognized arguments: y",
    ("-x^2+x^3", "-p", "2"): "unrecognized arguments: -x^2+x^3",
    # no abbreviation, attached short value or cluster
    ("x", "-p3"): NEED_P,
    ("x", "--pr", "3"): NEED_P,
    ("x", "--p", "2"): NEED_P,
    ("-hp3",): NEED_P,
    ("-hx",): NEED_P,
    ("x", "-p", "2", "--form", "json"): "unrecognized arguments: --form json",
    ("x", "-p", "2", "--phi", "x+1", "--check"): "unrecognized arguments: --check",
    # an argument that is not printable is shown as ascii() writes it
    ("x", "-p", "2", "--a\x1b[31m"): "unrecognized arguments: --a\\x1b[31m",
    ("x", "\u202ey", "-p", "2"): "unrecognized arguments: \\u202ey",
}

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
DASH_OUTCOMES = {
    "prime": ("error", "argument -p/--prime: invalid int value: '--'"),
    "fmt": ("error", "argument --format: invalid choice: '--' "
                     "(choose from 'text', 'json', 'svg')"),
    "phi": ("ok", fields(expression="x", prime=2, phi="--")),
}
# A probe of the installed argparse: before 3.13 it hands an attached "--"
# on as an empty list.
OLD_DASHES = reference(["x", "-p", "2", "--phi=--"])[1]["phi"] == []


def expected(argv):
    if argv in ACCEPTED:
        return "ok", ACCEPTED[argv]
    return "error", REFUSED[argv]


def argv_id(argv):
    return " ".join(t[:12] for t in argv)


@pytest.mark.parametrize("argv", [*ACCEPTED, *REFUSED], ids=argv_id)
def test_reader_agrees_with_argparse(argv):
    """The reader's outcome is the pinned one, and where argparse accepts
    the argv too, it reads the same fields."""
    mine = ours(argv)
    assert mine == expected(argv)
    theirs = reference(argv)
    if mine[0] == theirs[0] == "ok" and not mine[1]["help"]:
        assert {**theirs[1], "help": False} == mine[1]


@pytest.mark.parametrize("argv", [*ACCEPTED, *REFUSED], ids=argv_id)
def test_main_returns_the_code(argv, capsys, tmp_path, monkeypatch):
    """main prints a refusal under the usage line and returns 1, prints the
    help and returns 0, and raises no SystemExit."""
    monkeypatch.chdir(tmp_path)  # for --output
    code = main(list(argv))
    out, err = capsys.readouterr()
    if argv in REFUSED:
        assert (code, out, err) == (1, "", f"{_USAGE}phinewton: error: {REFUSED[argv]}\n")
    elif ACCEPTED[argv]["help"]:
        assert (code, out, err) == (0, _HELP, "")
    else:
        assert code in (0, 1, 2)
        assert not err.startswith("usage:")


@pytest.mark.parametrize("argv, field, value", INTEGER_FORMS)
def test_integer_forms_differ_from_argparse(argv, field, value):
    assert reference(argv)[1][field] == value
    assert ours(argv) == ("error", f"argument -p/--prime: invalid int value: {argv[-1]!r}")


def test_help_with_attached_value():
    # -hx is no cluster: an unknown option, refused after the missing -p
    assert ours(["-hx"]) == ("error", NEED_P)


@pytest.mark.parametrize("argv, field", DASH_VALUES)
def test_attached_dashes_differ_from_argparse(argv, field):
    assert ours(argv) == DASH_OUTCOMES[field]
    if OLD_DASHES:
        assert reference(argv)[1][field] == []


INTEGER_VALUES = {argv[-1] for argv, _, _ in INTEGER_FORMS}
TOKENS = sorted({t for argv in [*ACCEPTED, *REFUSED] for t in argv if len(t) < 100}
                | INTEGER_VALUES)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argv=st.lists(st.sampled_from(TOKENS), max_size=6))
def test_reader_agrees_with_argparse_on_mixed_argv(argv):
    """Whenever both accept, they read the same fields, but for an attached
    "--" that argparse before 3.13 reads as [] (pinned by DASH_OUTCOMES)."""
    mine, theirs = ours(argv), reference(argv)
    if mine[0] != "ok" or mine[1]["help"] or theirs[0] != "ok":
        return
    if [] in theirs[1].values():
        return
    assert {**theirs[1], "help": False} == mine[1], argv
