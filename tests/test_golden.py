"""Replay a frozen corpus of CLI runs byte for byte.

`data/golden_cli.json` lists argv vectors with the exact stdout, stderr and
exit code they produced.  The corpus reaches every note branch of both
modes in the json, text and svg formats, plus the input-error and usage
exits.  It is a fixed record: when a case fails, the code changed its
output; do not regenerate the file to make the test pass.
"""

import json
from pathlib import Path

import pytest

from phinewton.cli import main

CORPUS = json.loads(
    (Path(__file__).parent / "data" / "golden_cli.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", CORPUS, ids=[str(i) for i in range(len(CORPUS))])
def test_replay(case, capsys):
    try:
        code = main(list(case["argv"]))
    except SystemExit as usage:  # a usage error, as the script exits
        code = usage.code
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
    assert code == case["exit"]
