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

from phinewton import cli
from phinewton.cli import main
from phinewton.criteria import analyze

CORPUS = json.loads(
    (Path(__file__).parent / "data" / "golden_cli.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", CORPUS, ids=[str(i) for i in range(len(CORPUS))])
def test_replay(case, capsys):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
    assert code == case["exit"]


@pytest.mark.parametrize("case", CORPUS, ids=[str(i) for i in range(len(CORPUS))])
def test_json_writer_matches_json_dumps(case, capsys, monkeypatch):
    """render_json writes what json.dumps(indent=2) writes for each report
    the case reaches, whatever format it asks for."""
    reports = []

    def recorded(*args, **kwargs):
        reports.append(analyze(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "analyze", recorded)
    main(list(case["argv"]))
    capsys.readouterr()
    for report in reports:
        assert cli.render_json(report) == json.dumps(cli.report_to_dict(report), indent=2) + "\n"
