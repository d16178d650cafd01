"""CLI output, byte for byte, against tests/golden/cli.json.

The goldens cover `enumerate`, `hasse` and `strata` at small n in every
format with and without --annotate, plus `strata --only` and `check` on
four labels over every manifold; tests/golden/make_cli.py regenerates them.
"""

import json
import shlex
from pathlib import Path

import pytest

from gaugestrata.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_output_matches_golden(capsys, monkeypatch, command):
    monkeypatch.delenv("STRATA_BUDGET", raising=False)
    code = main(shlex.split(command))
    out, err = capsys.readouterr()
    assert {"exit": code, "stdout": out, "stderr": err} == GOLDEN[command]
