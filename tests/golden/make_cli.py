"""Regenerate cli.json, the golden CLI outputs checked by tests/test_golden.py.

Run from the repository root, with the package importable:

    PYTHONPATH=src python3 tests/golden/make_cli.py

Each entry maps a shell-quoted argv to the exit code, stdout and stderr of
`gaugestrata <argv>` with STRATA_BUDGET unset. Regenerate only for an
intended change of output, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
from pathlib import Path

from gaugestrata.cli import main

GOLDEN = Path(__file__).with_name("cli.json")
FORMATS = ("text", "json", "dot")
KINDS = [(m, c2) for m in ("s4", "s2xs2", "t4", "cp2") for c2 in (0, -5, 6, -200)]
KINDS += [("dim2", 0), ("dim3", 0)]
LABELS = {"(4 4 6|1 1 2)": 20, "(1 1|1 1)": 2, "(2 2|2 1)": 6, "(1|7)": 7}


def argvs() -> list[list[str]]:
    out = []
    for fmt in FORMATS:
        out += [["enumerate", str(n), "--format", fmt] for n in (1, 2, 4)]
        for flag in ([], ["--annotate"]):
            out += [["hasse", str(n), "--format", fmt] + flag for n in range(1, 5)]
            out += [["strata", "--n", str(n), "--manifold", m, "--c2", str(c2),
                     "--format", fmt] + flag
                    for n in range(2, 5) for m, c2 in KINDS]
            out += [["strata", "--n", str(n), "--manifold", "cp2", "--c2", "-5",
                     "--only", label, "--format", fmt] + flag
                    for label, n in LABELS.items()]
    for label, n in LABELS.items():
        out += [["strata", "--n", str(n), "--manifold", m, "--c2", str(c2),
                 "--only", label] for m, c2 in KINDS]
        out += [["check", label, m, str(c2)] for m, c2 in KINDS]
    return out


def run(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


if __name__ == "__main__":
    os.environ.pop("STRATA_BUDGET", None)
    doc = {shlex.join(argv): run(argv) for argv in argvs()}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(doc)} invocations, {GOLDEN.stat().st_size} bytes -> {GOLDEN}")
