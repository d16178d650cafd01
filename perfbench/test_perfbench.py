"""Self-test of the benchmark at smoke sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gaugestrata as gs  # noqa: E402
from gaugestrata.cli import main  # noqa: E402

import gate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT, smoke=True):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "0.3",
                             "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def copy_benchmark(root):
    """BENCHMARK.json and the benchmark's own files, without run output."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    for rel in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, rel), root / rel,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


def test_gate_trips_on_a_flipped_reference_verdict(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = tmp_path / "perfbench" / "refs" / "poset.json"
    refs = json.loads(path.read_text())
    flipped = 0
    for key, ref in refs["strata"].items():
        if key.split("|")[0] in ("4", "5"):  # the smoke sizes
            ref["mask"] = format(int(ref["mask"], 16) ^ 1, "x")
            flipped += 1
    assert flipped
    path.write_text(json.dumps(refs))
    proc = run_bench("poset", 0, cwd=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "differ from the reference" in proc.stdout


def test_fails_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench("poset", 0, cwd=tmp_path, smoke=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_label_count_oracles_agree_with_the_program():
    for n in range(1, 13):
        labels = [gate.canon(j.k, j.m) for j in gs.enumerate_labels(n)]
        assert len(labels) == gate.count_labels(n)
        assert sorted(labels, key=gate.order_key) == list(gate.labels_of(n))


def test_divisor_oracles_agree_with_the_program():
    for n in range(2, 13):
        for j in gs.enumerate_labels(n):
            pairs = gate.canon(j.k, j.m)
            assert (gate.d_s4(pairs), gate.d_s2xs2(pairs)) == (gs.d_s4(j), gs.d_s2xs2(j))


def test_cp2_kernel_oracle_agrees_with_the_program():
    for n in range(2, 9):
        for j in gs.enumerate_labels(n):
            pairs = gate.canon(j.k, j.m)
            if gate.d_s4(pairs) == 0:
                continue
            for c2 in range(-20, 13):
                assert gate.cp2_modular(pairs, c2) == gs.cp2_solvable(j, c2), (j, c2)


def test_parsers_read_every_format():
    for fmt in ("text", "json", "dot"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["strata", "--n", "5", "--manifold", "s4", "--c2", "-5",
                         "--format", fmt, "--annotate"]) == 0
        p = gate.parse_output(buf.getvalue(), fmt, grayed_is_absent=True)
        assert set(p.labels) == set(gate.labels_of(5))
        assert len(p.divisors) == len(p.labels)
        assert p.present == {j: gate.gcd_verdict("s4", -5, j) for j in p.labels}
        assert p.edges
