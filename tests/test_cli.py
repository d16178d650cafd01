import json
import re

import pytest

from gaugestrata.cli import main
from gaugestrata.labels import parse_label


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_valid_dot(text):
    assert text.startswith("digraph")
    assert text.count("{") == text.count("}") == 1
    body = text[text.index("{") + 1 : text.rindex("}")]
    for line in body.strip().splitlines():
        line = line.strip()
        if line in ("rankdir=LR;", ""):
            continue
        # node or edge statements use quoted identifiers
        assert re.match(r'^"[^"]+"( -> "[^"]+")?( \[[^\]]*\])?;$', line), line


class TestEnumerate:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2")
        assert code == 0
        assert out.splitlines() == ["(1|2)", "(1 1|1 1)", "(2|1)"]

    def test_n1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1")
        assert code == 0
        assert out.strip() == "(1|1)"

    def test_json_n5(self, capsys):
        code, out, _ = run(capsys, "enumerate", "5", "--format", "json")
        assert code == 0
        labels = json.loads(out)
        assert len(labels) == 17
        assert all(isinstance(s, str) for s in labels)

    def test_bad_n_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "0"])
        assert exc.value.code == 2

    def test_round_trip(self, capsys):
        _, out, _ = run(capsys, "enumerate", "6")
        for line in out.splitlines():
            assert str(parse_label(line)) == line


class TestHasse:
    def test_dot_annotated(self, capsys):
        code, out, _ = run(capsys, "hasse", "2", "--format", "dot", "--annotate")
        assert code == 0
        assert_valid_dot(out)
        assert '"(1 1|1 1)" [label="(1 1|1 1)\\n0/2"];' in out

    def test_text_n3(self, capsys):
        code, out, _ = run(capsys, "hasse", "3")
        assert code == 0
        lines = out.splitlines()
        nodes = [l for l in lines if "->" not in l]
        assert len(nodes) == 5
        assert "(1 1 1|1 1 1) -> (2 1|1 1)" in lines

    def test_n1_single_node(self, capsys):
        code, out, _ = run(capsys, "hasse", "1")
        assert code == 0
        assert out.splitlines() == ["(1|1)"]

    def test_json_deterministic(self, capsys):
        _, first, _ = run(capsys, "hasse", "4", "--format", "json", "--annotate")
        _, second, _ = run(capsys, "hasse", "4", "--format", "json", "--annotate")
        assert first == second
        doc = json.loads(first)
        assert len(doc["nodes"]) == 11


# Every command refuses a bad STRATA_BUDGET, not only the modular CP^2
# search ("" below); the other argvs never reach that search.
BUDGET_ARGVS = {
    "": ["check", "(2 2|2 1)", "cp2", "-3"],
    "cp2-box": ["check", "(1 1|1 1)", "cp2", "-3"],
    "check-s4": ["check", "(1|2)", "s4", "7"],
    "hasse": ["hasse", "3"],
    "enumerate": ["enumerate", "3"],
    "strata-s2xs2": ["strata", "--n", "3", "--manifold", "s2xs2", "--c2", "6"],
    "strata-dim3": ["strata", "--n", "3", "--manifold", "dim3", "--format", "dot"],
}


class TestStrata:
    def test_cp2_n3_text(self, capsys):
        code, out, _ = run(capsys, "strata", "--n", "3", "--manifold", "cp2",
                           "--c2", "-5")
        assert code == 0
        assert re.search(r"\(1 1 1\|1 1 1\).*absent", out)
        assert re.search(r"\(1 1\|2 1\).*present", out)

    def test_s4_trivial_all_present(self, capsys):
        code, out, _ = run(capsys, "strata", "--n", "4", "--manifold", "s4",
                           "--c2", "0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 4 and doc["manifold"] == "s4" and doc["c2"] == 0
        assert len(doc["types"]) == 11
        assert all(t["present"] for t in doc["types"])
        for t in doc["types"]:
            assert set(t) == {"label", "d_s4", "d_s2xs2", "present", "criterion"}

    def test_only_filter_large_n(self, capsys):
        code, out, _ = run(capsys, "strata", "--n", "20", "--manifold", "s2xs2",
                           "--c2", "4", "--only", "(4 4 6|1 1 2)", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["types"]) == 1
        entry = doc["types"][0]
        assert entry["label"] == "(6 4 4|2 1 1)"
        assert entry["d_s2xs2"] == 2
        assert entry["present"] is True

    def test_only_wrong_total(self, capsys):
        code, _, err = run(capsys, "strata", "--n", "20", "--manifold", "s4",
                           "--c2", "0", "--only", "(1|2)")
        assert code == 2
        assert "total" in err

    def test_dot_grays_absent(self, capsys):
        code, out, _ = run(capsys, "strata", "--n", "2", "--manifold", "s4",
                           "--c2", "1", "--format", "dot")
        assert code == 0
        assert_valid_dot(out)
        assert 'fillcolor=lightgray' in out
        # absent labels carry the gray attributes, present ones do not
        assert re.search(r'"\(1\|2\)";', out)

    def test_json_deterministic(self, capsys):
        args = ("strata", "--n", "5", "--manifold", "s2xs2", "--c2", "6",
                "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_budget_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("STRATA_BUDGET", "1")
        code, _, err = run(capsys, "check", "(2 2|2 2)", "cp2", "4")
        assert code == 3
        assert "(2 2|2 2)" in err

    def test_cp2_n11_default_budget(self, capsys):
        code, out, _ = run(capsys, "strata", "--n", "11", "--manifold", "cp2", "--c2", "-5")
        assert code == 0
        assert "(2 1 1 1 1 1 1 1|2 1 1 1 1 1 1 1)" in out

    def test_cp2_n12_g0_default_budget(self, capsys):
        code, out, _ = run(capsys, "strata", "--n", "12", "--manifold", "cp2", "--c2", "-200")
        assert code == 0
        assert "(1 1 1 1 1 1 1 1 1 1 1 1|1 1 1 1 1 1 1 1 1 1 1 1)" in out

    @pytest.mark.parametrize("budget,argv", [
        pytest.param(budget, argv, id=f"{budget}-{name}" if name else budget)
        for name, argv in BUDGET_ARGVS.items() for budget in ["0", "-5", "abc", "1e3"]])
    def test_bad_budget_exit_2(self, capsys, monkeypatch, budget, argv):
        monkeypatch.setenv("STRATA_BUDGET", budget)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "STRATA_BUDGET" in err and repr(budget) in err


class TestCheck:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "check", "(4 4 6|1 1 2)", "s2xs2", "3")
        assert code == 0
        assert "gcd(k) = 2" in out
        assert "d_S4 = gcd(red k) = 6" in out
        assert "gcd(L) = 4" in out
        assert "d_S2xS2 = 2" in out
        assert out.strip().endswith("no")

    def test_present(self, capsys):
        code, out, _ = run(capsys, "check", "(1|2)", "s4", "7")
        assert code == 0
        assert out.strip().endswith("yes")

    def test_zero_divides_zero(self, capsys):
        code, out, _ = run(capsys, "check", "(2|1)", "s4", "0")
        assert code == 0
        assert out.strip().endswith("yes")

    @pytest.mark.parametrize("manifold", ["dim2", "dim3"])
    def test_low_dim_refuses_nontrivial(self, capsys, manifold):
        code, out, err = run(capsys, "check", "(1|2)", manifold, "5")
        assert code == 2 and out == ""
        assert f"bundles over {manifold} are trivial; c2 must be 0" in err
        code, out, _ = run(capsys, "check", "(1|1)", manifold, "0")
        assert code == 0
        assert out.strip().endswith("yes")

    def test_parse_failure_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "(1 2|", "s4", "0")
        assert code == 2
        assert err
