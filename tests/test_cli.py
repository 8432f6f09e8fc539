import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relpat
from relpat import matcher
from relpat.cli import main
from relpat.machines import UtmConfiguration, utm_encode_computation

BETA_TEXT = "alphabet:abc; pattern: x1 c c x2; rel: rev(x1,x2)\n"
AUTOMATON_TEXT = """states: 2
accept: q1
q0 0 0 -> q0 +1 0
q0 0 0 -> q1 0 0
q0 1 0 -> q1 -1 0
"""


@pytest.fixture
def beta_file(tmp_path):
    path = tmp_path / "beta.rp"
    path.write_text(BETA_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def automaton_file(tmp_path):
    path = tmp_path / "a.ca"
    path.write_text(AUTOMATON_TEXT, encoding="utf-8")
    return str(path)


def test_member_true_exit_zero(beta_file, capsys):
    assert main(["member", "--pattern", beta_file, "--word", "abccba", "--mode", "ne"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_member_witness_output(beta_file, capsys):
    code = main(
        ["member", "--pattern", beta_file, "--word", "abccba", "--mode", "ne", "--witness"]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["true", "x1=ab x2=ba"]


def test_member_false_exit_one(beta_file, capsys):
    assert main(["member", "--pattern", beta_file, "--word", "abccab", "--mode", "ne"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_rel_probe(capsys):
    assert main(["rel", "rev", "ab", "ba"]) == 0
    assert main(["rel", "rev", "ab", "ab"]) == 1
    assert main(["rel", "nonsense", "a", "b"]) == 2


def test_enum_sorted_output(beta_file, capsys):
    assert main(["enum", "--pattern", beta_file, "--mode", "ne", "--max-len", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == ["acca", "bccb", "cccc"]


def _variables_only(tmp_path, count: int) -> str:
    path = tmp_path / "deep.rp"
    variables = " ".join(f"x{i}" for i in range(1, count + 1))
    path.write_text(f"alphabet:ab; pattern: {variables}\n", encoding="utf-8")
    return str(path)


def test_enum_recursion_limit_is_resource_guard(tmp_path, capsys):
    # 1,200 non-erasing variables with max length 1,200 admit only the
    # all-single-letter images: 2**1200 candidates exhaust the enumeration
    # node budget, and the CLI must refuse (exit 2), not answer "false" (exit 1).
    path = _variables_only(tmp_path, 1200)
    assert main(["enum", "--pattern", path, "--mode", "ne", "--max-len", "1200"]) == 2
    assert "resource guard" in capsys.readouterr().err


def test_enum_many_variables_is_not_bounded_by_recursion(tmp_path, capsys):
    path = _variables_only(tmp_path, 1200)
    assert main(["enum", "--pattern", path, "--mode", "e", "--max-len", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["", "a", "b"]


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_errors_are_resource_guard(beta_file, monkeypatch, capsys, error):
    def exhausted(*args, **kwargs):
        raise error("exhausted")

    monkeypatch.setattr(matcher, "match", exhausted)
    assert main(["member", "--pattern", beta_file, "--word", "abccba", "--mode", "ne"]) == 2
    assert "resource guard: exhausted" in capsys.readouterr().err


def test_equiv_same_file(tmp_path, capsys):
    path = tmp_path / "p.rp"
    path.write_text("alphabet:ab; pattern: x1 a x2; rel: ab(x1,x2)\n", encoding="utf-8")
    assert main(["equiv", "--a", str(path), "--b", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_equiv_precondition_diagnostic(beta_file, capsys):
    assert main(["equiv", "--a", beta_file, "--b", beta_file]) == 2
    assert "precondition" in capsys.readouterr().err


def test_equiv_mixed_kinds_is_a_precondition_violation(tmp_path, capsys):
    path = tmp_path / "mixed.rp"
    path.write_text("alphabet:ab; pattern: x1 x2 x3; rel: eq(x1,x2), ab(x2,x3)\n", encoding="utf-8")
    assert main(["equiv", "--a", str(path), "--b", str(path)]) == 2
    assert capsys.readouterr().err == "precondition violated: mixed relation kinds: ['ab', 'eq']\n"


def test_import_relpat_leaves_cli_and_selfcheck_unloaded():
    # The benchmark times a fresh `import relpat`; these two modules are not part of it.
    code = "import sys, relpat; print(sorted(m for m in sys.modules if m.startswith('relpat')))"
    src = str(Path(relpat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = ast.literal_eval(result.stdout)
    assert "relpat.core" in loaded
    assert "relpat.cli" not in loaded and "relpat.selfcheck" not in loaded


def test_bincl_and_beq(tmp_path, capsys):
    a = tmp_path / "a.rp"
    b = tmp_path / "b.rp"
    a.write_text("alphabet:ab; pattern: x1 x2; rel: ssq(x1,x2), ssq(x2,x1)\n", encoding="utf-8")
    b.write_text("alphabet:ab; pattern: x1 x2; rel: eq(x1,x2)\n", encoding="utf-8")
    assert main(["bincl", "--a", str(a), "--b", str(b), "--mode", "ne", "--max-len", "6"]) == 0
    assert main(["beq", "--a", str(a), "--b", str(b), "--mode", "ne", "--max-len", "6"]) == 0
    c = tmp_path / "c.rp"
    c.write_text("alphabet:ab; pattern: x1 x2\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["beq", "--a", str(a), "--b", str(c), "--mode", "ne", "--max-len", "6"]) == 1
    out = capsys.readouterr().out
    assert "false" in out and "counterexample:" in out


def test_reduce_generate_and_verify(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 1 1 0\n", encoding="utf-8")
    out = tmp_path / "inst.rp"
    code = main(
        [
            "reduce",
            "--variant",
            "angluin-ne",
            "--kind",
            "rev",
            "--cnf",
            str(cnf),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "#111#1111111#1111#"
    text = out.read_text(encoding="utf-8")
    assert "mode: NE" in text and "rev(" in text
    assert (
        main(["reduce", "verify", "--variant", "angluin-ne", "--kind", "rev", "--cnf", str(cnf)])
        == 0
    )


def test_machine_subcommands(automaton_file, tmp_path, capsys):
    assert main(["machine", "ca-run", "--automaton", automaton_file, "--max-steps", "6"]) == 0
    run_lines = capsys.readouterr().out.splitlines()
    assert run_lines[0] == "q0 0 0"
    assert main(["machine", "ca-encode", "--automaton", automaton_file, "--max-steps", "6"]) == 0
    word = capsys.readouterr().out.strip()
    assert (
        main(["machine", "ca-validate", "--automaton", automaton_file, "--word", word]) == 0
    )
    capsys.readouterr()
    assert (
        main(["machine", "ca-validate", "--automaton", automaton_file, "--word", word[2:]]) == 1
    )


def test_machine_utm_validate(capsys):
    halt = UtmConfiguration(10, 1, 0)
    word = utm_encode_computation([halt])
    assert main(["machine", "utm-validate", "--initial", "10,1,0", "--word", word]) == 0
    capsys.readouterr()
    assert main(["machine", "utm-validate", "--initial", "1,0,0", "--word", word]) == 1


def test_thm3_build_and_eval(automaton_file, tmp_path, capsys):
    out = tmp_path / "beta_A.rp"
    assert main(["thm3", "build", "--automaton", automaton_file, "--out", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()
    code = main(
        [
            "thm3",
            "eval",
            "--automaton",
            automaton_file,
            "--sigma-x",
            "####",
            "--sigma-y",
            "00000",
        ]
    )
    assert code == 0
    indices = capsys.readouterr().out.split()
    assert "1" in indices  # four hashes contain a triple hash: bad form


def test_missing_file_is_usage_error(capsys):
    assert main(["member", "--pattern", "/nonexistent.rp", "--word", "a", "--mode", "e"]) == 2


@pytest.mark.parametrize(
    "command, choices",
    [("machine", "{ca-run,ca-encode,ca-validate,utm-validate}"), ("thm3", "{build,eval}")],
)
def test_missing_subcommand_lists_choices(command, choices, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert f"the following arguments are required: {choices}" in capsys.readouterr().err


def test_report_deterministic(tmp_path, capsys):
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert main(["report", "--seed", "3", "--out", str(first)]) == 0
    assert main(["report", "--seed", "3", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text(encoding="utf-8"))
    assert {entry["suite"] for entry in payload} == {
        "relation-laws",
        "matcher-oracle",
        "reductions",
        "equivalence",
        "machines",
        "inclusion-constructions",
    }
    for entry in payload:
        assert set(entry) == {"suite", "cases", "passed", "failed", "seconds"}
        assert entry["failed"] == 0
        assert entry["passed"] == entry["cases"]
