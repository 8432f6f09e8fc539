"""Tests of the benchmark itself.

Each answer check must reject a planted wrong answer; the oracle's relations
must agree with relpat's; every workload must run end to end, untraced and
traced, at a reduced size; and the command must refuse to run without the
relpat sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _relpat_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "relpat" or k.startswith("relpat.")}


@pytest.fixture(autouse=True)
def restore_relpat():
    # Each benchmark set-up imports relpat afresh; hand the other tests back
    # the modules they imported, so enum identities stay shared.
    saved = _relpat_modules()
    yield
    for name in _relpat_modules():
        del sys.modules[name]
    sys.modules.update(saved)


def first_round(name: str):
    prepared = workloads.WORKLOADS[name](run.load_relpat(), 7, full=False)
    answers = run.one_round(prepared.queries)[0]
    assert prepared.check(answers) == []
    return prepared, answers


def rejected(prepared, answers, index, wrong) -> bool:
    planted = list(answers)
    planted[index] = wrong
    return bool(prepared.check(planted))


def test_membership_check_rejects_planted_answers():
    prepared, answers = first_round("membership")
    member = next(i for i, a in enumerate(answers) if isinstance(a, dict) and a)
    outsider = next(i for i, a in enumerate(answers) if a is None)
    language = next(i for i, a in enumerate(answers) if isinstance(a, frozenset) and a)
    assert rejected(prepared, answers, member, None)  # flipped verdict
    assert rejected(prepared, answers, outsider, {})  # flipped verdict
    var = next(iter(answers[member]))
    corrupted = {**answers[member], var: answers[member][var] + "a"}
    assert rejected(prepared, answers, member, corrupted)  # corrupted witness
    assert rejected(prepared, answers, language, frozenset(sorted(answers[language])[1:]))


def test_reduction_check_rejects_planted_answers():
    prepared, answers = first_round("reduction")
    sat = next(i for i, (_, w, _) in enumerate(answers) if w is not None)
    unsat = next(i for i, (_, w, _) in enumerate(answers) if w is None)
    inst, witness, brute = answers[sat]
    assert rejected(prepared, answers, sat, (inst, None, brute))
    assert rejected(prepared, answers, sat, (inst, witness, not brute))
    var = next(iter(witness))
    assert rejected(prepared, answers, sat, (inst, {**witness, var: witness[var] + "1"}, brute))
    inst, witness, brute = answers[unsat]
    assert rejected(prepared, answers, unsat, (inst, {}, brute))


def test_predicates_check_rejects_planted_answers():
    prepared, answers = first_round("predicates")
    # The first assignment encodes an accepting run, so no predicate holds on it.
    assert not any(answers[:20])
    for index in (0, 1, 2, 10):
        assert rejected(prepared, answers, index, True)
    hit = next(i for i, a in enumerate(answers) if a)
    assert rejected(prepared, answers, hit, False)


def test_equivalence_check_rejects_planted_answers():
    prepared, answers = first_round("equivalence")
    for index in (0, 1):
        assert rejected(prepared, answers, index, not answers[index])


def test_oracle_relations_agree_with_relpat():
    lib = run.load_relpat()
    words = oracle.all_words("ab", 4)
    for kind in workloads.KINDS:
        relation = lib.relations.RelationKind(kind)
        for u in words:
            for v in words:
                assert oracle.holds(kind, u, v) == lib.relations.relation_holds(relation, u, v)


def test_predicate_oracle_split_search_matches_regex():
    # With sigma(y) a power of 0 at least |x| long both readings must agree.
    skeleton = ("#", 1, "#", 1, "#")
    for x in oracle.all_words("0#", 7):
        fast = oracle.occurrence_holds(skeleton, False, False, x, "0" * 8)
        brute = any(
            f"#{'0' * k}#{'0' * k}#" in x for k in range(len(x) + 1)
        )
        assert fast == brute


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_end_to_end(name):
    result = run.end_to_end(name, seed=3, seconds=0, full=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(name):
    first = run.traced(name, seed=3, seconds=0, full=False)
    second = run.traced(name, seed=3, seconds=0, full=False)
    assert first["correct"] and second["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in first["metrics"].items()} == expected

    def counts(result):
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}

    assert counts(first) == counts(second)
    assert first["spans"]


def test_refuses_to_run_without_relpat(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=skip)
    command = [sys.executable, *SPEC["command"][1:], "--workload", "membership", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
