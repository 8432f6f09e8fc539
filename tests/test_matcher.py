import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import relpat

from relpat.core import Alphabet, BudgetExceededError, Constraint, Mode
from relpat.matcher import MatchEquation, MatchProblem, count_witnesses, match, solve_system
from relpat.relations import RelationKind as K
from relpat import semantics
from relpat.selfcheck import matcher_oracle

from helpers import all_witnesses, all_words, make_rp, random_relational_pattern

REV_PATTERN = make_rp((1, "c", "c", 2), {Constraint(K.REVERSAL, 1, 2)}, alphabet=Alphabet.of("abc"))
INTRO_PATTERN = make_rp((1, "a", "a", 3, "b", 2), {Constraint(K.EQ, 1, 3)})


def test_match_reversal_witness():
    witness = match("abccba", REV_PATTERN, Mode.NE)
    assert witness == {1: "ab", 2: "ba"}


def test_match_reversal_absent():
    assert match("abccab", REV_PATTERN, Mode.NE) is None


def test_match_erasing_witness_all_empty():
    witness = match("aab", INTRO_PATTERN, Mode.E)
    assert witness == {1: "", 2: "", 3: ""}


def test_match_nonerasing_absent():
    assert match("aab", INTRO_PATTERN, Mode.NE) is None


def test_solve_system_single_equation_is_match():
    problem = MatchProblem(
        (MatchEquation(REV_PATTERN.symbols, "abccba"),), REV_PATTERN.constraints, Mode.NE
    )
    assert solve_system(problem) == match("abccba", REV_PATTERN, Mode.NE)


def test_solve_system_shared_variables():
    problem = MatchProblem(
        (MatchEquation((1, 2), "ab"), MatchEquation((2, 1), "ba")), frozenset(), Mode.NE
    )
    assert solve_system(problem) == {1: "a", 2: "b"}


def test_solve_system_contradiction():
    problem = MatchProblem(
        (MatchEquation((1,), "a"), MatchEquation((2,), "b")),
        frozenset({Constraint(K.EQ, 1, 2)}),
        Mode.E,
    )
    assert solve_system(problem) is None


def test_solve_system_rejects_dangling_constraint():
    with pytest.raises(ValueError):
        MatchProblem((MatchEquation((1,), "a"),), frozenset({Constraint(K.EQ, 1, 2)}), Mode.E)


def test_count_witnesses_unique_reversal():
    assert count_witnesses("abccba", REV_PATTERN, Mode.NE, cap=10) == 1


def test_count_witnesses_terminal_only():
    rp = make_rp(("a", "b"))
    assert count_witnesses("ab", rp, Mode.E, cap=10) == 1
    assert count_witnesses("ba", rp, Mode.E, cap=10) == 0


def test_count_witnesses_three_splits():
    rp = make_rp((1, 2))
    assert count_witnesses("aa", rp, Mode.E, cap=10) == 3


def test_count_witnesses_cap():
    rp = make_rp((1, 2))
    assert count_witnesses("a" * 8, rp, Mode.E, cap=4) == 4


def test_match_deterministic_witness():
    rp = make_rp((1, 2), {Constraint(K.LEN_EQ, 1, 2)})
    first = match("abab", rp, Mode.NE)
    second = match("abab", rp, Mode.NE)
    assert first == second == {1: "ab", 2: "ab"}


def test_match_minimal_witness_first():
    rp = make_rp((1, "a", 2))
    # shortest-first ordering: x1 takes the empty image
    assert match("aa", rp, Mode.E) == {1: "", 2: "a"}


def test_budget_guard_raises():
    rp = make_rp(tuple(range(1, 9)))
    with pytest.raises(BudgetExceededError):
        match("ab" * 10, rp, Mode.E, node_budget=10)


def test_alphabet_mismatch_rejected():
    with pytest.raises(ValueError):
        match("abc", make_rp((1,)), Mode.E)


def test_agreement_with_enumeration_oracle_sampled():
    _, failures = matcher_oracle(random.Random(5), patterns=60, max_len=7)
    assert not failures, failures[:5]


def test_pruning_never_changes_verdict():
    rng = random.Random(6)
    words = all_words("ab", 6)
    for _ in range(40):
        rp = random_relational_pattern(rng)
        mode = rng.choice([Mode.E, Mode.NE])
        for word in rng.sample(words, 12):
            pruned = match(word, rp, mode, length_pruning=True)
            unpruned = match(word, rp, mode, length_pruning=False)
            assert (pruned is None) == (unpruned is None)


def test_witness_is_always_valid():
    rng = random.Random(7)
    for _ in range(80):
        rp = random_relational_pattern(rng)
        mode = rng.choice([Mode.E, Mode.NE])
        for word in rng.sample(all_words("ab", 6), 8):
            witness = match(word, rp, mode)
            if witness is not None:
                assert semantics.apply(witness, rp) == word
                assert semantics.is_valid(witness, rp, mode)


def test_first_witness_and_count_match_brute_force():
    # Pins the search order (least image lengths, in variable order, first)
    # and count_witnesses on constrained patterns, for both pruning settings.
    rng = random.Random(11)
    words = all_words("ab", 6)
    for _ in range(30):
        rp = random_relational_pattern(rng)
        for mode in (Mode.E, Mode.NE):
            for word in words:
                expected = all_witnesses(word, rp, mode)
                least = min(
                    expected, key=lambda h: tuple(len(h[v]) for v in rp.variables), default=None
                )
                for pruning in (True, False):
                    assert match(word, rp, mode, length_pruning=pruning) == least
                    assert count_witnesses(
                        word, rp, mode, cap=10**6, length_pruning=pruning
                    ) == len(expected)


@pytest.mark.parametrize(
    "symbols, word",
    [
        (tuple(range(1, 3001)), "a" * 3000),
        (tuple(s for var in range(1, 1501) for s in (var, "a")), "ba" * 1500),
    ],
    ids=["variables-only", "alternating"],
)
def test_deep_pattern_needs_no_recursion(symbols, word):
    # 3,000 items: search depth is bounded by the node budget, not the stack.
    rp = make_rp(symbols)
    witness = match(word, rp, Mode.NE)
    assert witness is not None
    assert semantics.apply(witness, rp) == word
    assert semantics.is_valid(witness, rp, Mode.NE)


def test_assert_solution_raises_under_optimize():
    # ``python -O`` strips bare asserts; the witness self-check must still raise.
    code = (
        "from relpat.core import Mode\n"
        "from relpat.matcher import MatchEquation, MatchProblem, _assert_solution\n"
        "problem = MatchProblem((MatchEquation((1, 'a'), 'ba'),), frozenset(), Mode.NE)\n"
        "_assert_solution(problem, {1: 'a'})\n"
    )
    src = str(Path(relpat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 1
    assert "AssertionError: solver produced a non-solution" in result.stderr
