import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import relpat

from relpat.core import Alphabet, BudgetExceededError, Constraint, Mode
from relpat.inclusion import SigmaAssignment, build_predicates, predicate_satisfied
from relpat import matcher
from relpat.matcher import count_witnesses, match, solve_system
from relpat.reductions import CnfFormula, ReductionVariant, generate
from relpat.relations import RelationKind as K
from relpat import semantics
from relpat.selfcheck import matcher_oracle

from helpers import (
    RecomputingSolver,
    all_witnesses,
    all_words,
    make_rp,
    random_relational_pattern,
    search_outcome,
    tiny_automata,
)

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


def _items(witness):
    return witness and list(witness.items())


def test_solve_system_single_equation_is_match():
    # ``match`` skips ``solve_system``'s input checks; both must still agree,
    # witness key order included, on every relation kind and in both modes.
    equations = [(REV_PATTERN.symbols, "abccba")]
    assert solve_system(equations, REV_PATTERN.constraints, Mode.NE) == match("abccba", REV_PATTERN, Mode.NE)
    rng = random.Random(12)
    words = all_words("ab", 5)
    for i in range(36):
        rp = random_relational_pattern(rng, kinds=(list(K)[i % len(K)],))
        for mode in (Mode.E, Mode.NE):
            for word in rng.sample(words, 8):
                expected = _items(match(word, rp, mode))
                assert _items(solve_system([(rp.symbols, word)], rp.constraints, mode)) == expected


def test_solve_system_shared_variables():
    assert solve_system([((1, 2), "ab"), ((2, 1), "ba")], frozenset(), Mode.NE) == {1: "a", 2: "b"}


def test_solve_system_contradiction():
    equations = [((1,), "a"), ((2,), "b")]
    assert solve_system(equations, {Constraint(K.EQ, 1, 2)}, Mode.E) is None


def test_solve_system_rejects_dangling_constraint():
    # A constrained variable in no equation, and a system with no equations.
    for equations, constraints in ([((1,), "a")], {Constraint(K.EQ, 1, 2)}), ([], set()):
        with pytest.raises(ValueError):
            solve_system(equations, constraints, Mode.E)


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
            assert (match(word, rp, mode) is None) == (not all_witnesses(word, rp, mode))


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
    # and count_witnesses on constrained patterns.
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
                assert match(word, rp, mode) == least
                assert count_witnesses(word, rp, mode, cap=10**6) == len(expected)


def _member(word, rp, mode):
    return lambda n: match(word, rp, mode, node_budget=n) is not None


def _reduction_member(variant, clauses, kind=None):
    inst = generate(variant, CnfFormula(3, clauses), kind)
    return _member(inst.word, inst.rp, inst.mode)


def test_node_counts_pinned():
    # Each query needs exactly `nodes` search nodes: it answers within that
    # budget and raises one below it.  Any change to the pruning layers or the
    # fail memo moves one of these counts.
    unsat = tuple((a, 2 * b, 3 * c) for a in (1, -1) for b in (1, -1) for c in (1, -1))
    sat = ((1, 2, -3), (-1, 2, 3), (1, -2, 3))
    triples = build_predicates(tiny_automata()["increment-then-accept"])
    sigma = SigmaAssignment("##0#0#0##0#00#0##", "0" * 18)
    rev = make_rp((1, "c", 2, 3), {Constraint(K.REVERSAL, 1, 2)}, alphabet=Alphabet.of("abc"))
    repeat = make_rp((1, "a", 2, 3, 4), {Constraint(K.EQ, 1, 3)})
    classes = make_rp((1, 2, "b", 3), {Constraint(K.LEN_EQ, 1, 2), Constraint(K.ABELIAN_EQ, 2, 3)})
    ssq_star = make_rp((1, 2, 3, 4), {Constraint(K.SUBSEQ, 1, 3), Constraint(K.STAR, 4, 2)})
    ssq = make_rp((1, 2, 3), {Constraint(K.SUBSEQ, 1, 3)})
    cases = [
        ("E repeat", _member("abaabbaab", repeat, Mode.E), True, 12),
        ("NE reversal", _member("abccbaabccba", rev, Mode.NE), False, 11),
        ("equal-length class", _member("abbbabbbab", classes, Mode.NE), True, 8),
        ("ssq and star", _member("abababbab", ssq_star, Mode.E), True, 22),
        ("count ssq", lambda n: count_witnesses("abababbab", ssq, Mode.E, 10**6, node_budget=n), 26, 156),
        ("angluin-ne SAT", _reduction_member(ReductionVariant.ANGLUIN_NE, sat, K.EQ), True, 33),
        ("angluin-ne UNSAT", _reduction_member(ReductionVariant.ANGLUIN_NE, unsat, K.EQ), False, 470),
        ("jiang-e UNSAT", _reduction_member(ReductionVariant.JIANG_E, unsat, K.EQ), False, 457),
        ("onesided-ssq-e UNSAT", _reduction_member(ReductionVariant.ONE_SIDED_SUBSEQ_E, unsat), False, 231),
        ("onesided-star-ne UNSAT", _reduction_member(ReductionVariant.ONE_SIDED_STAR_NE, unsat), False, 455),
        ("complus-e SAT", _reduction_member(ReductionVariant.COM_PLUS_E, sat), True, 1003),
        ("predicate 3", lambda n: predicate_satisfied(sigma, triples[2], node_budget=n), False, 1592),
        ("predicate 18", lambda n: predicate_satisfied(sigma, triples[17], node_budget=n), True, 182),
    ]
    for name, query, expected, nodes in cases:
        assert query(nodes) == expected, name
        with pytest.raises(BudgetExceededError):
            query(nodes - 1)


def test_letter_floor_alone_needs_no_node():
    # x1 must end before the only "a": no length fits, so no node is spent.
    assert match("abbbbb", make_rp((1, "a", 2)), Mode.NE, node_budget=0) is None


@settings(max_examples=200, deadline=None)
@given(
    target=st.text(alphabet="abc", max_size=12),
    needs=st.dictionaries(st.sampled_from("abc"), st.integers(1, 5), max_size=3),
)
def test_max_end_is_the_letter_floor(target, needs):
    # x1 followed by the needed letters as terminals: the letter floor
    # implies the length floor, so it alone fixes x1's largest end, and -1
    # means no end fits.
    terminals = tuple(ch for ch, need in needs.items() for _ in range(need))
    solver = matcher._Solver(((1, *terminals),), (target,), frozenset(), Mode.E, 0)
    fits = [
        end for end in range(len(target) + 1)
        if all(target[end:].count(ch) >= need for ch, need in needs.items())
    ]
    end = solver._max_end(0, 0)
    assert end == max(fits, default=-1)
    assert (end == -1) == any(target.count(ch) < need for ch, need in needs.items())


# -- the letter-needs cache --------------------------------------------------
#
# ``RecomputingSolver`` empties the cache before every bound, so any stale
# entry shows up as a different witness, node count or fail memo.


@st.composite
def _systems(draw):
    """One or two equations over up to four shared variables, with up to
    three constraints of any kind between variables that occur."""
    variables = st.integers(1, 4)
    symbols = st.lists(st.one_of(variables, st.sampled_from("ab")), min_size=1, max_size=6)
    patterns = draw(st.lists(symbols, min_size=1, max_size=2))
    targets = [draw(st.text("ab", max_size=7)) for _ in patterns]
    occurring = sorted({s for pattern in patterns for s in pattern if isinstance(s, int)})
    constraints = []
    if len(occurring) > 1:
        pairs = st.lists(st.sampled_from(occurring), min_size=2, max_size=2, unique=True)
        for left, right in draw(st.lists(pairs, max_size=3)):
            constraints.append(Constraint(draw(st.sampled_from(list(K))), left, right))
    return patterns, targets, constraints, draw(st.sampled_from(list(Mode)))


@settings(max_examples=300, deadline=None)
@given(system=_systems())
def test_letter_needs_cache_matches_recompute(system):
    assert search_outcome(matcher._Solver, *system) == search_outcome(RecomputingSolver, *system)


_REDUCTION_KINDS = {
    ReductionVariant.ANGLUIN_NE: K.EQ,
    ReductionVariant.JIANG_E: K.REVERSAL,
    ReductionVariant.COMMUTE_NE: K.COM_STAR,
}


@pytest.mark.parametrize("satisfiable", [True, False], ids=["SAT", "UNSAT"])
@pytest.mark.parametrize("variant", list(ReductionVariant), ids=lambda v: v.value)
def test_letter_needs_cache_matches_recompute_on_reductions(variant, satisfiable):
    if satisfiable:
        clauses = ((1, 2, -3), (-1, 2, 3), (1, -2, 3), (-1, -2, -3))
    else:
        clauses = tuple((a, 2 * b, 3 * c) for a in (1, -1) for b in (1, -1) for c in (1, -1))
    inst = generate(variant, CnfFormula(3, clauses), _REDUCTION_KINDS.get(variant))
    system = ([inst.rp.symbols], [inst.word], inst.rp.constraints, inst.mode)
    assert search_outcome(matcher._Solver, *system) == search_outcome(RecomputingSolver, *system)


def test_letter_needs_cache_dropped_on_rebind_and_unbind():
    # x2 x3 x1 x1 with len(x3, x1), in E mode.  At x3's choice point each
    # rebinding of x3 changes x1's forced length, which x1's own choice point
    # reads.  Once x3 is exhausted and unbound, x2 is rebound and x3's choice
    # point reopens, reading x1's needs with x3 unbound again.  Keeping the
    # entry across the rebind costs three more nodes; keeping it across the
    # unbind leaves x1 forced to five letters and loses the witness.
    system = ([(2, 3, 1, 1)], ["abbab"], {Constraint(K.LEN_EQ, 3, 1)}, Mode.E)
    outcome = search_outcome(matcher._Solver, *system)
    assert outcome[:2] == ([(2, "abbab"), (3, ""), (1, "")], 36)
    assert outcome == search_outcome(RecomputingSolver, *system)


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


def test_deep_pattern_tables_are_linear():
    # One tuple of the later variables per item would make the tables
    # quadratic, about 37 MB on this pattern; linear tables need under 3 MB.
    rp = make_rp(tuple(range(1, 3001)))
    matcher._compile.cache_clear()
    tracemalloc.start()
    try:
        witness = match("a" * 3000, rp, Mode.NE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert witness == {v: "a" for v in range(1, 3001)}
    assert peak < 8 * 2**20, peak


# -- the compiled-table cache -------------------------------------------------

SEARCH_BUDGET = 10**6


def _search(word, rp, mode):
    """Witness (with its key order), nodes used and memo contents of one search."""
    solver = matcher._Solver((rp.symbols,), (word,), rp.constraints, mode, SEARCH_BUDGET)
    witness = solver.solve()
    memo = {(ei, item, t, frozenset(pairs)) for ei, item, t, pairs in solver.fail_memo}
    return _items(witness), SEARCH_BUDGET - solver.budget, memo


def _cold(query, *args):
    matcher._compile.cache_clear()
    return query(*args)


def test_interrupted_search_leaves_tables_intact():
    rp = make_rp((1, "a", 2, 3, 4), {Constraint(K.EQ, 1, 3), Constraint(K.SUBSEQ, 2, 4)})
    for word in ("abaabbaab", "abbbabbab"):
        cold = _cold(_search, word, rp, Mode.E)
        assert cold[1] > 3
        with pytest.raises(BudgetExceededError):
            match(word, rp, Mode.E, node_budget=3)
        assert _search(word, rp, Mode.E) == cold


def test_value_equal_patterns_share_tables():
    symbols = [1, 2, "b", 3, 4, 5, "a"]
    constraints = [
        Constraint(K.LEN_EQ, 1, 2),
        Constraint(K.ABELIAN_EQ, 2, 3),
        Constraint(K.SUBSEQ, 1, 4),
        Constraint(K.STAR, 5, 1),
        Constraint(K.REVERSAL, 3, 4),
    ]
    first = make_rp(list(symbols), constraints)
    second = make_rp(list(symbols), reversed(constraints))
    assert first == second and first.symbols is not second.symbols
    for word in all_words("ab", 7):
        for mode in (Mode.E, Mode.NE):
            cold = _cold(_search, word, second, mode), _cold(count_witnesses, word, second, mode, 50)
            matcher._compile.cache_clear()
            _search(word, first, mode)
            hits = matcher._compile.cache_info().hits
            assert (_search(word, second, mode), count_witnesses(word, second, mode, 50)) == cold
            assert matcher._compile.cache_info().hits == hits + 2


def test_interleaved_queries_agree_with_cold_runs():
    patterns = [
        make_rp((1, "a", 2, 3), {Constraint(K.EQ, 1, 3)}),
        make_rp((1, 2, "b", 3), {Constraint(K.COM_PLUS, 1, 2), Constraint(K.SUBSEQ, 3, 1)}),
    ]
    words = all_words("ab", 6)
    for mode in (Mode.E, Mode.NE):
        cold = {
            (i, word): (_cold(_search, word, rp, mode), _cold(count_witnesses, word, rp, mode, 9))
            for i, rp in enumerate(patterns)
            for word in words
        }
        for word in words:
            for i, rp in enumerate(patterns):
                assert (_search(word, rp, mode), count_witnesses(word, rp, mode, 9)) == cold[i, word]


def test_compile_cache_is_bounded():
    matcher._compile.cache_clear()
    for n in range(1, 101):
        match("ab" * n, make_rp((1, "a", 2) + ("b",) * n), Mode.E)
        assert matcher._compile.cache_info().currsize <= matcher._COMPILE_CACHE_SIZE
    assert matcher._compile.cache_info().misses == 100


def test_assert_solution_raises_under_optimize():
    # ``python -O`` strips bare asserts; the witness self-check must still raise.
    code = (
        "from relpat.core import Mode\n"
        "from relpat.matcher import _assert_solution\n"
        "_assert_solution(((1, 'a'),), ('ba',), frozenset(), Mode.NE, {1: 'a'})\n"
    )
    src = str(Path(relpat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 1
    assert "AssertionError: solver produced a non-solution" in result.stderr
