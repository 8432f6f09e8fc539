import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from relpat.core import Alphabet, BudgetExceededError, Constraint, Mode
from relpat.matcher import match
from relpat.relations import RelationKind as K
from relpat.semantics import (
    _compositions,
    apply,
    bounded_equal,
    bounded_included,
    enumerate_language,
    inclusion_counterexample,
    is_valid,
)

from helpers import classical_match, make_rp, random_relational_pattern

ABC = Alphabet.of("abc")
INTRO = make_rp((1, "a", "a", 3, "b", 2), {Constraint(K.EQ, 1, 3)})
REV = make_rp((1, "c", "c", 2), {Constraint(K.REVERSAL, 1, 2)}, alphabet=ABC)


def test_apply_intro_example():
    assert apply({1: "bb", 2: "a", 3: "bb"}, INTRO) == "bbaabbba"


def test_apply_all_empty():
    assert apply({1: "", 2: "", 3: ""}, INTRO) == "aab"


def test_apply_terminal_only():
    assert apply({}, make_rp(("a", "b"))) == "ab"


def test_apply_unassigned_variable():
    with pytest.raises(ValueError, match="x3"):
        apply({1: "a", 2: "b"}, INTRO)


def test_is_valid_reversal_pair():
    assert is_valid({1: "ab", 2: "ba"}, REV, Mode.NE)
    assert not is_valid({1: "ab", 2: "ab"}, REV, Mode.NE)


def test_is_valid_empty_constraints_erasing():
    rp = make_rp((1, 2))
    assert is_valid({1: "", 2: ""}, rp, Mode.E)
    assert not is_valid({1: "", 2: ""}, rp, Mode.NE)


def test_enumerate_reversal_bounded():
    assert enumerate_language(REV, Mode.NE, 4).words == {"acca", "bccb", "cccc"}


def test_enumerate_terminal_pattern():
    assert enumerate_language(make_rp(("a", "b")), Mode.NE, 5).words == {"ab"}


def test_enumerate_single_variable_unary():
    rp = make_rp((1,), alphabet=Alphabet.of("a"))
    assert enumerate_language(rp, Mode.E, 1).words == {"", "a"}


def test_enumerate_budget_guard():
    rp = make_rp(tuple(range(1, 7)))
    with pytest.raises(BudgetExceededError):
        enumerate_language(rp, Mode.E, 12, node_budget=100)


def test_ne_subset_of_e():
    rng = random.Random(3)
    for _ in range(40):
        rp = random_relational_pattern(rng)
        ne = enumerate_language(rp, Mode.NE, 6).words
        e = enumerate_language(rp, Mode.E, 6).words
        assert ne <= e


def test_membership_coherence_with_matcher():
    rng = random.Random(4)
    for _ in range(30):
        rp = random_relational_pattern(rng)
        mode = rng.choice([Mode.E, Mode.NE])
        for word in enumerate_language(rp, mode, 6).words:
            assert match(word, rp, mode) is not None


def test_closure_augmentation_preserves_bounded_language():
    # For the equivalence-relation kinds, saturating the constraint set with
    # its symmetric-transitive closure leaves the bounded language unchanged.
    rng = random.Random(9)
    for kind in (K.EQ, K.ABELIAN_EQ, K.COM_PLUS):
        for _ in range(12):
            rp = random_relational_pattern(rng, kinds=[kind], max_vars=4)
            closure_pairs = _closure_pairs(rp)
            saturated = make_rp(
                rp.symbols,
                {Constraint(kind, left, right) for left, right in closure_pairs},
                rp.alphabet,
            )
            bound = len(rp.symbols) + 3
            assert (
                enumerate_language(rp, Mode.NE, bound).words
                == enumerate_language(saturated, Mode.NE, bound).words
            )


def _closure_pairs(rp):
    parent = {v: v for v in rp.variables}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for _, left, right in rp.constraints:
        parent[find(left)] = find(right)
    blocks: dict[int, list[int]] = {}
    for v in rp.variables:
        blocks.setdefault(find(v), []).append(v)
    pairs = set()
    for block in blocks.values():
        for left in block:
            for right in block:
                if left != right:
                    pairs.add((left, right))
    return pairs


def test_unconstrained_patterns_match_classical_language():
    rng = random.Random(12)
    for _ in range(25):
        rp = random_relational_pattern(rng, max_constraints=0)
        mode = rng.choice([Mode.E, Mode.NE])
        bounded = enumerate_language(rp, mode, 6)
        from helpers import all_words

        for word in all_words("ab", 6):
            assert classical_match(rp.symbols, word, mode) == (word in bounded.words)


def test_bounded_included_reflexive():
    rp = make_rp((1, "a", 2))
    assert bounded_included(rp, rp, Mode.E, 5)


def test_both_direction_ssq_equals_eq():
    ssq_both = make_rp((1, 2), {Constraint(K.SUBSEQ, 1, 2), Constraint(K.SUBSEQ, 2, 1)})
    eq = make_rp((1, 2), {Constraint(K.EQ, 1, 2)})
    assert bounded_equal(ssq_both, eq, Mode.NE, 6)


def test_bounded_included_counterexample():
    a = make_rp((1,))
    b = make_rp(("a",))
    witness = inclusion_counterexample(a, b, Mode.E, 2)
    assert witness == ""  # shortest counterexample first; "b" would also do
    assert match(witness, b, Mode.E) is None
    assert not bounded_included(a, b, Mode.E, 2)
    # non-erasing: the empty word is gone and "b" separates
    assert inclusion_counterexample(a, b, Mode.NE, 2) == "b"


def test_bounded_equal_detects_missing_constraint():
    with_eq = INTRO
    without = make_rp(INTRO.symbols)
    assert not bounded_equal(with_eq, without, Mode.NE, 8)
    assert bounded_equal(with_eq, with_eq, Mode.NE, 8)


def test_bounded_equal_invariant_under_renaming():
    original = make_rp((1, "a", 2), {Constraint(K.EQ, 1, 2)})
    renamed = make_rp((2, "a", 1), {Constraint(K.EQ, 2, 1)})
    assert bounded_equal(original, renamed, Mode.NE, 6)


def test_bounded_included_requires_shared_alphabet():
    with pytest.raises(ValueError):
        bounded_included(make_rp((1,)), make_rp((1,), alphabet=ABC), Mode.E, 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 9), st.lists(st.integers(0, 2), max_size=5))
def test_compositions_match_filtered_product(total, mins):
    expected = [
        lens
        for lens in itertools.product(range(total + 1), repeat=len(mins))
        if sum(lens) == total and all(n >= low for n, low in zip(lens, mins))
    ]
    assert list(_compositions(total, mins)) == expected
