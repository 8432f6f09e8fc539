import random

import pytest
from hypothesis import given, settings, strategies as st

from relpat.core import Alphabet, Constraint, Mode, renumber
from relpat.equivalence import (
    EquivalencePreconditionError,
    MixedRelationKindsError,
    closure,
    ne_equivalent,
)
from relpat import selfcheck
from relpat.relations import RelationKind as K
from relpat.semantics import bounded_equal

from helpers import DECIDABLE_EQUIV_KINDS, make_rp, random_relational_pattern


def blocks(*groups):
    return frozenset(frozenset(g) for g in groups)


def test_closure_transitivity():
    rp = make_rp((1, 2, 3), {Constraint(K.EQ, 1, 2), Constraint(K.EQ, 2, 3)})
    assert closure(rp) == blocks({1, 2, 3})


def test_closure_reflexive_singletons():
    rp = make_rp((1, 2))
    assert closure(rp) == blocks({1}, {2})


def test_closure_symmetry():
    rp = make_rp((1, 2), {Constraint(K.ABELIAN_EQ, 2, 1)})
    assert closure(rp) == blocks({1, 2})


def test_closure_rejects_mixed_kinds():
    rp = make_rp((1, 2, 3), {Constraint(K.EQ, 1, 2), Constraint(K.ABELIAN_EQ, 2, 3)})
    with pytest.raises(MixedRelationKindsError):
        closure(rp)


def test_mixed_kinds_violate_the_decider_precondition():
    mixed = make_rp((1, 2, 3), {Constraint(K.EQ, 1, 2), Constraint(K.ABELIAN_EQ, 2, 3)})
    with pytest.raises(EquivalencePreconditionError, match="mixed relation kinds"):
        ne_equivalent(mixed, mixed)


def test_normalize_renumbers_by_first_occurrence():
    rp = make_rp((7, "a", 2), {Constraint(K.EQ, 7, 2)})
    normalized = renumber(rp)
    assert normalized.symbols == (1, "a", 2)
    assert normalized.constraints == {Constraint(K.EQ, 1, 2)}


def test_normalize_identity_on_normal_patterns():
    rp = make_rp((1, "a", 2))
    assert renumber(rp) is rp


def test_normalize_preserves_bounded_language():
    rng = random.Random(21)
    for _ in range(20):
        rp = random_relational_pattern(rng, kinds=DECIDABLE_EQUIV_KINDS, max_vars=4)
        scrambled = make_rp(
            tuple(s + 10 if isinstance(s, int) else s for s in rp.symbols),
            {Constraint(k, l + 10, r + 10) for k, l, r in rp.constraints},
            rp.alphabet,
        )
        assert bounded_equal(rp, renumber(scrambled), Mode.NE, len(rp.symbols) + 3)


def test_ne_equivalent_reflexive():
    rp = make_rp((1, "a", 2), {Constraint(K.ABELIAN_EQ, 1, 2)})
    assert ne_equivalent(rp, rp)


def test_ne_equivalent_detects_constraint_difference():
    constrained = make_rp((1, "a", 2), {Constraint(K.ABELIAN_EQ, 1, 2)})
    free = make_rp((1, "a", 2))
    assert not ne_equivalent(constrained, free)
    # the bounded oracle exhibits the separating word
    assert not bounded_equal(constrained, free, Mode.NE, 8)


def test_ne_equivalent_symmetric_closure_equal():
    a = make_rp((1, "a", 2), {Constraint(K.EQ, 1, 2)})
    b = make_rp((1, "a", 2), {Constraint(K.EQ, 2, 1)})
    assert ne_equivalent(a, b)


def test_ne_equivalent_rejects_unsupported_kinds():
    for kind in (K.REVERSAL, K.LEN_EQ, K.SUBSEQ, K.ALPHA_PERM, K.COM_STAR, K.STAR):
        rp = make_rp((1, 2), {Constraint(kind, 1, 2)})
        with pytest.raises(EquivalencePreconditionError):
            ne_equivalent(rp, rp)


def test_ne_equivalent_rejects_unary_alphabet():
    unary = Alphabet.of("a")
    rp = make_rp((1, 2), alphabet=unary)
    with pytest.raises(EquivalencePreconditionError):
        ne_equivalent(rp, rp)


def test_ne_equivalent_rejects_kind_mismatch():
    a = make_rp((1, 2), {Constraint(K.EQ, 1, 2)})
    b = make_rp((1, 2), {Constraint(K.ABELIAN_EQ, 1, 2)})
    with pytest.raises(EquivalencePreconditionError):
        ne_equivalent(a, b)


def test_ne_equivalent_is_equivalence_relation():
    rng = random.Random(22)
    patterns = [
        random_relational_pattern(rng, kinds=[K.ABELIAN_EQ], max_vars=3)
        for _ in range(12)
    ]
    for a in patterns:
        assert ne_equivalent(a, a)
        for b in patterns:
            assert ne_equivalent(a, b) == ne_equivalent(b, a)
            for c in patterns:
                if ne_equivalent(a, b) and ne_equivalent(b, c):
                    assert ne_equivalent(a, c)


def test_agreement_with_bounded_oracle_both_directions(monkeypatch):
    verdicts = []

    def recorded(a, b):
        verdicts.append(ne_equivalent(a, b))
        return verdicts[-1]

    monkeypatch.setattr(selfcheck, "ne_equivalent", recorded)
    _, failures = selfcheck.equivalence_decider(random.Random(23), pairs=120)
    assert not failures, failures[:5]
    assert True in verdicts and False in verdicts


@st.composite
def decidable_pairs(draw):
    """Two patterns of at most 3 variables sharing one decidable relation kind; the
    second is often the first with renamed variables or flipped constraints."""
    kind = draw(st.sampled_from(DECIDABLE_EQUIV_KINDS))

    def pattern():
        count = draw(st.integers(1, 3))
        terminals = draw(st.lists(st.sampled_from("ab"), max_size=2))
        symbols = draw(st.permutations(list(range(1, count + 1)) + terminals))
        pairs = draw(st.lists(st.tuples(st.integers(1, count), st.integers(1, count)), max_size=2))
        return make_rp(symbols, {Constraint(kind, left, right) for left, right in pairs})

    a = pattern()
    variant = draw(st.sampled_from(["fresh", "renamed", "flipped"]))
    if variant == "fresh":
        return a, pattern()
    if variant == "renamed":
        rename = dict(zip(a.variables, draw(st.permutations(a.variables))))
        return a, make_rp(
            (rename.get(s, s) for s in a.symbols),
            {Constraint(k, rename[l], rename[r]) for k, l, r in a.constraints},
        )
    return a, make_rp(a.symbols, {Constraint(k, r, l) for k, l, r in a.constraints})


@settings(max_examples=80, deadline=None)
@given(decidable_pairs())
def test_ne_equivalent_agrees_with_bounded_equal(pair):
    a, b = pair
    # The bound selfcheck.equivalence_decider uses.
    bound = max(len(a.symbols), len(b.symbols)) + 3
    assert ne_equivalent(a, b) == bounded_equal(a, b, Mode.NE, bound)
