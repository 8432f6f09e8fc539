import random

import pytest

from relpat.inclusion import (
    NE_SELECTOR_BLOCK,
    PROBE_WORD,
    SELECTOR_BLOCK,
    PredicatePair,
    PredicateTriple,
    SigmaAssignment,
    SimplePredicate,
    build_alpha_A,
    build_alpha_prop6,
    build_beta_A,
    build_beta_prop6,
    build_predicates,
    good_form,
    good_structure,
    ne_simple_to_pair,
    pair_satisfied,
    predicate_satisfied,
    prop6_predicates,
    prop6_psi_parts,
    simple_predicate_holds,
    simple_to_triple,
    thm3_simple_predicates,
)
from relpat.machines import UtmConfiguration, utm_encode_config
from relpat.relations import RelationKind as K

from helpers import all_words, tiny_automata

AUTOMATA = tiny_automata()
SMALL = AUTOMATA["increment-then-accept"]


def _terminal_runs(rp) -> list[str]:
    runs, current = [], []
    for sym in rp.symbols:
        if isinstance(sym, str):
            current.append(sym)
        elif current:
            runs.append("".join(current))
            current = []
    if current:
        runs.append("".join(current))
    return runs


# -- fixed small pattern ------------------------------------------------------


def test_alpha_A_structure():
    alpha = build_alpha_A()
    assert alpha.variables == (1, 2)
    assert alpha.constraints == frozenset()
    terminal = alpha.terminal_text()
    assert terminal.count("#" * 6) == 2
    assert len(terminal) == 7 * len(SELECTOR_BLOCK) + len(PROBE_WORD) + 12
    joined = "".join(str(s) if isinstance(s, str) else f"<x{s}>" for s in alpha.symbols)
    expected = (
        SELECTOR_BLOCK * 2
        + "#" * 6
        + SELECTOR_BLOCK
        + "<x1>"
        + SELECTOR_BLOCK
        + "<x2>"
        + SELECTOR_BLOCK
        + "#" * 6
        + SELECTOR_BLOCK
        + PROBE_WORD
        + SELECTOR_BLOCK
    )
    assert joined == expected


# -- predicate machinery ------------------------------------------------------


def test_triples_are_terminal_free():
    for triple in build_predicates(SMALL):
        assert all(isinstance(sym, int) for sym in triple.gamma + triple.delta + triple.eta)


def test_probe_word_forces_family_values():
    # Only the values 0 (frame family) and # (filler family) solve the probe
    # equation: family lengths a, b obey 2a + 5b = |probe| = 7, so a = b = 1.
    triple = simple_to_triple(SimplePredicate(("#", "0"), False, False, "probe-check"))
    sigma = SigmaAssignment("#0", "00000")
    assert predicate_satisfied(sigma, triple)
    assert not predicate_satisfied(SigmaAssignment("00", "00000"), triple)
    assert not predicate_satisfied(SigmaAssignment("##", "00000"), triple)


def test_empty_skeleton_triple_accepts_only_empty():
    triple = simple_to_triple(SimplePredicate((), True, True, "empty"))
    for word in all_words("0#", 3):
        sigma = SigmaAssignment(word, "0" * (len(word) + 1))
        assert predicate_satisfied(sigma, triple) == (word == "")


def test_triple_matches_direct_simple_predicate_evaluation():
    rng = random.Random(41)
    predicates = thm3_simple_predicates(SMALL)
    sample = rng.sample(predicates, 12)
    for sp in sample:
        triple = simple_to_triple(sp)
        for _ in range(25):
            word = "".join(rng.choice("0#") for _ in range(rng.randint(0, 14)))
            if "###" in word:
                continue
            sigma = SigmaAssignment(word, "0" * (len(word) + 1))
            assert predicate_satisfied(sigma, triple) == simple_predicate_holds(sp, word), (
                sp.label,
                word,
            )


def test_bad_form_equivalence_sampled():
    rng = random.Random(42)
    triples = build_predicates(SMALL)[:2]
    for _ in range(200):
        x_image = "".join(rng.choice("0#") for _ in range(rng.randint(0, 25)))
        y_image = "".join(rng.choice("0#") for _ in range(rng.randint(0, 10)))
        sigma = SigmaAssignment(x_image, y_image)
        bad = "###" in x_image or "#" in y_image
        satisfied = any(predicate_satisfied(sigma, t) for t in triples)
        assert satisfied == bad, (x_image, y_image)


def test_good_structure_examples():
    assert good_structure("##0#0#0##")
    assert not good_structure("####")
    assert not good_structure("")
    assert good_structure("##000#0#00##0#0#0##")
    assert not good_structure("##0#0#0")


def test_good_form_examples():
    assert good_form(SigmaAssignment("##0#0#0##", "000"))
    assert not good_form(SigmaAssignment("###", "0"))
    assert not good_form(SigmaAssignment("00", "0#0"))


def test_good_structure_iff_no_screen_predicate():
    # Words of good structure satisfy none of the first 13 predicates once
    # sigma(y) is long enough; words of bad structure satisfy one of them.
    rng = random.Random(43)
    screens = build_predicates(SMALL)[:13]
    words = {"", "#", "##", "0", "##0#0#0##", "##00#0#0##00#00#00##"}
    while len(words) < 120:
        words.add("".join(rng.choice("0#") for _ in range(rng.randint(0, 22))))
    # a few structured samples to keep both sides populated
    for _ in range(20):
        blocks = [
            "##" + "0" * rng.randint(1, 3) + "#" + "0" * rng.randint(1, 3) + "#" + "0" * rng.randint(1, 3)
            for _ in range(rng.randint(1, 3))
        ]
        words.add("".join(blocks) + "##")
    checked_good = checked_bad = 0
    for word in sorted(words):
        if "###" in word:
            continue
        sigma = SigmaAssignment(word, "0" * (len(word) + 1))
        hit = any(predicate_satisfied(sigma, t) for t in screens)
        assert hit == (not good_structure(word)), word
        checked_good += good_structure(word)
        checked_bad += not good_structure(word)
    assert checked_good >= 15 and checked_bad >= 40


def test_predicate_pools_disjoint_in_companion_pattern():
    beta = build_beta_A(SMALL)
    assert beta.is_normal
    # exactly two terminal runs, both the 6-hash separator
    assert _terminal_runs(beta) == ["#" * 6, "#" * 6]


def test_companion_pattern_relation_shape():
    triples = build_predicates(SMALL)
    mu = len(triples)
    beta = build_beta_A(SMALL)
    assert all(c.kind is K.REVERSAL for c in beta.constraints)
    # selector pairs occupy the first 2*mu positions; each left selector is
    # related to its partner and to the five frame variables of its block.
    assert beta.symbols[: 2 * mu] == tuple(range(1, 2 * mu + 1))
    fan_counts: dict[int, int] = {}
    for c in beta.constraints:
        fan_counts[c.left] = fan_counts.get(c.left, 0) + 1
    for i in range(mu):
        a, a_prime = 2 * i + 1, 2 * i + 2
        assert (K.REVERSAL, a, a_prime) in beta.constraints
        assert fan_counts[a] == 6
    expected_vars = 2 * mu + sum(5 + len(t.variable_pool) for t in triples)
    assert len(beta.variables) == expected_vars


# -- non-erasing / abelian construction ---------------------------------------


INITIAL = UtmConfiguration(1, 0, 0)


def test_alpha_prop6_structure():
    alpha = build_alpha_prop6(INITIAL)
    assert alpha.variables == (1, 2)
    assert alpha.constraints == frozenset()
    terminal = alpha.terminal_text()
    assert "##" + utm_encode_config(INITIAL) + "##" in terminal
    assert NE_SELECTOR_BLOCK in terminal
    mu = len(prop6_predicates())
    assert terminal.startswith("0" * (mu + 1) + "#" * 5 + "0" * mu + "#" + "0" * mu + "#" * 5)


def test_prop6_psi_parts_satisfy_frame_invariant():
    for initial in (INITIAL, UtmConfiguration(10, 1, 0), UtmConfiguration(7, 5, 3)):
        tail, hats = prop6_psi_parts(initial)
        for image in hats + [tail]:
            assert image[0] == "0" and image[-1] == "0"
            assert "####" not in image


def test_beta_prop6_structure():
    beta = build_beta_prop6(INITIAL)
    assert beta.is_normal
    assert all(c.kind is K.ABELIAN_EQ for c in beta.constraints)
    runs = _terminal_runs(beta)
    assert runs.count("#" * 5) == 2
    # one 13-variable abelian family per predicate: head + 12 column vars
    fan = {}
    for c in beta.constraints:
        fan[c.left] = fan.get(c.left, 0) + 1
    assert sorted(n for n in fan.values() if n >= 12) == [12] * len(prop6_predicates())


def test_prop6_pairs_detect_bad_form():
    pairs = prop6_predicates()
    # gamma target carries a triple hash -> first pair satisfied
    assert pair_satisfied("0#0###00", "000", pairs[0])
    assert not pair_satisfied("0##0#0", "000", pairs[0])
    # delta target carries a hash -> second pair satisfied
    assert pair_satisfied("000", "0#0", pairs[1])
    assert not pair_satisfied("000", "000", pairs[1])


def test_prop6_short_y_pair():
    pairs = prop6_predicates()
    short = pairs[2]
    # delta splits into three non-empty abelian copies of gamma factors
    assert pair_satisfied("0ab0ab0ab0".replace("a", "0").replace("b", "#"), "0" + "0#" * 3, short)
    assert not pair_satisfied("0#0#0#0", "0" + "0" * 20, short)


def test_ne_simple_embedding_keeps_terminals():
    sp = SimplePredicate(("#", "#", 1, "#", "#"), False, False, "demo", params_nonempty=True)
    pair = ne_simple_to_pair(sp)
    assert "#" in pair.gamma
    assert pair.constraints  # the class occurrence in delta is related
    mu_default = len(prop6_predicates())
    assert len(prop6_predicates([sp])) == mu_default + 1


def test_prop6_builders_share_mu():
    sp = SimplePredicate(("#", "#", 1, "#", "#"), False, False, "demo", params_nonempty=True)
    alpha = build_alpha_prop6(INITIAL, [sp])
    mu = len(prop6_predicates([sp]))
    assert alpha.terminal_text().startswith("0" * (mu + 1) + "#" * 5)
    beta = build_beta_prop6(INITIAL, [sp])
    fan = {}
    for c in beta.constraints:
        fan[c.left] = fan.get(c.left, 0) + 1
    assert len([n for n in fan.values() if n >= 12]) == mu
