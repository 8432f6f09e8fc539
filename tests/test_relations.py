import itertools

import pytest

from relpat.relations import (
    LengthProfile,
    RelationKind as K,
    is_letter_antisymmetric_equivalence,
    is_subsequence,
    length_profile,
    parikh_vector,
    relation_holds,
)

from helpers import all_words

WORDS4 = all_words("ab", 4)
WORDS6 = all_words("ab", 6)


@pytest.mark.parametrize(
    "kind,u,v,expected",
    [
        (K.REVERSAL, "ab", "ba", True),
        (K.REVERSAL, "ab", "ab", False),
        (K.EQ, "", "", True),
        (K.COM_STAR, "", "abc", True),
        (K.COM_PLUS, "", "", False),
        (K.STAR, "abab", "ab", True),
        (K.ALPHA_PERM, "aab", "bba", True),
        (K.SUBSEQ, "ab", "acb", True),
        (K.ABELIAN_EQ, "ab", "ba", True),
    ],
)
def test_relation_examples(kind, u, v, expected):
    assert relation_holds(kind, u, v) is expected


def test_alpha_perm_agrees_with_bijection_search():
    # Oracle: try every letter bijection of the joint alphabet.
    def oracle(u, v):
        if len(u) != len(v):
            return False
        letters = sorted(set(u) | set(v) | {"a", "b"})
        for image in itertools.permutations(letters):
            table = dict(zip(letters, image))
            if "".join(table[ch] for ch in v) == u:
                return True
        return False

    for u in WORDS4:
        for v in WORDS4:
            assert relation_holds(K.ALPHA_PERM, u, v) == oracle(u, v)


def test_subsequence_brute_force():
    def oracle(u, v):
        return any(
            "".join(pick) == u
            for r in range(len(v) + 1)
            for pick in itertools.combinations(v, r)
        )

    for u in all_words("ab", 3):
        for v in WORDS4:
            assert is_subsequence(u, v) == oracle(u, v)


def test_com_star_matches_existential_definition():
    def oracle(u, v):
        for z in WORDS6:
            if z == "":
                if u == "" and v == "":
                    return True
                continue
            if len(u) % len(z) == 0 and len(v) % len(z) == 0:
                if u == z * (len(u) // len(z)) and v == z * (len(v) // len(z)):
                    return True
        return False

    for u in WORDS6[:64]:
        for v in WORDS6[:64]:
            assert relation_holds(K.COM_STAR, u, v) == oracle(u, v)


def test_com_star_nonempty_is_commutation():
    for u in WORDS6:
        if not u:
            continue
        for v in WORDS6[:40]:
            if not v:
                continue
            assert relation_holds(K.COM_STAR, u, v) == (u + v == v + u)


def test_com_plus_epsilon_cases():
    assert not relation_holds(K.COM_PLUS, "", "")
    assert not relation_holds(K.COM_PLUS, "", "a")
    assert relation_holds(K.COM_PLUS, "aa", "a")


def test_length_profile_values():
    assert length_profile(K.ABELIAN_EQ) is LengthProfile.EQUAL_LENGTHS
    assert length_profile(K.STAR) is LengthProfile.LEFT_MULTIPLE_OF_RIGHT
    assert length_profile(K.COM_PLUS) is LengthProfile.UNCONSTRAINED
    assert length_profile(K.SUBSEQ) is LengthProfile.LEFT_AT_MOST_RIGHT


def test_letter_antisymmetric_equivalence_flags():
    assert is_letter_antisymmetric_equivalence(K.EQ)
    assert is_letter_antisymmetric_equivalence(K.ABELIAN_EQ)
    assert is_letter_antisymmetric_equivalence(K.COM_PLUS)
    for kind in (K.LEN_EQ, K.SUBSEQ, K.ALPHA_PERM, K.REVERSAL, K.COM_STAR, K.STAR):
        assert not is_letter_antisymmetric_equivalence(kind)


def test_star_with_empty_right_side():
    assert relation_holds(K.STAR, "", "")
    assert not relation_holds(K.STAR, "a", "")


def test_parikh_vector_sums_to_length():
    for w in WORDS4:
        assert sum(parikh_vector(w).values()) == len(w)
