"""Substitution application, validity, and bounded language oracles.

``enumerate_language`` computes the exact finite slice of an (erasing or
non-erasing) relational pattern language up to a length bound by exhausting
variable-image length compositions and filtering by constraint validity.
It is the brute-force oracle the exact matcher is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import BudgetExceededError, Mode, RelationalPattern, Substitution
from .relations import LengthProfile, RelationKind, length_profile, relation_holds
from . import matcher

DEFAULT_ENUM_BUDGET = 10_000_000


def apply(h: Substitution, rp: RelationalPattern) -> str:
    """Homomorphic image of the pattern: terminals fixed, variables replaced."""
    parts = []
    for sym in rp.symbols:
        if isinstance(sym, int):
            if sym not in h:
                raise ValueError(f"substitution does not assign x{sym}")
            parts.append(h[sym])
        else:
            parts.append(sym)
    return "".join(parts)


def is_valid(h: Substitution, rp: RelationalPattern, mode: Mode) -> bool:
    """True iff h respects the mode and every constraint holds on the images."""
    if mode is Mode.NE and any(not h[v] for v in rp.variables):
        return False
    return all(relation_holds(kind, h[left], h[right]) for kind, left, right in rp.constraints)


@dataclass(frozen=True)
class BoundedLanguage:
    """Exactly the language words of length <= max_len."""

    max_len: int
    words: frozenset[str]


def _length_compatible(kind: RelationKind, llen: int, rlen: int, mode: Mode) -> bool:
    profile = length_profile(kind)
    if profile is LengthProfile.EQUAL_LENGTHS:
        return llen == rlen
    if profile is LengthProfile.LEFT_AT_MOST_RIGHT:
        return llen <= rlen
    if profile is LengthProfile.LEFT_MULTIPLE_OF_RIGHT:
        if rlen == 0:
            return llen == 0
        if llen % rlen:
            return False
        return llen >= rlen if mode is Mode.NE else True
    if kind is RelationKind.COM_PLUS:
        return llen >= 1 and rlen >= 1
    return True


def _compositions(total: int, mins: list[int]) -> Iterator[tuple[int, ...]]:
    """All tuples (l_1..l_k) with l_i >= mins[i] summing to total, in lexicographic order.

    Stars and bars: the ``total - sum(mins)`` spare units are split by k - 1
    bars, and bar positions taken in lexicographic order give the tuples in
    lexicographic order.  Iterative, so k is not bounded by the recursion limit.
    """
    spare = total - sum(mins)
    if spare < 0:
        return
    if not mins:
        if spare == 0:
            yield ()
        return
    slots = spare + len(mins) - 1
    for bars in itertools.combinations(range(slots), len(mins) - 1):
        parts = []
        previous = -1
        for bar, low in zip(bars + (slots,), mins):
            parts.append(low + bar - previous - 1)
            previous = bar
        yield tuple(parts)


def enumerate_language(
    rp: RelationalPattern,
    mode: Mode,
    max_len: int,
    *,
    node_budget: int = DEFAULT_ENUM_BUDGET,
) -> BoundedLanguage:
    """All words of the language with length <= max_len, as a deterministic set.

    Iterates total image length, then length compositions over the
    variables, then concrete words.  Raises BudgetExceededError when more
    than ``node_budget`` candidate substitutions would be inspected.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    variables = rp.variables
    terminal_len = len(rp.symbols) - len(variables)
    words: set[str] = set()
    if terminal_len > max_len:
        return BoundedLanguage(max_len, frozenset())
    if not variables:
        return BoundedLanguage(max_len, frozenset({rp.terminal_text()}))

    letters = rp.alphabet.letters
    mins = [mode.min_len] * len(variables)
    budget = node_budget
    for total in range(sum(mins), max_len - terminal_len + 1):
        for comp in _compositions(total, mins):
            lens = dict(zip(variables, comp))
            if not all(
                _length_compatible(kind, lens[left], lens[right], mode)
                for kind, left, right in rp.constraints
            ):
                continue
            budget -= _candidate_count(len(letters), comp)
            if budget < 0:
                raise BudgetExceededError("enumeration node budget exhausted")
            for images in itertools.product(*(_words_of_length(letters, n) for n in comp)):
                h = dict(zip(variables, images))
                if is_valid(h, rp, mode):
                    words.add(apply(h, rp))
    return BoundedLanguage(max_len, frozenset(words))


def _candidate_count(sigma: int, comp: tuple[int, ...]) -> int:
    count = 1
    for n in comp:
        count *= sigma**n
    return count


def _words_of_length(letters: tuple[str, ...], n: int) -> list[str]:
    return ["".join(t) for t in itertools.product(letters, repeat=n)]


def inclusion_counterexample(
    a: RelationalPattern,
    b: RelationalPattern,
    mode: Mode,
    max_len: int,
) -> Optional[str]:
    """A word of the bounded language of ``a`` that is not in L(b), or None.

    Words of ``a`` are checked with the exact matcher against ``b`` (not
    against b's bounded slice), so witnesses of any length on b's side are
    handled correctly.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("patterns must share one alphabet")
    bounded = enumerate_language(a, mode, max_len)
    for word in sorted(bounded.words, key=lambda w: (len(w), w)):
        if matcher.match(word, b, mode) is None:
            return word
    return None


def bounded_included(
    a: RelationalPattern,
    b: RelationalPattern,
    mode: Mode,
    max_len: int,
) -> bool:
    """True iff every word of a's bounded language is a member of L(b)."""
    return inclusion_counterexample(a, b, mode, max_len) is None


def bounded_equal(
    a: RelationalPattern,
    b: RelationalPattern,
    mode: Mode,
    max_len: int,
) -> bool:
    """Bounded inclusion in both directions."""
    return bounded_included(a, b, mode, max_len) and bounded_included(b, a, mode, max_len)
