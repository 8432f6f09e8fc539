"""Shared fixtures: tiny automata, random pattern generators, independent oracles."""

from __future__ import annotations

import itertools
import random

from relpat.core import Alphabet, Constraint, Mode, RelationalPattern
from relpat.machines import TwoCounterAutomaton
from relpat.relations import RelationKind

AB = Alphabet.of("ab")
ZH = Alphabet.of("0#")

ALL_KINDS = tuple(RelationKind)
DECIDABLE_EQUIV_KINDS = (RelationKind.EQ, RelationKind.ABELIAN_EQ, RelationKind.COM_PLUS)


def all_words(letters: str, max_len: int) -> list[str]:
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product(letters, repeat=n))
    return out


def make_rp(symbols, constraints=(), alphabet=AB) -> RelationalPattern:
    return RelationalPattern(alphabet, tuple(symbols), frozenset(constraints))


def random_relational_pattern(
    rng: random.Random,
    kinds=ALL_KINDS,
    max_vars: int = 3,
    alphabet: Alphabet = AB,
    max_extra_terminals: int = 3,
    max_constraints: int = 2,
) -> RelationalPattern:
    num_vars = rng.randint(1, max_vars)
    length = rng.randint(num_vars, num_vars + max_extra_terminals)
    queue = list(range(1, num_vars + 1))
    symbols: list = []
    while queue or len(symbols) < length:
        if queue and (len(symbols) >= length or rng.random() < 0.5):
            symbols.append(queue.pop(0))
        else:
            symbols.append(rng.choice(alphabet.letters))
    kind = rng.choice(list(kinds))
    constraints: set[Constraint] = set()
    if num_vars >= 2:
        for _ in range(rng.randint(0, max_constraints)):
            left, right = rng.sample(range(1, num_vars + 1), 2)
            constraints.add(Constraint(kind, left, right))
    return RelationalPattern(alphabet, tuple(symbols), frozenset(constraints))


# -- independent oracles ------------------------------------------------------


def classical_match(pattern: tuple, word: str, mode: Mode) -> bool:
    """Textbook recursive matcher for classical patterns (repeats allowed)."""

    def go(i: int, t: int, env: dict) -> bool:
        if i == len(pattern):
            return t == len(word)
        sym = pattern[i]
        if isinstance(sym, str):
            return word.startswith(sym, t) and go(i + 1, t + 1, env)
        if sym in env:
            image = env[sym]
            return word.startswith(image, t) and go(i + 1, t + len(image), env)
        for ell in range(mode.min_len, len(word) - t + 1):
            env[sym] = word[t : t + ell]
            if go(i + 1, t + ell, env):
                return True
            del env[sym]
        return False

    return go(0, 0, {})


def all_witnesses(word: str, rp: RelationalPattern, mode: Mode) -> list[dict[int, str]]:
    """Every valid substitution h with apply(h, rp) == word, by trying every split."""
    from relpat.semantics import is_valid

    found: list[dict[int, str]] = []

    def go(i: int, t: int, h: dict[int, str]) -> None:
        if i == len(rp.symbols):
            if t == len(word) and is_valid(h, rp, mode):
                found.append(dict(h))
            return
        sym = rp.symbols[i]
        if isinstance(sym, str):
            if word.startswith(sym, t):
                go(i + 1, t + 1, h)
            return
        for end in range(t + mode.min_len, len(word) + 1):
            h[sym] = word[t:end]
            go(i + 1, end, h)
            del h[sym]

    go(0, 0, {})
    return found


def dpll(clauses: list[tuple[int, ...]]) -> bool:
    """Small independent SAT check used against the brute-force oracle."""
    clauses = [tuple(c) for c in clauses]
    if not clauses:
        return True
    if any(not c for c in clauses):
        return False
    lit = clauses[0][0]
    for choice in (lit, -lit):
        reduced = []
        ok = True
        for clause in clauses:
            if choice in clause:
                continue
            remaining = tuple(l for l in clause if l != -choice)
            if not remaining:
                ok = False
                break
            reduced.append(remaining)
        if ok and dpll(reduced):
            return True
    return False


# -- tiny 2-counter automata --------------------------------------------------


def _aut(num_states, accepting, transitions) -> TwoCounterAutomaton:
    table = {}
    for key, targets in transitions.items():
        table[key] = frozenset(targets)
    return TwoCounterAutomaton(num_states, frozenset(accepting), table)


def tiny_automata() -> dict[str, TwoCounterAutomaton]:
    """Ten hand-built automata, each with an accepting run reachable by BFS."""
    return {
        "accept-immediately": _aut(1, {0}, {}),
        "one-step": _aut(2, {1}, {(0, 0, 0): {(1, 0, 0)}}),
        "increment-then-accept": _aut(
            2, {1}, {(0, 0, 0): {(0, 1, 0)}, (0, 1, 0): {(1, 0, 0)}}
        ),
        "pump-and-drain": _aut(
            2,
            {1},
            {(0, 0, 0): {(0, 1, 0)}, (0, 1, 0): {(0, 1, 0), (1, -1, 0)}},
        ),
        "two-counters": _aut(
            3,
            {2},
            {(0, 0, 0): {(1, 1, 1)}, (1, 1, 1): {(2, -1, -1)}},
        ),
        "nondet-choice": _aut(
            2, {1}, {(0, 0, 0): {(0, 0, 0), (1, 1, 0)}}
        ),
        "counter2-only": _aut(
            2, {1}, {(0, 0, 0): {(0, 0, 1)}, (0, 0, 1): {(1, 0, 0)}}
        ),
        "ping-pong": _aut(
            3,
            {2},
            {
                (0, 0, 0): {(1, 1, 0)},
                (1, 1, 0): {(0, -1, 1)},
                (0, 0, 1): {(2, 0, 0)},
            },
        ),
        "long-pump": _aut(
            2,
            {1},
            {(0, 0, 0): {(0, 1, 1)}, (0, 1, 1): {(0, 1, 1), (1, 0, 0)}},
        ),
        "drain-to-zero": _aut(
            3,
            {2},
            {
                (0, 0, 0): {(1, 1, 0)},
                (1, 1, 0): {(1, 1, 0), (2, -1, 0)},
                (2, 1, 0): {(2, -1, 0)},
            },
        ),
    }


def no_run_automaton() -> TwoCounterAutomaton:
    return _aut(2, {1}, {(0, 0, 0): {(0, 0, 0)}})


# -- corruption corpora ---------------------------------------------------------


def ca_corruptions(word: str, automaton) -> list[str]:
    """Curated corruptions of a valid run encoding; all must be rejected."""
    from relpat.machines import CaConfiguration, ca_decode, ca_encode

    variants = [
        "",
        "#",
        "###",
        word[2:],  # missing opening frame
        word[:-2],  # missing closing frame
        word[:-1],
        word + "#",
        word + "0",
        word + word,  # restart in the middle
        word.replace("##", "#", 1),  # single-hash joint
        word[:2] + "#" + word[2:],  # triple-hash opening
        "##" + word,  # quadruple-hash opening
        "0" + word,
        word[:2] + "0" + word[2:],  # start state bumped to q1
        word[:3] + "0" + word[3:],  # start state bumped (inside run)
        word.replace("##0#", "##0" + "0" * 9 + "#", 1),  # state index overflow
        word[: word.index("#", 2)] + "#00" + word[word.index("#", 2) + 2 :],
        word[:-2] + "0#0#0##",  # dangling partial block
        "##0#0#0#0##",  # four fields in one block
        "##0##",  # one field
    ]
    configs = ca_decode(word, automaton)
    last = configs[-1]
    jumped = configs + [CaConfiguration(last.state, last.counter1 + 2, last.counter2)]
    variants.append(ca_encode(jumped))
    return variants


def utm_corruptions(word: str, trajectory) -> list[str]:
    """Start, step and frame corruptions of a valid halting computation."""
    from relpat.machines import UtmConfiguration, utm_encode_computation

    configs = list(trajectory)
    first = configs[0]
    variants = [
        "",
        "##",
        word[2:],
        word[:-2],
        word + "#",
        word.replace("##", "#", 1),
        word + word,
        "##000#000#0000000##",  # fields below the offset minimum
        "##" + "0" * 7 + "#" + "0" * 7 + "##",  # two fields only
        "##" + "0" * 7 + "#" + "0" * 7 + "#" + "0" * 22 + "##",  # state q16
        "##" + "0" * 7 + "#" + "0" * 7 + "#" + "0" * 6 + "##",  # state q0
        utm_encode_computation(
            [UtmConfiguration(first.state, first.left_code + 1, first.right_code)] + configs[1:]
        ),
        utm_encode_computation(configs + [configs[-1]] + [UtmConfiguration(3, 0, 0)]),
        utm_encode_computation(configs[:-1]) if len(configs) > 1 else "##",
        utm_encode_computation(list(reversed(configs))) if len(configs) > 1 else "##",
        word.replace("#", "##", 1),
        "0" + word,
        word[:-4] + "##",
    ]
    if len(configs) > 2:
        variants.append(utm_encode_computation([configs[0]] + configs[2:]))
    middle = configs[len(configs) // 2]
    bumped = UtmConfiguration(middle.state, middle.left_code + 2, middle.right_code)
    broken = configs[: len(configs) // 2] + [bumped] + configs[len(configs) // 2 + 1 :]
    variants.append(utm_encode_computation(broken))
    return variants
