"""Shared fixtures and the independent oracles the unit tests compare against.

The fixtures the self-check suites also use live in ``relpat.selfcheck``.
"""

from __future__ import annotations

from relpat.core import Mode, RelationalPattern
from relpat.machines import TwoCounterAutomaton
from relpat.matcher import _Solver
from relpat.selfcheck import (  # noqa: F401  (re-exported for the test modules)
    AB,
    DECIDABLE_EQUIV_KINDS,
    all_words,
    ca_corruptions,
    random_relational_pattern,
    tiny_automata,
    utm_corruptions,
)


def make_rp(symbols, constraints=(), alphabet=AB) -> RelationalPattern:
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


class RecomputingSolver(_Solver):
    """The matcher with its letter-needs cache emptied before every bound, so
    each variable's needs are recomputed from the current bindings."""

    def _max_end(self, ei: int, item: int) -> int:
        self.needs_cache.clear()
        return super()._max_end(ei, item)


def search_outcome(solver_class, patterns, targets, constraints, mode, budget=10**6) -> tuple:
    """What two fresh searches of ``solver_class`` produce: the first witness
    (key order included), its nodes and sorted fail memo, then ``count(7)``,
    its nodes and sorted fail memo."""
    problem = (tuple(map(tuple, patterns)), tuple(targets), frozenset(constraints), mode, budget)
    outcome: list = []
    for run in (lambda s: s.solve(), lambda s: s.count(7)):
        solver = solver_class(*problem)
        result = run(solver)
        if isinstance(result, dict):
            result = list(result.items())
        outcome += [result, budget - solver.budget, sorted(solver.fail_memo)]
    return tuple(outcome)


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


def no_run_automaton() -> TwoCounterAutomaton:
    return TwoCounterAutomaton(2, frozenset({1}), {(0, 0, 0): frozenset({(0, 0, 0)})})
