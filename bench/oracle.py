"""Answer checks that share no code with relpat.

Every definition here is written from the published meaning of the nine
relations, of pattern membership, of 3-SAT and of the counter-automaton
run encoding, not from relpat's implementation.  Patterns are plain data:
``symbols`` is a sequence of one-letter strings (terminals) and positive
ints (variables), ``constraints`` a sequence of ``(kind, left, right)``
with ``kind`` one of relpat's relation tokens, and ``nonerasing`` a bool.
Each check returns a list of error strings; an empty list means the
answers are right.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, Sequence


class _Failed:
    def __repr__(self) -> str:
        return "FAILED"


FAILED = _Failed()  # the answer recorded for a query that raised


# -- the nine relations --------------------------------------------------------


def _root_length(word: str) -> int:
    # The first non-trivial occurrence of w inside ww is at its primitive root's length.
    return (word + word).find(word, 1)


def _shape(word: str) -> tuple[int, ...]:
    # Two words are images of each other under a letter bijection exactly
    # when equal positions coincide in both.
    first: dict[str, int] = {}
    return tuple(first.setdefault(ch, len(first)) for ch in word)


def _subsequence(u: str, v: str) -> bool:
    pos = 0
    for ch in u:
        pos = v.find(ch, pos) + 1
        if pos == 0:
            return False
    return True


def _same_root(u: str, v: str) -> bool:
    return u[: _root_length(u)] == v[: _root_length(v)]


def holds(kind: str, u: str, v: str) -> bool:
    """Whether the ordered pair (u, v) is in the relation named ``kind``."""
    if kind == "eq":
        return u == v
    if kind == "len":
        return len(u) == len(v)
    if kind == "ssq":  # u is a scattered subword of v
        return _subsequence(u, v)
    if kind == "ab":
        return sorted(u) == sorted(v)
    if kind == "perm":
        return _shape(u) == _shape(v)
    if kind == "rev":
        return u == "".join(reversed(v))
    if kind == "comstar":  # u, v in {z}* for some z
        return u == "" or v == "" or _same_root(u, v)
    if kind == "composplus":  # u, v in {z}+ for some z
        return u != "" and v != "" and _same_root(u, v)
    if kind == "star":  # u in {v}*
        if v == "":
            return u == ""
        return len(u) % len(v) == 0 and all(
            u[i : i + len(v)] == v for i in range(0, len(u), len(v))
        )
    raise ValueError(f"unknown relation {kind!r}")


# -- pattern membership ------------------------------------------------------------


def substitutions(symbols: Sequence, word: str, nonerasing: bool) -> Iterator[dict[int, str]]:
    """Every variable assignment whose image of ``symbols`` is ``word``."""
    shortest = 1 if nonerasing else 0
    env: dict[int, str] = {}

    def go(i: int, t: int) -> Iterator[dict[int, str]]:
        if i == len(symbols):
            if t == len(word):
                yield dict(env)
            return
        sym = symbols[i]
        if isinstance(sym, str):
            if word.startswith(sym, t):
                yield from go(i + 1, t + len(sym))
            return
        for end in range(t + shortest, len(word) + 1):
            env[sym] = word[t:end]
            yield from go(i + 1, end)
        env.pop(sym, None)

    return go(0, 0)


def constraints_hold(constraints: Iterable, h: dict[int, str]) -> bool:
    return all(holds(kind, h[left], h[right]) for kind, left, right in constraints)


def is_member(symbols: Sequence, constraints: Sequence, nonerasing: bool, word: str) -> bool:
    return any(
        constraints_hold(constraints, h) for h in substitutions(symbols, word, nonerasing)
    )


def witness_errors(
    symbols: Sequence, constraints: Sequence, nonerasing: bool, word: str, h: dict
) -> list[str]:
    """Reasons why ``h`` is not a witness of ``word``; empty when it is one."""
    variables = {s for s in symbols if isinstance(s, int)}
    if set(h) != variables:
        return [f"witness assigns {sorted(h)}, pattern has {sorted(variables)}"]
    image = "".join(h[s] if isinstance(s, int) else s for s in symbols)
    errors = []
    if image != word:
        errors.append(f"witness image {image!r} is not the word {word!r}")
    if nonerasing and any(h[v] == "" for v in variables):
        errors.append("witness erases a variable in non-erasing mode")
    for kind, left, right in constraints:
        if not holds(kind, h[left], h[right]):
            errors.append(f"witness breaks {kind}(x{left},x{right})")
    return errors


def check_membership(pattern, words: Sequence[str], language, verdicts: Sequence) -> list[str]:
    """``language``: the enumerated words up to the bound; ``verdicts``: one
    witness (dict) or None per word of ``words``."""
    symbols, constraints, nonerasing = pattern
    expected = {w for w in words if is_member(symbols, constraints, nonerasing, w)}
    errors = []
    if language is not FAILED and set(language) != expected:
        wrong = sorted(set(language) ^ expected, key=lambda w: (len(w), w))[:3]
        errors.append(f"enumerated language differs on {wrong}")
    for word, witness in zip(words, verdicts):
        if witness is FAILED:
            continue
        if (witness is not None) != (word in expected):
            errors.append(f"match({word!r}) says {witness is not None}")
        elif witness is not None:
            errors += witness_errors(symbols, constraints, nonerasing, word, witness)
    return errors


# -- 3-SAT -------------------------------------------------------------------------


def satisfiable(clauses: Sequence[Sequence[int]]) -> bool:
    """Splitting on the first literal of the first clause (plain DPLL)."""
    if not clauses:
        return True
    for lit in (clauses[0][0], -clauses[0][0]):
        reduced = []
        for clause in clauses:
            if lit in clause:
                continue
            rest = tuple(x for x in clause if x != -lit)
            if not rest:
                break
            reduced.append(rest)
        else:
            if satisfiable(reduced):
                return True
    return False


def check_reduction(clauses, instance, witness, brute_force: bool) -> list[str]:
    """``instance``: (word, symbols, constraints, nonerasing) of the generated
    membership instance; ``witness``: the matcher's answer on it."""
    expected = satisfiable(clauses)
    errors = []
    if (witness is not None) != expected:
        errors.append(f"match says {witness is not None}, formula satisfiable={expected}")
    if brute_force != expected:
        errors.append(f"sat_brute_force says {brute_force}, formula satisfiable={expected}")
    if witness is not None:
        word, symbols, constraints, nonerasing = instance
        errors += witness_errors(symbols, constraints, nonerasing, word, witness)
    return errors


# -- Theorem-3 predicates ----------------------------------------------------------


def _skeleton_regex(skeleton: Sequence, left: bool, right: bool, values: dict) -> re.Pattern:
    # ``values[c]`` is (first occurrence, later occurrences) of parameter class c,
    # or None for "the same power of 0 at every occurrence".
    groups: dict[int, int] = {}
    parts = []
    for item in skeleton:
        if not isinstance(item, int):
            parts.append(re.escape(item))
        elif values[item] is not None:
            parts.append(re.escape(values[item][item in groups]))
            groups[item] = 0
        elif item in groups:
            parts.append(f"\\{groups[item]}")
        else:
            groups[item] = len(groups) + 1
            parts.append("(0*)")
    return re.compile(("" if left else ".*") + "".join(parts) + ("" if right else ".*"))


def occurrence_holds(skeleton: Sequence, left: bool, right: bool, x: str, y: str) -> bool:
    """Whether the triple of the occurrence condition sigma(x) in L1 S(skeleton) L2
    is satisfied by (x, y).

    Each parameter class c takes a value v at its first occurrence in x and
    rev(v) at the others, and rev(v) is the c-th of the parts p1 p2 p3 that
    start sigma(y).  When sigma(y) is 0^m with m >= |x| that is just "equal
    powers of 0 per class", a back-reference regex; otherwise every split of
    a short sigma(y) is tried."""
    classes = {item for item in skeleton if isinstance(item, int)}
    if y.strip("0") == "" and len(y) >= len(x):
        regex = _skeleton_regex(skeleton, left, right, dict.fromkeys(classes))
        return regex.fullmatch(x) is not None
    if len(y) > 4:
        raise ValueError(f"sigma(y)={y!r} is neither 0^m with m >= |x| nor short")
    for i, j, k in itertools.combinations_with_replacement(range(len(y) + 1), 3):
        cuts = {1: y[:i], 2: y[i:j], 3: y[j:k]}
        values = {c: (cuts[c][::-1], cuts[c]) for c in classes}
        if _skeleton_regex(skeleton, left, right, values).fullmatch(x):
            return True
    return False


def short_y_holds(x: str, y: str) -> bool:
    """y = rev(a) rev(b) rev(c) for factors a, b, c of x, disjoint and in order."""
    for i in range(len(y) + 1):
        for j in range(i, len(y) + 1):
            pos = 0
            for part in (y[:i], y[i:j], y[j:]):
                found = x.find(part[::-1], pos)
                if found < 0:
                    break
                pos = found + len(part)
            else:
                return True
    return False


def decode_accepting_run(word: str, automaton) -> bool:
    """Own decoder: ``word`` is ##s#c#d##...## with unary fields 0^(v+1), the run
    starts at (q0, 0, 0), each step is a transition, the last state accepts.

    ``automaton`` is ``(num_states, accepting, transitions)`` with transitions
    a mapping (state, c1 > 0, c2 > 0) -> set of (target, r1, r2)."""
    num_states, accepting, transitions = automaton
    if len(word) < 4 or not (word.startswith("##") and word.endswith("##")):
        return False
    configs = []
    for block in word[2:-2].split("##"):
        fields = block.split("#")
        if len(fields) != 3 or any(not f or f.strip("0") for f in fields):
            return False
        state, c1, c2 = (len(f) - 1 for f in fields)
        if state >= num_states:
            return False
        configs.append((state, c1, c2))
    if configs[0] != (0, 0, 0):
        return False
    for (s, c1, c2), (t, d1, d2) in zip(configs, configs[1:]):
        moves = transitions.get((s, int(c1 > 0), int(c2 > 0)), ())
        if (t, d1 - c1, d2 - c2) not in moves:
            return False
    return configs[-1][0] in accepting


def expected_predicate(index: int, skeletons: Sequence, x: str, y: str) -> bool:
    """Verdict of predicate ``index`` (0-based) of the Theorem-3 list: bad-form-x,
    bad-form-y, short-y, then one occurrence condition per skeleton."""
    if index == 0:
        return "###" in x
    if index == 1:
        return "#" in y
    if index == 2:
        return short_y_holds(x, y)
    return occurrence_holds(*skeletons[index - 3], x, y)


def check_predicates(automaton, skeletons, sigma, verdicts: Sequence[bool]) -> list[str]:
    """``verdicts``: predicate_satisfied for each predicate of the list, in order;
    ``skeletons``: (skeleton, left_anchored, right_anchored) per occurrence condition."""
    x, y = sigma
    if len(verdicts) != len(skeletons) + 3:
        return [f"{len(verdicts)} verdicts for {len(skeletons) + 3} predicates"]
    errors = []
    for index, verdict in enumerate(verdicts):
        if verdict != expected_predicate(index, skeletons, x, y):
            errors.append(f"predicate {index + 1} on ({x!r}, {y!r}) says {verdict}")
    good_form = "###" not in x and "#" not in y
    if good_form and (not any(verdicts)) != decode_accepting_run(x, automaton):
        errors.append(f"{x!r}: no predicate satisfied={not any(verdicts)}, decoder disagrees")
    return errors


def all_words(letters: str, max_len: int) -> list[str]:
    return [
        "".join(t) for n in range(max_len + 1) for t in itertools.product(letters, repeat=n)
    ]
