"""Self-check suites: the package's claims checked against independent oracles.

Each suite takes its sizes, and an ``rng`` where it samples, and returns
``(cases, failures)``: the number of checks made and one entry per failed
check.  The acceptance tests run the suites at full size; ``relpat report``
runs them small.  The fixtures the suites share with the unit tests live here.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from typing import Callable, Iterator

from .core import Alphabet, Constraint, Mode, RelationalPattern
from .equivalence import ne_equivalent
from .inclusion import (
    SigmaAssignment,
    build_predicates,
    good_form,
    good_structure,
    predicate_satisfied,
    prop6_psi_parts,
    satisfied_predicates,
)
from .machines import (
    CaConfiguration,
    TapeUtm,
    TwoCounterAutomaton,
    UtmConfiguration,
    ca_decode,
    ca_encode,
    ca_find_accepting_run,
    ca_validate,
    utm_encode_computation,
    utm_is_halting,
    utm_run,
    utm_step,
    utm_validate,
)
from .matcher import match
from .reductions import CnfFormula, ReductionVariant as V, verify_reduction
from .relations import (
    LengthProfile,
    RelationKind as K,
    is_subsequence,
    length_profile,
    primitive_root,
    relation_holds,
)
from .semantics import bounded_equal, enumerate_language

AB = Alphabet.of("ab")
DECIDABLE_EQUIV_KINDS = (K.EQ, K.ABELIAN_EQ, K.COM_PLUS)
_EQUALITY_KINDS = (K.EQ, K.LEN_EQ, K.SUBSEQ, K.ABELIAN_EQ, K.ALPHA_PERM, K.REVERSAL, K.STAR)

Outcome = tuple[int, list]


# -- fixtures -------------------------------------------------------------------


def all_words(letters: str, max_len: int) -> list[str]:
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product(letters, repeat=n))
    return out


def random_relational_pattern(
    rng: random.Random,
    kinds=tuple(K),
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


def _aut(num_states, accepting, transitions) -> TwoCounterAutomaton:
    table = {key: frozenset(targets) for key, targets in transitions.items()}
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


def ca_corruptions(word: str, automaton) -> list[str]:
    """Curated corruptions of a valid run encoding; all must be rejected."""
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


def halting_computations(left_codes: int, right_codes: int) -> list[list[UtmConfiguration]]:
    """UTM runs of at most 50 steps that halt, from every state and code pair below the bounds."""
    halting = []
    for state in range(1, 16):
        for left in range(left_codes):
            for right in range(right_codes):
                trajectory = utm_run(UtmConfiguration(state, left, right), 50)
                if utm_is_halting(trajectory[-1]):
                    halting.append(trajectory)
    return halting


def good_form_mutants(
    rng: random.Random, automaton: TwoCounterAutomaton, mutations: int
) -> list[str]:
    """Sorted good-form words of at most 30 letters: four fixed words, and ``mutations``
    point mutations and deletions each of the encodings of the automaton's first
    accepting run and of its bare start configuration."""
    run = ca_find_accepting_run(automaton, 8)
    encodings = sorted({ca_encode(run), ca_encode([CaConfiguration(0, 0, 0)])})
    candidates = set(encodings)
    for base in encodings:
        for _ in range(mutations):
            pos = rng.randrange(len(base))
            candidates.add(base[:pos] + rng.choice("0#") + base[pos + 1 :])
            cut = rng.randrange(len(base))
            candidates.add(base[:cut] + base[cut + 1 :])
    candidates.update({"", "##", "0#0", "##0#0#0##00#0#0##"})
    return [
        word
        for word in sorted(candidates)
        if len(word) <= 30 and good_form(SigmaAssignment(word, "0" * (len(word) + 1)))
    ]


# -- suites -----------------------------------------------------------------------


def _suite(checks: Callable[..., Iterator[tuple[bool, object]]]) -> Callable[..., Outcome]:
    """Turn a generator of ``(ok, case)`` checks into ``(cases, failures)``."""

    @functools.wraps(checks)
    def run(*args, **kwargs) -> Outcome:
        cases, failures = 0, []
        for ok, case in checks(*args, **kwargs):
            cases += 1
            if not ok:
                failures.append(case)
        return cases, failures

    return run


@_suite
def matcher_oracle(rng: random.Random, patterns: int, max_len: int):
    """The matcher agrees with ``enumerate_language`` on every word up to ``max_len``."""
    words = all_words("ab", max_len)
    kinds = list(K)
    for index in range(patterns):
        rp = random_relational_pattern(rng, kinds=[kinds[index % len(kinds)]])
        mode = rng.choice([Mode.E, Mode.NE])
        language = enumerate_language(rp, mode, max_len).words
        for word in words:
            yield (match(word, rp, mode) is not None) == (word in language), (rp, mode, word)


def canonical_key(kind: K, w: str):
    """Key whose equality is the relation, for eq, len, ab and perm over ``ab``."""
    if kind is K.EQ:
        return w
    if kind is K.LEN_EQ:
        return len(w)
    if kind is K.ABELIAN_EQ:
        return (w.count("a"), w.count("b"))
    first: dict[str, int] = {}
    return tuple(first.setdefault(ch, len(first)) for ch in w)


def fits_length_profile(kind: K, u: str, v: str) -> bool:
    """True iff the lengths of ``u`` and ``v`` obey ``length_profile(kind)``."""
    profile = length_profile(kind)
    if profile is LengthProfile.EQUAL_LENGTHS:
        return len(u) == len(v)
    if profile is LengthProfile.LEFT_AT_MOST_RIGHT:
        return len(u) <= len(v)
    if profile is LengthProfile.LEFT_MULTIPLE_OF_RIGHT:
        return len(v) == 0 or len(u) % len(v) == 0
    return True


@_suite
def relation_laws(max_len: int, order_len: int):
    """Equivalence, order, involution and length-profile laws on words up to ``max_len``;
    the subsequence order on words up to ``order_len``, through ones a letter shorter."""
    words = all_words("ab", max_len)
    for kind in (K.EQ, K.LEN_EQ, K.ABELIAN_EQ, K.ALPHA_PERM):
        for u in words:
            for v in words:
                expected = canonical_key(kind, u) == canonical_key(kind, v)
                yield relation_holds(kind, u, v) == expected, ("equivalence-laws", kind, u, v)
    nonempty = [w for w in words if w]
    for u in nonempty:
        for v in nonempty:
            expected = primitive_root(u) == primitive_root(v)
            yield relation_holds(K.COM_PLUS, u, v) == expected, ("composplus-equivalence", u, v)
    order_words = all_words("ab", order_len)
    middles = all_words("ab", order_len - 1)
    for u in order_words:
        yield is_subsequence(u, u), ("ssq-reflexive", u)
        for v in order_words:
            both = is_subsequence(u, v) and is_subsequence(v, u)
            yield not both or u == v, ("ssq-antisymmetric", u, v)
            for w in middles:
                chained = is_subsequence(w, u) and is_subsequence(u, v)
                yield not chained or is_subsequence(w, v), ("ssq-transitive", w, u, v)
    for u in words:
        for v in words:
            yield (
                relation_holds(K.REVERSAL, u, v) == relation_holds(K.REVERSAL, v, u),
                ("reversal-involution", u, v),
            )
            for kind in (K.SUBSEQ, K.STAR):
                both = relation_holds(kind, u, v) and relation_holds(kind, v, u)
                yield both == (u == v), ("both-direction-collapse", kind, u, v)
            for kind in K:
                if relation_holds(kind, u, v):
                    yield fits_length_profile(kind, u, v), ("profile", kind, u, v)


def _exhaustive_cnfs(max_clauses: int, distinct: bool) -> list[CnfFormula]:
    """Every CNF of up to ``max_clauses`` clauses over one or two variables; with
    ``distinct``, as the commutation constructions require, over two and pairwise distinct."""
    pick = itertools.combinations if distinct else itertools.combinations_with_replacement
    out = []
    for num_vars in (2,) if distinct else (1, 2):
        literals = sorted(sign * v for v in range(1, num_vars + 1) for sign in (1, -1))
        clauses = sorted({tuple(sorted(c)) for c in pick(literals, 3)})
        for n in range(1, max_clauses + 1):
            for chosen in itertools.combinations_with_replacement(clauses, n):
                out.append(CnfFormula(num_vars, tuple(chosen)))
    return out


def _random_cnf(rng: random.Random, distinct: bool) -> CnfFormula:
    num_vars = rng.randint(2 if distinct else 1, 4)
    literals = [v for v in range(1, num_vars + 1)] + [-v for v in range(1, num_vars + 1)]
    clauses = []
    for _ in range(rng.randint(1, 4)):
        if distinct:
            clauses.append(tuple(rng.sample(literals, 3)))
        else:
            clauses.append(tuple(rng.choice(literals) for _ in range(3)))
    return CnfFormula(num_vars, tuple(clauses))


_REDUCTION_COMBOS = (
    [(V.ANGLUIN_NE, kind, False) for kind in _EQUALITY_KINDS]
    + [(V.JIANG_E, kind, False) for kind in _EQUALITY_KINDS]
    + [
        (V.COMMUTE_NE, K.COM_STAR, True),
        (V.COMMUTE_NE, K.COM_PLUS, True),
        (V.COM_PLUS_E, None, True),
        (V.COM_STAR_E, None, True),
        (V.ONE_SIDED_STAR_E, None, False),
        (V.ONE_SIDED_SUBSEQ_E, None, False),
        (V.ONE_SIDED_STAR_NE, None, False),
        (V.ONE_SIDED_SUBSEQ_NE, None, False),
    ]
)
"""Every reduction variant with each relation it takes; the flag marks the
variants that need pairwise-distinct literals per clause."""


@_suite
def reduction_soundness(rng: random.Random, max_clauses: int, random_per_combo: int):
    """Each variant/relation pair's instance is a member exactly when its formula is
    satisfiable, on every small CNF and on ``random_per_combo`` random ones."""
    exhaustive = {flag: _exhaustive_cnfs(max_clauses, flag) for flag in (False, True)}
    for variant, kind, needs_distinct in _REDUCTION_COMBOS:
        for phi in exhaustive[needs_distinct]:
            yield verify_reduction(variant, phi, kind), ("exhaustive", variant, kind, phi)
        for _ in range(random_per_combo):
            phi = _random_cnf(rng, needs_distinct)
            yield verify_reduction(variant, phi, kind), ("random", variant, kind, phi)


@_suite
def equivalence_decider(rng: random.Random, pairs: int):
    """``ne_equivalent`` agrees with bounded equality on random pattern pairs."""
    for _ in range(pairs):
        kind = rng.choice(DECIDABLE_EQUIV_KINDS)
        a = random_relational_pattern(rng, kinds=[kind], max_vars=4)
        if rng.random() < 0.5:
            b = random_relational_pattern(rng, kinds=[kind], max_vars=4)
        else:
            b = RelationalPattern(
                a.alphabet,
                a.symbols,
                frozenset(Constraint(k, r, l) for k, l, r in a.constraints),
            )
        bound = max(len(a.symbols), len(b.symbols)) + 3
        yield ne_equivalent(a, b) == bounded_equal(a, b, Mode.NE, bound), (a, b)


@_suite
def machine_encoders(
    rng: random.Random, utm_samples: int, left_codes: int, right_codes: int, round_trips: int
):
    """Run encodings round-trip and corruptions are rejected; both UTM simulators agree on
    ``utm_samples`` random steps; the first ``round_trips`` halting computations from codes
    below ``left_codes``/``right_codes`` re-validate."""
    automata = tiny_automata()
    yield len(automata) >= 10, "fewer than 10 tiny automata"
    for name, automaton in automata.items():
        run = ca_find_accepting_run(automaton, 8)
        yield run is not None, (name, "no accepting run found")
        if run is not None:
            yield ca_validate(ca_encode(run), automaton), (name, "round-trip validation failed")
    reference = automata["increment-then-accept"]
    word = ca_encode(ca_find_accepting_run(reference, 6))
    corpus = ca_corruptions(word, reference)
    yield len(corpus) >= 20, "counter-machine corruption corpus too small"
    for candidate in corpus:
        yield not ca_validate(candidate, reference), ("ca-corruption accepted", candidate)

    for _ in range(utm_samples):
        config = UtmConfiguration(rng.randint(1, 15), rng.randint(0, 4095), rng.randint(0, 4095))
        tape = TapeUtm.from_config(config)
        stepped = utm_step(config)
        if stepped is None:
            yield not tape.step(), ("halt-disagreement", config)
        else:
            tape.step()
            yield tape.to_config() == stepped, ("dual-sim disagreement", config)

    halting = halting_computations(left_codes, right_codes)
    yield len(halting) >= 20, "too few halting computations found"
    for trajectory in halting[:round_trips]:
        encoded = utm_encode_computation(trajectory)
        yield utm_validate(encoded, trajectory[0]), ("utm round-trip failed", trajectory[0])
    longest = max(halting, key=len)
    for candidate in utm_corruptions(utm_encode_computation(longest), longest):
        yield not utm_validate(candidate, longest[0]), ("utm-corruption accepted", candidate)


@_suite
def inclusion_constructions(
    rng: random.Random, samples: int, automata: tuple[str, ...], mutations: int
):
    """Invariants of the inclusion constructions on ``samples`` assignments and words, and
    the end-to-end predicate law on ``good_form_mutants`` of the named ``tiny_automata``,
    at least ``mutations`` words each."""
    # Structural invariant of the non-erasing construction on five starts.
    for initial in (
        UtmConfiguration(1, 0, 0),
        UtmConfiguration(10, 1, 0),
        UtmConfiguration(7, 5, 3),
        UtmConfiguration(15, 2, 9),
        UtmConfiguration(3, 0, 6),
    ):
        tail, hats = prop6_psi_parts(initial)
        for image in hats + [tail]:
            ok = image[0] == "0" and image[-1] == "0" and "####" not in image
            yield ok, ("frame-invariant", initial, image)

    tiny = tiny_automata()
    triples = build_predicates(tiny["increment-then-accept"])

    # Bad-form equivalence on sampled assignments.
    bad_form_preds = triples[:2]
    for _ in range(samples):
        x_image = "".join(rng.choice("0#") for _ in range(rng.randint(0, 25)))
        y_image = "".join(rng.choice("0#") for _ in range(rng.randint(0, 12)))
        sigma = SigmaAssignment(x_image, y_image)
        bad = "###" in x_image or "#" in y_image
        hit = any(predicate_satisfied(sigma, t) for t in bad_form_preds)
        yield hit == bad, ("bad-form", x_image, y_image)

    # Good structure against the screen predicates on sampled words: 85% of
    # them hash-run limited so they stay of good form, the rest built from
    # well-formed blocks.
    screens = triples[:13]

    def hash_safe_word() -> str:
        pieces: list[str] = []
        length = rng.randint(0, 40)
        while sum(len(p) for p in pieces) < length:
            pieces.append(rng.choice(["0", "0", "00", "#", "##", "#0", "0#"]))
        return "".join(pieces)[:40]

    words: set[str] = set()
    attempts = 0
    while len(words) < samples * 17 // 20 and attempts < 10_000:
        attempts += 1
        candidate = hash_safe_word()
        if "###" not in candidate:
            words.add(candidate)
    while len(words) < samples:
        blocks = (
            "##" + "#".join("0" * rng.randint(1, 4) for _ in range(3))
            for _ in range(rng.randint(1, 4))
        )
        structured = "".join(blocks) + "##"
        if len(structured) <= 40:
            words.add(structured)
    yield len(words) >= samples, f"only {len(words)} structure samples"
    for word in sorted(words):
        sigma = SigmaAssignment(word, "0" * (len(word) + 1))
        hit = any(predicate_satisfied(sigma, t) for t in screens)
        yield hit != good_structure(word), ("good-structure", word)

    # End-to-end law: no predicate holds exactly on the valid run encodings.
    for name in automata:
        automaton = tiny[name]
        preds = build_predicates(automaton)
        mutants = good_form_mutants(rng, automaton, mutations)
        for word in mutants:
            sigma = SigmaAssignment(word, "0" * (len(word) + 1))
            accepted = not satisfied_predicates(sigma, preds)
            yield accepted == ca_validate(word, automaton), ("end-to-end", name, word)
        yield len(mutants) >= mutations, (name, f"only {len(mutants)} end-to-end samples")


# -- report -----------------------------------------------------------------------

REPORT_SUITES: tuple[tuple[str, Callable[[random.Random], Outcome]], ...] = (
    ("relation-laws", lambda rng: relation_laws(4, 3)),
    ("matcher-oracle", lambda rng: matcher_oracle(rng, 30, 6)),
    ("reductions", lambda rng: reduction_soundness(rng, 1, 1)),
    ("equivalence", lambda rng: equivalence_decider(rng, 20)),
    ("machines", lambda rng: machine_encoders(rng, 200, 8, 4, 30)),
    (
        "inclusion-constructions",
        lambda rng: inclusion_constructions(rng, 10, ("accept-immediately",), 2),
    ),
)
"""The suites ``relpat report`` runs, in order, at sizes that take seconds."""


def run_report(seed: int, timings: bool) -> list[dict]:
    """Run ``REPORT_SUITES`` on one ``random.Random(seed)``, one entry per suite."""
    rng = random.Random(seed)
    report = []
    for name, suite in REPORT_SUITES:
        started = time.perf_counter()
        cases, failures = suite(rng)
        elapsed = time.perf_counter() - started
        report.append(
            {
                "suite": name,
                "cases": cases,
                "passed": cases - len(failures),
                "failed": len(failures),
                # Timing is suppressed by default so reports are reproducible.
                "seconds": round(elapsed, 3) if timings else 0.0,
            }
        )
    return report
