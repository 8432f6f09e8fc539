"""The four query sets, generated from a seed, and the checks of their answers.

A workload is built by a function ``(lib, seed, full) -> Prepared``.  ``lib``
holds the relpat modules; every call into relpat goes through a module
attribute at call time, so the tracer's wrappers see it.  relpat receives
only the generated inputs: patterns as text, formulas, automata and word
pairs.  ``full=False`` gives a reduced query set of the same make-up, for
the tests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

import oracle

KINDS = ("eq", "len", "ssq", "ab", "perm", "rev", "comstar", "composplus", "star")
WORDS = oracle.all_words("ab", 8)  # the 511 words of length <= 8


@dataclass
class Query:
    """One user-level decision.

    ``budgeted(answer, budget)`` repeats the query's search with a node
    budget, given the query's first answer; ``counter`` names the count
    that budget measures, and ``counted`` whether the count pass bisects it."""

    run: Callable[[], object]
    budgeted: Optional[Callable[[object, int], object]] = None
    counter: str = ""
    counted: bool = True


@dataclass
class Prepared:
    queries: list[Query]
    check: Callable[[list], list[str]]  # answers of one round -> errors


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- membership ------------------------------------------------------------------


# (variables, extra terminals, constraints): these set most of a pattern's
# cost, so they follow the pattern's index and not the seed.  The seed draws
# the letters, the order of symbols and the constrained pairs.
SHAPES = tuple(
    (v, t, 0 if v == 1 else (v + t) % 3) for v in (1, 2, 3) for t in range(4)
)


def random_pattern(rng: random.Random, index: int) -> tuple[tuple, str]:
    """Pattern ``index`` over ab, of kind ``index % 9``.  Each run of nine
    patterns takes the next shape (stepping by 7, so any two consecutive
    runs differ), and the mode alternates along the kinds and the runs, so
    108 patterns give each kind every shape, half of them in each mode."""
    block = index // len(KINDS)
    num_vars, extra, num_constraints = SHAPES[block * 7 % len(SHAPES)]
    symbols = list(range(1, num_vars + 1)) + ["?"] * extra
    rng.shuffle(symbols)
    variables = iter(range(1, num_vars + 1))  # renumbered by first occurrence
    symbols = [next(variables) if s != "?" else rng.choice("ab") for s in symbols]
    kind = KINDS[index % len(KINDS)]
    pairs = list(itertools.permutations(range(1, num_vars + 1), 2))
    constraints = sorted((kind, l, r) for l, r in rng.sample(pairs, num_constraints))
    nonerasing = (block + index % len(KINDS)) % 2 == 1
    text = "alphabet:ab; pattern: " + " ".join(
        f"x{s}" if isinstance(s, int) else s for s in symbols
    )
    if constraints:
        text += "; rel: " + ", ".join(f"{k}(x{l},x{r})" for k, l, r in constraints)
    text += "; mode: " + ("NE" if nonerasing else "E")
    return (tuple(symbols), tuple(constraints), nonerasing), text


def membership(lib, seed: int, full: bool = True) -> Prepared:
    rng = _rng("membership", seed)
    count = 108 if full else 18
    patterns = [random_pattern(rng, i) for i in range(count)]
    queries: list[Query] = []
    for _, text in patterns:
        rp, mode = lib.core.parse_document(text)
        queries.append(
            Query(
                lambda rp=rp, mode=mode: lib.semantics.enumerate_language(rp, mode, 8).words,
                lambda _, budget, rp=rp, mode=mode: lib.semantics.enumerate_language(
                    rp, mode, 8, node_budget=budget
                ),
                "semantics.enum_candidates",
            )
        )
        for word in WORDS:
            queries.append(
                Query(
                    lambda w=word, rp=rp, mode=mode: lib.matcher.match(w, rp, mode),
                    lambda _, budget, w=word, rp=rp, mode=mode: lib.matcher.match(
                        w, rp, mode, node_budget=budget
                    ),
                    "matcher.nodes",
                )
            )
    stride = 1 + len(WORDS)

    def check(answers: list) -> list[str]:
        errors = []
        for i, (plain, text) in enumerate(patterns):
            block = answers[i * stride : (i + 1) * stride]
            found = oracle.check_membership(plain, WORDS, block[0], block[1:])
            errors += [f"{text}: {e}" for e in found]
        return errors

    return Prepared(queries, check)


# -- reduction -------------------------------------------------------------------

EQUALITY_LIKE = ("eq", "len", "ssq", "ab", "perm", "rev", "star")

# (variant, kind or None, clauses of the satisfiable formulas, satisfiable
# count, unsatisfiable count).  Every formula has three variables; an
# unsatisfiable one needs all eight clauses over them.  The commutation
# variants search longest, so they get fewer and shorter formulas.
_CHEAP = (6, 10, 3)
_COMMUTING = (4, 2, 1)
COMMUTING = ("commute-ne", "complus-e")
COMBINATIONS = (
    [("angluin-ne", k, *_CHEAP) for k in EQUALITY_LIKE]
    + [("jiang-e", k, *_CHEAP) for k in EQUALITY_LIKE]
    + [("commute-ne", "comstar", *_COMMUTING), ("commute-ne", "composplus", *_COMMUTING)]
    + [("complus-e", None, *_COMMUTING), ("comstar-e", None, *_CHEAP)]
    + [
        (v, None, *_CHEAP)
        for v in ("onesided-star-e", "onesided-ssq-e", "onesided-star-ne", "onesided-ssq-ne")
    ]
)


def _clause(rng: random.Random) -> tuple[int, int, int]:
    # Three distinct variables, so the commutation variants accept every clause.
    return tuple(v if rng.random() < 0.5 else -v for v in rng.sample((1, 2, 3), 3))


def satisfiable_formula(rng: random.Random, num_clauses: int) -> tuple:
    """Random clauses over three variables, kept when the oracle finds them satisfiable."""
    while True:
        clauses = tuple(_clause(rng) for _ in range(num_clauses))
        if oracle.satisfiable(clauses):
            return clauses


def unsatisfiable_formula(rng: random.Random) -> tuple:
    """The eight sign patterns over three variables, in seeded clause and literal order."""
    clauses = []
    for signs in itertools.product((1, -1), repeat=3):
        clause = [s * v for s, v in zip(signs, (1, 2, 3))]
        rng.shuffle(clause)
        clauses.append(tuple(clause))
    rng.shuffle(clauses)
    return tuple(clauses)


def reduction(lib, seed: int, full: bool = True) -> Prepared:
    rng = _rng("reduction", seed)
    red = lib.reductions
    cases = []  # (variant, kind, clauses)
    for variant, kind, sat_clauses, sats, unsats in COMBINATIONS:
        if not full:  # every combination once; the cheapest unsatisfiable searches
            sats, unsats = 1, int(variant.startswith("onesided"))
        cases += [(variant, kind, satisfiable_formula(rng, sat_clauses)) for _ in range(sats)]
        cases += [(variant, kind, unsatisfiable_formula(rng)) for _ in range(unsats)]
    rel = {k.value: k for k in lib.relations.RelationKind}
    queries = []
    for variant, kind, clauses in cases:
        phi = red.CnfFormula(3, clauses)
        args = (red.ReductionVariant(variant), phi, rel[kind] if kind else None)

        def run(args=args, phi=phi):
            inst = lib.reductions.generate(*args)
            witness = lib.matcher.match(inst.word, inst.rp, inst.mode)
            return inst, witness, lib.reductions.sat_brute_force(phi)

        def budgeted(answer, budget):
            inst = answer[0]
            return lib.matcher.match(inst.word, inst.rp, inst.mode, node_budget=budget)

        # The unsatisfiable commutation instances take 0.5M-3M nodes; bisecting
        # one repeats its search some 40 times, so the count pass skips them.
        counted = variant not in COMMUTING or oracle.satisfiable(clauses)
        queries.append(Query(run, budgeted, "matcher.nodes", counted))

    def check(answers: list) -> list[str]:
        errors = []
        for (variant, kind, clauses), answer in zip(cases, answers):
            if answer is oracle.FAILED:
                continue
            inst, witness, brute = answer
            plain = (
                inst.word,
                inst.rp.symbols,
                [(c.kind.value, c.left, c.right) for c in inst.rp.constraints],
                inst.mode.value == "ne",
            )
            found = oracle.check_reduction(clauses, plain, witness, brute)
            errors += [f"{variant}/{kind} {clauses}: {e}" for e in found]
        return errors

    return Prepared(queries, check)


# -- predicates -------------------------------------------------------------------

# Small 2-counter automata: (states, accepting, transitions), state 0 initial,
# transitions keyed by (state, counter1 > 0, counter2 > 0).
AUTOMATA = {
    "increment-then-accept": (2, {1}, {(0, 0, 0): {(0, 1, 0)}, (0, 1, 0): {(1, -1, 0)}}),
    "pump-both-then-drain": (
        2, {1}, {(0, 0, 0): {(0, 1, 1)}, (0, 1, 1): {(0, 1, 1), (1, -1, -1)}}
    ),
}
SHORT_Y = ("#", "0#", "#0", "0#0")  # sigma(y) of the bad-form-y assignments


def sigmas_for(rng: random.Random, encoding: str, start_only: str) -> list:
    """Assignments (x, y): the run's encoding, the start configuration alone,
    two single-letter mutations and two deletions of the encoding, two bad-form
    ones: a third # inserted at a ## joint, and a short sigma(y) holding #."""
    xs = [encoding, start_only]
    for pos in rng.sample(range(len(encoding)), 2):
        xs.append(encoding[:pos] + ("0" if encoding[pos] == "#" else "#") + encoding[pos + 1 :])
    for cut in rng.sample(range(len(encoding)), 2):
        xs.append(encoding[:cut] + encoding[cut + 1 :])
    joints = [i for i in range(len(encoding) - 1) if encoding.startswith("##", i)]
    joint = rng.choice(joints)
    xs.append(encoding[:joint] + "#" + encoding[joint:])
    sigmas = [(x, "0" * (len(x) + 1)) for x in xs]
    sigmas.append((encoding, rng.choice(SHORT_Y)))
    return sigmas


def predicates(lib, seed: int, full: bool = True) -> Prepared:
    rng = _rng("predicates", seed)
    machines, inclusion = lib.machines, lib.inclusion
    groups = []  # (plain automaton, skeletons, sigma, relpat's ca_validate, its queries)
    queries: list[Query] = []
    names = list(AUTOMATA) if full else list(AUTOMATA)[:1]
    for name in names:
        plain = AUTOMATA[name]
        states, accepting, transitions = plain
        automaton = machines.TwoCounterAutomaton(states, accepting, transitions)
        triples = inclusion.build_predicates(automaton)
        skeletons = []
        for sp in inclusion.thm3_simple_predicates(automaton):
            if sp.params_nonempty:
                raise ValueError(f"{sp.label}: non-empty parameters are outside the oracle")
            skeletons.append((sp.skeleton, sp.left_anchored, sp.right_anchored))
        run = machines.ca_find_accepting_run(automaton, 12)
        encoding = machines.ca_encode(run)
        start_only = machines.ca_encode(run[:1])
        sigmas = sigmas_for(rng, encoding, start_only)
        if not full:  # the run's encoding, the start alone and the short sigma(y)
            sigmas = sigmas[:2] + sigmas[-1:]
        for number, (x, y) in enumerate(sigmas):
            sigma = inclusion.SigmaAssignment(x, y)
            first = len(queries)
            for triple in triples:
                queries.append(
                    Query(
                        lambda s=sigma, t=triple: lib.inclusion.predicate_satisfied(s, t),
                        lambda _, budget, s=sigma, t=triple: lib.inclusion.predicate_satisfied(
                            s, t, node_budget=budget
                        ),
                        "matcher.nodes",
                        # Bisecting costs some 15 set-ups per query; the first three
                        # assignments keep the count pass near half a minute.
                        counted=number < (3 if full else 1),
                    )
                )
            validated = machines.ca_validate(x, automaton)
            groups.append((plain, skeletons, (x, y), validated, slice(first, len(queries))))

    def check(answers: list) -> list[str]:
        errors = []
        for plain, skeletons, sigma, validated, queried in groups:
            verdicts = answers[queried]
            if oracle.FAILED in verdicts:
                continue
            errors += oracle.check_predicates(plain, skeletons, sigma, verdicts)
            if validated != oracle.decode_accepting_run(sigma[0], plain):
                errors.append(f"ca_validate({sigma[0]!r}) says {validated}")
        return errors

    return Prepared(queries, check)


# -- equivalence ------------------------------------------------------------------

EQUIVALENCE_KINDS = ("eq", "ab", "composplus")


def pattern_pair(rng: random.Random, size: int, kind: str, variant: str) -> tuple[str, str]:
    """Two pattern texts of ``size`` symbols over ab, half of them variables,
    whose variables fall into blocks of about four.  ``variant`` is "same" (the
    same pattern, with a chain of constraints through each block on one side
    and a random spanning tree of it on the other), "bridge" (one tree
    constraint removed) or "terminal" (one terminal flipped)."""
    tokens = rng.choices("xxab", k=size)
    variables = [i for i, t in enumerate(tokens) if t == "x"]
    for number, position in enumerate(variables, start=1):
        tokens[position] = f"x{number}"
    blocks: dict[int, list[int]] = {}
    choices = rng.choices(range(max(1, len(variables) // 4)), k=len(variables))
    for var, block in enumerate(choices, start=1):
        blocks.setdefault(block, []).append(var)
    chain, tree = [], []
    for members in blocks.values():
        chain += zip(members, members[1:])
        for i in range(1, len(members)):
            edge = (members[int(rng.random() * i)], members[i])
            tree.append(edge if rng.random() < 0.5 else edge[::-1])
    other = list(tokens)
    if variant == "bridge":
        tree.pop(rng.randrange(len(tree)))
    elif variant == "terminal":
        pos = rng.choice([i for i, t in enumerate(other) if t in ("a", "b")])
        other[pos] = "b" if other[pos] == "a" else "a"

    def text(symbols, edges):
        out = "alphabet:ab; pattern: " + " ".join(symbols)
        if edges:
            out += "; rel: " + ", ".join(f"{kind}(x{l},x{r})" for l, r in edges)
        return out

    return text(tokens, chain), text(other, tree)


def equivalence(lib, seed: int, full: bool = True) -> Prepared:
    rng = _rng("equivalence", seed)
    # Pairs per kind at each size: even-numbered pairs are equivalent, odd ones
    # alternate between "bridge" and "terminal" across the pairs of a size.
    plan = {10**3: 32, 10**4: 8, 10**5: 1} if full else {10**3: 4, 10**4: 2}
    cases = []
    for size, per_kind in plan.items():
        for k, kind in enumerate(EQUIVALENCE_KINDS):
            for i in range(per_kind):
                n = k * per_kind + i
                variant = "same" if n % 2 == 0 else ("bridge", "terminal")[(n // 2) % 2]
                cases.append((size, kind, variant, *pattern_pair(rng, size, kind, variant)))

    def query(a_text, b_text):
        a, _ = lib.core.parse_document(a_text)
        b, _ = lib.core.parse_document(b_text)
        return lib.equivalence.ne_equivalent(a, b)

    queries = [Query(lambda a=a, b=b: query(a, b)) for *_, a, b in cases]

    def check(answers: list) -> list[str]:
        return [
            f"{size}-symbol {kind} pair ({variant}): ne_equivalent says {answer}"
            for (size, kind, variant, _, _), answer in zip(cases, answers)
            if answer is not oracle.FAILED and answer != (variant == "same")
        ]

    return Prepared(queries, check)


WORKLOADS = {
    "membership": membership,
    "reduction": reduction,
    "predicates": predicates,
    "equivalence": equivalence,
}
