"""Builders and checkers for the inclusion-undecidability pattern pairs.

Erasing case over the reversal relation: a fixed two-variable pattern and
a large companion pattern assembled from predicate triples (gamma, delta,
eta), one per failure mode of encoded counter-automaton computations.  A
substitution satisfies a predicate when the three pattern-word equations
gamma = sigma(x), delta = sigma(y), eta = probe word are simultaneously
solvable; a word image avoids the whole companion language exactly when it
encodes an accepting run.

Non-erasing case over abelian equivalence: the analogous pair for the
universal Turing machine, with predicate pairs (gamma, delta) spliced into
selector blocks.  Only the frame and the displayed predicates are built;
verification for this pair is structural.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Iterable, Sequence

from .core import Alphabet, Constraint, Mode, PatternSymbol, RelationalPattern
from .machines import RUN_SHAPE, TwoCounterAutomaton, UtmConfiguration, utm_encode_config
from .matcher import DEFAULT_NODE_BUDGET, solve_system
from .relations import RelationKind

CONSTRUCTION_ALPHABET = Alphabet.of("0#")

# Frame words of the erasing/reversal construction: the block every selected
# frame variable must take, and the word the eta patterns must match.
SELECTOR_BLOCK = "0###0"
PROBE_WORD = "0#####0"

# Selector block of the non-erasing/abelian construction.
NE_SELECTOR_BLOCK = "0####0"


@dataclass(frozen=True)
class SigmaAssignment:
    """Images of the two variables of the small pattern."""

    x_image: str
    y_image: str


def good_form(sigma: SigmaAssignment) -> bool:
    """No ### in sigma(x), sigma(y) unary over 0, both over {0, #}."""
    return (
        set(sigma.x_image) <= {"0", "#"}
        and "###" not in sigma.x_image
        and set(sigma.y_image) <= {"0"}
    )


def good_structure(word: str) -> bool:
    """Membership in (##0+#0+#0+)+## — the shape of encoded computations."""
    return bool(RUN_SHAPE.fullmatch(word))


# -- simple predicates -------------------------------------------------------

# Skeleton items: a literal letter ('0' or '#') or a parameter class (1..3).
SkeletonItem = PatternSymbol


@dataclass(frozen=True)
class SimplePredicate:
    """Occurrence condition sigma(x) in L1 S(skeleton) L2.

    Skeleton parameters range over powers of 0 (non-empty powers when
    ``params_nonempty``), with equal values inside each class; an anchored
    side pins the skeleton instance to that end of the word.
    """

    skeleton: tuple[SkeletonItem, ...]
    left_anchored: bool
    right_anchored: bool
    label: str = ""
    params_nonempty: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "skeleton", tuple(self.skeleton))
        for item in self.skeleton:
            if isinstance(item, int):
                if not 1 <= item <= 3:
                    raise ValueError("parameter classes are 1..3")
            elif item not in ("0", "#"):
                raise ValueError(f"bad skeleton literal {item!r}")


@lru_cache(maxsize=4096)
def _skeleton_regex(sp: SimplePredicate) -> re.Pattern[str]:
    parts: list[str] = []
    seen: set[int] = set()
    atom = "0+" if sp.params_nonempty else "0*"
    for item in sp.skeleton:
        if isinstance(item, int):
            if item in seen:
                parts.append(f"(?P=p{item})")
            else:
                seen.add(item)
                parts.append(f"(?P<p{item}>{atom})")
        else:
            parts.append(re.escape(item))
    if sp.right_anchored:
        parts.append(r"\Z")
    return re.compile("".join(parts))


def simple_predicate_holds(sp: SimplePredicate, word: str) -> bool:
    """Direct decision of the occurrence condition (backreference regex)."""
    regex = _skeleton_regex(sp)
    if sp.left_anchored:
        return regex.match(word) is not None
    return regex.search(word) is not None


# -- predicate triples (erasing / reversal construction) ---------------------


@dataclass(frozen=True)
class PredicateTriple:
    """Terminal-free patterns over one local variable pool, plus constraints."""

    gamma: tuple[int, ...]
    delta: tuple[int, ...]
    eta: tuple[int, ...]
    constraints: frozenset[Constraint]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", tuple(self.gamma))
        object.__setattr__(self, "delta", tuple(self.delta))
        object.__setattr__(self, "eta", tuple(self.eta))
        object.__setattr__(self, "constraints", frozenset(self.constraints))
        for pattern in (self.gamma, self.delta, self.eta):
            for sym in pattern:
                if not isinstance(sym, int):
                    raise ValueError("triple patterns are terminal-free")

    @property
    def variable_pool(self) -> frozenset[int]:
        return frozenset(self.gamma) | frozenset(self.delta) | frozenset(self.eta)


def _rev(left: int, right: int) -> Constraint:
    return Constraint(RelationKind.REVERSAL, left, right)


def _bad_form_x_triple() -> PredicateTriple:
    # gamma: free ### free; delta: free; eta: the standard probe block.
    gamma = (1, 2, 3, 4, 5)
    delta = (6,)
    eta = (7, 8, 9, 10, 11, 12, 13)
    constraints = frozenset(
        [_rev(7, 13), _rev(8, 9), _rev(8, 10), _rev(8, 11), _rev(8, 12)]
        + [_rev(8, 2), _rev(8, 3), _rev(8, 4)]
    )
    return PredicateTriple(gamma, delta, eta, constraints, "bad-form-x")


def _bad_form_y_triple() -> PredicateTriple:
    gamma = (1,)
    delta = (2, 3, 4)
    eta = (5, 6, 7, 8, 9, 10, 11)
    constraints = frozenset(
        [_rev(5, 11), _rev(6, 7), _rev(6, 8), _rev(6, 9), _rev(6, 10), _rev(6, 3)]
    )
    return PredicateTriple(gamma, delta, eta, constraints, "bad-form-y")


def _short_y_triple() -> PredicateTriple:
    # Satisfied when sigma(y) splits into three reversed factors of sigma(x);
    # unsatisfied it bounds sigma(y)'s length from below.
    gamma = (1, 2, 3, 4, 5, 6, 7)
    delta = (8, 9, 10)
    eta = (11, 12, 13, 14, 15, 16, 17)
    constraints = frozenset(
        [_rev(2, 8), _rev(4, 9), _rev(6, 10)]
        + [_rev(11, 17), _rev(12, 13), _rev(12, 14), _rev(12, 15), _rev(12, 16)]
    )
    return PredicateTriple(gamma, delta, eta, constraints, "short-y")


def simple_to_triple(sp: SimplePredicate) -> PredicateTriple:
    """Convert an occurrence condition into an equivalent predicate triple.

    Skeleton terminals become families of reversal-related variables whose
    values are forced through the eta = probe equation; parameter classes
    gain one extra occurrence inside delta, which confines them to powers
    of 0 whenever sigma(y) is unary.
    """
    ids = count(1)

    gamma: list[int] = []
    zero_family: list[int] = []
    hash_family: list[int] = []
    class_occurrences: dict[int, list[int]] = {1: [], 2: [], 3: []}

    left_free = None if sp.left_anchored else next(ids)
    if left_free is not None:
        gamma.append(left_free)
    for item in sp.skeleton:
        var = next(ids)
        gamma.append(var)
        if item == "0":
            zero_family.append(var)
        elif item == "#":
            hash_family.append(var)
        else:
            class_occurrences[item].append(var)
    right_free = None if sp.right_anchored else next(ids)
    if right_free is not None:
        gamma.append(right_free)

    delta: list[int] = []
    for cls in (1, 2, 3):
        var = next(ids)
        delta.append(var)
        class_occurrences[cls].append(var)
    delta.append(next(ids))  # free remainder

    zero_root = next(ids)
    hash_root = next(ids)
    eta = (zero_root, hash_root, next(ids), next(ids), next(ids), next(ids), next(ids))

    constraints: set[Constraint] = set()
    for member in eta[2:6]:
        constraints.add(_rev(hash_root, member))
    constraints.add(_rev(zero_root, eta[6]))
    for member in zero_family:
        constraints.add(_rev(zero_root, member))
    for member in hash_family:
        constraints.add(_rev(hash_root, member))
    for occurrences in class_occurrences.values():
        for member in occurrences[1:]:
            constraints.add(_rev(occurrences[0], member))

    return PredicateTriple(tuple(gamma), tuple(delta), eta, frozenset(constraints), sp.label)


# -- the predicate list for a 2-counter automaton ----------------------------


def _zero_flag_changes(flag: int) -> tuple[int, ...]:
    # From a zero counter only 0/+1 are exhibitable in an encoded word.
    return (0, 1) if flag == 0 else (-1, 0, 1)


def _counter_field(flag: int, cls: int) -> list[SkeletonItem]:
    return ["0"] if flag == 0 else ["0", "0", cls]


def _next_counter_field(flag: int, change: int, cls: int) -> list[SkeletonItem]:
    if flag == 0:
        return ["0"] * (1 + change)
    return ["0"] * (2 + change) + [cls]


def thm3_simple_predicates(automaton: TwoCounterAutomaton) -> list[SimplePredicate]:
    """Occurrence conditions that jointly characterize non-encodings.

    A word of good form avoiding all of them is exactly an encoding of an
    accepting computation of the automaton (unit encoding offsets).
    """
    preds: list[SimplePredicate] = []

    def add(label: str, items: Sequence[SkeletonItem], left: bool, right: bool) -> None:
        preds.append(SimplePredicate(tuple(items), left, right, label))

    # Shape screens: anything failing the block structure of encodings.
    add("empty", [], True, True)
    add("single-hash", ["#"], True, True)
    add("double-hash", ["#", "#"], True, True)
    add("starts-0", ["0"], True, False)
    add("starts-hash-0", ["#", "0"], True, False)
    add("ends-0", ["0"], False, True)
    add("ends-0-hash", ["0", "#"], False, True)
    add("block-two-runs-missing", ["#", "#", 1, "#", "#"], False, False)
    add("block-one-run-missing", ["#", "#", 1, "#", 2, "#", "#"], False, False)
    add("block-overfull", ["#", "#", 1, "#", 2, "#", 3, "#", "0"], False, False)

    # State code out of range (states are encoded by 0^(index+1)).
    top = automaton.num_states - 1
    add("state-code-too-large", ["#", "#"] + ["0"] * (top + 2), False, False)

    # Wrong start: state not q0 or a counter not zero.
    add("start-wrong-state", ["#", "#", "0", "0"], True, False)
    add("start-counter1-nonzero", ["#", "#", 1, "#", "0", "0"], True, False)
    add("start-counter2-nonzero", ["#", "#", 1, "#", 2, "#", "0", "0"], True, False)

    # Wrong end: last state not accepting.
    for state in range(automaton.num_states):
        if state not in automaton.accepting:
            add(
                f"end-state-q{state}",
                ["#", "#"] + ["0"] * (state + 1) + ["#", 1, "#", 2, "#", "#"],
                False,
                True,
            )

    # A counter changing by two or more between adjacent configurations.
    add("counter1-jump-up", ["#", 1, "#", 2, "#", "#", 3, "#", "0", "0", 1], False, False)
    add("counter1-jump-down", [1, "0", "0", "#", 2, "#", "#", 3, "#", 1, "#"], False, False)
    add("counter2-jump-up", ["#", 1, "#", "#", 2, "#", 3, "#", "0", "0", 1], False, False)
    add("counter2-jump-down", [1, "0", "0", "#", "#", 2, "#", 3, "#", 1, "#"], False, False)

    # One predicate per transition profile the automaton does not allow.
    for source in range(automaton.num_states):
        for c1 in (0, 1):
            for c2 in (0, 1):
                allowed = automaton.outgoing(source, c1, c2)
                for target in range(automaton.num_states):
                    for r1 in _zero_flag_changes(c1):
                        for r2 in _zero_flag_changes(c2):
                            if (target, r1, r2) in allowed:
                                continue
                            items: list[SkeletonItem] = ["#", "#"]
                            items += ["0"] * (source + 1)
                            items += ["#"] + _counter_field(c1, 1)
                            items += ["#"] + _counter_field(c2, 2)
                            items += ["#", "#"] + ["0"] * (target + 1)
                            items += ["#"] + _next_counter_field(c1, r1, 1)
                            items += ["#"] + _next_counter_field(c2, r2, 2)
                            items += ["#", "#"]
                            add(
                                f"no-transition-q{source}-{c1}{c2}-q{target}-{r1:+d}{r2:+d}",
                                items,
                                False,
                                False,
                            )
    return preds


def build_predicates(automaton: TwoCounterAutomaton) -> list[PredicateTriple]:
    """Full predicate list: bad form, length bound, and all encoding screens."""
    triples = [_bad_form_x_triple(), _bad_form_y_triple(), _short_y_triple()]
    triples.extend(simple_to_triple(sp) for sp in thm3_simple_predicates(automaton))
    return triples


def predicate_satisfied(
    sigma: SigmaAssignment,
    triple: PredicateTriple,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """Solve the three-equation system for the triple under erasing semantics.

    The probe equation goes first since it forces the terminal families.
    When the gamma pattern contains none of the probe's equal-length
    partners it carries no anchors, so the delta equation is solved before
    it; the verdict does not depend on the order.
    """
    eta_eq = (triple.eta, PROBE_WORD)
    gamma_eq = (triple.gamma, sigma.x_image)
    delta_eq = (triple.delta, sigma.y_image)
    eta_partners = {
        var
        for kind, left, right in triple.constraints
        if left in triple.eta or right in triple.eta
        for var in (left, right)
    }
    if eta_partners & set(triple.gamma):
        equations = (eta_eq, gamma_eq, delta_eq)
    else:
        equations = (eta_eq, delta_eq, gamma_eq)
    return solve_system(equations, triple.constraints, Mode.E, node_budget=node_budget) is not None


def satisfied_predicates(
    sigma: SigmaAssignment,
    triples: Iterable[PredicateTriple],
) -> list[int]:
    """1-based indices of the satisfied predicates."""
    return [index for index, triple in enumerate(triples, start=1) if predicate_satisfied(sigma, triple)]


# -- pattern builders (erasing / reversal) -----------------------------------


def build_alpha_A() -> RelationalPattern:
    """The fixed two-variable pattern of the erasing construction."""
    v, u = SELECTOR_BLOCK, PROBE_WORD
    symbols: list[PatternSymbol] = []
    symbols += v + v + "#" * 6 + v
    symbols.append(1)
    symbols += v
    symbols.append(2)
    symbols += v + "#" * 6 + v + u + v
    return RelationalPattern(CONSTRUCTION_ALPHABET, tuple(symbols), frozenset())


def build_beta_A(automaton: TwoCounterAutomaton) -> RelationalPattern:
    """Companion pattern: selector pairs, then the gamma/delta blocks, then
    the eta blocks, with reversal constraints tying each selector family."""
    triples = build_predicates(automaton)
    mu = len(triples)

    ids = count(1)

    symbols: list[PatternSymbol] = []
    selector: list[tuple[int, int]] = []
    for _ in range(mu):
        a, a_prime = next(ids), next(ids)
        selector.append((a, a_prime))
        symbols += [a, a_prime]
    symbols += "#" * 6

    local_to_global: list[dict[int, int]] = [{} for _ in range(mu)]
    frame_vars: list[list[int]] = [[] for _ in range(mu)]

    def splice(index: int, pattern: tuple[int, ...]) -> None:
        mapping = local_to_global[index]
        for local in pattern:
            if local not in mapping:
                mapping[local] = next(ids)
            symbols.append(mapping[local])

    for index, triple in enumerate(triples):
        frame_vars[index].append(next(ids))
        symbols.append(frame_vars[index][-1])
        splice(index, triple.gamma)
        frame_vars[index].append(next(ids))
        symbols.append(frame_vars[index][-1])
        splice(index, triple.delta)
        frame_vars[index].append(next(ids))
        symbols.append(frame_vars[index][-1])
    symbols += "#" * 6
    for index, triple in enumerate(triples):
        frame_vars[index].append(next(ids))
        symbols.append(frame_vars[index][-1])
        splice(index, triple.eta)
        frame_vars[index].append(next(ids))
        symbols.append(frame_vars[index][-1])

    constraints: set[Constraint] = set()
    for index in range(mu):
        a, a_prime = selector[index]
        constraints.add(_rev(a, a_prime))
        for frame_var in frame_vars[index]:
            constraints.add(_rev(a, frame_var))
        mapping = local_to_global[index]
        for kind, left, right in triples[index].constraints:
            constraints.add(Constraint(kind, mapping[left], mapping[right]))

    return RelationalPattern(CONSTRUCTION_ALPHABET, tuple(symbols), frozenset(constraints))


# -- non-erasing / abelian construction --------------------------------------


@dataclass(frozen=True)
class PredicatePair:
    """gamma/delta pair for the non-erasing construction; terminals allowed."""

    gamma: tuple[PatternSymbol, ...]
    delta: tuple[PatternSymbol, ...]
    constraints: frozenset[Constraint]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", tuple(self.gamma))
        object.__setattr__(self, "delta", tuple(self.delta))
        object.__setattr__(self, "constraints", frozenset(self.constraints))


def _ab(left: int, right: int) -> Constraint:
    return Constraint(RelationKind.ABELIAN_EQ, left, right)


def _ne_bad_form_x_pair() -> PredicatePair:
    return PredicatePair((1, "#", "#", "#", 2), ("0", 3, "0"), frozenset(), "bad-form-x")


def _ne_bad_form_y_pair() -> PredicatePair:
    return PredicatePair(("0", 1, "0"), (2, "#", 3), frozenset(), "bad-form-y")


def _ne_short_y_pair() -> PredicatePair:
    gamma = (1, 2, 3, 4, 5, 6, 7)
    delta = ("0", 8, 9, 10)
    return PredicatePair(
        gamma, delta, frozenset([_ab(2, 8), _ab(4, 9), _ab(6, 10)]), "short-y"
    )


def ne_simple_to_pair(sp: SimplePredicate) -> PredicatePair:
    """Embed an occurrence condition as a non-erasing gamma/delta pair.

    The skeleton is kept verbatim inside gamma (terminals allowed here);
    parameter classes gain a delta occurrence related by abelian
    equivalence, confining them to powers of 0.
    """
    ids = count(1)

    gamma: list[PatternSymbol] = []
    class_occurrences: dict[int, list[int]] = {1: [], 2: [], 3: []}
    if not sp.left_anchored:
        gamma.append(next(ids))
    for item in sp.skeleton:
        if isinstance(item, int):
            var = next(ids)
            gamma.append(var)
            class_occurrences[item].append(var)
        else:
            gamma.append(item)
    if not sp.right_anchored:
        gamma.append(next(ids))

    delta: list[PatternSymbol] = ["0"]
    constraints: set[Constraint] = set()
    for cls in (1, 2, 3):
        if class_occurrences[cls]:
            var = next(ids)
            delta.append(var)
            class_occurrences[cls].append(var)
    delta.append(next(ids))  # free remainder
    delta.append("0")
    for occurrences in class_occurrences.values():
        for member in occurrences[1:]:
            constraints.add(_ab(occurrences[0], member))

    return PredicatePair(tuple(gamma), tuple(delta), frozenset(constraints), sp.label)


def prop6_predicates(extra_simple: Sequence[SimplePredicate] = ()) -> list[PredicatePair]:
    """The displayed pairs, plus any extra occurrence conditions to embed."""
    pairs = [_ne_bad_form_x_pair(), _ne_bad_form_y_pair(), _ne_short_y_pair()]
    pairs.extend(ne_simple_to_pair(sp) for sp in extra_simple)
    return pairs


def pair_satisfied(
    gamma_target: str,
    delta_target: str,
    pair: PredicatePair,
) -> bool:
    """Solve the two-equation system for the pair under non-erasing semantics."""
    equations = ((pair.gamma, gamma_target), (pair.delta, delta_target))
    return solve_system(equations, pair.constraints, Mode.NE) is not None


def _psi_image(pattern: Iterable[PatternSymbol]) -> str:
    """Image under the all-variables-to-0 non-erasing substitution."""
    return "".join("0" if isinstance(sym, int) else sym for sym in pattern)


def prop6_psi_parts(
    initial: UtmConfiguration, extra_simple: Sequence[SimplePredicate] = ()
) -> tuple[str, list[str]]:
    """The all-0 image of the tail section and of each selector block."""
    pairs = prop6_predicates(extra_simple)
    hats = []
    for pair in pairs:
        frame = "0" + "0000" + "0"
        hats.append(frame + _psi_image(pair.gamma) + frame + _psi_image(pair.delta) + frame)
    tail = "0" + "0".join(hats) + "0" if hats else "00"
    return tail, hats


def build_alpha_prop6(
    initial: UtmConfiguration, extra_simple: Sequence[SimplePredicate] = ()
) -> RelationalPattern:
    """Two-variable pattern embedding the encoded initial configuration."""
    pairs = prop6_predicates(extra_simple)
    mu = len(pairs)
    tail, _ = prop6_psi_parts(initial, extra_simple)
    v = NE_SELECTOR_BLOCK
    symbols: list[PatternSymbol] = []
    symbols += "0" * (mu + 1) + "#" * 5 + "0" * mu + "#" + "0" * mu + "#" * 5
    symbols += tail + v + "0"
    symbols += "##" + utm_encode_config(initial) + "##"
    symbols.append(1)
    symbols += "#" + "0" * 8 + "##"
    symbols += "0" + v + "0"
    symbols.append(2)
    symbols += "00"
    symbols += "0" + v + tail
    return RelationalPattern(CONSTRUCTION_ALPHABET, tuple(symbols), frozenset())


def build_beta_prop6(
    initial: UtmConfiguration, extra_simple: Sequence[SimplePredicate] = ()
) -> RelationalPattern:
    """Companion pattern with selector columns and embedded predicate pairs."""
    del initial  # the frame does not depend on the start configuration
    pairs = prop6_predicates(extra_simple)
    mu = len(pairs)

    ids = count(1)

    symbols: list[PatternSymbol] = []
    a1, b1 = next(ids), next(ids)
    symbols += [a1, b1]
    symbols += "#" * 5
    a2 = next(ids)
    symbols.append(a2)
    column_heads: list[int] = []
    for _ in range(mu):
        head = next(ids)
        column_heads.append(head)
        symbols.append(head)
    b2 = next(ids)
    symbols.append(b2)
    symbols += "#" * 5

    constraints: set[Constraint] = {_ab(a1, a2), _ab(b1, b2)}
    for index, pair in enumerate(pairs):
        symbols.append(next(ids))  # separator variable r_i
        mapping: dict[int, int] = {}

        def mapped(local: int) -> int:
            if local not in mapping:
                mapping[local] = next(ids)
            return mapping[local]

        for section in (pair.gamma, pair.delta, None):
            symbols.append("0")
            for _ in range(4):
                column_var = next(ids)
                constraints.add(_ab(column_heads[index], column_var))
                symbols.append(column_var)
            symbols.append("0")
            if section is not None:
                for sym in section:
                    symbols.append(mapped(sym) if isinstance(sym, int) else sym)
        for kind, left, right in pair.constraints:
            constraints.add(Constraint(kind, mapped(left), mapped(right)))
    symbols.append(next(ids))  # trailing separator variable

    return RelationalPattern(CONSTRUCTION_ALPHABET, tuple(symbols), frozenset(constraints))
