"""Machine models whose computations are encoded into words over {0, #}.

Two models: nondeterministic 2-counter automata without input (simulator,
run search, configuration/computation encoder, encoded-computation
validator) and the 15-state, 2-symbol universal Turing machine (transition
table, a code-arithmetic simulator and an explicit-tape simulator that
serves as its ground truth, plus the non-erasing computation encoding and
its validator).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

MACHINE_LETTERS = "0#"


# -- nondeterministic 2-counter automata ------------------------------------


@dataclass(frozen=True)
class CaConfiguration:
    state: int
    counter1: int
    counter2: int

    def __post_init__(self) -> None:
        if self.state < 0 or self.counter1 < 0 or self.counter2 < 0:
            raise ValueError("state and counters must be non-negative")


Transition = tuple[int, int, int]  # (target state, r1, r2)


@dataclass(frozen=True)
class TwoCounterAutomaton:
    """States 0..num_states-1; state 0 is initial."""

    num_states: int
    accepting: frozenset[int]
    transitions: dict[tuple[int, int, int], frozenset[Transition]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(
            self,
            "transitions",
            {key: frozenset(targets) for key, targets in self.transitions.items()},
        )
        if self.num_states < 1:
            raise ValueError("automaton needs at least one state")
        if not self.accepting <= set(range(self.num_states)):
            raise ValueError("accepting states out of range")
        for (state, c1, c2), targets in self.transitions.items():
            if not 0 <= state < self.num_states or c1 not in (0, 1) or c2 not in (0, 1):
                raise ValueError(f"bad transition key {(state, c1, c2)}")
            for target, r1, r2 in targets:
                if not 0 <= target < self.num_states:
                    raise ValueError(f"transition target q{target} out of range")
                if r1 not in (-1, 0, 1) or r2 not in (-1, 0, 1):
                    raise ValueError("counter changes must be in {-1, 0, +1}")
                # A zero flag rules out decrementing that counter.
                if (c1 == 0 and r1 == -1) or (c2 == 0 and r2 == -1):
                    raise ValueError(
                        f"transition {(state, c1, c2)} -> {(target, r1, r2)} "
                        "decrements a counter whose flag is zero"
                    )

    def outgoing(self, state: int, c1: int, c2: int) -> frozenset[Transition]:
        return self.transitions.get((state, c1, c2), frozenset())


def ca_step(automaton: TwoCounterAutomaton, config: CaConfiguration) -> set[CaConfiguration]:
    """All successor configurations under one transition step."""
    c1 = 1 if config.counter1 > 0 else 0
    c2 = 1 if config.counter2 > 0 else 0
    return {
        CaConfiguration(target, config.counter1 + r1, config.counter2 + r2)
        for target, r1, r2 in automaton.outgoing(config.state, c1, c2)
    }


def ca_find_accepting_run(
    automaton: TwoCounterAutomaton, max_steps: int
) -> Optional[list[CaConfiguration]]:
    """Breadth-first search for an accepting run with at most max_steps configurations."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    start = CaConfiguration(0, 0, 0)
    if start.state in automaton.accepting:
        return [start]
    parents: dict[CaConfiguration, Optional[CaConfiguration]] = {start: None}
    frontier = deque([(start, 1)])
    while frontier:
        config, length = frontier.popleft()
        if length >= max_steps:
            continue
        for succ in sorted(
            ca_step(automaton, config), key=lambda c: (c.state, c.counter1, c.counter2)
        ):
            if succ in parents:
                continue
            parents[succ] = config
            if succ.state in automaton.accepting:
                run = [succ]
                back: Optional[CaConfiguration] = config
                while back is not None:
                    run.append(back)
                    back = parents[back]
                run.reverse()
                return run
            frontier.append((succ, length + 1))
    return None


@dataclass(frozen=True)
class EncodingParams:
    """Offsets and scale of the counter-automaton configuration encoding."""

    x: int = 1
    c1: int = 1
    c2: int = 1
    y2: int = 1

    def __post_init__(self) -> None:
        if min(self.x, self.c1, self.c2, self.y2) < 1:
            raise ValueError("encoding parameters must be >= 1")


def ca_encode_config(config: CaConfiguration, params: EncodingParams = EncodingParams()) -> str:
    return (
        "0" * (params.x + config.state)
        + "#"
        + "0" * (params.c1 + params.y2 * config.counter1)
        + "#"
        + "0" * (params.c2 + params.y2 * config.counter2)
    )


def ca_encode(run: Iterable[CaConfiguration], params: EncodingParams = EncodingParams()) -> str:
    configs = list(run)
    if not configs:
        raise ValueError("cannot encode an empty run")
    return "##" + "##".join(ca_encode_config(c, params) for c in configs) + "##"


RUN_SHAPE = re.compile(r"(?:##0+#0+#0+)+##\Z")


def ca_decode(
    word: str, automaton: TwoCounterAutomaton, params: EncodingParams = EncodingParams()
) -> Optional[list[CaConfiguration]]:
    """Decode an encoded configuration sequence, or None when malformed."""
    if not RUN_SHAPE.fullmatch(word):
        return None
    configs = []
    for block in word[2:-2].split("##"):
        state_part, counter1_part, counter2_part = block.split("#")
        state = len(state_part) - params.x
        if not 0 <= state < automaton.num_states:
            return None
        counters = []
        for text, offset in ((counter1_part, params.c1), (counter2_part, params.c2)):
            value, remainder = divmod(len(text) - offset, params.y2)
            if len(text) < offset or remainder:
                return None
            counters.append(value)
        configs.append(CaConfiguration(state, counters[0], counters[1]))
    return configs


def ca_validate(
    word: str, automaton: TwoCounterAutomaton, params: EncodingParams = EncodingParams()
) -> bool:
    """True iff word encodes an accepting run: starts at (q0,0,0), steps legally,
    and ends in an accepting state.  Malformed words are simply rejected."""
    configs = ca_decode(word, automaton, params)
    if configs is None:
        return False
    if configs[0] != CaConfiguration(0, 0, 0):
        return False
    for current, following in zip(configs, configs[1:]):
        if following not in ca_step(automaton, current):
            return False
    return configs[-1].state in automaton.accepting


_TRANSITION_LINE = re.compile(
    r"q(\d+)\s+([01])\s+([01])\s*->\s*q(\d+)\s+([+-]?1|0)\s+([+-]?1|0)\Z"
)


def parse_automaton(text: str) -> TwoCounterAutomaton:
    """Text format: `states: n`, `accept: q0 q2 ...`, one line per transition
    `q<i> c1 c2 -> q<j> r1 r2`."""
    num_states: Optional[int] = None
    accepting: set[int] = set()
    transitions: dict[tuple[int, int, int], set[Transition]] = {}
    for raw in text.splitlines():
        line = raw.split("//")[0].strip()
        if not line:
            continue
        if line.startswith("states:"):
            num_states = int(line.split(":", 1)[1])
            continue
        if line.startswith("accept:"):
            for tok in line.split(":", 1)[1].replace(",", " ").split():
                if not tok.startswith("q"):
                    raise ValueError(f"bad accepting state {tok!r}")
                accepting.add(int(tok[1:]))
            continue
        m = _TRANSITION_LINE.match(line)
        if not m:
            raise ValueError(f"bad transition line {line!r}")
        state, c1, c2 = int(m.group(1)), int(m.group(2)), int(m.group(3))
        target = (int(m.group(4)), int(m.group(5)), int(m.group(6)))
        transitions.setdefault((state, c1, c2), set()).add(target)
    if num_states is None:
        raise ValueError("missing 'states:' line")
    return TwoCounterAutomaton(
        num_states, frozenset(accepting), {k: frozenset(v) for k, v in transitions.items()}
    )


def print_automaton(automaton: TwoCounterAutomaton) -> str:
    lines = [f"states: {automaton.num_states}"]
    lines.append("accept: " + " ".join(f"q{s}" for s in sorted(automaton.accepting)))
    for (state, c1, c2), targets in sorted(automaton.transitions.items()):
        for target, r1, r2 in sorted(targets):
            lines.append(f"q{state} {c1} {c2} -> q{target} {r1:+d} {r2:+d}".replace("+0", "0"))
    return "\n".join(lines) + "\n"


# -- the 15-state, 2-symbol universal Turing machine ------------------------

L, R = "L", "R"

# delta[(read symbol, state)] -> (write symbol, move, next state) or None (halt).
UTM_DELTA: dict[tuple[int, int], Optional[tuple[int, str, int]]] = {
    (0, 1): (0, R, 2),
    (0, 2): (1, R, 3),
    (0, 3): (0, L, 7),
    (0, 4): (0, L, 6),
    (0, 5): (1, R, 1),
    (0, 6): (1, L, 4),
    (0, 7): (0, L, 8),
    (0, 8): (1, L, 9),
    (1, 1): (1, R, 1),
    (1, 2): (1, R, 1),
    (1, 3): (0, L, 5),
    (1, 4): (1, L, 5),
    (1, 5): (1, L, 4),
    (1, 6): (1, L, 4),
    (1, 7): (1, L, 7),
    (1, 8): (1, L, 7),
    (0, 9): (0, R, 1),
    (0, 10): (1, L, 11),
    (0, 11): (0, R, 12),
    (0, 12): (0, R, 13),
    (0, 13): (0, L, 2),
    (0, 14): (0, L, 3),
    (0, 15): (0, R, 14),
    (1, 9): (1, L, 10),
    (1, 10): None,
    (1, 11): (1, R, 14),
    (1, 12): (1, R, 12),
    (1, 13): (1, R, 12),
    (1, 14): (0, R, 15),
    (1, 15): (1, R, 14),
}


def utm_delta(symbol: int, state: int) -> Optional[tuple[int, str, int]]:
    """Transition table lookup; None encodes HALT."""
    if symbol not in (0, 1) or not 1 <= state <= 15:
        raise ValueError(f"bad (symbol, state) = ({symbol}, {state})")
    return UTM_DELTA[(symbol, state)]


@dataclass(frozen=True)
class UtmConfiguration:
    """State plus positional codes of both tape sides.

    The left side starts at the head (inclusive) and extends left, the
    right side starts after the head; a side with cells t_0, t_1, ... has
    code sum(2^i * t_i), so code mod 2 is the cell closest to the head.
    """

    state: int
    left_code: int
    right_code: int

    def __post_init__(self) -> None:
        if not 1 <= self.state <= 15:
            raise ValueError(f"state q{self.state} out of range")
        if self.left_code < 0 or self.right_code < 0:
            raise ValueError("side codes must be non-negative")


def utm_is_halting(config: UtmConfiguration) -> bool:
    return utm_delta(config.left_code & 1, config.state) is None


def utm_step(config: UtmConfiguration) -> Optional[UtmConfiguration]:
    """One step by code arithmetic; None when the machine halts."""
    read = config.left_code & 1
    action = utm_delta(read, config.state)
    if action is None:
        return None
    write, move, nxt = action
    written = config.left_code - read + write
    if move == R:
        left = 2 * written + (config.right_code & 1)
        right = config.right_code >> 1
    else:
        left = written >> 1
        right = 2 * config.right_code + write
    return UtmConfiguration(nxt, left, right)


class TapeUtm:
    """Explicit finite-tape simulator; the authority for the side-code updates."""

    def __init__(self, state: int, left: list[int], right: list[int]):
        self.state = state
        self.left = list(left)  # cell at head first, extending left
        self.right = list(right)  # cell after head first, extending right

    @classmethod
    def from_config(cls, config: UtmConfiguration) -> "TapeUtm":
        return cls(config.state, _bits(config.left_code), _bits(config.right_code))

    def to_config(self) -> UtmConfiguration:
        return UtmConfiguration(self.state, _code(self.left), _code(self.right))

    def step(self) -> bool:
        """Perform one step; False when halting."""
        read = self.left[0] if self.left else 0
        action = utm_delta(read, self.state)
        if action is None:
            return False
        write, move, nxt = action
        if self.left:
            self.left[0] = write
        elif write:
            self.left = [write]
        if move == R:
            moved_onto = self.right.pop(0) if self.right else 0
            self.left.insert(0, moved_onto)
        else:
            head = self.left.pop(0) if self.left else 0
            self.right.insert(0, head)
        self.state = nxt
        return True


def _bits(code: int) -> list[int]:
    out = []
    while code:
        out.append(code & 1)
        code >>= 1
    return out


def _code(bits: list[int]) -> int:
    return sum(bit << i for i, bit in enumerate(bits))


def utm_run(initial: UtmConfiguration, max_steps: int) -> list[UtmConfiguration]:
    """Trajectory from ``initial``: up to max_steps steps or until halting."""
    trajectory = [initial]
    config = initial
    for _ in range(max_steps):
        nxt = utm_step(config)
        if nxt is None:
            break
        trajectory.append(nxt)
        config = nxt
    return trajectory


def utm_encode_config(config: UtmConfiguration) -> str:
    return (
        "0" * (7 + config.right_code)
        + "#"
        + "0" * (7 + config.left_code)
        + "#"
        + "0" * (config.state + 6)
    )


def utm_encode_computation(configs: Iterable[UtmConfiguration]) -> str:
    items = list(configs)
    if not items:
        raise ValueError("cannot encode an empty computation")
    return "##" + "##".join(utm_encode_config(c) for c in items) + "##"


def utm_decode_computation(word: str) -> Optional[list[UtmConfiguration]]:
    if not RUN_SHAPE.fullmatch(word):
        return None
    configs = []
    for block in word[2:-2].split("##"):
        right_part, left_part, state_part = block.split("#")
        state = len(state_part) - 6
        if len(right_part) < 7 or len(left_part) < 7 or not 1 <= state <= 15:
            return None
        configs.append(UtmConfiguration(state, len(left_part) - 7, len(right_part) - 7))
    return configs


def utm_validate(word: str, initial: UtmConfiguration) -> bool:
    """True iff word encodes a valid computation from ``initial``.

    The sequence must start at ``initial``, each configuration must follow
    from its predecessor by one machine step, and the last configuration
    must be halting.  Any configuration counts as a successor of a halting
    configuration.
    """
    configs = utm_decode_computation(word)
    if configs is None or configs[0] != initial:
        return False
    for current, following in zip(configs, configs[1:]):
        if utm_is_halting(current):
            continue
        if utm_step(current) != following:
            return False
    return utm_is_halting(configs[-1])
