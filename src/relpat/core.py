"""Domain types for alphabets, words, patterns and relational patterns.

Words are plain Python strings over a declared single-character alphabet.
A pattern is a sequence mixing terminal letters (one-char strings) and
variables (positive ints); every variable occurs at most once, and any
sharing between positions is expressed through explicit binary constraints
on the variables.  All types are immutable values.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .relations import RelationKind, TOKEN_TO_KIND

PatternSymbol = Union[int, str]  # variable index | terminal letter
Substitution = dict[int, str]


class BudgetExceededError(RuntimeError):
    """Raised when a search or enumeration exceeds its node budget."""


class PatternSyntaxError(ValueError):
    """Malformed relational-pattern text; carries the offending clause."""

    def __init__(self, message: str, clause: str | None = None):
        if clause is not None:
            message = f"{message} (in clause {clause!r})"
        super().__init__(message)


class Mode(Enum):
    """Erasing / non-erasing substitution regime."""

    E = "e"
    NE = "ne"

    @property
    def min_len(self) -> int:
        return 0 if self is Mode.E else 1


# Letters that would collide with the variable lexeme `x<int>` or with the
# text-format metacharacters; whitespace letters are refused as well.
_FORBIDDEN_LETTERS = set("x;,():")


@dataclass(frozen=True)
class Alphabet:
    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise ValueError("alphabet must be non-empty")
        seen = set()
        for ch in self.letters:
            if not isinstance(ch, str) or len(ch) != 1:
                raise ValueError(f"alphabet letters must be single characters, got {ch!r}")
            if ch in _FORBIDDEN_LETTERS or ch.isspace():
                raise ValueError(f"letter {ch!r} collides with the pattern syntax")
            if ch in seen:
                raise ValueError(f"duplicate letter {ch!r}")
            seen.add(ch)
        object.__setattr__(self, "_letter_set", frozenset(self.letters))

    @classmethod
    def of(cls, letters: str | Iterable[str]) -> "Alphabet":
        return cls(tuple(letters))

    def __contains__(self, ch: object) -> bool:
        return ch in self._letter_set  # type: ignore[attr-defined]

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def validate_word(self, word: str) -> None:
        for ch in word:
            if ch not in self:
                raise ValueError(f"letter {ch!r} not in alphabet {''.join(self.letters)!r}")


class Constraint(NamedTuple):
    """Ordered pair of related variables; direction matters for ssq and star."""

    kind: RelationKind
    left: int
    right: int


@dataclass(frozen=True)
class RelationalPattern:
    alphabet: Alphabet
    symbols: tuple[PatternSymbol, ...]
    constraints: frozenset[Constraint] = frozenset()
    # Variable indices in order of first occurrence, collected by __post_init__.
    variables: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "constraints", frozenset(self.constraints))
        if not self.symbols:
            raise ValueError("pattern must be non-empty")
        seen: set[int] = set()
        variables: list[int] = []
        for sym in self.symbols:
            if isinstance(sym, int):
                if sym < 1:
                    raise ValueError(f"variable indices must be positive, got {sym}")
                if sym in seen:
                    raise ValueError(f"variable x{sym} occurs more than once")
                seen.add(sym)
                variables.append(sym)
            elif isinstance(sym, str):
                if sym not in self.alphabet:
                    raise ValueError(f"terminal {sym!r} not in alphabet")
            else:
                raise TypeError(f"bad pattern symbol: {sym!r}")
        for kind, left, right in self.constraints:
            if not isinstance(kind, RelationKind):
                raise TypeError(f"bad constraint kind: {kind!r}")
            for var in (left, right):
                if var not in seen:
                    raise ValueError(f"constraint variable x{var} does not occur in the pattern")
        object.__setattr__(self, "variables", tuple(variables))

    @property
    def is_normal(self) -> bool:
        """True iff first occurrences carry indices 1, 2, ... without gaps."""
        return self.variables == tuple(range(1, len(self.variables) + 1))

    def terminal_text(self) -> str:
        """Concatenation of the terminal symbols (variables dropped)."""
        return "".join(sym for sym in self.symbols if isinstance(sym, str))


_VAR_RE = re.compile(r"x([1-9][0-9]*)\Z")
# One `rel:` item: a run of characters other than ',' and '(', where a '('
# opens a group that may hold commas up to the next ')'.  Linear time.
_REL_SPLIT_RE = re.compile(r"(?:[^,(]|\([^)]*\)?)+")
_REL_ITEM_RE = re.compile(r"\s*([a-z+*]+)\s*\(\s*x([1-9][0-9]*)\s*,\s*x([1-9][0-9]*)\s*\)\s*\Z")


def _split_clauses(text: str) -> list[str]:
    return [part.strip() for part in re.split(r"[;\n]", text) if part.strip()]


def parse_document(text: str) -> tuple[RelationalPattern, Optional[Mode]]:
    """Parse the pattern text format; returns the pattern and an optional mode clause."""
    fields: dict[str, str] = {}
    for clause in _split_clauses(text):
        key, sep, value = clause.partition(":")
        key = key.strip().lower()
        if not sep or key not in ("alphabet", "pattern", "rel", "mode"):
            raise PatternSyntaxError("expected 'alphabet:', 'pattern:', 'rel:' or 'mode:'", clause)
        if key in fields:
            raise PatternSyntaxError(f"duplicate clause {key!r}", clause)
        fields[key] = value.strip()

    if "alphabet" not in fields:
        raise PatternSyntaxError("missing 'alphabet:' clause")
    if "pattern" not in fields:
        raise PatternSyntaxError("missing 'pattern:' clause")

    try:
        alphabet = Alphabet.of(fields["alphabet"])
    except ValueError as exc:
        raise PatternSyntaxError(str(exc), f"alphabet:{fields['alphabet']}") from exc

    symbols: list[PatternSymbol] = []
    seen_vars: set[int] = set()
    for pos, token in enumerate(fields["pattern"].split(), start=1):
        m = _VAR_RE.match(token)
        if m:
            index = int(m.group(1))
            if index in seen_vars:
                raise PatternSyntaxError(f"variable {token} repeated at token {pos}")
            seen_vars.add(index)
            symbols.append(index)
        elif len(token) == 1 and token in alphabet:
            symbols.append(token)
        else:
            raise PatternSyntaxError(f"unknown token {token!r} at token {pos}")
    if not symbols:
        raise PatternSyntaxError("empty pattern")

    constraints: set[Constraint] = set()
    if "rel" in fields and fields["rel"]:
        for item in _REL_SPLIT_RE.findall(fields["rel"]):
            if item.isspace():
                continue
            m = _REL_ITEM_RE.match(item)
            if not m:
                raise PatternSyntaxError(f"malformed relation {item.strip()!r}")
            name, left, right = m.group(1), int(m.group(2)), int(m.group(3))
            if name not in TOKEN_TO_KIND:
                raise PatternSyntaxError(f"unknown relation name {name!r}")
            for var in (left, right):
                if var not in seen_vars:
                    raise PatternSyntaxError(f"relation variable x{var} absent from pattern")
            constraints.add(Constraint(TOKEN_TO_KIND[name], left, right))

    rp = RelationalPattern(alphabet, tuple(symbols), frozenset(constraints))
    if not rp.is_normal:
        warnings.warn("pattern variables renumbered to normal form", stacklevel=2)
        rp = renumber(rp)

    mode: Optional[Mode] = None
    if "mode" in fields:
        token = fields["mode"].lower()
        if token not in ("e", "ne"):
            raise PatternSyntaxError(f"mode must be E or NE, got {fields['mode']!r}")
        mode = Mode(token)
    return rp, mode


def parse_relational_pattern(text: str) -> RelationalPattern:
    """Parse pattern text, ignoring any mode clause."""
    return parse_document(text)[0]


def class_roots(variables: Iterable[int], pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Map each variable to the root of its class under the union of ``pairs``.

    The result lists the variables in the order given.
    """
    parent = {v: v for v in variables}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for left, right in pairs:
        root_l, root_r = find(left), find(right)
        if root_l != root_r:
            parent[root_l] = root_r
    return {v: find(v) for v in parent}


def renumber(rp: RelationalPattern) -> RelationalPattern:
    """Renumber variables by first occurrence starting at x1 (language-preserving).

    Returns ``rp`` itself when it is already in normal form.
    """
    if rp.is_normal:
        return rp
    mapping = {var: i for i, var in enumerate(rp.variables, start=1)}
    symbols = tuple(mapping[s] if isinstance(s, int) else s for s in rp.symbols)
    constraints = frozenset(
        Constraint(kind, mapping[left], mapping[right]) for kind, left, right in rp.constraints
    )
    return RelationalPattern(rp.alphabet, symbols, constraints)


def print_relational_pattern(rp: RelationalPattern, mode: Optional[Mode] = None) -> str:
    """Canonical text form: sorted constraints, single spacing; parse round-trips."""
    parts = [f"alphabet:{''.join(rp.alphabet.letters)}"]
    tokens = [f"x{sym}" if isinstance(sym, int) else sym for sym in rp.symbols]
    parts.append(f"pattern: {' '.join(tokens)}")
    if rp.constraints:
        items = sorted(rp.constraints, key=lambda c: (c.kind.value, c.left, c.right))
        rendered = ", ".join(f"{kind.value}(x{left},x{right})" for kind, left, right in items)
        parts.append(f"rel: {rendered}")
    if mode is not None:
        parts.append(f"mode: {mode.value.upper()}")
    return "; ".join(parts)
