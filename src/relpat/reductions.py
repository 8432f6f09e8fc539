"""Generators reducing 3-SAT to relational-pattern membership.

Every generator emits a word over {1, #} together with a relational
pattern and a mode such that the word belongs to the pattern's language
exactly when the input formula is satisfiable.  Repeated occurrences of a
classical pattern variable become fresh variables related to the first
occurrence; for the subsequence and star relations the constraint is
emitted in both directions, which forces equal images.

A brute-force satisfiability oracle is included so reduction soundness can
be machine-checked at small scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .core import Alphabet, Constraint, Mode, PatternSymbol, RelationalPattern
from .relations import RelationKind

REDUCTION_ALPHABET = Alphabet.of("1#")

_EQUALITY_LIKE = (
    RelationKind.EQ,
    RelationKind.LEN_EQ,
    RelationKind.SUBSEQ,
    RelationKind.ABELIAN_EQ,
    RelationKind.ALPHA_PERM,
    RelationKind.REVERSAL,
    RelationKind.STAR,
)
_COMMUTE_KINDS = (RelationKind.COM_STAR, RelationKind.COM_PLUS)


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF instance: clauses are 3-tuples of non-zero literals in +/-[1..num_vars]."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause} must have exactly 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range for {self.num_vars} variables")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


class ReductionVariant(Enum):
    ANGLUIN_NE = "angluin-ne"
    JIANG_E = "jiang-e"
    COMMUTE_NE = "commute-ne"
    COM_PLUS_E = "complus-e"
    COM_STAR_E = "comstar-e"
    ONE_SIDED_STAR_E = "onesided-star-e"
    ONE_SIDED_SUBSEQ_E = "onesided-ssq-e"
    ONE_SIDED_STAR_NE = "onesided-star-ne"
    ONE_SIDED_SUBSEQ_NE = "onesided-ssq-ne"


@dataclass(frozen=True)
class ReductionInstance:
    """Membership instance equipotent with the source formula's satisfiability."""

    word: str
    rp: RelationalPattern
    mode: Mode


class _Builder:
    """Accumulates symbols/constraints; fresh variables come out pre-normalized."""

    def __init__(self) -> None:
        self.symbols: list[PatternSymbol] = []
        self.constraints: list[Constraint] = []
        self._next = 1

    def fresh(self) -> int:
        var = self._next
        self._next += 1
        self.symbols.append(var)
        return var

    def text(self, s: str) -> None:
        self.symbols.extend(s)

    def occurrence(self, kind: RelationKind, base: int, both_directions: bool) -> int:
        occ = self.fresh()
        self.constraints.append(Constraint(kind, base, occ))
        if both_directions:
            self.constraints.append(Constraint(kind, occ, base))
        return occ

    def one_sided_occurrence(self, kind: RelationKind, base: int) -> int:
        # (occ, base): the occurrence's image is confined by the base image
        # (occ in {base}^* for star, occ a subsequence of base for ssq).
        occ = self.fresh()
        self.constraints.append(Constraint(kind, occ, base))
        return occ

    def pattern(self) -> RelationalPattern:
        return RelationalPattern(REDUCTION_ALPHABET, tuple(self.symbols), frozenset(self.constraints))


def _literal_bases(
    builder: _Builder, phi: CnfFormula, block_sep: str
) -> tuple[dict[int, int], dict[int, int]]:
    """Emit the per-variable choice blocks; returns base ids for u (negated) and v (plain)."""
    u_base: dict[int, int] = {}
    v_base: dict[int, int] = {}
    for i in range(1, phi.num_vars + 1):
        u_base[i] = builder.fresh()
        v_base[i] = builder.fresh()
        builder.text(block_sep)
    return u_base, v_base


def _base_for(literal: int, u_base: dict[int, int], v_base: dict[int, int]) -> int:
    return v_base[literal] if literal > 0 else u_base[-literal]


def _check_commute_clauses(phi: CnfFormula) -> None:
    # Complementary literals may co-occur, but a literal may not repeat.
    for clause in phi.clauses:
        if len(set(clause)) != 3:
            raise ValueError(
                f"clause {clause} repeats a literal; commutation variants require "
                "pairwise distinct literals per clause"
            )


def _angluin_style(phi: CnfFormula, kind: RelationKind, mode: Mode) -> ReductionInstance:
    # Block sizes: variable blocks, clause blocks, slack blocks.
    if mode is Mode.NE:
        s_len, t_len, w_len = 3, 7, 4
    else:
        # The erasing variant needs clause blocks one longer than the slack
        # blocks: each block 1^t is reachable iff at least one literal image
        # is non-empty, given slack z d with |z| <= w.
        s_len, t_len, w_len = 1, 3, 2
    m, n = phi.num_vars, phi.num_clauses
    blocks = ["1" * s_len] * m + ["1" * t_len] * n + ["1" * w_len] * n
    word = "#" + "#".join(blocks) + "#"

    both = kind in (RelationKind.SUBSEQ, RelationKind.STAR)
    b = _Builder()
    b.text("#")
    u_base, v_base = _literal_bases(b, phi, "#")
    z_base: list[int] = []
    for clause in phi.clauses:
        for lit in clause:
            b.occurrence(kind, _base_for(lit, u_base, v_base), both)
        z_base.append(b.fresh())
        b.text("#")
    for j in range(n):
        b.occurrence(kind, z_base[j], both)
        b.fresh()  # free slack variable
        b.text("#")
    return ReductionInstance(word, b.pattern(), mode)


def _commute_style(phi: CnfFormula, kind: RelationKind, mode: Mode, star_clause: bool) -> ReductionInstance:
    _check_commute_clauses(phi)
    m, n = phi.num_vars, phi.num_clauses
    clause_word = "1" if star_clause else "1" * 10 + "#" + "1" * 10 + "#" + "1" * 10
    blocks = ["1#1"] * m + [clause_word] * n
    word = "##" + "##".join(blocks) + "##"

    b = _Builder()
    b.text("##")
    u_base, v_base = _literal_bases(b, phi, "##")
    for clause in phi.clauses:
        if star_clause:
            for lit in clause:
                b.occurrence(kind, _base_for(lit, u_base, v_base), False)
        else:
            for lit in clause:
                b.fresh()  # interleaving slack variable
                b.occurrence(kind, _base_for(lit, u_base, v_base), False)
            b.fresh()
        b.text("##")
    return ReductionInstance(word, b.pattern(), mode)


def _one_sided(phi: CnfFormula, kind: RelationKind, mode: Mode) -> ReductionInstance:
    m, n = phi.num_vars, phi.num_clauses
    if mode is Mode.E:
        var_block, clause_block, with_slack = "1", "1", False
    elif kind is RelationKind.STAR:
        var_block, clause_block, with_slack = "111", "1" * 6, True
    else:
        var_block, clause_block, with_slack = "111", "1" * 4, False
    word = "##" + "#".join([var_block] * m) + "##" + "#".join([clause_block] * n) + "##"

    b = _Builder()
    b.text("##")
    u_base: dict[int, int] = {}
    v_base: dict[int, int] = {}
    for i in range(1, m + 1):
        u_base[i] = b.fresh()
        v_base[i] = b.fresh()
        b.text("#" if i < m else "##")
    for j, clause in enumerate(phi.clauses, start=1):
        for lit in clause:
            b.one_sided_occurrence(kind, _base_for(lit, u_base, v_base))
        if with_slack:
            b.fresh()
        b.text("#" if j < n else "##")
    if n == 0:
        b.text("##")
    return ReductionInstance(word, b.pattern(), mode)


def generate(
    variant: ReductionVariant,
    phi: CnfFormula,
    kind: Optional[RelationKind] = None,
) -> ReductionInstance:
    """Emit the membership instance of the chosen construction for ``phi``."""
    if variant is ReductionVariant.ANGLUIN_NE or variant is ReductionVariant.JIANG_E:
        if kind not in _EQUALITY_LIKE:
            raise ValueError(
                f"{variant.value} needs kind in "
                f"{[k.value for k in _EQUALITY_LIKE]}, got {kind and kind.value!r}"
            )
        mode = Mode.NE if variant is ReductionVariant.ANGLUIN_NE else Mode.E
        return _angluin_style(phi, kind, mode)
    if variant is ReductionVariant.COMMUTE_NE:
        if kind not in _COMMUTE_KINDS:
            raise ValueError(f"{variant.value} needs kind comstar or composplus")
        return _commute_style(phi, kind, Mode.NE, star_clause=False)
    if variant is ReductionVariant.COM_PLUS_E:
        if kind not in (None, RelationKind.COM_PLUS):
            raise ValueError(f"{variant.value} fixes kind composplus")
        return _commute_style(phi, RelationKind.COM_PLUS, Mode.E, star_clause=False)
    if variant is ReductionVariant.COM_STAR_E:
        if kind not in (None, RelationKind.COM_STAR):
            raise ValueError(f"{variant.value} fixes kind comstar")
        return _commute_style(phi, RelationKind.COM_STAR, Mode.E, star_clause=True)
    if variant in (ReductionVariant.ONE_SIDED_STAR_E, ReductionVariant.ONE_SIDED_STAR_NE):
        if kind not in (None, RelationKind.STAR):
            raise ValueError(f"{variant.value} fixes kind star")
        mode = Mode.E if variant is ReductionVariant.ONE_SIDED_STAR_E else Mode.NE
        return _one_sided(phi, RelationKind.STAR, mode)
    if variant in (ReductionVariant.ONE_SIDED_SUBSEQ_E, ReductionVariant.ONE_SIDED_SUBSEQ_NE):
        if kind not in (None, RelationKind.SUBSEQ):
            raise ValueError(f"{variant.value} fixes kind ssq")
        mode = Mode.E if variant is ReductionVariant.ONE_SIDED_SUBSEQ_E else Mode.NE
        return _one_sided(phi, RelationKind.SUBSEQ, mode)
    raise ValueError(f"unknown variant {variant!r}")


def sat_brute_force(phi: CnfFormula, *, max_vars: int = 24) -> bool:
    """Truth-table satisfiability; guarded to num_vars <= max_vars."""
    if phi.num_vars > max_vars:
        raise ValueError(f"brute force limited to {max_vars} variables")
    for assignment in itertools.product((False, True), repeat=phi.num_vars):
        if all(
            any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)
            for clause in phi.clauses
        ):
            return True
    return False


def verify_reduction(
    variant: ReductionVariant,
    phi: CnfFormula,
    kind: Optional[RelationKind] = None,
) -> bool:
    """True iff the matcher verdict on the generated instance equals brute-force SAT."""
    from . import matcher

    inst = generate(variant, phi, kind)
    member = matcher.match(inst.word, inst.rp, inst.mode) is not None
    return member == sat_brute_force(phi)


def read_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF; clauses are validated/padded to exactly 3 literals."""
    num_vars: Optional[int] = None
    clauses: list[tuple[int, int, int]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            num_vars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                if not pending:
                    continue
                if len(pending) > 3:
                    raise ValueError(f"clause {pending} has more than 3 literals")
                while len(pending) < 3:
                    pending.append(pending[-1])
                clauses.append((pending[0], pending[1], pending[2]))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise ValueError("unterminated clause (missing trailing 0)")
    if num_vars is None:
        raise ValueError("missing 'p cnf' header")
    return CnfFormula(num_vars, tuple(clauses))


def write_dimacs(phi: CnfFormula) -> str:
    lines = [f"p cnf {phi.num_vars} {phi.num_clauses}"]
    for clause in phi.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
