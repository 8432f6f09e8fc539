"""Polynomial-time equivalence of non-erasing relational pattern languages.

Two relational patterns over one shared relation kind that is an
equivalence relation with equality on single letters (eq, ab, composplus)
generate the same non-erasing language exactly when, after renumbering
variables by first occurrence, the patterns coincide and the
reflexive-symmetric-transitive closures of their constraint sets induce
the same partition of the variables.
"""

from __future__ import annotations

from .core import RelationalPattern, class_roots, renumber
from .relations import RelationKind, is_letter_antisymmetric_equivalence

VariablePartition = frozenset[frozenset[int]]


class EquivalencePreconditionError(ValueError):
    """Input outside the decider's supported class (relation kind or alphabet)."""


class MixedRelationKindsError(EquivalencePreconditionError):
    """Constraint set uses more than one relation kind."""


def _single_kind(rp: RelationalPattern) -> RelationKind | None:
    kinds = {c.kind for c in rp.constraints}
    if len(kinds) > 1:
        raise MixedRelationKindsError(f"mixed relation kinds: {sorted(k.value for k in kinds)}")
    return next(iter(kinds)) if kinds else None


def closure(rp: RelationalPattern) -> VariablePartition:
    """Partition of the variables under the reflexive-symmetric-transitive closure.

    Requires all constraints to share one relation kind; unconstrained
    variables form singleton blocks.
    """
    _single_kind(rp)
    roots = class_roots(rp.variables, ((left, right) for _, left, right in rp.constraints))
    blocks: dict[int, set[int]] = {}
    for v, root in roots.items():
        blocks.setdefault(root, set()).add(v)
    return frozenset(frozenset(block) for block in blocks.values())


def ne_equivalent(a: RelationalPattern, b: RelationalPattern) -> bool:
    """Decide equality of the two non-erasing relational pattern languages.

    Preconditions (violations raise EquivalencePreconditionError, never a
    silent answer): both patterns share one relation kind that is an
    equivalence relation with equality on letters, over one alphabet with
    at least two letters.
    """
    if a.alphabet != b.alphabet:
        raise EquivalencePreconditionError("patterns must share one alphabet")
    if len(a.alphabet) < 2:
        raise EquivalencePreconditionError("decider requires an alphabet of size >= 2")
    kinds = set()
    for rp in (a, b):
        kind = _single_kind(rp)
        if kind is not None:
            kinds.add(kind)
    if len(kinds) > 1:
        raise EquivalencePreconditionError(
            f"patterns use different relation kinds: {sorted(k.value for k in kinds)}"
        )
    if kinds:
        kind = next(iter(kinds))
        if not is_letter_antisymmetric_equivalence(kind):
            raise EquivalencePreconditionError(
                f"relation {kind.value!r} is outside the decidable class "
                "(needs an equivalence relation with equality on letters)"
            )
    na, nb = renumber(a), renumber(b)
    return na.symbols == nb.symbols and closure(na) == closure(nb)
