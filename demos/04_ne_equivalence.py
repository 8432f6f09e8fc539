#!/usr/bin/env python3
# Polynomial-time equivalence of non-erasing languages for eq / ab / composplus.

import time

from relpat import (
    Constraint,
    Mode,
    RelationKind,
    RelationalPattern,
    bounded_equal,
    closure,
    ne_equivalent,
    parse_relational_pattern,
)
from relpat.core import Alphabet, renumber

a = parse_relational_pattern("alphabet:ab; pattern: x1 a x2 x3; rel: ab(x1,x2), ab(x2,x3)")
b = parse_relational_pattern("alphabet:ab; pattern: x1 a x2 x3; rel: ab(x3,x1)")

# The decider compares the patterns and the transitive-symmetric closures of
# their constraint sets, viewed as variable partitions.
print("closure(a):", sorted(sorted(block) for block in closure(a)))
print("closure(b):", sorted(sorted(block) for block in closure(b)))
print("equivalent:", ne_equivalent(a, b))
print("bounded oracle agrees:", bounded_equal(a, b, Mode.NE, 8) == ne_equivalent(a, b))

# Variable names do not matter: normalization renumbers by first occurrence.
scrambled = RelationalPattern(
    Alphabet.of("ab"), (7, "a", 2, 5), frozenset({Constraint(RelationKind.ABELIAN_EQ, 7, 5)})
)
print()
print("normalized symbols:", renumber(scrambled).symbols)

# The decision rule is two linear passes, so very long patterns stay fast.
def chain(n: int) -> RelationalPattern:
    symbols: list = []
    constraints = set()
    for var in range(1, n + 1):
        symbols.append(var)
        symbols.append("a")
        if var > 1:
            constraints.add(Constraint(RelationKind.ABELIAN_EQ, var - 1, var))
    return RelationalPattern(Alphabet.of("ab"), tuple(symbols), frozenset(constraints))

print()
for n in (1_000, 10_000, 100_000):
    big = chain(n)
    start = time.perf_counter()
    ne_equivalent(big, big)
    print(f"pattern with {n} variables decided in {time.perf_counter() - start:.4f}s")
