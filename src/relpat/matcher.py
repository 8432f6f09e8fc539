"""Exact membership decision and simultaneous multi-equation matching.

The solver is one depth-first search over per-variable segment assignments,
processing equations left to right.  Terminal symbols are consumed by exact
comparison; variable segments are tried shortest first (length 1 first in
NE mode, 0 first in E mode), so the first witness found is the one with the
least image lengths in variable order, and results are deterministic.
``_Solver.solutions`` yields every solution in that order: ``match`` takes
the first, ``count_witnesses`` up to a cap.

The search keeps its choice points (one per unbound variable item) on an
explicit stack rather than the Python call stack, so its depth is bounded
only by the node budget: patterns of thousands of symbols, such as the
SAT-reduction instances, do not hit the recursion limit.

Pruning (always on, never verdict-changing):
  * equal-length constraint classes share one forced length,
  * subsequence / star constraints restrict candidate lengths against
    already-bound partners; composplus constraints keep both images
    nonempty before either is bound,
  * the remaining suffix's length and letter floor -- its terminals plus
    what bound images and bound constraint partners force on its
    variables -- must fit in the rest of the target; it bounds each
    segment's end when its choice point opens, so no candidate past that
    end is ever tried.

Failed search states are memoized keyed on the bindings that can still
influence the remaining suffix, which makes the anchored blocks of the
SAT-reduction instances independent of each other.

Each search splits into pattern-level tables and per-target state.  The
tables (compiled items, constraint index, equal-length classes, suffix
floors, memo-relevant variables) depend only on the equations' patterns and
the constraints; ``_compile`` builds them once and keeps the last
``_COMPILE_CACHE_SIZE`` (16) in an LRU cache, so the many words asked of one
pattern share them.  They are immutable and linear in the pattern: each
suffix reads a prefix of one ordered tuple.  Targets, bindings, class
lengths, the node budget, the fail memo and the letter-needs cache (each
unbound variable's forced length and letters, dropped whenever one of its
constraint partners is bound, rebound or unbound) are built fresh for every
search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Iterator, Optional

from .core import (
    BudgetExceededError,
    Constraint,
    Mode,
    PatternSymbol,
    RelationalPattern,
    Substitution,
    class_roots,
)
from .relations import LengthProfile, RelationKind, length_profile, primitive_root, relation_holds

DEFAULT_NODE_BUDGET = 20_000_000


@lru_cache(maxsize=65536)
def _letter_counts(word: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for ch in word:
        counts[ch] = counts.get(ch, 0) + 1
    return counts


@lru_cache(maxsize=65536)
def _root_letter_counts(word: str) -> dict[str, int]:
    return _letter_counts(primitive_root(word))


# Compiled equation item kinds.
_TERM = 0
_VAR = 1

# Compiled problems kept by ``_compile``: enough for many words asked of a
# few patterns in turn, few enough that the cached tables stay small.
_COMPILE_CACHE_SIZE = 16


class _Tables:
    """The pattern-level tables of a match problem, shared by every search on it.

    They depend only on the equations' patterns and the constraints, never on
    the targets or the mode, and are never written after construction: every
    field is a tuple or a read-only mapping.  ``partners`` maps each variable
    to its constraint partners, itself excluded.  Tables indexed
    ``[ei][item]`` describe the suffix of equation ``ei`` from ``item`` on.
    """

    __slots__ = (
        "items", "cons_of", "partners", "class_root", "roots", "suffix_counts", "suffix_term_len",
        "suffix_plain_count", "need_vars", "need_count", "relevant", "relevant_count",
    )

    def __init__(self, patterns: tuple[tuple[PatternSymbol, ...], ...], constraints: frozenset[Constraint]):
        # Compile each equation into merged terminal runs and variable items.
        items = []
        for pattern in patterns:
            compiled: list[tuple[int, object]] = []
            run: list[str] = []
            for sym in pattern:
                if isinstance(sym, str):
                    run.append(sym)
                else:
                    if run:
                        compiled.append((_TERM, "".join(run)))
                        run = []
                    compiled.append((_VAR, sym))
            if run:
                compiled.append((_TERM, "".join(run)))
            items.append(tuple(compiled))
        self.items = tuple(items)

        all_vars = sorted({s for pattern in patterns for s in pattern if isinstance(s, int)})
        cons_of: dict[int, list[Constraint]] = {v: [] for v in all_vars}
        for con in constraints:
            cons_of[con.left].append(con)
            if con.right != con.left:
                cons_of[con.right].append(con)
        self.cons_of = MappingProxyType({v: tuple(cons) for v, cons in cons_of.items()})
        self.partners = MappingProxyType({
            v: tuple({u for con in cons for u in (con.left, con.right)} - {v})
            for v, cons in cons_of.items()
        })

        # Equal-length classes: the classes of the EQUAL_LENGTHS-profile constraints.
        class_root = class_roots(
            all_vars,
            ((left, right) for kind, left, right in constraints
             if length_profile(kind) is LengthProfile.EQUAL_LENGTHS),
        )
        class_members: dict[int, list[int]] = {}
        for v, root in class_root.items():
            class_members.setdefault(root, []).append(v)
        self.class_root = MappingProxyType(class_root)
        self.roots = tuple(class_members)

        # Suffix tables, built in one reverse pass over each equation
        # (equations last to first, since variables of later equations still
        # matter to the memo key):
        #   suffix_counts / suffix_term_len: terminal letter counts and length;
        #   need_vars / need_count: the variable items that can carry letter
        #   obligations (constrained or repeated), in reverse order, and how
        #   many of them lie in the suffix;
        #   suffix_plain_count: the number of the other variable items;
        #   relevant / relevant_count: every variable whose binding can still
        #   influence a suffix, in the order the pass meets them, and how many
        #   of them the suffix's memo key reads.
        # A suffix reads a prefix of each ordered tuple, so the tables are
        # linear in the pattern.
        occurrences = Counter(s for pattern in patterns for s in pattern if isinstance(s, int))
        interesting = {v for v in all_vars if cons_of[v] or occurrences[v] > 1}
        future: set[int] = set()
        relevant: list[int] = []
        seen: set[int] = set()
        tables = []
        for compiled in reversed(self.items):
            size = len(compiled)
            counts: list[MappingProxyType[str, int]] = [MappingProxyType({})] * (size + 1)
            term_lens = [0] * (size + 1)
            plain = [0] * (size + 1)
            need_vars: list[int] = []
            need_count = [0] * (size + 1)
            rel_count = [len(relevant)] * (size + 1)
            running: dict[str, int] = {}
            for j in reversed(range(size)):
                tag, payload = compiled[j]
                counts[j] = counts[j + 1]
                term_lens[j] = term_lens[j + 1]
                plain[j] = plain[j + 1]
                if tag == _TERM:
                    text: str = payload  # type: ignore[assignment]
                    term_lens[j] += len(text)
                    for ch in text:
                        running[ch] = running.get(ch, 0) + 1
                    counts[j] = MappingProxyType(dict(running))
                else:
                    var: int = payload  # type: ignore[assignment]
                    if var in interesting:
                        need_vars.append(var)
                    else:
                        plain[j] += 1
                    if var not in future:
                        future.add(var)
                        new = {var, *class_members[class_root[var]]}
                        for con in cons_of[var]:
                            new.update((con.left, con.right))
                        relevant.extend(sorted(new - seen))
                        seen |= new
                need_count[j] = len(need_vars)
                rel_count[j] = len(relevant)
            tables.append((counts, term_lens, plain, need_vars, need_count, rel_count))
        tables.reverse()
        (
            self.suffix_counts,
            self.suffix_term_len,
            self.suffix_plain_count,
            self.need_vars,
            self.need_count,
            self.relevant_count,
        ) = (tuple(map(tuple, column)) for column in zip(*tables))
        self.relevant = tuple(relevant)


_compile = lru_cache(maxsize=_COMPILE_CACHE_SIZE)(_Tables)


class _Solver:
    """One search over a problem's cached tables, with its own targets,
    bindings, forced class lengths, node budget and fail memo."""

    def __init__(
        self,
        patterns: tuple[tuple[PatternSymbol, ...], ...],
        targets: tuple[str, ...],
        constraints: frozenset[Constraint],
        mode: Mode,
        node_budget: int,
    ):
        self.problem = (patterns, targets, constraints, mode)
        self.tables = tables = _compile(patterns, constraints)
        self.mode_min = mode.min_len
        self.budget = node_budget
        self.bindings: dict[int, str] = {}
        self.class_len: dict[int, Optional[int]] = dict.fromkeys(tables.roots)
        self.targets = targets

        # The positions of each letter in each target, for the letter floor.
        self.positions: list[dict[str, list[int]]] = []
        for target in targets:
            positions: dict[str, list[int]] = {}
            for i, ch in enumerate(target):
                positions.setdefault(ch, []).append(i)
            self.positions.append(positions)

        self.fail_memo: set[tuple] = set()
        self.needs_cache: dict[int, tuple[int, dict[str, int]]] = {}

    # -- feasibility helpers ------------------------------------------------

    def _min_letter_needs(self, var: int) -> tuple[int, dict[str, int]]:
        """Letters any image of ``var`` must contain, from bound constraint partners.

        The result reads only the partners' bindings and the mode, so
        ``_max_end`` keeps it in ``needs_cache`` until ``_next_candidate``
        binds, rebinds or unbinds one of ``var``'s partners.
        """
        bindings, mode_min = self.bindings, self.mode_min
        needs: dict[str, int] = {}
        forced_len = nonempty = mode_min
        for kind, left, right in self.tables.cons_of[var]:
            if kind is RelationKind.COM_PLUS:
                # Both sides of a composplus pair are nonempty, bound or not.
                nonempty = 1
            other = right if left == var else left
            if other == var:
                continue
            # An empty or unbound partner image forces nothing more.
            other_img = bindings.get(other)
            if not other_img:
                continue
            if length_profile(kind) is LengthProfile.EQUAL_LENGTHS:
                forced_len = max(forced_len, len(other_img))
                if kind not in (RelationKind.EQ, RelationKind.REVERSAL, RelationKind.ABELIAN_EQ):
                    continue
                counts = _letter_counts(other_img)
            elif kind is RelationKind.COM_PLUS:
                counts = _root_letter_counts(other_img)
            elif kind is RelationKind.COM_STAR and mode_min:
                counts = _root_letter_counts(other_img)
            elif kind is RelationKind.SUBSEQ and right == var:
                counts = _letter_counts(other_img)
            elif kind is RelationKind.STAR and left == var and mode_min:
                counts = _letter_counts(other_img)
            elif kind is RelationKind.STAR and right == var:
                nonempty = 1
                counts = dict.fromkeys(other_img, 1)
            else:
                continue
            for ch, n in counts.items():
                if n > needs.get(ch, 0):
                    needs[ch] = n
        return max(forced_len, nonempty, sum(needs.values())), needs

    def _max_end(self, ei: int, item: int) -> int:
        """The largest end the segment of variable item ``item`` may have, or
        -1 when no end fits.

        The rest of the target must hold the suffix's length and letter floor:
        its terminals plus what bound images and bound constraint partners
        force on its variables.  A letter needed ``need`` times must occur at
        or after the segment's end, so the end is at most that letter's
        ``need``-th last position.
        """
        tables, rest = self.tables, item + 1  # the items after the segment
        bindings, cache = self.bindings, self.needs_cache
        total = tables.suffix_term_len[ei][rest] + self.mode_min * tables.suffix_plain_count[ei][rest]
        extra: dict[str, int] = {}
        for var in tables.need_vars[ei][: tables.need_count[ei][rest]]:
            image = bindings.get(var)
            if image is not None:
                total += len(image)
                for ch in image:
                    extra[ch] = extra.get(ch, 0) + 1
                continue
            entry = cache.get(var)
            if entry is None:
                entry = cache[var] = self._min_letter_needs(var)
            min_len, needs = entry
            total += min_len
            for ch, n in needs.items():
                extra[ch] = extra.get(ch, 0) + n
        counts = tables.suffix_counts[ei][rest]
        if extra:
            merged = counts.copy()
            for ch, n in extra.items():
                merged[ch] = merged.get(ch, 0) + n
            counts = merged
        end = len(self.targets[ei]) - total
        positions = self.positions[ei]
        for ch, need in counts.items():
            at = positions.get(ch, ())
            if len(at) < need:
                return -1
            end = min(end, at[-need])
        return end

    def _check_bound_constraints(self, var: int) -> bool:
        img = self.bindings[var]
        for kind, left, right in self.tables.cons_of[var]:
            li = img if left == var else self.bindings.get(left)
            ri = img if right == var else self.bindings.get(right)
            if li is None or ri is None:
                continue
            if not relation_holds(kind, li, ri):
                return False
        return True

    def _length_candidates(self, var: int, lo: int, hi: int) -> list[int]:
        """Candidate segment lengths for ``var`` within [lo, hi], ascending."""
        if hi < lo:
            return []
        root = self.tables.class_root[var]
        forced = self.class_len[root]
        if forced is not None:
            return [forced] if lo <= forced <= hi else []
        multiples_of: list[int] = []
        divisors_of: list[int] = []
        for kind, left, right in self.tables.cons_of[var]:
            if kind is RelationKind.COM_PLUS:
                # Both sides of a composplus pair are nonempty, bound or not.
                lo = max(lo, 1)
                continue
            other = right if left == var else left
            if other == var:
                continue
            other_img = self.bindings.get(other)
            if other_img is None:
                continue
            if kind is RelationKind.SUBSEQ:
                if left == var:
                    hi = min(hi, len(other_img))
                else:
                    lo = max(lo, len(other_img))
            elif kind is RelationKind.STAR:
                if left == var:
                    # var's image must lie in {other}^*.
                    if not other_img:
                        hi = min(hi, 0)
                    else:
                        multiples_of.append(len(other_img))
                else:
                    # other's image must lie in {var}^*.
                    if other_img:
                        lo = max(lo, 1)
                        divisors_of.append(len(other_img))
        if hi < lo:
            return []
        if multiples_of or divisors_of:
            out = []
            for ell in range(lo, hi + 1):
                if any(ell % m for m in multiples_of):
                    continue
                if divisors_of and (ell == 0 or any(d % ell for d in divisors_of)):
                    continue
                out.append(ell)
            return out
        return list(range(lo, hi + 1))

    # -- search -------------------------------------------------------------

    def solutions(self) -> Iterator[Substitution]:
        """Yield every solution in depth-first order: equations and items left
        to right, segment lengths ascending.

        Terminals and bound variables are consumed without branching; each
        unbound variable opens a choice point on an explicit stack, so search
        depth is limited by the node budget, not by the recursion limit.  A
        choice point whose subtree yielded nothing goes into the fail memo.
        """
        tables, targets, bindings = self.tables, self.targets, self.bindings
        items, relevant, relevant_count = tables.items, tables.relevant, tables.relevant_count
        stack: list[_ChoicePoint] = []
        ei = item = t = 0
        while True:
            # Advance to the next choice point, a solution or a dead end.
            while ei < len(items):
                compiled, target = items[ei], targets[ei]
                if item == len(compiled):
                    if t != len(target):
                        break
                    ei, item, t = ei + 1, 0, 0
                    continue
                tag, payload = compiled[item]
                if tag == _TERM:
                    text: str = payload  # type: ignore[assignment]
                elif payload in bindings:
                    text = bindings[payload]  # type: ignore[index]
                else:
                    var: int = payload  # type: ignore[assignment]
                    key = (
                        ei,
                        item,
                        t,
                        tuple((v, bindings[v]) for v in relevant[: relevant_count[ei][item]] if v in bindings),
                    )
                    if key in self.fail_memo:
                        break
                    candidates = self._length_candidates(var, self.mode_min, self._max_end(ei, item) - t)
                    if not candidates:
                        self.fail_memo.add(key)
                        break
                    root = tables.class_root[var]
                    stack.append(_ChoicePoint(
                        key, ei, item, t, var, root, self.class_len[root] is None,
                        tables.partners[var], iter(candidates),
                    ))
                    break
                if not target.startswith(text, t):
                    break
                item += 1
                t += len(text)
            else:
                if stack:
                    stack[-1].found = True
                yield dict(bindings)

            # Backtrack to the innermost choice point with a candidate left.
            while stack:
                cp = stack[-1]
                end = self._next_candidate(cp)
                if end is not None:
                    ei, item, t = cp.ei, cp.item + 1, end
                    break
                stack.pop()
                if not cp.found:
                    self.fail_memo.add(cp.key)
                elif stack:
                    stack[-1].found = True
            else:
                return

    def _next_candidate(self, cp: _ChoicePoint) -> Optional[int]:
        """Bind the choice point's variable to its next admissible segment and
        return the segment end; unbind it and return None once exhausted.

        The previous candidate's binding is left in place until the next one
        overwrites it: the length and letter floors cut the candidates when
        the choice point opened, so nothing reads it in between.  Every write
        drops the partners' cached letter needs, which read this binding.
        """
        target, cache = self.targets[cp.ei], self.needs_cache
        t, var, partners = cp.t, cp.var, cp.partners
        for ell in cp.candidates:
            self.budget -= 1
            if self.budget < 0:
                raise BudgetExceededError("matcher node budget exhausted")
            end = t + ell
            self.bindings[var] = target[t:end]
            for other in partners:
                cache.pop(other, None)
            if cp.sets_class_len:
                self.class_len[cp.root] = ell
            if self._check_bound_constraints(var):
                return end
        self.bindings.pop(var, None)
        for other in partners:
            cache.pop(other, None)
        if cp.sets_class_len:
            self.class_len[cp.root] = None
        return None

    def solve(self) -> Optional[Substitution]:
        """The first solution, re-validated against the problem, or None."""
        witness = next(self.solutions(), None)
        if witness is not None:
            _assert_solution(*self.problem, witness)
        return witness

    def count(self, cap: int) -> int:
        return sum(1 for _ in islice(self.solutions(), cap))


@dataclass(slots=True)
class _ChoicePoint:
    """One unbound variable item on the search stack."""

    key: tuple
    ei: int
    item: int
    t: int
    var: int
    root: int
    sets_class_len: bool  # the variable's length class was unset when opened
    partners: tuple[int, ...]  # whose cached letter needs each write drops
    candidates: Iterator[int]
    found: bool = False  # some solution was yielded below this point


def solve_system(
    equations: Iterable[tuple[Iterable[PatternSymbol], str]],
    constraints: Iterable[Constraint],
    mode: Mode,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[Substitution]:
    """Find one assignment satisfying all ``(pattern, target)`` equations and
    the constraints, or None.

    Complete: returns None only when no solution exists (within the node
    budget; exceeding it raises BudgetExceededError instead of guessing).
    Raises ValueError for an empty system or a constrained variable that
    occurs in no equation.
    """
    equations = [(tuple(pattern), target) for pattern, target in equations]
    if not equations:
        raise ValueError("a system needs at least one equation")
    constraints = frozenset(constraints)
    occurring = {s for pattern, _ in equations for s in pattern if isinstance(s, int)}
    dangling = {var for con in constraints for var in (con.left, con.right)} - occurring
    if dangling:
        raise ValueError(f"constrained variable x{min(dangling)} occurs in no equation")
    patterns, targets = zip(*equations)
    return _Solver(patterns, targets, constraints, mode, node_budget).solve()


def _assert_solution(
    patterns: tuple[tuple[PatternSymbol, ...], ...],
    targets: tuple[str, ...],
    constraints: frozenset[Constraint],
    mode: Mode,
    witness: Substitution,
) -> None:
    # Explicit raises, not ``assert``: the check must survive ``python -O``.
    for pattern, target in zip(patterns, targets):
        image = "".join(witness[s] if isinstance(s, int) else s for s in pattern)
        if image != target:
            raise AssertionError(f"solver produced a non-solution: {image!r} != {target!r}")
    for kind, left, right in constraints:
        if not relation_holds(kind, witness[left], witness[right]):
            raise AssertionError(f"solver witness violates {kind.value}(x{left},x{right})")
    if mode is Mode.NE and not all(witness.values()):
        raise AssertionError("solver witness erases a variable in NE mode")


def match(
    word: str,
    rp: RelationalPattern,
    mode: Mode,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[Substitution]:
    """Decide word membership; returns a valid witness substitution or None.

    A pattern without variables needs no special case: its search consumes
    terminals and never branches."""
    rp.alphabet.validate_word(word)
    return _Solver((rp.symbols,), (word,), rp.constraints, mode, node_budget).solve()


def count_witnesses(
    word: str,
    rp: RelationalPattern,
    mode: Mode,
    cap: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Number of distinct valid witnesses for the word, truncated at cap."""
    if cap < 1:
        raise ValueError("cap must be positive")
    rp.alphabet.validate_word(word)
    return _Solver((rp.symbols,), (word,), rp.constraints, mode, node_budget).count(cap)
