"""Outside-in tracing of relpat's layers, and exact work counts by bisection.

The tracer replaces module attributes with timing wrappers, so nothing in
relpat changes.  A function is wrapped at the attribute through which the
calls to be measured reach it: ``inclusion.solve_system`` rather than
``matcher.solve_system``, because inclusion calls it through its own
imported name.  Each wrapper adds its call's duration to its layer and to
the enclosing traced call, so a layer's self time is its duration minus
the time of the traced calls it made.  Hot layers are kept in aggregate;
the others also leave one span per call.
"""

from __future__ import annotations

import time
from typing import Callable

# (module, attribute, layer name, aggregate only)
WRAPPED = (
    ("core", "parse_document", "core.parse_document", False),
    ("matcher", "match", "matcher.match", False),
    ("inclusion", "solve_system", "matcher.solve_system", False),
    ("matcher", "relation_holds", "relations.relation_holds", True),
    ("semantics", "enumerate_language", "semantics.enumerate_language", False),
    ("reductions", "generate", "reductions.generate", False),
    ("reductions", "sat_brute_force", "reductions.sat_brute_force", False),
    ("inclusion", "build_predicates", "inclusion.build_predicates", False),
    ("inclusion", "predicate_satisfied", "inclusion.predicate_satisfied", False),
    ("machines", "ca_find_accepting_run", "machines.ca_find_accepting_run", False),
    ("machines", "ca_encode", "machines.ca_encode", False),
    ("machines", "ca_validate", "machines.ca_validate", False),
    ("equivalence", "ne_equivalent", "equivalence.ne_equivalent", False),
    ("equivalence", "closure", "equivalence.closure", False),
)

LAYERS = tuple(name for _, _, name, _ in WRAPPED)


class Tracer:
    """Per-layer call counts, total and self seconds, plus spans of the non-hot layers.

    A span is (query, span id, parent span id or 0, layer, start, end) with
    times in seconds from the tracer's creation; ``query`` is the index of
    the query in its round, or -1 during set-up."""

    def __init__(self, lib) -> None:
        self.lib = lib
        self.origin = time.perf_counter()
        self.stats = {name: [0, 0.0, 0.0] for name in LAYERS}
        self.spans: list[tuple] = []
        self.query = -1
        self._children: list[float] = []  # traced time inside each open call
        self._open: list[int] = []  # span ids of the open non-hot calls
        self._originals: dict[tuple[str, str], Callable] = {}

    def install(self) -> None:
        for module, attr, name, aggregate in WRAPPED:
            target = getattr(self.lib, module)
            original = getattr(target, attr)
            self._originals[(module, attr)] = original
            setattr(target, attr, self._wrap(original, name, aggregate))

    def uninstall(self) -> None:
        for (module, attr), original in self._originals.items():
            setattr(getattr(self.lib, module), attr, original)
        self._originals.clear()

    def reset(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name in LAYERS}

    def _wrap(self, fn: Callable, name: str, aggregate: bool) -> Callable:
        children = self._children
        open_spans = self._open
        clock = time.perf_counter

        def hot(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stat = self.stats[name]
                stat[0] += 1
                stat[1] += took
                stat[2] += took - children.pop()
                if children:
                    children[-1] += took

        def spanned(*args, **kwargs):
            span = len(self.spans) + 1
            parent = open_spans[-1] if open_spans else 0
            self.spans.append(None)  # reserve the id; filled in on return
            open_spans.append(span)
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                took = end - start
                stat = self.stats[name]
                stat[0] += 1
                stat[1] += took
                stat[2] += took - children.pop()
                if children:
                    children[-1] += took
                open_spans.pop()
                self.spans[span - 1] = (
                    self.query, span, parent, name, start - self.origin, end - self.origin
                )

        return hot if aggregate else spanned


def smallest_budget(call: Callable[[int], object], budget_error: type) -> int:
    """The smallest node budget at which ``call(budget)`` returns instead of
    raising ``budget_error``: the exact number of nodes the call needs."""

    def returns(budget: int) -> bool:
        try:
            call(budget)
        except budget_error:
            return False
        return True

    if returns(0):
        return 0
    low, high = 0, 1  # call(low) raises; call(high) is unknown until tested
    while not returns(high):
        low, high = high, high * 2
    while high - low > 1:
        middle = (low + high) // 2
        if returns(middle):
            high = middle
        else:
            low = middle
    return high


def probe_seconds(call: Callable[[int], object], budget_error: type) -> float:
    """Time of ``call(0)``: the work done before the first candidate is tried."""
    start = time.perf_counter()
    try:
        call(0)
    except budget_error:
        pass
    return time.perf_counter() - start
