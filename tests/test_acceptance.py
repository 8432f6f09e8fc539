"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 2-7 run the ``relpat.selfcheck`` suites at full size with fixed
seeds and add their time budgets.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines as
they complete.
"""

import json
import random
import time

from relpat import cli, selfcheck
from relpat.core import Alphabet, Constraint, Mode, RelationalPattern
from relpat.equivalence import ne_equivalent
from relpat.matcher import match
from relpat.relations import RelationKind as K

from helpers import AB, make_rp


def _verdict(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} cases)"
    print(f"ACCEPTANCE {number} {name}: {status}")
    assert not failures, failures[:5]


def test_criterion_1_running_examples():
    started = time.perf_counter()
    failures = []
    intro = make_rp((1, "a", "a", 3, "b", 2), {Constraint(K.EQ, 1, 3)})
    if match("bbaabbba", intro, Mode.NE) is None:
        failures.append("bbaabbba not in the non-erasing language")
    if match("aab", intro, Mode.E) is None:
        failures.append("aab not in the erasing language")
    if match("aab", intro, Mode.NE) is not None:
        failures.append("aab wrongly in the non-erasing language")
    rev = make_rp(
        (1, "c", "c", 2), {Constraint(K.REVERSAL, 1, 2)}, alphabet=Alphabet.of("abc")
    )
    if match("abccba", rev, Mode.NE) is None:
        failures.append("abccba not in the reversal language")
    if match("abccab", rev, Mode.NE) is not None:
        failures.append("abccab wrongly in the reversal language")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s (budget 1s)")
    _verdict(1, "running examples", failures)


def test_criterion_2_matcher_oracle_agreement():
    started = time.perf_counter()
    _, failures = selfcheck.matcher_oracle(random.Random(20240), patterns=1000, max_len=8)
    elapsed = time.perf_counter() - started
    if elapsed >= 300:
        failures.append(f"took {elapsed:.0f}s (budget 300s)")
    _verdict(2, "matcher-oracle agreement (1000 patterns)", failures)


def test_criterion_3_relation_law_suites():
    _, failures = selfcheck.relation_laws(max_len=6, order_len=4)
    _verdict(3, "relation law suites", failures)


def test_criterion_4_reduction_soundness():
    started = time.perf_counter()
    _, failures = selfcheck.reduction_soundness(
        random.Random(77), max_clauses=2, random_per_combo=50
    )
    elapsed = time.perf_counter() - started
    if elapsed >= 600:
        failures.append(f"took {elapsed:.0f}s (budget 600s)")
    _verdict(4, "reduction soundness (all variants)", failures)


def test_criterion_5_equivalence_decider(monkeypatch):
    decider_time = 0.0

    def timed_decider(a, b):
        nonlocal decider_time
        begin = time.perf_counter()
        verdict = ne_equivalent(a, b)
        decider_time += time.perf_counter() - begin
        return verdict

    monkeypatch.setattr(selfcheck, "ne_equivalent", timed_decider)
    pairs, failures = selfcheck.equivalence_decider(random.Random(314), pairs=500)
    if decider_time / pairs >= 0.001:
        failures.append(f"decider averaged {1000 * decider_time / pairs:.3f}ms per pair")

    def build(n: int) -> RelationalPattern:
        symbols = []
        constraints = set()
        var = 1
        prev = None
        for i in range(n):
            if i % 2 == 0:
                symbols.append(var)
                if prev is not None and var % 3 == 0:
                    constraints.add(Constraint(K.ABELIAN_EQ, prev, var))
                prev = var
                var += 1
            else:
                symbols.append("ab"[i % 4 == 1])
        return RelationalPattern(AB, tuple(symbols), frozenset(constraints))

    timings = {}
    for n in (10**3, 10**4, 10**5):
        a, b = build(n), build(n)
        best = min(
            _timed(lambda: ne_equivalent(a, b)) for _ in range(3)
        )
        timings[n] = best
    ratio = timings[10**5] / timings[10**3]
    if ratio >= 1000:  # linear predicts 100; allow a factor-10 slack
        failures.append(f"scaling ratio {ratio:.0f} over two decades")
    _verdict(5, "polynomial equivalence decider", failures)


def _timed(thunk) -> float:
    begin = time.perf_counter()
    thunk()
    return time.perf_counter() - begin


def test_criterion_6_machines():
    _, failures = selfcheck.machine_encoders(
        random.Random(99), utm_samples=1000, left_codes=48, right_codes=12, round_trips=300
    )
    _verdict(6, "machine encoders and validators", failures)


def test_criterion_7_inclusion_constructions():
    started = time.perf_counter()
    _, failures = selfcheck.inclusion_constructions(
        random.Random(55),
        samples=200,
        automata=("increment-then-accept", "two-counters"),
        mutations=25,
    )
    elapsed = time.perf_counter() - started
    if elapsed >= 900:
        failures.append(f"took {elapsed:.0f}s (budget 900s)")
    _verdict(7, "inclusion-construction invariants", failures)


def test_criterion_8_report_determinism(tmp_path):
    failures = []
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli.main(["report", "--seed", "7", "--out", str(first)]) == 0
    assert cli.main(["report", "--seed", "7", "--out", str(second)]) == 0
    if first.read_bytes() != second.read_bytes():
        failures.append("reports differ byte-wise")
    payload = json.loads(first.read_text(encoding="utf-8"))
    if any(entry["failed"] for entry in payload):
        failures.append("report suites contain failures")
    _verdict(8, "deterministic report", failures)
