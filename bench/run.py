"""relpat benchmark: four fixed, seeded query sets timed against relpat's public API.

    python3 bench/run.py --workload membership --seed 1 --seconds 20 --trace 0

A run repeats one round -- the workload's fixed query set -- until
``--seconds`` have passed, timing every query.  The answers of the first
round are checked against computations made apart from relpat (bench/oracle.py),
and every later round must repeat them.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs, each in its own
process.  relpat is imported from the ``src`` directory next to this one.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = (
    "core", "relations", "matcher", "semantics",
    "equivalence", "reductions", "machines", "inclusion",
)
SETUPS = 3  # set-ups per run; setup_s is their median


def load_relpat() -> SimpleNamespace:
    """A fresh import of relpat, so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "relpat" or m.startswith("relpat.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("relpat")
    return SimpleNamespace(**{m: importlib.import_module(f"relpat.{m}") for m in MODULES})


def one_round(queries, tracer=None) -> tuple[list, list[float], float, int]:
    """Answers, per-query seconds, wall seconds and failures of one pass."""
    answers = []
    latencies = []
    failed = 0
    clock = time.perf_counter
    began = clock()
    for index, query in enumerate(queries):
        if tracer is not None:
            tracer.query = index
        start = clock()
        try:
            answer = query.run()
        except Exception as exc:  # any raise is a failed query, counted and reported
            answer = oracle.FAILED
            failed += 1
            if failed == 1:
                print(f"query {index} failed: {exc!r}", file=sys.stderr)
        latencies.append(clock() - start)
        answers.append(answer)
    return answers, latencies, clock() - began, failed


class Rounds:
    """Whole rounds of one query set, and the answers of the first."""

    def __init__(self, queries):
        self.queries = queries
        self.first = None
        self.latencies: list[float] = []
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unstable = 0  # answers differing from the first round's

    def run(self, tracer=None) -> None:
        answers, latencies, wall, failed = one_round(self.queries, tracer)
        self.latencies += latencies
        self.walls.append(wall)
        self.attempted += len(answers)
        self.failed += failed
        if self.first is None:
            self.first = answers
        else:
            self.unstable += sum(a != b for a, b in zip(answers, self.first))


def _quantile(values: list[float], decile: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[decile - 1]


def check(prepared, rounds: Rounds) -> list[str]:
    errors = prepared.check(rounds.first)
    if rounds.unstable:
        errors.append(f"{rounds.unstable} answers changed between rounds")
    return errors


def end_to_end(name: str, seed: int, seconds: float, full: bool = True) -> dict:
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        lib = load_relpat()
        prepared = WORKLOADS[name](lib, seed, full)
        setups.append(time.perf_counter() - start)
    rounds = Rounds(prepared.queries)
    began = time.perf_counter()
    while not rounds.walls or time.perf_counter() - began < seconds:
        rounds.run()
    errors = check(prepared, rounds)
    metrics = {
        "queries_per_s": (rounds.attempted / sum(rounds.walls), "1/s"),
        "query_p50_ms": (1000 * _quantile(rounds.latencies, 5), "ms"),
        "query_p90_ms": (1000 * _quantile(rounds.latencies, 9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = {"queries_per_round": len(prepared.queries), "round_walls": rounds.walls}
    return _result(rounds.attempted, rounds.failed, errors, metrics, info)


def traced(name: str, seed: int, seconds: float, full: bool = True) -> dict:
    """Per-layer figures for one set-up plus one round; see bench/README.md."""
    lib = load_relpat()
    tracer = tracing.Tracer(lib)
    tracer.install()
    prepared = WORKLOADS[name](lib, seed, full)
    tracer.uninstall()
    setup_stats = tracer.stats
    tracer.reset()

    # Untraced and traced rounds alternate, so both see the same warm state.
    plain, spanned = Rounds(prepared.queries), Rounds(prepared.queries)
    began = time.perf_counter()
    while not spanned.walls or time.perf_counter() - began < seconds:
        plain.run()
        tracer.install()
        spanned.run(tracer)
        tracer.uninstall()
    errors = check(prepared, plain)
    if spanned.unstable or spanned.first != plain.first:
        errors.append("traced rounds answered differently")

    budget_error = lib.core.BudgetExceededError
    counts = {"matcher.nodes": 0, "semantics.enum_candidates": 0}
    probe = 0.0
    for query, answer in zip(prepared.queries, plain.first):
        if query.counter == "matcher.nodes" and answer is not oracle.FAILED:
            probe += tracing.probe_seconds(lambda b: query.budgeted(answer, b), budget_error)
    counted = 0
    for query, answer in zip(prepared.queries, plain.first):
        if query.budgeted and query.counted and answer is not oracle.FAILED:
            counted += 1
            counts[query.counter] += tracing.smallest_budget(
                lambda b: query.budgeted(answer, b), budget_error
            )

    rounds = len(spanned.walls)
    metrics = {}
    for layer in tracing.LAYERS:
        s_calls, s_total, s_self = setup_stats[layer]
        r_calls, r_total, r_self = tracer.stats[layer]
        metrics[f"{layer}.calls"] = (s_calls + r_calls // rounds, "count")
        metrics[f"{layer}.ms"] = (1000 * (s_total + r_total / rounds), "ms")
        metrics[f"{layer}.self_ms"] = (1000 * (s_self + r_self / rounds), "ms")
    metrics["matcher.nodes"] = (counts["matcher.nodes"], "count")
    metrics["semantics.enum_candidates"] = (counts["semantics.enum_candidates"], "count")
    metrics["matcher.setup_probe.ms"] = (1000 * probe, "ms")
    metrics["trace.overhead_ratio"] = (sum(spanned.walls) / sum(plain.walls), "ratio")

    result = _result(
        plain.attempted + spanned.attempted,
        plain.failed + spanned.failed,
        errors,
        metrics,
        {"rounds": rounds, "counted_queries": counted},
    )
    result["spans"] = tracer.spans
    return result


def _result(attempted: int, failed: int, errors: list[str], metrics: dict, info: dict) -> dict:
    for error in errors[:10]:
        print(f"WRONG: {error}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }


def run_all(args) -> int:
    results = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, child.returncode)
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relpat" / "__init__.py").is_file():
        print(f"relpat sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    run = traced if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds)
    for key, metric in result["metrics"].items():
        print(f"{args.workload:12s} {key:40s} {metric['value']:>14.6g} {metric['unit']}")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        fields = ("query", "id", "parent", "layer", "start", "end")
        with open(RESULTS / f"{stem}.spans.jsonl", "w", encoding="utf-8") as out:
            for span in result.pop("spans"):
                out.write(json.dumps(dict(zip(fields, span))) + "\n")
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
