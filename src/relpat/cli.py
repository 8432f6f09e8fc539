"""Command-line entry point: one subcommand per operation family.

Exit status: 0 for logical-true/success, 1 for logical-false, 2 for usage,
input, or resource errors.  Patterns travel via files so that `#` never
needs shell escaping.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core import (
    BudgetExceededError,
    Mode,
    PatternSyntaxError,
    parse_document,
    print_relational_pattern,
)
from .relations import TOKEN_TO_KIND, relation_holds
from . import equivalence, inclusion, machines, matcher, reductions, selfcheck, semantics


def _read_pattern(path: str) -> tuple:
    text = Path(path).read_text(encoding="utf-8")
    return parse_document(text)


def _mode(token: str) -> Mode:
    return Mode(token.lower())


def _automaton(path: str) -> machines.TwoCounterAutomaton:
    return machines.parse_automaton(Path(path).read_text(encoding="utf-8"))


def _utm_config(text: str) -> machines.UtmConfiguration:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise ValueError("initial configuration must be 'state,left_code,right_code'")
    state = int(parts[0][1:]) if parts[0].startswith("q") else int(parts[0])
    return machines.UtmConfiguration(state, int(parts[1]), int(parts[2]))


def _cmd_rel(args: argparse.Namespace) -> int:
    kind = TOKEN_TO_KIND.get(args.name)
    if kind is None:
        raise ValueError(f"unknown relation {args.name!r}; choose from {sorted(TOKEN_TO_KIND)}")
    verdict = relation_holds(kind, args.u, args.v)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_member(args: argparse.Namespace) -> int:
    rp, file_mode = _read_pattern(args.pattern)
    mode = _mode(args.mode) if args.mode else (file_mode or Mode.NE)
    witness = matcher.match(args.word, rp, mode)
    if witness is None:
        print("false")
        return 1
    print("true")
    if args.witness:
        rendered = " ".join(f"x{var}={witness[var]}" for var in sorted(witness))
        print(rendered)
    return 0


def _cmd_enum(args: argparse.Namespace) -> int:
    rp, file_mode = _read_pattern(args.pattern)
    mode = _mode(args.mode) if args.mode else (file_mode or Mode.NE)
    language = semantics.enumerate_language(rp, mode, args.max_len)
    for word in sorted(language.words, key=lambda w: (len(w), w)):
        print(word)
    return 0


def _cmd_bincl(args: argparse.Namespace) -> int:
    a, _ = _read_pattern(args.a)
    b, _ = _read_pattern(args.b)
    mode = _mode(args.mode)
    counterexample = semantics.inclusion_counterexample(a, b, mode, args.max_len)
    if counterexample is None:
        print("true")
        return 0
    print("false")
    print(f"counterexample: {counterexample}")
    return 1


def _cmd_beq(args: argparse.Namespace) -> int:
    a, _ = _read_pattern(args.a)
    b, _ = _read_pattern(args.b)
    mode = _mode(args.mode)
    for first, second in ((a, b), (b, a)):
        counterexample = semantics.inclusion_counterexample(first, second, mode, args.max_len)
        if counterexample is not None:
            print("false")
            print(f"counterexample: {counterexample}")
            return 1
    print("true")
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    a, _ = _read_pattern(args.a)
    b, _ = _read_pattern(args.b)
    try:
        verdict = equivalence.ne_equivalent(a, b)
    except equivalence.EquivalencePreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _reduction_kind(args: argparse.Namespace):
    return TOKEN_TO_KIND[args.kind] if args.kind else None


def _cmd_reduce(args: argparse.Namespace) -> int:
    phi = reductions.read_dimacs(Path(args.cnf).read_text(encoding="utf-8"))
    variant = reductions.ReductionVariant(args.variant)
    kind = _reduction_kind(args)
    if args.action == "verify":
        ok = reductions.verify_reduction(variant, phi, kind)
        print("true" if ok else "false")
        return 0 if ok else 1
    inst = reductions.generate(variant, phi, kind)
    print(inst.word)
    if args.out:
        Path(args.out).write_text(
            print_relational_pattern(inst.rp, inst.mode) + "\n", encoding="utf-8"
        )
    if args.word_out:
        Path(args.word_out).write_text(inst.word + "\n", encoding="utf-8")
    return 0


def _cmd_ca_run(args: argparse.Namespace) -> int:
    run = machines.ca_find_accepting_run(_automaton(args.automaton), args.max_steps)
    if run is None:
        print("absent")
        return 1
    for config in run:
        print(f"q{config.state} {config.counter1} {config.counter2}")
    return 0


def _cmd_ca_encode(args: argparse.Namespace) -> int:
    run = machines.ca_find_accepting_run(_automaton(args.automaton), args.max_steps)
    if run is None:
        print("absent")
        return 1
    print(machines.ca_encode(run, _params(args)))
    return 0


def _cmd_ca_validate(args: argparse.Namespace) -> int:
    verdict = machines.ca_validate(args.word, _automaton(args.automaton), _params(args))
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_utm_validate(args: argparse.Namespace) -> int:
    verdict = machines.utm_validate(args.word, _utm_config(args.initial))
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _params(args: argparse.Namespace) -> machines.EncodingParams:
    if not getattr(args, "params", None):
        return machines.EncodingParams()
    x, c1, c2, y2 = (int(p) for p in args.params.split(","))
    return machines.EncodingParams(x, c1, c2, y2)


def _cmd_thm3_build(args: argparse.Namespace) -> int:
    automaton = _automaton(args.automaton)
    beta = inclusion.build_beta_A(automaton)
    Path(args.out).write_text(print_relational_pattern(beta) + "\n", encoding="utf-8")
    if args.alpha_out:
        alpha = inclusion.build_alpha_A()
        Path(args.alpha_out).write_text(print_relational_pattern(alpha) + "\n", encoding="utf-8")
    print(f"predicates: {len(inclusion.build_predicates(automaton))}")
    return 0


def _cmd_thm3_eval(args: argparse.Namespace) -> int:
    sigma = inclusion.SigmaAssignment(args.sigma_x, args.sigma_y)
    triples = inclusion.build_predicates(_automaton(args.automaton))
    indices = inclusion.satisfied_predicates(sigma, triples)
    print(" ".join(str(i) for i in indices))
    return 0


# -- report ------------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> int:
    report = selfcheck.run_report(args.seed, args.timings)
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    Path(args.out).write_text(payload, encoding="utf-8")
    total_failed = sum(suite["failed"] for suite in report)
    for suite in report:
        print(f"{suite['suite']}: {suite['passed']}/{suite['cases']} passed")
    print(f"report written to {args.out}")
    return 0 if total_failed == 0 else 1


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relpat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rel", help="probe one relation on two words")
    p.add_argument("name", help="relation name (eq, len, ssq, ab, perm, rev, comstar, composplus, star)")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(func=_cmd_rel)

    p = sub.add_parser("member", help="decide word membership")
    p.add_argument("--pattern", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--mode", choices=["e", "ne"], default=None)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("enum", help="enumerate the bounded language")
    p.add_argument("--pattern", required=True)
    p.add_argument("--mode", choices=["e", "ne"], default=None)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_enum)

    for name, func in (("bincl", _cmd_bincl), ("beq", _cmd_beq)):
        p = sub.add_parser(name, help=f"bounded language {'inclusion' if name == 'bincl' else 'equality'}")
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--mode", choices=["e", "ne"], required=True)
        p.add_argument("--max-len", type=int, required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("equiv", help="polynomial non-erasing equivalence")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("reduce", help="generate or verify a 3-SAT reduction instance")
    p.add_argument("action", nargs="?", choices=["verify"], default=None)
    p.add_argument("--variant", required=True, choices=[v.value for v in reductions.ReductionVariant])
    p.add_argument("--kind", choices=sorted(TOKEN_TO_KIND), default=None)
    p.add_argument("--cnf", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--word-out", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("machine", help="counter-automaton and Turing-machine tools")
    msub = p.add_subparsers(required=True)
    q = msub.add_parser("ca-run")
    q.add_argument("--automaton", required=True)
    q.add_argument("--max-steps", type=int, default=50)
    q.set_defaults(func=_cmd_ca_run)
    q = msub.add_parser("ca-encode")
    q.add_argument("--automaton", required=True)
    q.add_argument("--max-steps", type=int, default=50)
    q.add_argument("--params", default=None, help="x,c1,c2,y2 (all >= 1)")
    q.set_defaults(func=_cmd_ca_encode)
    q = msub.add_parser("ca-validate")
    q.add_argument("--automaton", required=True)
    q.add_argument("--word", required=True)
    q.add_argument("--params", default=None)
    q.set_defaults(func=_cmd_ca_validate)
    q = msub.add_parser("utm-validate")
    q.add_argument("--initial", required=True, help="state,left_code,right_code")
    q.add_argument("--word", required=True)
    q.set_defaults(func=_cmd_utm_validate)

    p = sub.add_parser("thm3", help="inclusion-construction builders and evaluation")
    tsub = p.add_subparsers(required=True)
    q = tsub.add_parser("build")
    q.add_argument("--automaton", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--alpha-out", default=None)
    q.set_defaults(func=_cmd_thm3_build)
    q = tsub.add_parser("eval")
    q.add_argument("--automaton", required=True)
    q.add_argument("--sigma-x", required=True)
    q.add_argument("--sigma-y", required=True)
    q.set_defaults(func=_cmd_thm3_eval)

    p = sub.add_parser("report", help="run the deterministic acceptance-style suites")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="report.json")
    p.add_argument("--timings", action="store_true", help="record wall times (breaks byte-reproducibility)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, MemoryError, RecursionError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 2
    except (PatternSyntaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
