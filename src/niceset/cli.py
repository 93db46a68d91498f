"""Command-line interface.

Subcommands: ``simulate-upper``, ``simulate-lower``, ``verify-lemma``,
``chernoff``, ``bounds``, ``select``.  Human-readable summaries go to stdout;
the structured JSON report is written to ``--json PATH`` when given and to
stdout otherwise.  With a fixed ``--seed`` the JSON is byte-identical across
runs.  Exit codes: 0 success, 1 domain or parse error, 2 budget exceeded or
out of memory (input too big for the method), 130 interrupted (Ctrl-C,
reported without a traceback), 141 standard output closed early (as by
``| head``; nothing more is printed).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys

from .bounds import BoundParams, size_lower_bound, size_upper_bound
from .errors import BudgetError
from .features import load_csv, select_features
from .harness import (ExperimentConfig, run_bound_experiment, run_chernoff_check,
                      run_lemma_verification)
from .instance import ConflictSpec
from .solvers import METHODS

SCHEMA_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the CLI contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _trials(parser: argparse.ArgumentParser, default: int) -> None:
    parser.add_argument("--trials", type=int, default=default,
                        help=f"number of Monte Carlo trials (default {default})")


def build_parser() -> argparse.ArgumentParser:
    # flag groups that several subcommands share, as parent parsers
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", metavar="PATH", default=None,
                        help="write the JSON report to PATH instead of stdout")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--m", type=int, required=True)
    model.add_argument("--p", type=float, required=True)
    model.add_argument("--gamma", type=float, default=1.0)
    model.add_argument("--delta", type=float, default=0.25)

    parser = _Parser(prog="niceset",
                     description="Nice (low-redundancy) subset model: solvers, "
                                 "bound checks, and feature selection.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    for which in ("upper", "lower"):
        sim = sub.add_parser(f"simulate-{which}", parents=[model, seed, report],
                             help=f"Monte Carlo check of the size {which} bound")
        sim.set_defaults(run=_cmd_simulate)
        sim.add_argument("--solver", choices=METHODS, default="exact")
        sim.add_argument("--conflict", choices=["none", "uniform-k"], default="none",
                         help="none, or uniform-k with --k partners per vertex (default none)")
        sim.add_argument("--k", type=int, default=0,
                         help="conflict partners per vertex; needs --conflict uniform-k")
        _trials(sim, 100)

    lem = sub.add_parser("verify-lemma", parents=[seed, report],
                         help="existence sweep for mutually good constrained sets")
    lem.set_defaults(run=_cmd_verify_lemma)
    lem.add_argument("--count", type=int, default=500, help="systems to generate")
    lem.add_argument("--n-max", type=int, default=8,
                     help="largest universe size (default 8); a system whose sweep "
                          "reaches a size over the enumeration budget exits 2")

    ch = sub.add_parser("chernoff", parents=[seed, report],
                        help="empirical Bernoulli-sum deviation check")
    ch.set_defaults(run=_cmd_chernoff)
    ch.add_argument("--r", type=int, required=True, help="summands per trial")
    ch.add_argument("--p", type=float, required=True, help="Bernoulli success probability")
    ch.add_argument("--gamma", type=float, default=0.5, help="relative deviation, in (0, 1/2]")
    _trials(ch, 100_000)

    # the bounds are closed forms; nothing is drawn, so there is no --seed
    bo = sub.add_parser("bounds", parents=[model, report],
                        help="evaluate the closed-form size bounds")
    bo.set_defaults(run=_cmd_bounds)
    bo.add_argument("--tau", type=float, default=1.0)

    se = sub.add_parser("select", parents=[seed, report],
                        help="select a nice feature subset from a CSV")
    se.set_defaults(run=_cmd_select)
    se.add_argument("--input", required=True, help="CSV file of numeric features")
    se.add_argument("--lambda-c", type=float, required=True,
                    help="absolute correlation threshold, in (0, 1]")
    se.add_argument("--lambda-mc", type=float, required=True,
                    help="VIF threshold, > 1")
    se.add_argument("--k-top", type=int, default=3,
                    help="conflict partners per flagged feature (default 3)")
    se.add_argument("--method", choices=METHODS, default="exact")
    se.add_argument("--delimiter", default=",")
    se.add_argument("--no-header", action="store_true",
                    help="the CSV has no header row; names become f1..fm")
    se.add_argument("--instance-json", metavar="PATH", default=None,
                    help="also write the derived instance as JSON")
    return parser


# Parsing leaves no state in the parser, so one per process serves every
# call; it is built on first use, not at import.
_parser = functools.cache(build_parser)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _emit(report: dict, args, lines: list[str], files=()) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    # the --json report, then each further (path, text) of files, all before
    # the summary: a failed write leaves no later file and prints no summary
    for path, body in [(args.json, text), *files]:
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(body)
    print("\n".join(lines))
    if not args.json:
        sys.stdout.write(text)


def _cmd_simulate(args) -> None:
    if args.conflict == "none" and args.k != 0:
        raise ValueError(f"--k {args.k} needs --conflict uniform-k")
    cfg = ExperimentConfig(m=args.m, p=args.p, gamma=args.gamma, delta=args.delta,
                           conflicts=ConflictSpec.uniform(args.k), trials=args.trials,
                           seed=args.seed, solver=args.solver)
    rep = run_bound_experiment(cfg)
    if args.command == "simulate-upper":
        lines = [
            f"threshold (upper): {rep.threshold_upper}",
            f"fraction of {rep.trials} trials at or above it: {_fmt(rep.frac_exceed_upper)}"
            f" (stderr {_fmt(rep.stderr_exceed_upper)})",
            f"claimed failure probability: {_fmt(rep.claimed_upper_failure)}",
        ]
    else:
        lines = [
            f"threshold (lower, clamped to >= 1): {rep.threshold_lower}",
            f"fraction of {rep.trials} trials below it: {_fmt(rep.frac_below_lower)}"
            f" (stderr {_fmt(rep.stderr_below_lower)})",
            f"claimed failure probability: {_fmt(rep.claimed_lower_failure)}",
            f"tau estimate: {_fmt(rep.tau_estimate)} (std {_fmt(rep.tau_std)})",
        ]
    _emit({"schema": SCHEMA_VERSION, "kind": args.command, **rep.to_dict()}, args, lines)


def _cmd_verify_lemma(args) -> None:
    rep = run_lemma_verification(count=args.count, n_max=args.n_max, seed=args.seed)
    lines = [
        f"systems checked: {rep.systems_checked}",
        f"existence conditions fired: {rep.conditions_fired}",
        f"{len(rep.counterexamples)} counterexamples",
    ]
    _emit({"schema": SCHEMA_VERSION, "kind": "verify-lemma", **rep.to_dict()}, args, lines)


def _cmd_chernoff(args) -> None:
    rep = run_chernoff_check(r=args.r, bernoulli_p=args.p, gamma=args.gamma,
                             trials=args.trials, seed=args.seed)
    lines = [
        f"empirical deviation frequency: {_fmt(rep.empirical)} (stderr {_fmt(rep.stderr)})",
        f"closed-form bound: {_fmt(rep.bound)}",
        f"exact binomial tail: {_fmt(rep.exact_tail)}",
        f"within bound: {rep.within_bound}; consistent with exact tail: "
        f"{rep.consistent_with_exact}",
    ]
    _emit({"schema": SCHEMA_VERSION, "kind": "chernoff", **rep.to_dict()}, args, lines)


def _cmd_bounds(args) -> None:
    params = BoundParams(m=args.m, p=args.p, gamma=args.gamma, delta=args.delta,
                         tau=args.tau)
    upper, lower = size_upper_bound(params), size_lower_bound(params)
    report = {"schema": SCHEMA_VERSION, "kind": "bounds", **dataclasses.asdict(params),
              "upper": dataclasses.asdict(upper), "lower": dataclasses.asdict(lower)}
    lines = [
        f"size upper bound: {_fmt(upper.value)} (failure probability {_fmt(upper.failure_prob)})",
        f"size lower bound: {_fmt(lower.value)} (failure probability {_fmt(lower.failure_prob)})",
        f"integer thresholds: upper {upper.threshold}, lower {lower.threshold}",
    ]
    _emit(report, args, lines)


def _cmd_select(args) -> None:
    fm = load_csv(args.input, delimiter=args.delimiter, has_header=not args.no_header)
    report = select_features(fm, lambda_c=args.lambda_c, lambda_mc=args.lambda_mc,
                             k_top=args.k_top, method=args.method, seed=args.seed)
    lines = [
        f"selected {len(report.selected)} of {fm.m} features: "
        + ", ".join(report.selected),
        f"edges: {report.edge_count}; conflict sizes max {report.conflict_max}, "
        f"mean {_fmt(report.conflict_mean)}; witness checked: {report.witness_checked}",
    ]
    files = [(args.instance_json, report.instance.to_json() + "\n")] if args.instance_json else []
    _emit({"schema": SCHEMA_VERSION, "kind": "select", "seed": args.seed,
           **report.to_dict()}, args, lines, files)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        args.run(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return 0
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: what is left in the buffer goes to the null
        # device, so that the interpreter's last flush fails no more (an
        # in-process StringIO has no descriptor and keeps its text)
        with open(os.devnull, "wb") as null, contextlib.suppress(OSError):
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
