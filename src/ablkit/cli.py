"""Command-line interface.

Subcommands: ``abl``, ``consistency``, ``simulate``, ``counterexample``, and
``scenario validate``.  Exit codes: 0 on success, 1 for usage or parse
errors, 2 for domain errors (impossible postselection, no postselected
trials, no counterexample found).  Numbers print with 12 significant
digits; ``--json`` emits a machine-readable report whose floats round-trip
exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import abl as abl_mod
from .abl import PrePostContext, abl_distribution, born_distribution, disturbed_final_probability, joint_probability
from .counterfactual import DEFAULT_GAP_MIN, find_counterexample
from .errors import (
    AblkitError,
    ImpossiblePostselectionError,
    NoPostselectedTrialsError,
    ScenarioParseError,
    UndefinedTermError,
    ZeroProjectionError,
)
from .histories import CONSISTENCY_TOL, HistoryFamily, _set_partitions, disturbance_check, enumerate_coarse_grainings, is_consistent
from .linalg import ALG_TOL, inner
from .scenario_io import counterexample_scenario, dump_scenario, load_scenario, scenario_to_jsonable
from .scenarios import BUILTIN_NAMES, Scenario, builtin
from .simulate import estimate_abl, estimate_final_probability

_DOMAIN_ERRORS = (ImpossiblePostselectionError, NoPostselectedTrialsError,
                  ZeroProjectionError, UndefinedTermError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on bad usage; the contract here is exit 1.
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return "%.12g" % x


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_scenario_args(parser: argparse.ArgumentParser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", metavar="PATH", help="scenario file to load")
    source.add_argument("--builtin", metavar="NAME",
                        help=f"compiled-in scenario: {', '.join(BUILTIN_NAMES)}, or spin:<theta>")
    parser.add_argument("--observable", metavar="NAME",
                        help="observable to ask about (default: the scenario's default)")


def _load(args) -> tuple[Scenario, str]:
    if args.builtin is not None:
        return builtin(args.builtin), args.builtin
    return load_scenario(args.scenario), args.scenario


def _pick_observable(scenario: Scenario, args):
    name = args.observable or scenario.default_observable
    if name not in scenario.observables:
        raise _UsageError(f"unknown observable {name!r}; "
                          f"scenario defines {', '.join(sorted(scenario.observables))}")
    return name, scenario.observables[name]


def _print_json(payload: dict):
    print(json.dumps(payload, sort_keys=True))


def cmd_abl(args) -> int:
    scenario, source = _load(args)
    name, observable = _pick_observable(scenario, args)
    ctx = scenario.context
    born = born_distribution(ctx.preselection, observable)
    joints = [joint_probability(ctx, observable, i) for i in range(len(observable))]
    dist = abl_distribution(ctx, observable)
    if args.json:
        _print_json({
            "command": "abl",
            "scenario": source,
            "dim": scenario.dim,
            "observable": name,
            "eigenvalues": list(observable.eigenvalues),
            "born": [float(p) for p in born],
            "joint": [float(p) for p in joints],
            "abl": [float(p) for p in dist.probabilities],
            "denominator": dist.denominator,
            "tolerances": {"algebra": ALG_TOL, "division": abl_mod.DIV_TOL},
        })
        return 0
    print(f"scenario: {scenario.name} (dim {scenario.dim})")
    print(f"observable: {name}")
    for i, (eigenvalue, _) in enumerate(observable):
        print(f"branch {i}  eigenvalue {eigenvalue:g}  born {_fmt(born[i])}  "
              f"joint {_fmt(joints[i])}  abl {_fmt(dist.probabilities[i])}")
    print(f"denominator: {_fmt(dist.denominator)}")
    return 0


def _blocks_label(blocks: list[list[float]]) -> str:
    return "".join("{" + ",".join(f"{e:g}" for e in block) + "}" for block in blocks)


def cmd_consistency(args) -> int:
    scenario, source = _load(args)
    name, observable = _pick_observable(scenario, args)
    tol = args.tolerance if args.tolerance is not None else CONSISTENCY_TOL
    family = HistoryFamily.from_context(scenario.context, observable)
    report = is_consistent(family, criterion=args.criterion, tol=tol)
    disturbance = disturbance_check(family, tol=tol)
    coarse = None
    if args.coarse_grainings:
        coarse = []
        # Both enumerate the partitions of the branch set in the same order.
        for partition, grained in zip(_set_partitions(len(observable)),
                                      enumerate_coarse_grainings(observable)):
            sub_family = HistoryFamily(family.initial, grained, family.final)
            sub_report = is_consistent(sub_family, criterion=args.criterion, tol=tol)
            sub_disturbance = disturbance_check(sub_family, tol=tol)
            blocks = [[observable.eigenvalues[i] for i in block] for block in partition]
            coarse.append((blocks, sub_report, sub_disturbance))
    if args.json:
        payload = {
            "command": "consistency",
            "scenario": source,
            "dim": scenario.dim,
            "observable": name,
            "criterion": report.criterion,
            "tolerance": tol,
            "consistent": report.consistent,
            "max_violation": report.max_violation,
            "decoherence": [[[z.real, z.imag] for z in row] for row in report.matrix],
            "disturbance": {
                "undisturbed": disturbance.undisturbed,
                "disturbed": disturbance.disturbed,
                "holds": disturbance.holds,
            },
        }
        if coarse is not None:
            payload["coarse_grainings"] = [
                {"blocks": blocks, "consistent": rep.consistent,
                 "max_violation": rep.max_violation, "disturbance_holds": dis.holds}
                for blocks, rep, dis in coarse
            ]
        _print_json(payload)
        return 0
    print(f"scenario: {scenario.name} (dim {scenario.dim})")
    print(f"observable: {name}")
    print(f"consistent: {'yes' if report.consistent else 'no'}  "
          f"(criterion {report.criterion}, max violation {_fmt(report.max_violation)}, "
          f"tolerance {tol:g})")
    print(f"undisturbed final probability: {_fmt(disturbance.undisturbed)}")
    print(f"disturbed final probability:   {_fmt(disturbance.disturbed)}")
    print(f"measurement leaves postselection undisturbed: {'yes' if disturbance.holds else 'no'}")
    if coarse is not None:
        print("coarse-grainings:")
        for blocks, rep, dis in coarse:
            print(f"  {_blocks_label(blocks)}: "
                  f"{'consistent' if rep.consistent else 'inconsistent'}  "
                  f"max violation {_fmt(rep.max_violation)}  "
                  f"disturbance identity {'holds' if dis.holds else 'fails'}")
    return 0


def cmd_simulate(args) -> int:
    scenario, source = _load(args)
    ctx = scenario.context
    if args.no_intermediate:
        if args.observable is not None:
            raise _UsageError("--observable and --no-intermediate are mutually exclusive")
        name, observable = None, None
        target = abs(inner(ctx.postselection, ctx.preselection)) ** 2
        target_kind = "undisturbed"
    else:
        name, observable = _pick_observable(scenario, args)
        target = disturbed_final_probability(ctx, observable)
        target_kind = "disturbed"
    branches = None
    if observable is None:
        estimate = estimate_final_probability(ctx, None, args.trials, args.seed,
                                              workers=args.workers)
    else:
        # One ensemble gives both: its postselected count is the final
        # probability's numerator.
        stats = estimate_abl(ctx, observable, args.trials, args.seed, workers=args.workers)
        estimate = stats.postselected_count / args.trials
        exact = abl_distribution(ctx, observable).probabilities
        born = born_distribution(ctx.preselection, observable)
        branches = (stats, exact, born)
    final_stderr = math.sqrt(max(target * (1.0 - target), 0.0) / args.trials)
    final_z = _z_score(estimate - target, final_stderr)
    if args.json:
        payload = {
            "command": "simulate",
            "scenario": source,
            "dim": scenario.dim,
            "observable": name,
            "trials": args.trials,
            "seed": args.seed,
            "workers": args.workers,
            "final_probability": {
                "estimate": estimate,
                "target": float(target),
                "target_kind": target_kind,
                "z": final_z,
            },
        }
        if branches is not None:
            stats, exact, born = branches
            payload["postselected"] = stats.postselected_count
            payload["branches"] = [
                {
                    "eigenvalue": observable.eigenvalues[i],
                    "count": int(stats.branch_counts[i]),
                    "frequency": float(stats.conditional_freq[i]),
                    "stderr": float(stats.stderr[i]),
                    "abl": float(exact[i]),
                    "born": float(born[i]),
                    "z": _z_score(float(stats.conditional_freq[i] - exact[i]),
                                  float(stats.stderr[i])),
                }
                for i in range(len(observable))
            ]
        _print_json(payload)
        return 0
    print(f"scenario: {scenario.name} (dim {scenario.dim})")
    print(f"observable: {name if name is not None else '(none)'}")
    print(f"trials {args.trials}  seed {args.seed}  workers {args.workers}")
    if branches is not None:
        stats, exact, born = branches
        print(f"postselected: {stats.postselected_count} "
              f"({_fmt(stats.postselected_count / args.trials)})")
        for i in range(len(observable)):
            z = _z_score(float(stats.conditional_freq[i] - exact[i]), float(stats.stderr[i]))
            print(f"branch {i}  eigenvalue {observable.eigenvalues[i]:g}  "
                  f"freq {_fmt(stats.conditional_freq[i])}  "
                  f"stderr {_fmt(stats.stderr[i])}  abl {_fmt(exact[i])}  "
                  f"born {_fmt(born[i])}  z {_fmt(z)}")
    print(f"final probability: estimate {_fmt(estimate)}  "
          f"target({target_kind}) {_fmt(target)}  z {_fmt(final_z)}")
    return 0


def _z_score(diff: float, stderr: float) -> float:
    if stderr > 0.0:
        return diff / stderr
    return 0.0 if abs(diff) <= 1e-12 else math.inf


def cmd_counterexample(args) -> int:
    example = find_counterexample(args.dim, args.seed, gap_min=args.gap_min,
                                  max_tries=args.max_tries)
    if example is None:
        print(f"no counterexample with gap > {args.gap_min:g} found in "
              f"{args.max_tries} tries (dim {args.dim}, seed {args.seed})", file=sys.stderr)
        return 2
    scenario = counterexample_scenario(example)
    report = example.report
    if args.json:
        _print_json({
            "command": "counterexample",
            "dim": args.dim,
            "seed": args.seed,
            "gap_min": args.gap_min,
            "max_tries": args.max_tries,
            "found": True,
            "tries": example.tries,
            "branch": example.branch,
            "report": {
                "born_total": report.born_total,
                "ss_total": report.ss_total,
                "vaidman_total": report.vaidman_total,
                "ss_gap": report.ss_gap,
            },
            "scenario": scenario_to_jsonable(scenario),
        })
        return 0
    print(f"counterexample found after {example.tries} "
          f"{'try' if example.tries == 1 else 'tries'} "
          f"(dim {args.dim}, seed {args.seed}, gap threshold {args.gap_min:g})")
    print(f"branch {example.branch} of observable C")
    print(f"born {_fmt(report.born_total)}  counterfactual-mix {_fmt(report.ss_total)}  "
          f"disturbed-mix {_fmt(report.vaidman_total)}  gap {_fmt(report.ss_gap)}")
    print("scenario:")
    sys.stdout.write(dump_scenario(scenario))
    return 0


def cmd_scenario_validate(args) -> int:
    scenario = load_scenario(args.path)
    if args.json:
        _print_json({
            "command": "scenario-validate",
            "path": args.path,
            "ok": True,
            "scenario": scenario_to_jsonable(scenario),
        })
        return 0
    print(f"ok: {scenario.name} (dim {scenario.dim}, "
          f"observables: {', '.join(sorted(scenario.observables))})")
    sys.stdout.write(dump_scenario(scenario))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ablkit",
                     description="probabilities for pre- and postselected quantum systems")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_abl = sub.add_parser("abl", help="ABL conditional outcome probabilities")
    _add_scenario_args(p_abl)
    p_abl.add_argument("--json", action="store_true")
    p_abl.set_defaults(func=cmd_abl)

    p_con = sub.add_parser("consistency", help="decoherence-functional consistency check")
    _add_scenario_args(p_con)
    p_con.add_argument("--criterion", choices=("medium", "weak"), default="medium")
    p_con.add_argument("--tolerance", type=float, default=None,
                       help=f"violation tolerance (default {CONSISTENCY_TOL:g})")
    p_con.add_argument("--coarse-grainings", action="store_true",
                       help="also report every coarse-graining of the observable")
    p_con.add_argument("--json", action="store_true")
    p_con.set_defaults(func=cmd_consistency)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate of the same probabilities")
    _add_scenario_args(p_sim)
    p_sim.add_argument("--no-intermediate", action="store_true",
                       help="skip the intermediate measurement entirely")
    p_sim.add_argument("--trials", type=_positive_int, default=200000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=_positive_int, default=1)
    p_sim.add_argument("--json", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_cex = sub.add_parser("counterexample",
                           help="search for a counterfactual-use counterexample")
    p_cex.add_argument("--dim", type=int, choices=range(2, 7), default=2)
    p_cex.add_argument("--seed", type=int, default=0)
    p_cex.add_argument("--gap-min", type=float, default=DEFAULT_GAP_MIN)
    p_cex.add_argument("--max-tries", type=_positive_int, default=1000)
    p_cex.add_argument("--json", action="store_true")
    p_cex.set_defaults(func=cmd_counterexample)

    p_scen = sub.add_parser("scenario", help="scenario file utilities")
    scen_sub = p_scen.add_subparsers(dest="scenario_command", required=True,
                                     parser_class=_Parser)
    p_val = scen_sub.add_parser("validate", help="parse a scenario file and emit its canonical form")
    p_val.add_argument("path")
    p_val.add_argument("--json", action="store_true")
    p_val.set_defaults(func=cmd_scenario_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ScenarioParseError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except AblkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
