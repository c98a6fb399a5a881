"""Command-line interface.

Subcommands: ``abl``, ``consistency``, ``simulate``, ``counterexample``, and
``scenario validate``.  Exit codes: 0 on success, 1 for usage or parse
errors, 2 for domain errors (impossible postselection, no postselected
trials, no counterexample found).  Numbers print with 12 significant
digits; ``--json`` emits a machine-readable report whose floats round-trip
exactly; JSON has no infinity, so an infinite ``z`` or tolerance is ``null``.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (
    AblkitError,
    ImpossiblePostselectionError,
    NoPostselectedTrialsError,
    ScenarioParseError,
    UndefinedTermError,
    ZeroProjectionError,
)

# Handlers read library names from this module (``from .cli import name``) at
# call time, so a command loads only the modules it runs, and a rebinding of
# ``ablkit.cli.<name>`` by ``bench/workloads.py``'s tracer, made before or
# after first use, is what gets called.  Any name the package exports
# resolves here on first access (PEP 562), through the package's own table.
def __getattr__(name):
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


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
    try:
        value = int(text)
    except ValueError:  # argparse would name this function in its message
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_scenario_args(parser: argparse.ArgumentParser):
    from .cli import BUILTIN_NAMES
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", metavar="PATH", help="scenario file to load")
    source.add_argument("--builtin", metavar="NAME",
                        help=f"compiled-in scenario: {', '.join(BUILTIN_NAMES)}, or spin:<theta>")
    parser.add_argument("--observable", metavar="NAME",
                        help="observable to ask about (default: the scenario's default)")


def _read_scenario(path: str) -> Scenario:
    from .cli import load_scenario
    try:
        return load_scenario(path)
    except OSError as err:  # missing, a directory, unreadable, ...
        raise ScenarioParseError(str(err)) from err


def _load(args) -> tuple[Scenario, str]:
    if args.builtin is not None:
        from .cli import builtin
        return builtin(args.builtin), args.builtin
    return _read_scenario(args.scenario), args.scenario


def _pick_observable(scenario: Scenario, args):
    name = scenario.default_observable if args.observable is None else args.observable
    if name not in scenario.observables:
        raise _UsageError(f"unknown observable {name!r}; "
                          f"scenario defines {', '.join(sorted(scenario.observables))}")
    return name, scenario.observables[name]


def _print_json(payload: dict) -> int:
    import json
    print(json.dumps(payload, sort_keys=True, allow_nan=False))
    return 0


def cmd_abl(args) -> int:
    from .cli import ALG_TOL, DIV_TOL, abl_distribution, born_distribution
    scenario, source = _load(args)
    name, observable = _pick_observable(scenario, args)
    dist = abl_distribution(scenario.context, observable)
    payload = {
        "command": "abl",
        "scenario": source,
        "dim": scenario.dim,
        "observable": name,
        "eigenvalues": list(observable.eigenvalues),
        "born": born_distribution(scenario.context.preselection, observable).tolist(),
        "joint": dist.joints.tolist(),
        "abl": dist.probabilities.tolist(),
        "denominator": dist.denominator,
        "tolerances": {"algebra": ALG_TOL, "division": DIV_TOL},
    }
    if args.json:
        return _print_json(payload)
    print(f"scenario: {scenario.name} (dim {scenario.dim})")
    print(f"observable: {name}")
    for i, (eigenvalue, born, joint, p) in enumerate(zip(
            payload["eigenvalues"], payload["born"], payload["joint"], payload["abl"])):
        print(f"branch {i}  eigenvalue {eigenvalue:g}  born {_fmt(born)}  "
              f"joint {_fmt(joint)}  abl {_fmt(p)}")
    print(f"denominator: {_fmt(dist.denominator)}")
    return 0


def _blocks_label(blocks: list[list[float]]) -> str:
    return "".join("{" + ",".join(f"{e:g}" for e in block) + "}" for block in blocks)


def cmd_consistency(args) -> int:
    from .cli import HistoryFamily, coarse_graining_table, disturbance_check, is_consistent
    scenario, source = _load(args)
    name, observable = _pick_observable(scenario, args)
    tol = args.tolerance
    family = HistoryFamily.from_context(scenario.context, observable)
    report = is_consistent(family, criterion=args.criterion, tol=tol)
    disturbance = disturbance_check(family, tol=tol)
    payload = {
        "command": "consistency",
        "scenario": source,
        "dim": scenario.dim,
        "observable": name,
        "criterion": report.criterion,
        "tolerance": tol if math.isfinite(tol) else None,
        "consistent": report.consistent,
        "max_violation": report.max_violation,
        "decoherence": [[[z.real, z.imag] for z in row] for row in report.matrix],
        "disturbance": {
            "undisturbed": disturbance.undisturbed,
            "disturbed": disturbance.disturbed,
            "holds": disturbance.holds,
        },
    }
    if args.coarse_grainings:
        eigenvalues = observable.eigenvalues
        partitions, _, violations, consistent, _, holds = coarse_graining_table(
            family, criterion=args.criterion, tol=tol)
        payload["coarse_grainings"] = [
            {"blocks": [[eigenvalues[i] for i in block] for block in partition],
             "consistent": c, "max_violation": v, "disturbance_holds": h}
            for partition, v, c, h in zip(partitions, violations, consistent, holds)
        ]
    if args.json:
        return _print_json(payload)
    print(f"scenario: {scenario.name} (dim {scenario.dim})")
    print(f"observable: {name}")
    print(f"consistent: {'yes' if report.consistent else 'no'}  "
          f"(criterion {report.criterion}, max violation {_fmt(report.max_violation)}, "
          f"tolerance {tol:g})")
    print(f"undisturbed final probability: {_fmt(disturbance.undisturbed)}")
    print(f"disturbed final probability:   {_fmt(disturbance.disturbed)}")
    print(f"measurement leaves postselection undisturbed: {'yes' if disturbance.holds else 'no'}")
    if args.coarse_grainings:
        print("coarse-grainings:")
        for row in payload["coarse_grainings"]:
            print(f"  {_blocks_label(row['blocks'])}: "
                  f"{'consistent' if row['consistent'] else 'inconsistent'}  "
                  f"max violation {_fmt(row['max_violation'])}  "
                  f"disturbance identity {'holds' if row['disturbance_holds'] else 'fails'}")
    return 0


def cmd_simulate(args) -> int:
    from .cli import (abl_distribution, born_distribution, estimate_abl,
                      estimate_final_probability, inner)
    scenario, source = _load(args)
    ctx = scenario.context
    payload = {"command": "simulate", "scenario": source, "dim": scenario.dim, "observable": None,
               "trials": args.trials, "seed": args.seed, "workers": args.workers}
    if args.no_intermediate:
        if args.observable is not None:
            raise _UsageError("--observable and --no-intermediate are mutually exclusive")
        target = abs(inner(ctx.postselection, ctx.preselection)) ** 2
        target_kind = "undisturbed"
        estimate = estimate_final_probability(ctx, None, args.trials, args.seed,
                                              workers=args.workers)
    else:
        payload["observable"], observable = _pick_observable(scenario, args)
        target_kind = "disturbed"
        # One ensemble gives both: its postselected count is the final
        # probability's numerator.  It runs before the exact kernel, so an
        # impossible postselection reports that no trial postselected.
        stats = estimate_abl(ctx, observable, args.trials, args.seed, workers=args.workers)
        estimate = stats.postselected_count / args.trials
        dist = abl_distribution(ctx, observable)
        target = sum(dist.joints.tolist())  # the Python sum disturbed_final_probability takes
        born = born_distribution(ctx.preselection, observable)
        payload["postselected"] = stats.postselected_count
        payload["branches"] = [
            {
                "eigenvalue": observable.eigenvalues[i],
                "count": int(stats.branch_counts[i]),
                "frequency": float(stats.conditional_freq[i]),
                "stderr": float(stats.stderr[i]),
                "abl": float(dist.probabilities[i]),
                "born": float(born[i]),
                "z": _z_score(float(stats.conditional_freq[i] - dist.probabilities[i]),
                              float(stats.stderr[i])),
            }
            for i in range(len(observable))
        ]
    final_stderr = math.sqrt(max(target * (1.0 - target), 0.0) / args.trials)
    final_z = _z_score(estimate - target, final_stderr)
    payload["final_probability"] = {
        "estimate": estimate,
        "target": float(target),
        "target_kind": target_kind,
        "z": final_z,
    }
    if args.json:
        for entry in (payload["final_probability"], *payload.get("branches", ())):
            entry["z"] = entry["z"] if math.isfinite(entry["z"]) else None
        return _print_json(payload)
    print(f"scenario: {scenario.name} (dim {scenario.dim})")
    print(f"observable: {'(none)' if args.no_intermediate else payload['observable']}")
    print(f"trials {args.trials}  seed {args.seed}  workers {args.workers}")
    if not args.no_intermediate:
        print(f"postselected: {stats.postselected_count} ({_fmt(estimate)})")
        for i, branch in enumerate(payload["branches"]):
            print(f"branch {i}  eigenvalue {branch['eigenvalue']:g}  "
                  f"freq {_fmt(branch['frequency'])}  "
                  f"stderr {_fmt(branch['stderr'])}  abl {_fmt(branch['abl'])}  "
                  f"born {_fmt(branch['born'])}  z {_fmt(branch['z'])}")
    print(f"final probability: estimate {_fmt(estimate)}  "
          f"target({target_kind}) {_fmt(target)}  z {_fmt(final_z)}")
    return 0


def _z_score(diff: float, stderr: float) -> float:
    if stderr > 0.0:
        return diff / stderr
    return 0.0 if abs(diff) <= 1e-12 else math.copysign(math.inf, diff)


def cmd_counterexample(args) -> int:
    from .cli import (counterexample_scenario, dump_scenario, find_counterexample,
                      scenario_to_jsonable)
    example = find_counterexample(args.dim, args.seed, gap_min=args.gap_min,
                                  max_tries=args.max_tries)
    if example is None:
        print(f"no counterexample with gap > {args.gap_min:g} found in "
              f"{args.max_tries} tries (dim {args.dim}, seed {args.seed})", file=sys.stderr)
        return 2
    scenario = counterexample_scenario(example)
    report = example.report
    if args.json:
        return _print_json({
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
    from .cli import dump_scenario, scenario_to_jsonable
    scenario = _read_scenario(args.path)
    if args.json:
        return _print_json({
            "command": "scenario-validate",
            "path": args.path,
            "ok": True,
            "scenario": scenario_to_jsonable(scenario),
        })
    print(f"ok: {scenario.name} (dim {scenario.dim}, "
          f"observables: {', '.join(sorted(scenario.observables))})")
    sys.stdout.write(dump_scenario(scenario))
    return 0


def _abl_args(parser: _Parser):
    _add_scenario_args(parser)
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(func=cmd_abl)


def _consistency_args(parser: _Parser):
    from .cli import CONSISTENCY_TOL
    _add_scenario_args(parser)
    parser.add_argument("--criterion", choices=("medium", "weak"), default="medium")
    parser.add_argument("--tolerance", type=float, default=CONSISTENCY_TOL,
                        help=f"violation tolerance (default {CONSISTENCY_TOL:g})")
    parser.add_argument("--coarse-grainings", action="store_true",
                        help="also report every coarse-graining of the observable")
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(func=cmd_consistency)


def _simulate_args(parser: _Parser):
    _add_scenario_args(parser)
    parser.add_argument("--no-intermediate", action="store_true",
                        help="skip the intermediate measurement entirely")
    parser.add_argument("--trials", type=_positive_int, default=200000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=_positive_int, default=1)
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(func=cmd_simulate)


def _counterexample_args(parser: _Parser):
    from .counterfactual import DEFAULT_GAP_MIN
    parser.add_argument("--dim", type=int, choices=range(2, 7), default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--gap-min", type=float, default=DEFAULT_GAP_MIN)
    parser.add_argument("--max-tries", type=_positive_int, default=1000)
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(func=cmd_counterexample)


def _scenario_args(parser: _Parser):
    sub = parser.add_subparsers(dest="scenario_command", required=True, parser_class=_Parser)
    p_val = sub.add_parser("validate", help="parse a scenario file and emit its canonical form")
    p_val.add_argument("path")
    p_val.add_argument("--json", action="store_true")
    p_val.set_defaults(func=cmd_scenario_validate)


#: Each subcommand's help line and the function that adds its arguments.
_COMMANDS = {
    "abl": ("ABL conditional outcome probabilities", _abl_args),
    "consistency": ("decoherence-functional consistency check", _consistency_args),
    "simulate": ("Monte Carlo estimate of the same probabilities", _simulate_args),
    "counterexample": ("search for a counterfactual-use counterexample", _counterexample_args),
    "scenario": ("scenario file utilities", _scenario_args),
}


def build_parser() -> _Parser:
    """The ``ablkit`` argument parser, with every subcommand."""
    parser = _Parser(prog="ablkit",
                     description="probabilities for pre- and postselected quantum systems")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_line, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_line))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in _COMMANDS:
            # The root parser would hand argv[1:] to this parser; build it alone.
            parser = _Parser(prog=f"ablkit {argv[0]}")
            _COMMANDS[argv[0]][1](parser)
            argv = argv[1:]
        else:
            parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AblkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    # Run as ``python -m ablkit.cli``: the handlers' ``from .cli import`` finds this module.
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    entry()
