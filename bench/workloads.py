"""The three benchmark workloads: ``mc-simulate``, ``random-sweep`` and
``scenario-cli``.

A workload is built from a seed, sets itself up (input generation and
warm-up), and then hands out rounds: lists of operations that are always
attempted whole.  An operation returns the seconds its timed part took and
a list of problems found by checking its output against ``reference``
(empty when the output is right).  Only calls into ablkit are timed; the
checks run outside the timed part.

``corrupt(kind, output)``, when given, is applied to every output before it
is checked: the self-test passes a function that moves one value, to show
that the checks catch it.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

import reference as ref
from ablkit import cli
from ablkit.abl import PrePostContext, abl_distribution, born_distribution
from ablkit.counterfactual import mixing_report
from ablkit.histories import HistoryFamily, disturbance_check, is_consistent
from ablkit.linalg import ObservableDecomposition, basis_containing
from ablkit.sampling import random_basis, random_ket, substream
from ablkit.scenario_io import dump_scenario, parse_scenario
from ablkit.scenarios import builtin

# Module-level aliases, so that tracing can rebind them like any other
# caller's imported names.
from_eigenbasis = ObservableDecomposition.from_eigenbasis
family_from_context = HistoryFamily.from_context

_clock = time.perf_counter


def closed_forms() -> list[str]:
    """The paper's closed-form numbers, from ablkit and from the reference
    arithmetic: three-box 1/3, 1 and 1 and the 1/9 violation, and the
    spin-pi3 Sharp-Shanks total 15/26."""
    problems = []

    def expect(label, got, want):
        if not abs(got - want) <= ref.TOL:
            problems.append(f"closed form {label}: got {got!r}, want {want!r}")

    tb, r = builtin("three-box"), ref.three_box()
    ctx = tb.context
    x = {k: ref.amplitudes(r["pre"], r[k], r["post"]) for k in ("C", "Cprime", "Cdprime")}
    for label, obs, branch, want in (("three-box C box 1", "C", 0, ref.THREE_BOX_ABL_BOX1),
                                     ("three-box Cprime box 1", "Cprime", 0, ref.THREE_BOX_ABL_CPRIME),
                                     ("three-box Cdprime box 2", "Cdprime", 1, ref.THREE_BOX_ABL_CDPRIME)):
        expect(label, float(abl_distribution(ctx, tb.observables[obs]).probabilities[branch]), want)
        expect(label + " (reference)", float(ref.abl(x[obs])[branch]), want)
    report = is_consistent(HistoryFamily.from_context(ctx, tb.observables["C"]))
    expect("three-box C violation", report.max_violation, ref.THREE_BOX_VIOLATION)
    expect("three-box C violation (reference)",
           ref.max_off_diagonal(ref.decoherence(x["C"])), ref.THREE_BOX_VIOLATION)
    sp, s = builtin("spin-pi3"), ref.spin_pi3()
    mix = mixing_report(sp.context.preselection, sp.observables["Sx"], sp.observables["Sn"], 0)
    expect("spin-pi3 Sharp-Shanks total", mix.ss_total, ref.SPIN_PI3_SS_TOTAL)
    expect("spin-pi3 Sharp-Shanks total (reference)",
           ref.mixing_totals(s["pre"], s["Sx"], s["Sn"], 0)[1], ref.SPIN_PI3_SS_TOTAL)
    return problems


class Workload:
    """Shared plumbing: in-process CLI calls and the tracing hook."""

    def __init__(self, seed: int, out_dir: Path, corrupt=None):
        self.seed = seed
        self.out_dir = out_dir
        self.corrupt = corrupt or (lambda kind, output: output)
        self.tracer = None

    def run_cli(self, argv: list[str], tag: str) -> tuple[float, str]:
        """Run one ``ablkit`` command in this process; returns (seconds,
        stdout).  A nonzero exit code raises."""
        main = cli.main if self.tracer is None else self.tracer.wrap(cli.main, "cli.main", tag)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = _clock()
            code = main(argv)
            elapsed = _clock() - start
        if code != 0:
            raise RuntimeError(f"ablkit {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return elapsed, out.getvalue()

    @staticmethod
    def end_to_end(rounds) -> dict:
        """Throughput and latency of the operations, whatever they are:
        ``rounds`` holds, per untraced round, the timed seconds of each of
        its operations."""
        rates = [len(times) / sum(times) for times in rounds]
        latencies = [1e3 * t for times in rounds for t in times]
        return {"ops_per_s": (statistics.median(rates), "ops/s"),
                "op_ms_p50": (statistics.median(latencies), "ms"),
                "op_ms_p90": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms")}


def _cli_bindings():
    """(module, attribute, span) entries that tracing rebinds for the
    workloads that call the CLI; see spans.Tracer.install."""
    from ablkit import counterfactual, histories, scenario_io, scenarios, simulate
    return [
        (cli, "builtin", "scenarios.builtin"),
        (cli, "load_scenario", "scenario_io.parse"),
        (cli, "dump_scenario", "scenario_io.dump"),
        (cli, "scenario_to_jsonable", "scenario_io.to_jsonable"),
        (cli, "counterexample_scenario", "scenario_io.counterexample_scenario"),
        (cli, "estimate_abl", "simulate.estimate_abl"),
        (cli, "estimate_final_probability", "simulate.estimate_final_probability"),
        (cli, "abl_distribution", "abl.abl_distribution"),
        (cli, "born_distribution", "abl.born_distribution"),
        (cli, "disturbed_final_probability", "abl.disturbed_final_probability"),
        (cli, "joint_probability", "abl.joint_probability"),
        (cli, "HistoryFamily", (None, {"from_context": "histories.family"})),
        (cli, "is_consistent", "histories.is_consistent"),
        (cli, "disturbance_check", "histories.disturbance_check"),
        (cli, "enumerate_coarse_grainings", "histories.coarse_grainings"),
        (cli, "find_counterexample", "counterfactual.search"),
        (cli, "inner", "linalg.inner"),
        (simulate, "substream", "sampling.substream"),
        (simulate, "born_distribution", "abl.born_distribution"),
        (simulate, "complete_basis", "linalg.complete_basis"),
        (counterfactual, "substream", "sampling.substream"),
        (counterfactual, "random_ket", "sampling.draw"),
        (counterfactual, "random_basis", "sampling.draw"),
        (counterfactual, "ObservableDecomposition",
         (None, {"from_eigenbasis": "linalg.from_eigenbasis"})),
        (counterfactual, "mixing_report", "counterfactual.mixing_report"),
        (counterfactual, "born_distribution", "abl.born_distribution"),
        (histories, "Projector", ("linalg.projector", {})),
        (histories, "ObservableDecomposition",
         (None, {"from_projectors": "linalg.decomposition"})),
        (scenario_io, "projector_from_kets", "linalg.projector_from_kets"),
        (scenario_io, "Projector", ("linalg.projector", {})),
        (scenario_io, "ObservableDecomposition", ("linalg.decomposition", {})),
        (scenario_io, "PrePostContext", ("abl.context", {})),
        (scenarios, "projector_from_kets", "linalg.projector_from_kets"),
        (scenarios, "basis_containing", "linalg.basis_containing"),
        (scenarios, "ObservableDecomposition",
         (None, {"from_eigenbasis": "linalg.from_eigenbasis",
                 "from_projectors": "linalg.decomposition"})),
        (scenarios, "PrePostContext", ("abl.context", {})),
    ]


def _sweep_bindings():
    """The same for random-sweep, which calls the library directly."""
    import sys
    from ablkit import counterfactual, histories
    me = sys.modules[__name__]
    return [
        (me, "substream", "sampling.substream"),
        (me, "random_ket", "sampling.draw"),
        (me, "random_basis", "sampling.draw"),
        (me, "from_eigenbasis", "linalg.from_eigenbasis"),
        (me, "basis_containing", "linalg.basis_containing"),
        (me, "PrePostContext", ("abl.context", {})),
        (me, "abl_distribution", "abl.abl_distribution"),
        (me, "born_distribution", "abl.born_distribution"),
        (me, "mixing_report", "counterfactual.mixing_report"),
        (me, "family_from_context", "histories.family"),
        (me, "is_consistent", "histories.is_consistent"),
        (me, "disturbance_check", "histories.disturbance_check"),
        (counterfactual, "born_distribution", "abl.born_distribution"),
        (histories, "Projector", ("linalg.projector", {})),
    ]


# --- mc-simulate -----------------------------------------------------------

class McSimulate(Workload):
    """``ablkit simulate`` on builtins: three-box ``C``, three-box with no
    intermediate measurement, spin-pi3 ``Sn``, and three-box ``C`` again at
    two workers, whose counts must equal the one-worker counts."""

    name = "mc-simulate"
    TRIALS = 4000
    WARMUP_TRIALS = 200
    #: (builtin, observable or None for --no-intermediate, workers)
    COMMANDS = (("three-box", "C", 1), ("three-box", None, 1),
                ("spin-pi3", "Sn", 1), ("three-box", "C", 2))
    #: A round runs each one-worker command this many times, each time with
    #: another simulation seed, and the two-worker command once.  The
    #: two-worker command's time depends on whether the machine's other
    #: core is free, which the calibration kernel does not see; at one
    #: command in 19 it stays above the 90th percentile when it is slow.
    REPEATS = 6

    bindings = staticmethod(_cli_bindings)

    def setup(self) -> list[str]:
        tb, sp = ref.three_box(), ref.spin_pi3()
        self.targets = {}
        for name, r, obs in (("three-box", tb, "C"), ("spin-pi3", sp, "Sn")):
            x = ref.amplitudes(r["pre"], r[obs], r["post"])
            self.targets[(name, obs)] = {
                "abl": ref.abl(x), "born": ref.born(r["pre"], r[obs]),
                "final": float(sum(ref.joints(x)))}
        self.targets[("three-box", None)] = {
            "final": abs(complex(np.vdot(tb["post"], tb["pre"]))) ** 2}
        for builtin_name, obs, workers in self.COMMANDS:
            self.run_cli(self._argv(builtin_name, obs, workers, 1, self.WARMUP_TRIALS), "warmup")
        return closed_forms()

    def _argv(self, builtin_name, obs, workers, seed, trials):
        argv = ["simulate", "--builtin", builtin_name]
        argv += ["--no-intermediate"] if obs is None else ["--observable", obs]
        return argv + ["--trials", str(trials), "--seed", str(seed),
                       "--workers", str(workers), "--json"]

    def round(self, r: int):
        # Repetition j of a round runs at simulation seed base + j; the
        # two-worker command shares repetition 0's seed, so it can be
        # compared with the one-worker command that ran just before it.
        base_seed = (self.seed * 1_000_003 + r) * self.REPEATS
        one_worker = {}

        def op(builtin_name, obs, workers, sim_seed):
            def run():
                elapsed, out = self.run_cli(
                    self._argv(builtin_name, obs, workers, sim_seed, self.TRIALS), "simulate")
                payload = self.corrupt("simulate", json.loads(out))
                problems = self._check(payload, self.targets[(builtin_name, obs)])
                key = (builtin_name, obs, sim_seed)
                if obs is not None and workers == 1:
                    one_worker[key] = payload
                elif obs is not None:
                    base = one_worker[key]
                    if ([b["count"] for b in payload["branches"]] != [b["count"] for b in base["branches"]]
                            or payload["postselected"] != base["postselected"]
                            or payload["final_probability"]["estimate"]
                            != base["final_probability"]["estimate"]):
                        problems.append(f"{builtin_name} {obs}: counts at {workers} workers "
                                        f"differ from 1 worker")
                return elapsed, problems
            return run

        return [op(*c, base_seed + j) for j in range(self.REPEATS)
                for c in self.COMMANDS if c[2] == 1 or j == 0]

    def _check(self, payload, target) -> list[str]:
        problems = []
        n = self.TRIALS
        final = payload["final_probability"]
        if not ref.close(final["target"], target["final"]):
            problems.append(f"final target {final['target']!r} != {target['final']!r}")
        if not ref.within_sigmas(final["estimate"], target["final"], n):
            problems.append(f"final estimate {final['estimate']!r} not within "
                            f"{ref.MC_SIGMAS} stderr of {target['final']!r}")
        if "abl" not in target:
            return problems
        post = payload["postselected"]
        if post != round(final["estimate"] * n):
            problems.append(f"postselected {post} disagrees with the final estimate")
        branches = payload["branches"]
        counts = [b["count"] for b in branches]
        if sum(counts) != post:
            problems.append(f"branch counts sum to {sum(counts)}, postselected {post}")
        for i, b in enumerate(branches):
            if not ref.close(b["abl"], target["abl"][i]):
                problems.append(f"branch {i} abl {b['abl']!r} != {target['abl'][i]!r}")
            if not ref.close(b["born"], target["born"][i]):
                problems.append(f"branch {i} born {b['born']!r} != {target['born'][i]!r}")
            if b["frequency"] != b["count"] / post:
                problems.append(f"branch {i} frequency is not count / postselected")
            if not ref.within_sigmas(b["frequency"], target["abl"][i], post):
                problems.append(f"branch {i} frequency {b['frequency']!r} not within "
                                f"{ref.MC_SIGMAS} stderr of {target['abl'][i]!r}")
        return problems


# --- random-sweep ----------------------------------------------------------

class RandomSweep(Workload):
    """One Haar-random scenario per operation, drawn with
    ``substream(seed, i)``; dims cycle through 2..8 so every round costs the
    same whatever the seed."""

    name = "random-sweep"
    DIMS = tuple(range(2, 9))
    PER_ROUND = 8 * len(DIMS)

    bindings = staticmethod(_sweep_bindings)

    def setup(self) -> list[str]:
        # Warm-up draws from indices far above any the timed rounds use.
        for k in range(2 * len(self.DIMS)):
            self._scenario(2 ** 62 + k, self.DIMS[k % len(self.DIMS)])
        return closed_forms()

    def _scenario(self, i: int, dim: int):
        start = _clock()
        rng = substream(self.seed, i)
        a = random_ket(rng, dim)
        b = random_ket(rng, dim)
        obs_kets = random_basis(rng, dim)
        final_kets = random_basis(rng, dim)
        branch = i % dim
        observable = from_eigenbasis(obs_kets)
        final = from_eigenbasis(final_kets)
        around_pre = basis_containing(a)
        ctx = PrePostContext(a, b)
        dist = abl_distribution(ctx, observable)
        dist_pre = abl_distribution(ctx, around_pre)
        born = born_distribution(a, observable)
        mix = mixing_report(a, final, observable, branch)
        family = family_from_context(ctx, observable)
        consistency = is_consistent(family)
        disturbance = disturbance_check(family)
        family_pre = family_from_context(ctx, around_pre)
        consistency_pre = is_consistent(family_pre)
        disturbance_pre = disturbance_check(family_pre)
        elapsed = _clock() - start
        output = {
            "abl": np.array(dist.probabilities), "denominator": dist.denominator,
            "abl_pre": np.array(dist_pre.probabilities),
            "around_pre_0": np.array(around_pre.matrix(0)),
            "born": np.array(born), "mix": mix,
            "d": np.array(consistency.matrix), "consistency": consistency,
            "disturbance": disturbance, "consistency_pre": consistency_pre,
            "disturbance_pre": disturbance_pre,
        }
        inputs = (a.amplitudes, b.amplitudes, [k.amplitudes for k in obs_kets],
                  [k.amplitudes for k in final_kets], branch)
        return elapsed, inputs, output

    def round(self, r: int):
        def op(i, dim):
            def run():
                scenario = self._scenario if self.tracer is None else self.tracer.wrap(
                    self._scenario, "bench.scenario", "scenario")
                elapsed, inputs, output = scenario(i, dim)
                return elapsed, self._check(inputs, self.corrupt("scenario", output))
            return run

        base = r * self.PER_ROUND
        return [op(base + k, self.DIMS[k % len(self.DIMS)]) for k in range(self.PER_ROUND)]

    @staticmethod
    def _check(inputs, out) -> list[str]:
        a, b, kets, final_kets, branch = inputs
        problems = []

        def expect(label, got, want, tol=ref.TOL):
            if not ref.close(got, want, tol):
                problems.append(f"{label}: {got!r} != {want!r}")

        x = ref.rank1_amplitudes(a, kets, b)
        expect("abl", out["abl"], ref.abl(x))
        expect("denominator", out["denominator"], sum(ref.joints(x)))
        expect("born", out["born"], np.array([abs(complex(np.vdot(v, a))) ** 2 for v in kets]))
        expect("decoherence matrix", out["d"], ref.decoherence(x))
        violation = ref.max_off_diagonal(ref.decoherence(x))
        expect("max violation", out["consistency"].max_violation, violation)
        if abs(violation - ref.CONSISTENCY_TOL) > ref.TOL:
            expect("consistent", out["consistency"].consistent, violation <= ref.CONSISTENCY_TOL)
        undisturbed = abs(complex(np.vdot(b, a))) ** 2
        expect("undisturbed", out["disturbance"].undisturbed, undisturbed)
        expect("disturbed", out["disturbance"].disturbed, sum(ref.joints(x)))
        born_total, ss, vaidman = ref.mixing_totals_rank1(a, final_kets, kets, branch)
        mix = out["mix"]
        expect("born total", mix.born_total, born_total)
        expect("Sharp-Shanks total", mix.ss_total, ss)
        expect("Vaidman total", mix.vaidman_total, vaidman)
        expect("|Vaidman - Born|", mix.vaidman_total, mix.born_total, ref.VAIDMAN_TOL)
        expect("sum of ABL", float(np.sum(out["abl"])), 1.0)
        # basis_containing(pre): branch 0 projects onto the preselection,
        # so that outcome is certain and its family is consistent.
        expect("basis_containing branch 0", out["around_pre_0"], np.outer(a, a.conj()))
        expect("ABL of basis_containing(pre) branch 0", out["abl_pre"][0], 1.0)
        expect("basis_containing family consistent", out["consistency_pre"].consistent, True)
        for label, c, d in (("", out["consistency"], out["disturbance"]),
                            (" of basis_containing(pre)", out["consistency_pre"],
                             out["disturbance_pre"])):
            if c.consistent and not d.holds:
                problems.append(f"family{label} is consistent but disturbs the postselection")
        return problems


# --- scenario-cli ----------------------------------------------------------

def _ranks(dim: int, parts: int) -> list[int]:
    q, r = divmod(dim, parts)
    return [q + (1 if i < r else 0) for i in range(parts)]


def _pairs(v) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in v]


def _matrix(node) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in node])


def _vector(node) -> np.ndarray:
    return np.array([complex(re, im) for re, im in node])


def make_scenario(rng: np.random.Generator, dim: int) -> tuple[dict, dict]:
    """A scenario file body and the projectors behind it.

    ``C`` has six branches, alternately given by spanning kets (skewed, so
    ablkit has to orthonormalize them) and by the projector matrix; ``B`` is
    a rank-1 basis observable with one ket per branch.
    """
    u = ref.haar_unitary(rng, dim)
    v = ref.haar_unitary(rng, dim)
    pre, post = ref.haar_ket(rng, dim), ref.haar_ket(rng, dim)
    c_nodes, c_projectors = [], []
    col = 0
    for i, rank in enumerate(_ranks(dim, ScenarioCli.BRANCHES)):
        q = u[:, col:col + rank]
        col += rank
        projector = ref.projector_from_basis(q)
        if i % 2 == 0:
            skew = np.eye(rank) + 0.5 * np.triu(
                rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank)), 1)
            kets = q @ skew
            kets = kets / np.linalg.norm(kets, axis=0)
            c_nodes.append({"eigenvalue": i + 1, "kets": [_pairs(kets[:, k]) for k in range(rank)]})
        else:
            c_nodes.append({"eigenvalue": i + 1, "matrix": [_pairs(row) for row in projector]})
        c_projectors.append(projector)
    b_nodes = [{"eigenvalue": k, "kets": [_pairs(v[:, k])]} for k in range(dim)]
    body = {"dim": dim, "name": f"sweep-{dim}", "description": "generated by the benchmark",
            "preselection": _pairs(pre), "postselection": _pairs(post),
            "observables": {"C": c_nodes, "B": b_nodes}, "default_observable": "C"}
    truth = {"pre": pre, "post": post,
             "C": c_projectors, "B": [np.outer(v[:, k], v[:, k].conj()) for k in range(dim)]}
    return body, truth


def write_scenarios(seed: int, directory: Path) -> list[tuple[Path, dict]]:
    """Generate the scenario files for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x5CE7])
    files = []
    for dim in ScenarioCli.DIMS:
        body, truth = make_scenario(rng, dim)
        path = directory / f"dim-{dim:02d}.json"
        path.write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")
        files.append((path, truth))
    return files


class ScenarioCli(Workload):
    """``ablkit`` commands on generated scenario files: ``scenario
    validate``, ``abl`` on both observables, ``consistency
    --coarse-grainings``, and ``counterexample --dim 2..6``."""

    name = "scenario-cli"
    DIMS = tuple(range(6, 25, 2))
    BRANCHES = 6
    COUNTEREXAMPLE_DIMS = tuple(range(2, 7))

    bindings = staticmethod(_cli_bindings)

    def setup(self) -> list[str]:
        self.files = []
        for path, truth in write_scenarios(self.seed, self.out_dir / f"scenarios-{self.seed}"):
            x = {obs: ref.amplitudes(truth["pre"], truth[obs], truth["post"]) for obs in ("C", "B")}
            truth["x"] = x
            truth["born"] = {obs: ref.born(truth["pre"], truth[obs]) for obs in ("C", "B")}
            self.files.append((str(path), truth))
        smallest = self.files[0][0]
        for argv in (["scenario", "validate", smallest],
                     ["abl", "--scenario", smallest, "--observable", "B", "--json"],
                     ["consistency", "--scenario", smallest, "--coarse-grainings", "--json"],
                     ["counterexample", "--dim", "2", "--seed", str(self.seed), "--json"]):
            self.run_cli(argv, "warmup")
        return closed_forms()

    def round(self, r: int):
        def op(argv, tag, check, *context):
            def run():
                elapsed, out = self.run_cli(argv, tag)
                return elapsed, check(self.corrupt(tag, out), *context)
            return run

        ops = []
        for path, truth in self.files:
            ops.append(op(["scenario", "validate", path], "validate", self._check_validate, truth))
            for obs in ("B", "C"):
                ops.append(op(["abl", "--scenario", path, "--observable", obs, "--json"],
                              "abl", self._check_abl, truth, obs))
            ops.append(op(["consistency", "--scenario", path, "--coarse-grainings", "--json"],
                          "consistency", self._check_consistency, truth))
        for dim in self.COUNTEREXAMPLE_DIMS:
            seed = self.seed * 1_000_003 + r
            ops.append(op(["counterexample", "--dim", str(dim), "--seed", str(seed), "--json"],
                          "counterexample", self._check_counterexample, dim))
        return ops

    @staticmethod
    def _check_validate(out: str, truth) -> list[str]:
        head, _, text = out.partition("\n")
        dim = len(truth["pre"])
        problems = []
        if head != f"ok: sweep-{dim} (dim {dim}, observables: B, C)":
            problems.append(f"unexpected validate header {head!r}")
        emitted = json.loads(text)
        if not (ref.close(_vector(emitted["preselection"]), truth["pre"])
                and ref.close(_vector(emitted["postselection"]), truth["post"])):
            problems.append("emitted selections differ from the generated ones")
        for obs in ("C", "B"):
            branches = emitted["observables"][obs]
            for i, (node, projector) in enumerate(zip(branches, truth[obs])):
                if not ref.close(_matrix(node["matrix"]), projector):
                    problems.append(f"emitted {obs} branch {i} differs from the generated projector")
            if len(branches) != len(truth[obs]):
                problems.append(f"emitted {obs} has {len(branches)} branches")
        if dump_scenario(parse_scenario(text)) != text:
            problems.append("emit -> parse -> emit is not byte-identical")
        return problems

    @staticmethod
    def _check_abl(out: str, truth, obs: str) -> list[str]:
        payload = json.loads(out)
        x = truth["x"][obs]
        problems = []
        for key, want in (("abl", ref.abl(x)), ("joint", ref.joints(x)),
                          ("born", truth["born"][obs]), ("denominator", sum(ref.joints(x)))):
            if not ref.close(payload[key], want):
                problems.append(f"abl {obs} {key}: {payload[key]!r} != {want!r}")
        return problems

    @staticmethod
    def _check_consistency(out: str, truth) -> list[str]:
        payload = json.loads(out)
        x = truth["x"]["C"]
        problems = []
        d = np.array([[complex(re, im) for re, im in row] for row in payload["decoherence"]])
        if not ref.close(d, ref.decoherence(x)):
            problems.append("decoherence matrix differs from x conj(x)^T")
        undisturbed = abs(complex(np.vdot(truth["post"], truth["pre"]))) ** 2

        def verdicts(label, blocks_x, violation, consistent, holds, disturbed=None):
            want = ref.max_off_diagonal(ref.decoherence(blocks_x))
            if not ref.close(violation, want):
                problems.append(f"{label}: max violation {violation!r} != {want!r}")
            if abs(want - ref.CONSISTENCY_TOL) > ref.TOL and consistent != (want <= ref.CONSISTENCY_TOL):
                problems.append(f"{label}: consistent verdict is wrong")
            total = sum(ref.joints(blocks_x))
            if disturbed is not None and not ref.close(disturbed, total):
                problems.append(f"{label}: disturbed {disturbed!r} != {total!r}")
            gap = abs(undisturbed - total)
            if abs(gap - ref.CONSISTENCY_TOL) > ref.TOL and holds != (gap <= ref.CONSISTENCY_TOL):
                problems.append(f"{label}: disturbance verdict is wrong")

        dist = payload["disturbance"]
        if not ref.close(dist["undisturbed"], undisturbed):
            problems.append("undisturbed probability differs from |<b|a>|^2")
        verdicts("C", x, payload["max_violation"], payload["consistent"], dist["holds"],
                 dist["disturbed"])
        grainings = payload["coarse_grainings"]
        labels = [float(k + 1) for k in range(len(x))]
        if len(grainings) != ref.bell(len(x)):
            problems.append(f"{len(grainings)} coarse-grainings, Bell number is {ref.bell(len(x))}")
        seen = set()
        for entry in grainings:
            blocks = entry["blocks"]
            flat = sorted(e for block in blocks for e in block)
            if flat != labels:
                problems.append(f"coarse blocks {blocks} are not a partition of {labels}")
                continue
            seen.add(frozenset(frozenset(block) for block in blocks))
            blocks_x = np.array([sum(x[int(e) - 1] for e in block) for block in blocks])
            verdicts(f"coarse-graining {blocks}", blocks_x, entry["max_violation"],
                     entry["consistent"], entry["disturbance_holds"])
        if len(seen) != len(grainings):
            problems.append("coarse-grainings repeat a partition")
        return problems

    @staticmethod
    def _check_counterexample(out: str, dim: int) -> list[str]:
        payload = json.loads(out)
        scenario, report = payload["scenario"], payload["report"]
        pre = _vector(scenario["preselection"])
        questioned = [_matrix(node["matrix"]) for node in scenario["observables"]["C"]]
        final = [_matrix(node["matrix"]) for node in scenario["observables"]["B"]]
        born_total, ss, vaidman = ref.mixing_totals(pre, final, questioned, payload["branch"])
        problems = []
        for key, want in (("born_total", born_total), ("ss_total", ss),
                          ("vaidman_total", vaidman), ("ss_gap", abs(born_total - ss))):
            if not ref.close(report[key], want):
                problems.append(f"counterexample {key}: {report[key]!r} != {want!r}")
        if not report["ss_gap"] > payload["gap_min"]:
            problems.append(f"counterexample gap {report['ss_gap']!r} is not above the threshold")
        if not abs(report["vaidman_total"] - report["born_total"]) <= ref.VAIDMAN_TOL:
            problems.append("counterexample Vaidman total differs from Born")
        if scenario["dim"] != dim or len(pre) != dim:
            problems.append(f"counterexample has dim {scenario['dim']}, asked for {dim}")
        return problems


WORKLOADS = {w.name: w for w in (McSimulate, RandomSweep, ScenarioCli)}
