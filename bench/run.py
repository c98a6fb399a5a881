"""Run one benchmark workload of ablkit and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: ablkit is imported from its ``src``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (timed with tracing off); with ``--trace 1`` they
are the per-layer ones, taken from spans around each call into ablkit (see
``spans.py``).  Spans of a traced run are written to
``bench/out/spans-<workload>-<seed>.jsonl.gz``.

Set-up (importing ablkit in a fresh interpreter that has loaded numpy,
generating the inputs and warming up) is repeated ``SETUP_REPS`` times and
its median is ``setup_s``.
Then the workload runs whole rounds of operations until ``--seconds`` have
passed.

Every time is scaled to a reference machine speed.  The speed of a shared
virtual CPU changes by up to 1.6x within seconds, while the ratio of an
operation's time to that of a fixed kernel stays within a few percent.  So
before and after an operation, at most every ``CAL_INTERVAL_S``, the
benchmark times a calibration kernel built from its own reference code and
numpy's Philox generator (never from ablkit), and multiplies each
operation's time by ``CAL_REF_S`` over the mean of the kernel's times before
and after it.  A time then reads as it would on a machine that runs
the kernel in ``CAL_REF_S``.  In set-up, the factor is the mean of one
measured before and one after the in-process part; the import process
measures its own, just before the import.  numpy's import is left out of
``setup_s``: no change to ablkit moves it, and its time here swings twofold
with the speed state in a way the kernel does not follow (measured: 73-165
ms, while ablkit's own import, scaled, stayed at 26.5-27.9 ms).  An operation fails when it raises, when its command exits nonzero,
or when its output disagrees with the reference computation; ``correct`` is
false when any output was wrong or a closed-form check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPS = 7
#: Seconds the calibration kernel takes on the reference machine (2 vCPUs,
#: Python 3.11.7, numpy 2.4.6) when its CPU runs at full speed.
CAL_REF_S = 0.0017
CAL_INTERVAL_S = 0.05

# Runs in a fresh interpreter: numpy and this module first, untimed; then
# the calibration kernel, and ablkit's own import scaled by it.
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import numpy, run\n"
    "speed = run.Speed()\n"
    "factor = speed.measure()\n"
    "start = time.perf_counter()\n"
    "import ablkit.cli\n"
    "print((time.perf_counter() - start) * factor)\n"
)


def _import_seconds() -> float:
    """Seconds, at reference speed, a fresh interpreter takes to import
    ablkit once numpy is loaded."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(BENCH)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _calibration_kernel():
    """Fixed work in the same mix as ablkit's: small complex numpy arrays,
    QR, Philox generator set-up and Python loops."""
    import numpy as np
    import reference as ref
    for i in range(40):
        np.random.Generator(np.random.Philox(key=12345, counter=i << 192)).random(2)
    rng = np.random.default_rng(12345)
    for dim in range(2, 9):
        u, v = ref.haar_unitary(rng, dim), ref.haar_unitary(rng, dim)
        a = ref.haar_ket(rng, dim)
        ref.mixing_totals_rank1(a, list(u.T), list(v.T), dim // 2)
        ref.decoherence(ref.rank1_amplitudes(a, list(v.T), a))


class Speed:
    """The factor that scales a time measured now to reference speed."""

    def __init__(self):
        _calibration_kernel()  # first-call imports and allocations
        self._factor = 1.0
        self._at = None

    def factor(self) -> float:
        """The latest factor, measured again if ``CAL_INTERVAL_S`` passed."""
        if self._at is None or time.perf_counter() - self._at >= CAL_INTERVAL_S:
            self.measure()
        return self._factor

    def measure(self) -> float:
        # The mean of three calls, the first of which starts on caches that
        # the operations left cold.
        start = time.perf_counter()
        for _ in range(3):
            _calibration_kernel()
        self._factor = 3 * CAL_REF_S / (time.perf_counter() - start)
        self._at = time.perf_counter()
        return self._factor


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_rounds(workload, seconds: float, speed: Speed, tracer=None):
    """Run whole rounds until ``seconds`` have passed.  With a tracer, even
    rounds run untraced and odd rounds traced, so the two can be compared.
    Returns (untraced round times, traced round times, attempted, failed,
    wrong)."""
    plain, traced = [], []
    attempted = failed = wrong = 0
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        tracing = tracer is not None and r % 2 == 1
        if tracing:
            workload.tracer = tracer
            tracer.install(workload.bindings())
        times = []
        try:
            for op in workload.round(r):
                attempted += 1
                before = speed.factor()
                try:
                    elapsed, problems = op()
                except Exception:
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                    continue
                # An operation longer than CAL_INTERVAL_S gets a second
                # factor measured after it; the speed may change meanwhile.
                times.append(elapsed * (before + speed.factor()) / 2)
                if problems:
                    failed += 1
                    wrong += 1
                    print(f"{workload.name} round {r}: " + "; ".join(problems[:5]),
                          file=sys.stderr)
        finally:
            if tracing:
                tracer.remove()
                workload.tracer = None
        if times:
            (traced if tracing else plain).append(times)
        r += 1
        if time.perf_counter() >= deadline and (tracer is None or r % 2 == 0):
            return plain, traced, attempted, failed, wrong


def _per_layer(workload, summary, plain, traced) -> dict:
    s = summary
    ops = sum(s.by_tag.values())
    simulate_cmds = s.by_tag.get("simulate", 0)
    passes = ("simulate.estimate_abl", "simulate.estimate_final_probability")
    n_passes = sum(s.count[p] for p in passes)
    pass_self_us = sum(s.self_ns[p] for p in passes) / 1e3
    searches = s.count["counterfactual.search"]
    m = {
        "sampling.substream_us": (s.mean_us("sampling.substream"), "us"),
        "sampling.draw_us": (s.mean_us("sampling.draw"), "us"),
        "simulate.trial_us": (pass_self_us / (n_passes * workload.TRIALS) if n_passes else 0.0, "us"),
        "simulate.ensemble_passes": (n_passes / simulate_cmds if simulate_cmds else 0.0, "count"),
        "linalg.from_eigenbasis_us": (s.mean_us("linalg.from_eigenbasis"), "us"),
        "linalg.basis_containing_us": (s.mean_us("linalg.basis_containing"), "us"),
        "linalg.projector_us": (s.mean_us("linalg.projector"), "us"),
        "linalg.projector_from_kets_us": (s.mean_us("linalg.projector_from_kets"), "us"),
        "linalg.decomposition_us": (s.mean_us("linalg.decomposition"), "us"),
        "linalg.projectors_built": (s.per(("linalg.projector", "linalg.projector_from_kets"), ops), "count"),
        "abl.abl_distribution_us": (s.mean_us("abl.abl_distribution"), "us"),
        "abl.born_distribution_us": (s.mean_us("abl.born_distribution"), "us"),
        "abl.joint_calls": (s.per(("abl.joint_probability",), s.by_tag.get("abl", 0)), "count"),
        "histories.family_us": (s.mean_us("histories.family"), "us"),
        "histories.is_consistent_us": (s.mean_us("histories.is_consistent"), "us"),
        "histories.disturbance_check_us": (s.mean_us("histories.disturbance_check"), "us"),
        "histories.coarse_grainings_ms": (s.mean_ms("histories.coarse_grainings"), "ms"),
        "counterfactual.mixing_report_us": (s.mean_us("counterfactual.mixing_report"), "us"),
        "counterfactual.search_ms": (s.mean_ms("counterfactual.search"), "ms"),
        "counterfactual.tries_per_search": (
            s.children_of("counterfactual.search", "sampling.substream") / searches if searches else 0.0,
            "count"),
        "scenario_io.parse_ms": (s.mean_ms("scenario_io.parse"), "ms"),
        "scenario_io.dump_ms": (s.mean_ms("scenario_io.dump"), "ms"),
        "scenarios.builtin_us": (s.mean_us("scenarios.builtin"), "us"),
        "cli.self_ms": (s.self_ns["cli.main"] / s.count["cli.main"] / 1e6 if s.count["cli.main"] else 0.0,
                        "ms"),
    }
    m.update({k: (v, "%") for k, v in s.layer_shares().items()})
    untraced = statistics.median(sum(t) for t in plain)
    with_trace = statistics.median(sum(t) for t in traced)
    m["trace.overhead_pct"] = (100.0 * (with_trace / untraced - 1.0), "%")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ablkit" / "__init__.py").is_file():
        print(f"error: no ablkit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print(f"error: --seed must be in [0, 2**64), got {args.seed}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print(f"error: --seconds must be positive, got {args.seconds}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ablkit
    if Path(ablkit.__file__).resolve().parent != (SRC / "ablkit").resolve():
        print(f"error: imported ablkit from {ablkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(cls, seed: int, seconds: float, trace: bool, corrupt=None) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    speed = Speed()
    setups = []
    closed_form_problems = []
    for _ in range(SETUP_REPS):
        imported = _import_seconds()
        before = speed.measure()
        start = time.perf_counter()
        workload = cls(seed, OUT, corrupt)
        closed_form_problems = workload.setup()
        prepared = time.perf_counter() - start
        setups.append(imported + prepared * (before + speed.measure()) / 2)
    for problem in closed_form_problems:
        print(problem, file=sys.stderr)

    tracer = None
    if trace:
        from spans import Summary, Tracer
        tracer = Tracer()
    plain, traced, attempted, failed, wrong = _run_rounds(workload, seconds, speed, tracer)
    correct = wrong == 0 and not closed_form_problems
    if trace:
        summary = Summary(tracer.spans)
        metrics = _per_layer(workload, summary, plain, traced)
        tracer.write(OUT / f"spans-{cls.name}-{seed}.jsonl.gz")
    else:
        metrics = dict(workload.end_to_end(plain))
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mib"] = (_peak_rss_mib(), "MiB")
    rounds = len(plain) + len(traced)
    ops = sum(len(t) for t in plain + traced)
    print(f"{cls.name} seed {seed}: {rounds} rounds, {ops} timed operations, "
          f"{failed} of {attempted} failed")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
