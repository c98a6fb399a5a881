"""Acceptance gate.

One test per advertised guarantee.  Each prints a single
``[acceptance] <name>: PASS/FAIL (<detail>)`` line on the real stdout, with
its runtime, then asserts.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import make_context

from ablkit.abl import abl_distribution, born_distribution
from ablkit.cli import main
from ablkit.counterfactual import find_counterexample, mixing_report, vaidman_total
from ablkit.histories import HistoryFamily, disturbance_check, is_consistent
from ablkit.linalg import Ket, ObservableDecomposition, basis_containing, projector_from_kets
from ablkit.sampling import random_basis, substream
from ablkit.scenarios import builtin
from ablkit.simulate import estimate_abl, estimate_final_probability

TRIALS = 200_000
SEED = 42


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_three_box_contextuality(capsys):
    t0 = time.perf_counter()
    c = _cli_json(capsys, "abl", "--builtin", "three-box", "--json")
    cp = _cli_json(capsys, "abl", "--builtin", "three-box", "--observable", "Cprime", "--json")
    cpp = _cli_json(capsys, "abl", "--builtin", "three-box", "--observable", "Cdprime", "--json")
    elapsed = time.perf_counter() - t0
    errs = (abs(c["abl"][0] - 1 / 3), abs(cp["abl"][0] - 1.0), abs(cpp["abl"][1] - 1.0))
    ok = max(errs) <= 1e-10 and elapsed < 1.0
    _report(capsys, "three-box-contextuality", ok,
            f"P(c1|C)={c['abl'][0]:.12g} P(c1|C')={cp['abl'][0]:.12g} "
            f"P(c2|C'')={cpp['abl'][1]:.12g}, max err {max(errs):.1e}, {elapsed:.2f}s")


def test_selection_basis_identities(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        rng = substream(2001, i)
        ctx = make_context(rng, 2 + i % 4)
        pa = abl_distribution(ctx, basis_containing(ctx.preselection)).probabilities
        pb = abl_distribution(ctx, basis_containing(ctx.postselection)).probabilities
        worst = max(worst, abs(pa[0] - 1.0), abs(pb[0] - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(capsys, "selection-basis-identities", ok,
            f"1000 pairs dims 2-5, worst |P-1| {worst:.1e}, {elapsed:.2f}s")


def test_consistency_verdicts(capsys):
    t0 = time.perf_counter()
    s = builtin("three-box")
    fine = is_consistent(HistoryFamily.from_context(s.context, s.observables["C"]))
    first_vs_rest = is_consistent(HistoryFamily.from_context(s.context, s.observables["Cprime"]))
    middle_vs_ends = is_consistent(HistoryFamily.from_context(s.context, s.observables["Cdprime"]))
    span = projector_from_kets([s.context.preselection, s.context.postselection])
    span_family = HistoryFamily.from_context(
        s.context, ObservableDecomposition.from_projectors([span, span.complement()]))
    span_ok = is_consistent(span_family).consistent
    random_ok = True
    for i in range(1000):
        rng = substream(2003, i)
        ctx = make_context(rng, 2 + i % 4)
        for ket in (ctx.preselection, ctx.postselection):
            fam = HistoryFamily.from_context(ctx, basis_containing(ket))
            random_ok = random_ok and is_consistent(fam).consistent
    elapsed = time.perf_counter() - t0
    ok = (first_vs_rest.consistent and middle_vs_ends.consistent
          and not fine.consistent and abs(fine.max_violation - 1 / 9) <= 1e-10
          and span_ok and random_ok and elapsed < 5.0)
    _report(capsys, "consistency-verdicts", ok,
            f"coarse families consistent, fine family violation "
            f"{fine.max_violation:.12g}, span + 2000 selection-basis families "
            f"consistent={span_ok and random_ok}, {elapsed:.2f}s")


def _random_family(rng, dim: int) -> HistoryFamily:
    # Mix of always-consistent structured families and generic random ones,
    # so the consistent branch of the check is exercised thousands of times.
    ctx = make_context(rng, dim)
    kind = int(rng.integers(5))
    if kind == 0:
        obs = basis_containing(ctx.preselection)
    elif kind == 1:
        obs = basis_containing(ctx.postselection)
    elif kind == 2 and dim >= 3:
        span = projector_from_kets([ctx.preselection, ctx.postselection])
        obs = ObservableDecomposition.from_projectors([span, span.complement()])
    elif kind == 4 and dim >= 3:
        kets = random_basis(rng, dim)
        merged = projector_from_kets(kets[:2])
        obs = ObservableDecomposition.from_projectors(
            [merged] + [k.projector() for k in kets[2:]])
    else:
        obs = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
    return HistoryFamily.from_context(ctx, obs)


def test_consistency_implies_undisturbed_postselection(capsys):
    t0 = time.perf_counter()
    consistent_seen = 0
    worst = 0.0
    for i in range(10_000):
        fam = _random_family(substream(2004, i), 2 + i % 3)
        if is_consistent(fam).consistent:
            consistent_seen += 1
            check = disturbance_check(fam)
            worst = max(worst, abs(check.undisturbed - check.disturbed))
    s = builtin("three-box")
    fine = disturbance_check(HistoryFamily.from_context(s.context, s.observables["C"]))
    elapsed = time.perf_counter() - t0
    ok = (consistent_seen >= 3000 and worst <= 1e-9
          and not fine.holds
          and abs(fine.undisturbed - 1 / 9) <= 1e-12
          and abs(fine.disturbed - 1 / 3) <= 1e-12
          and elapsed < 10.0)
    _report(capsys, "consistency-implies-undisturbed-postselection", ok,
            f"{consistent_seen}/10000 families consistent, worst gap {worst:.1e}; "
            f"fine family fails with {fine.undisturbed:.12g} vs "
            f"{fine.disturbed:.12g}, {elapsed:.2f}s")


def test_standard_weighting_identity(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(10_000):
        rng = substream(2005, i)
        dim = 2 + i % 4
        ctx = make_context(rng, dim)
        final_basis = basis_containing(ctx.postselection)
        obs = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        branch = int(rng.integers(dim))
        total = vaidman_total(ctx.preselection, final_basis, obs, branch)
        born = float(born_distribution(ctx.preselection, obs)[branch])
        worst = max(worst, abs(total - born))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(capsys, "standard-weighting-identity", ok,
            f"10000 random inputs dims 2-5, worst |vaidman-born| {worst:.1e}, "
            f"{elapsed:.2f}s")


def test_naive_weighting_failure(capsys):
    t0 = time.perf_counter()
    # Independent four-term evaluation with plain amplitude arithmetic:
    # tilt pi/3, up preselection, x-basis final measurement.
    up = np.array([1.0, 0.0], dtype=complex)
    tilted = [np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)], dtype=complex),
              np.array([-math.sin(math.pi / 6), math.cos(math.pi / 6)], dtype=complex)]
    sideways = [np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
                np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)]
    joints = [[abs(np.vdot(f, n) * np.vdot(n, up)) ** 2 for n in tilted] for f in sideways]
    conditionals = [row[0] / sum(row) for row in joints]
    by_hand = 0.5 * conditionals[0] + 0.5 * conditionals[1]
    rt3 = math.sqrt(3)
    closed_form_ok = (abs(conditionals[0] - (15 + 6 * rt3) / 26) <= 1e-12
                      and abs(conditionals[1] - (15 - 6 * rt3) / 26) <= 1e-12
                      and abs(by_hand - 15 / 26) <= 1e-12)

    s = builtin("spin-pi3")
    report = mixing_report(s.context.preselection, s.observables["Sx"],
                           s.observables["Sn"], 0)
    spin_ok = (abs(report.ss_total - 0.5770) <= 1e-3
               and abs(report.ss_total - by_hand) <= 1e-12
               and abs(report.born_total - 0.75) <= 1e-12)

    hits = sum(find_counterexample(2, seed, gap_min=0.05, max_tries=1000) is not None
               for seed in range(100))
    elapsed = time.perf_counter() - t0
    ok = closed_form_ok and spin_ok and hits >= 95 and elapsed < 30.0
    _report(capsys, "naive-weighting-failure", ok,
            f"hand total {by_hand:.6f} = toolkit {report.ss_total:.6f} vs born "
            f"{report.born_total}, search hits {hits}/100 seeds, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def mc_run():
    s = builtin("three-box")
    obs = s.observables["C"]
    t0 = time.perf_counter()
    stats = estimate_abl(s.context, obs, TRIALS, SEED)
    p_with = estimate_final_probability(s.context, obs, TRIALS, SEED)
    p_without = estimate_final_probability(s.context, None, TRIALS, SEED)
    elapsed = time.perf_counter() - t0
    return {"scenario": s, "obs": obs, "stats": stats,
            "p_with": p_with, "p_without": p_without, "elapsed": elapsed}


def test_monte_carlo_agreement(capsys, mc_run):
    stats = mc_run["stats"]
    z = np.abs(stats.conditional_freq - 1 / 3) / stats.stderr
    se_with = math.sqrt(mc_run["p_with"] * (1 - mc_run["p_with"]) / TRIALS)
    se_without = math.sqrt(mc_run["p_without"] * (1 - mc_run["p_without"]) / TRIALS)
    dev_with = abs(mc_run["p_with"] - 1 / 3) / se_with
    dev_without = abs(mc_run["p_without"] - 1 / 9) / se_without
    elapsed = mc_run["elapsed"]
    ok = (float(z.max()) <= 4.0 and dev_with <= 4.0 and dev_without <= 4.0
          and elapsed < 60.0)
    _report(capsys, "monte-carlo-agreement", ok,
            f"{TRIALS} trials seed {SEED}: branch |z| max {float(z.max()):.2f}; "
            f"final prob {mc_run['p_without']:.5f} (target 1/9, {dev_without:.2f} se) vs "
            f"{mc_run['p_with']:.5f} (target 1/3, {dev_with:.2f} se), {elapsed:.1f}s")


def test_worker_determinism(capsys, mc_run):
    t0 = time.perf_counter()
    s, obs, base = mc_run["scenario"], mc_run["obs"], mc_run["stats"]
    same = True
    for workers in range(2, 9):
        stats = estimate_abl(s.context, obs, TRIALS, SEED, workers=workers)
        same = same and (stats.trials == base.trials
                         and stats.postselected_count == base.postselected_count
                         and np.array_equal(stats.branch_counts, base.branch_counts)
                         and np.array_equal(stats.conditional_freq, base.conditional_freq)
                         and np.array_equal(stats.stderr, base.stderr))
    same = same and estimate_final_probability(s.context, obs, TRIALS, SEED,
                                               workers=3) == mc_run["p_with"]
    same = same and estimate_final_probability(s.context, None, TRIALS, SEED,
                                               workers=5) == mc_run["p_without"]
    elapsed = time.perf_counter() - t0
    _report(capsys, "worker-determinism", same,
            f"estimates bit-identical across 1-8 workers, {elapsed:.1f}s")
