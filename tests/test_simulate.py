import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ablkit.simulate

from ablkit.abl import PrePostContext, abl_distribution, disturbed_final_probability
from ablkit.errors import NoPostselectedTrialsError, ValidationError
from ablkit.linalg import Ket, basis_containing
from ablkit.sampling import substream
from ablkit.scenarios import spin, three_box
from ablkit.simulate import (
    CHUNK,
    EnsembleStats,
    TrialRecord,
    estimate_abl,
    estimate_final_probability,
    _TrialSampler,
    run_trial,
)

SCENARIO = three_box()
CTX = SCENARIO.context
C = SCENARIO.observables["C"]


def test_run_trial_is_deterministic_per_substream():
    first = run_trial(CTX, C, substream(5, 17))
    second = run_trial(CTX, C, substream(5, 17))
    assert first == second
    assert isinstance(first, TrialRecord)
    assert first.postselected == (first.final_branch == 0)


def test_run_trial_without_observable():
    rec = run_trial(CTX, None, substream(5, 0))
    assert rec.intermediate_branch is None


def test_eigenstate_always_yields_branch_zero():
    a_basis = SCENARIO.observables["A"]
    for i in range(50):
        rec = run_trial(CTX, a_basis, substream(11, i))
        assert rec.intermediate_branch == 0


def test_identical_selections_always_postselect():
    up = Ket.normalized([1, 0])
    ctx = PrePostContext(up, up)
    assert estimate_final_probability(ctx, None, 500, 3) == 1.0


def test_no_postselected_trials_raises():
    ctx = PrePostContext(Ket.normalized([1, 0]), Ket.normalized([0, 1]))
    with pytest.raises(NoPostselectedTrialsError):
        estimate_abl(ctx, basis_containing(ctx.preselection), 200, 0)


def test_estimate_abl_three_box_matches_exact():
    stats = estimate_abl(CTX, C, 20000, 42)
    assert isinstance(stats, EnsembleStats)
    exact = abl_distribution(CTX, C).probabilities
    for i in range(3):
        z = (stats.conditional_freq[i] - exact[i]) / stats.stderr[i]
        assert abs(z) <= 4.0
    # counting identities
    assert stats.branch_counts.sum() == stats.postselected_count
    assert stats.conditional_freq.sum() == pytest.approx(1.0, abs=1.0 / stats.postselected_count)


def test_stderr_is_binomial():
    stats = estimate_abl(CTX, C, 5000, 1)
    f = stats.conditional_freq
    n = stats.postselected_count
    np.testing.assert_array_equal(stats.stderr, np.sqrt(f * (1.0 - f) / n))


def test_simulated_frequencies_follow_abl_not_born():
    s = spin(math.pi / 3)
    stats = estimate_abl(s.context, s.observables["Sn"], 20000, 7)
    freq = stats.conditional_freq[0]
    se = stats.stderr[0]
    assert abs(freq - 0.9) <= 4.0 * se
    # the Born value 0.75 is dozens of standard errors away
    assert abs(freq - 0.75) > 20.0 * se


def test_estimate_final_probability_distinguishes_disturbance():
    n = 20000
    with_measurement = estimate_final_probability(CTX, C, n, 42)
    without = estimate_final_probability(CTX, None, n, 42)
    se = math.sqrt((1 / 3) * (2 / 3) / n)
    assert abs(with_measurement - disturbed_final_probability(CTX, C)) <= 4.0 * se
    assert abs(without - 1.0 / 9.0) <= 4.0 * math.sqrt((1 / 9) * (8 / 9) / n)
    assert with_measurement > without


def test_zero_weight_branches_never_sampled():
    a_basis = SCENARIO.observables["A"]
    stats = estimate_abl(CTX, a_basis, 2000, 9)
    np.testing.assert_array_equal(stats.branch_counts, [stats.postselected_count, 0, 0])
    np.testing.assert_array_equal(stats.conditional_freq, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(stats.stderr, [0.0, 0.0, 0.0])


def test_worker_count_does_not_change_results():
    trials = 10007  # prime, so chunks are uneven
    baseline = estimate_abl(CTX, C, trials, 5)
    for workers in range(2, 9):
        stats = estimate_abl(CTX, C, trials, 5, workers=workers)
        assert stats.trials == baseline.trials
        assert stats.postselected_count == baseline.postselected_count
        np.testing.assert_array_equal(stats.branch_counts, baseline.branch_counts)
        np.testing.assert_array_equal(stats.conditional_freq, baseline.conditional_freq)
        np.testing.assert_array_equal(stats.stderr, baseline.stderr)
    p1 = estimate_final_probability(CTX, None, trials, 5)
    assert estimate_final_probability(CTX, None, trials, 5, workers=6) == p1


def test_more_workers_than_trials():
    stats = estimate_abl(CTX, C, 3, 2, workers=8)
    assert stats.trials == 3


def test_input_validation():
    with pytest.raises(ValidationError):
        estimate_abl(CTX, C, 0, 0)
    with pytest.raises(ValidationError):
        estimate_abl(CTX, C, 100, 0, workers=0)
    with pytest.raises(ValidationError):
        estimate_final_probability(CTX, None, -5, 0)


def _scalar_counts(records, n_branches):
    # [postselected, postselected with intermediate branch j, ...], as the
    # ensemble counts them
    post = [r for r in records if r.postselected]
    branches = [r.intermediate_branch for r in post if r.intermediate_branch is not None]
    return [len(post), *np.bincount(branches, minlength=n_branches).tolist()]


def _assert_counts_match(ctx, obs, trials, seed, expected):
    assert estimate_final_probability(ctx, obs, trials, seed) == expected[0] / trials
    if obs is None:
        return
    if expected[0] == 0:
        with pytest.raises(NoPostselectedTrialsError):
            estimate_abl(ctx, obs, trials, seed)
        return
    stats = estimate_abl(ctx, obs, trials, seed)
    assert [stats.postselected_count, *stats.branch_counts.tolist()] == expected


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(
           st.sampled_from(["C", "A", None]).map(lambda name: (SCENARIO, name)),
           st.tuples(st.floats(0.0, 2.0 * math.pi).map(spin), st.sampled_from(["Sn", None]))),
       seed=st.integers(0, 2 ** 128 - 1),
       trials=st.integers(1, 60),
       chunk=st.sampled_from([1, 7, CHUNK]))
def test_ensemble_counts_equal_scalar_trials(case, seed, trials, chunk):
    scenario, name = case
    ctx = scenario.context
    obs = None if name is None else scenario.observables[name]
    records = [run_trial(ctx, obs, substream(seed, i)) for i in range(trials)]
    expected = _scalar_counts(records, 0 if obs is None else len(obs))
    # small chunk sizes make short ensembles cross chunk boundaries
    with mock.patch.object(ablkit.simulate, "CHUNK", chunk):
        _assert_counts_match(ctx, obs, trials, seed, expected)


def test_ensemble_counts_cross_a_chunk_boundary():
    trials, seed = CHUNK + 3, 2 ** 100 + 7
    sampler = _TrialSampler(CTX, C)  # the tables run_trial builds for every trial
    records = [sampler.sample(substream(seed, i)) for i in range(trials)]
    _assert_counts_match(CTX, C, trials, seed, _scalar_counts(records, len(C)))


def test_trials_beyond_the_index_space_are_refused():
    with pytest.raises(ValidationError, match=r"trials must be at most 2\*\*64"):
        estimate_abl(CTX, C, 2 ** 64 + 1, 0)
    with pytest.raises(ValidationError, match=r"seed must be in \[0, 2\*\*128\)"):
        estimate_final_probability(CTX, None, 10, 2 ** 128)
