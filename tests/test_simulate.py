import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ablkit.simulate

from ablkit.abl import DIV_TOL, PrePostContext, abl_distribution, disturbed_final_probability
from ablkit.errors import NoPostselectedTrialsError, ValidationError
from ablkit.linalg import Ket, ObservableDecomposition, basis_containing, complete_basis
from ablkit.sampling import random_basis, substream
from ablkit.scenarios import BUILTIN_NAMES, builtin, spin, three_box
from ablkit.simulate import (
    CHUNK,
    EnsembleStats,
    TrialRecord,
    estimate_abl,
    estimate_final_probability,
    _TrialSampler,
    run_trial,
)

from conftest import make_context, mixed_rank_decomposition

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


def _tables_oracle(ctx, observable):
    # The sampler's tables as it built them one branch at a time, before the
    # collapse was batched: (final_cums, postselect_below).
    dim = ctx.dim
    final_states = np.array(complete_basis([ctx.postselection.amplitudes], dim))
    if observable is None:
        weights = np.abs(final_states.conj() @ ctx.preselection.amplitudes) ** 2
        cums = np.cumsum(weights)[None, :]
    else:
        cums = np.zeros((len(observable), dim))
        for j in range(len(observable)):
            collapsed = observable.matrix(j) @ ctx.preselection.amplitudes
            norm = float(np.linalg.norm(collapsed))
            if norm <= DIV_TOL:
                continue
            collapsed = collapsed / norm
            cums[j] = np.cumsum(np.abs(final_states.conj() @ collapsed) ** 2)
    return cums, (cums[:, 0] if dim > 1 else np.full(len(cums), np.inf))


def _assert_tables_bitwise(ctx, observable):
    sampler = _TrialSampler(ctx, observable)
    cums, below = _tables_oracle(ctx, observable)
    # Thresholds decide counts, so equal to the last bit, not to a tolerance.
    for got, want in ((sampler.final_cums, cums), (sampler.postselect_below, below)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "spin:0", "spin:0.7", "spin:-2.5"])
def test_sampler_tables_match_per_branch_collapse_on_builtins(name):
    scenario = builtin(name)
    # three-box A and B have branches of Born weight 0 (rows left at 0)
    for observable in [None, *scenario.observables.values()]:
        _assert_tables_bitwise(scenario.context, observable)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["eigenbasis", "mixed-rank", "around-pre", "none"]))
def test_sampler_tables_match_per_branch_collapse_on_random_draws(data, dim, seed, kind):
    rng = np.random.default_rng(seed)
    ctx = make_context(rng, dim)
    if kind == "eigenbasis":
        observable = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
    elif kind == "mixed-rank":
        ranks, left = [], dim
        while left:
            ranks.append(data.draw(st.integers(1, left)))
            left -= ranks[-1]
        observable = mixed_rank_decomposition(seed, ranks)
    elif kind == "around-pre":
        # every branch but 0 has Born weight ~0
        observable = basis_containing(ctx.preselection)
    else:
        observable = None
    _assert_tables_bitwise(ctx, observable)


class _FixedUniforms:
    # Stands in for a substream: hands out one chosen row of uniforms.
    def __init__(self, row):
        self.row = row

    def random(self, size=None):
        return self.row[0] if size is None else self.row[:size]


@pytest.mark.parametrize("norm, live", [(2e-12, True), (5e-13, False)])
def test_sampler_skip_of_collapsed_norms_near_div_tol(norm, live):
    # Branch 0 collapses the preselection to a vector of the given norm, just
    # above or just below DIV_TOL.  Its Born weight norm**2 is far below any
    # Philox draw, so the uniform rows are chosen: u0 = 0 draws branch 0.
    a = Ket(np.array([norm, np.sqrt(1.0 - norm ** 2)], dtype=complex))
    ctx = PrePostContext(a, Ket.normalized([1, 1j]))
    flipped = ObservableDecomposition.from_eigenbasis(
        [Ket.normalized([1, 0]), Ket.normalized([0, 1])])
    assert float(np.linalg.norm(flipped.stack[0] @ a.amplitudes)) == pytest.approx(norm)
    sampler = _TrialSampler(ctx, flipped)
    assert not np.isnan(sampler.final_cums).any()
    assert bool(sampler.final_cums[0].any()) == live
    u = np.array([[0.0, 0.0], [0.0, 0.3], [0.0, 0.7], [0.0, 1.0 - 2 ** -53], [1e-300, 0.5],
                  [norm ** 2 / 2, 0.4], [0.5, 0.2], [0.5, 0.6], [1.0 - 2 ** -53, 0.1]])
    u = np.concatenate([u, ablkit.simulate.substream_uniforms(5, 0, 40, 2)])
    records = [sampler.sample(_FixedUniforms(row)) for row in u]
    assert sum(r.intermediate_branch == 0 for r in records) == 6
    assert any(r.postselected and r.intermediate_branch == 0 for r in records) == live
    assert sampler.tally(u).tolist() == _scalar_counts(records, len(flipped))


def test_a_uniform_past_the_last_cumulative_weight_draws_the_last_branch():
    # Ten Born weights of 0.1 sum to 1 - 2**-53, so u0 = 1 - 2**-53 lies past
    # every cumulative entry and only the clamp keeps the draw on branch 9.
    uniform = Ket.normalized(np.ones(10))
    ctx = PrePostContext(uniform, uniform)
    observable = ObservableDecomposition.from_eigenbasis([Ket(row) for row in np.eye(10)])
    sampler = _TrialSampler(ctx, observable)
    assert sampler.intermediate_cum[-1] == 1.0 - 2 ** -53
    u = np.array([[1.0 - 2 ** -53, u1] for u1 in (0.0, 0.05, 0.5)])
    assert (sampler.intermediate_cum.searchsorted(u[:, 0], side="right") == 10).all()
    records = [run_trial(ctx, observable, _FixedUniforms(row)) for row in u]
    assert records == [TrialRecord(9, 0, True), TrialRecord(9, 0, True), TrialRecord(9, 9, False)]
    assert all(type(r.intermediate_branch) is int and type(r.final_branch) is int
               for r in records)
    assert sampler.tally(u).tolist() == [2] + [0] * 9 + [2]


#: Ensembles per exact-binomial check, and the trials in each.
PIT_SEEDS, PIT_TRIALS = 300, 4000
_LOG_FACTORIALS = np.array([math.lgamma(i + 1) for i in range(PIT_TRIALS + 1)])


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Exact Binomial(n, p) pmf over 0..n, for n <= PIT_TRIALS, from log space."""
    k = np.arange(n + 1)
    return np.exp(_LOG_FACTORIALS[n] - _LOG_FACTORIALS[k] - _LOG_FACTORIALS[n - k]
                  + k * math.log(p) + (n - k) * math.log1p(-p))


def _randomized_pit(count: int, n: int, p: float, v: float) -> float:
    # F(count - 1) + v * P(count): exactly Uniform(0, 1) when count is
    # Binomial(n, p) and v is an independent uniform.
    pmf = _binomial_pmf(n, p)
    return float(pmf[:count].sum() + v * pmf[count])



@pytest.mark.parametrize("name, observable", [("three-box", None), ("three-box", "C"),
                                              ("spin-pi3", "Sn")])
def test_sampler_counts_follow_the_exact_binomial(name, observable):
    """Over seeds 0-299 at 4000 trials, the postselected count without an
    intermediate measurement, or the count of intermediate branch 0 given
    the postselected count, is Binomial with the exact probability.  Their
    randomized PIT values must then be Uniform(0, 1): the test refuses when
    the Kolmogorov-Smirnov distance D exceeds sqrt(ln(2 / alpha) / (2 n)),
    which by the Dvoretzky-Kiefer-Wolfowitz inequality (Massart's constant)
    a correct sampler does with probability at most alpha = 1e-6 per case."""
    scenario = builtin(name)
    ctx = scenario.context
    v = np.random.default_rng(2024).random(PIT_SEEDS)
    pit = []
    for seed in range(PIT_SEEDS):
        if observable is None:
            p = abs(np.vdot(ctx.postselection.amplitudes, ctx.preselection.amplitudes)) ** 2
            n = PIT_TRIALS
            count = round(estimate_final_probability(ctx, None, n, seed) * n)
        else:
            obs = scenario.observables[observable]
            p = float(abl_distribution(ctx, obs).probabilities[0])
            stats = estimate_abl(ctx, obs, PIT_TRIALS, seed)
            n, count = stats.postselected_count, int(stats.branch_counts[0])
        pit.append(_randomized_pit(count, n, p, v[seed]))
    u = np.sort(pit)
    ranks = np.arange(1, PIT_SEEDS + 1) / PIT_SEEDS
    distance = max((ranks - u).max(), (u - ranks + 1 / PIT_SEEDS).max())
    assert distance <= math.sqrt(math.log(2 / 1e-6) / (2 * PIT_SEEDS))
