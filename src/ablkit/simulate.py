"""Monte Carlo simulation of pre/postselected runs.

Each trial prepares the preselected state, optionally measures the
intermediate observable (Born draw, then Lüders collapse), and finally
measures a basis containing the postselection state; the trial is
postselected when that final outcome is branch 0.  Trial ``i`` of a run
draws all its randomness from ``substream(seed, i)``, so ensembles are
bit-reproducible for a given (seed, trials).  The ``workers`` keyword is
validated and otherwise changes nothing: the trials run in one loop on the
calling thread, so neither the counts nor how they are computed depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abl import DIV_TOL, PrePostContext, born_distribution
from .errors import NoPostselectedTrialsError, ValidationError
from .linalg import Ket, ObservableDecomposition, complete_basis
from .sampling import substream


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one simulated run.  ``intermediate_branch`` is ``None``
    when no intermediate measurement was performed."""

    intermediate_branch: int | None
    final_branch: int
    postselected: bool


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Conditional outcome frequencies among postselected trials.

    ``stderr`` is the binomial standard error sqrt(f (1 - f) / n) at the
    postselected count n.
    """

    trials: int
    postselected_count: int
    branch_counts: np.ndarray
    conditional_freq: np.ndarray
    stderr: np.ndarray


def _pick(cumulative: np.ndarray, u: float) -> int:
    # Inverse-CDF draw; the clamp absorbs cumulative sums that round below 1.
    idx = int(np.searchsorted(cumulative, u, side="right"))
    return min(idx, len(cumulative) - 1)


class _TrialSampler:
    """Precomputed sampling tables for one (context, observable) pair.

    Read-only after construction.  A trial consumes one uniform (no
    intermediate measurement) or two (Born draw for the intermediate branch,
    then the final basis draw from the collapsed state), making each trial a
    pure function of its substream.
    """

    def __init__(self, ctx: PrePostContext, observable: ObservableDecomposition | None):
        dim = ctx.dim
        final_states = np.array(complete_basis([ctx.postselection.amplitudes], dim))
        self.n_branches = 0 if observable is None else len(observable)
        if observable is None:
            self.intermediate_cum = None
            weights = np.abs(final_states.conj() @ ctx.preselection.amplitudes) ** 2
            self.final_cums = np.cumsum(weights)[None, :]
        else:
            born = born_distribution(ctx.preselection, observable)
            self.intermediate_cum = np.cumsum(born)
            cums = np.zeros((len(observable), dim))
            for j in range(len(observable)):
                collapsed = observable.matrix(j) @ ctx.preselection.amplitudes
                norm = float(np.linalg.norm(collapsed))
                if norm <= DIV_TOL:
                    # Branch has Born weight ~0 and can never be drawn.
                    continue
                collapsed = collapsed / norm
                cums[j] = np.cumsum(np.abs(final_states.conj() @ collapsed) ** 2)
            self.final_cums = cums

    def sample(self, rng: np.random.Generator) -> TrialRecord:
        if self.intermediate_cum is None:
            final = _pick(self.final_cums[0], rng.random())
            return TrialRecord(None, final, final == 0)
        u = rng.random(2)
        branch = _pick(self.intermediate_cum, u[0])
        final = _pick(self.final_cums[branch], u[1])
        return TrialRecord(branch, final, final == 0)


def run_trial(ctx: PrePostContext, observable: ObservableDecomposition | None,
              rng: np.random.Generator) -> TrialRecord:
    """Simulate a single run, drawing from ``rng``."""
    return _TrialSampler(ctx, observable).sample(rng)


def _ensemble_counts(sampler: _TrialSampler, trials: int, seed: int, workers: int) -> np.ndarray:
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    # counts[0] = postselected trials; counts[1 + j] = postselected with
    # intermediate branch j.
    counts = np.zeros(1 + sampler.n_branches, dtype=np.int64)
    for i in range(trials):
        record = sampler.sample(substream(seed, i))
        if record.postselected:
            counts[0] += 1
            if record.intermediate_branch is not None:
                counts[1 + record.intermediate_branch] += 1
    return counts


def estimate_abl(ctx: PrePostContext, observable: ObservableDecomposition,
                 trials: int, seed: int, *, workers: int = 1) -> EnsembleStats:
    """Estimate the ABL distribution by conditioning simulated runs on
    postselection.  Raises :class:`NoPostselectedTrialsError` when not a
    single trial postselects."""
    sampler = _TrialSampler(ctx, observable)
    counts = _ensemble_counts(sampler, trials, seed, workers)
    postselected = int(counts[0])
    if postselected == 0:
        raise NoPostselectedTrialsError(
            f"none of the {trials} trials passed postselection (seed {seed})")
    branch_counts = counts[1:]
    freq = branch_counts / postselected
    stderr = np.sqrt(freq * (1.0 - freq) / postselected)
    return EnsembleStats(trials, postselected, branch_counts, freq, stderr)


def estimate_final_probability(ctx: PrePostContext,
                               observable: ObservableDecomposition | None,
                               trials: int, seed: int, *, workers: int = 1) -> float:
    """Fraction of trials that pass postselection, with or without an
    intervening measurement of ``observable``."""
    sampler = _TrialSampler(ctx, observable)
    counts = _ensemble_counts(sampler, trials, seed, workers)
    return int(counts[0]) / trials
