"""Monte Carlo simulation of pre/postselected runs.

Each trial prepares the preselected state, optionally measures the
intermediate observable (Born draw, then Lüders collapse onto ``P_j a``
renormalized by ``Ket._norm``, both from ``observable._born(a)``), and
finally measures a basis containing the postselection state; the trial is
postselected when that final outcome is branch 0.  Trial ``i`` of a run
draws all its randomness from the first Philox block of substream ``(seed,
i)``, at counter ``[1, 0, 0, i]``, so ensembles are bit-reproducible for a
given (seed, trials).  Ensembles are drawn ``CHUNK`` trials at a time with
``substream_uniforms`` and tallied with array operations; ``run_trial`` on
``substream(seed, i)`` is the same trial drawn one at a time.  A run of more
than 10**10 trials, the work budget, is refused before any is drawn.  The
``workers`` keyword is validated and otherwise changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# born_distribution and substream are unused here; bench/workloads.py's tracer rebinds them.
from .abl import DIV_TOL, PrePostContext, born_distribution  # noqa: F401
from .errors import NoPostselectedTrialsError, ValidationError
from .linalg import Ket, ObservableDecomposition, complete_basis
from .sampling import substream, substream_uniforms  # noqa: F401

#: Trials drawn and tallied per array pass; bounds the temporaries' size.
CHUNK = 1 << 16
#: Trials one run may ask for: about 18 minutes at 9.3e6 trials/s (README).
_MAX_TRIALS = 10 ** 10


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


def _pick(cumulative: np.ndarray, u):
    # Inverse-CDF draw(s); the clamp absorbs cumulative sums that round below 1.
    return np.minimum(cumulative.searchsorted(u, side="right"), len(cumulative) - 1)


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
        a = ctx.preselection.amplitudes
        if observable is None:
            self.intermediate_cum = None
            live, unit = np.ones(1, dtype=bool), a[None, :]
        else:
            collapsed, born = observable._born(a)
            self.intermediate_cum = born.cumsum()
            # Branches of Born weight ~0 are never drawn; their rows stay 0.
            norms = np.array([Ket._norm(c) for c in collapsed])
            live = norms > DIV_TOL
            unit = collapsed[live] / norms[live, None]
        # These thresholds decide counts: per-row norms and stacked matvecs
        # keep them bitwise those of collapsing one branch at a time.
        # Their np.abs(...) ** 2 is not _weights's re^2 + im^2: counts rest on its bits.
        self.final_cums = np.zeros((len(live), dim))
        self.final_cums[live] = (
            np.abs(final_states.conj() @ unit[:, :, None])[:, :, 0] ** 2).cumsum(axis=1)
        # _pick returns final outcome 0 exactly when no entry of the
        # (nondecreasing) row is <= u, i.e. when u < row[0]; with a
        # one-element basis its clamp always returns 0.
        self.postselect_below = (self.final_cums[:, 0] if dim > 1
                                 else np.full(len(self.final_cums), np.inf))

    @property
    def draws(self) -> int:
        """Uniforms each trial consumes."""
        return 1 if self.intermediate_cum is None else 2

    def tally(self, u: np.ndarray) -> np.ndarray:
        """Counts for the trials whose uniforms are the rows of ``u``:
        ``[postselected, postselected with intermediate branch 0, ...]``,
        the same as tallying :meth:`sample` row by row."""
        if self.intermediate_cum is None:
            return np.array([np.count_nonzero(u[:, 0] < self.postselect_below[0])])
        branch = _pick(self.intermediate_cum, u[:, 0])
        hits = branch[u[:, 1] < self.postselect_below[branch]]
        return np.concatenate(([hits.size], np.bincount(hits, minlength=self.n_branches)))

    def sample(self, rng: np.random.Generator) -> TrialRecord:
        u = rng.random(self.draws)
        branch = None if self.intermediate_cum is None else int(_pick(self.intermediate_cum, u[0]))
        final = int(_pick(self.final_cums[branch or 0], u[-1]))
        return TrialRecord(branch, final, final == 0)


def run_trial(ctx: PrePostContext, observable: ObservableDecomposition | None,
              rng: np.random.Generator) -> TrialRecord:
    """Simulate a single run, drawing from ``rng``."""
    return _TrialSampler(ctx, observable).sample(rng)


def _ensemble_counts(ctx: PrePostContext, observable: ObservableDecomposition | None,
                     trials: int, seed: int, workers: int) -> np.ndarray:
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    if trials > _MAX_TRIALS:
        raise ValidationError(f"trials must be at most 10**10, the work budget, got {trials}")
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    sampler = _TrialSampler(ctx, observable)
    # counts[0] = postselected trials; counts[1 + j] = postselected with
    # intermediate branch j.
    counts = np.zeros(1 + sampler.n_branches, dtype=np.int64)
    for start in range(0, trials, CHUNK):
        u = substream_uniforms(seed, start, min(start + CHUNK, trials), sampler.draws)
        counts += sampler.tally(u)
    return counts


def estimate_abl(ctx: PrePostContext, observable: ObservableDecomposition,
                 trials: int, seed: int, *, workers: int = 1) -> EnsembleStats:
    """Estimate the ABL distribution by conditioning simulated runs on
    postselection.  Raises :class:`NoPostselectedTrialsError` when not a
    single trial postselects."""
    counts = _ensemble_counts(ctx, observable, trials, seed, workers)
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
    counts = _ensemble_counts(ctx, observable, trials, seed, workers)
    return int(counts[0]) / trials
