"""Does a conditional probability license counterfactual use?

Setup: prepare ``a``, measure the final basis ``{b_l}``, and ask about an
intermediate measurement of observable ``C`` that was not actually
performed.  Two ways of averaging the per-postselection ABL conditionals
over the final mixture:

* ``sharp_shanks_total`` weights each conditional by the probability
  |<b_l|a>|^2 of that final outcome when nothing intervenes.  If ABL
  conditionals could be read counterfactually, this would recover the Born
  probability of the outcome; in general it does not.

* ``vaidman_total`` weights each conditional by the probability that the
  final outcome is ``b_l`` given that ``C`` *was* measured in between.  With
  those weights the average provably telescopes back to the Born
  probability, which is the sanity check that the mixing arithmetic itself
  is sound.

The gap between the first total and the Born value is the quantitative
failure of counterfactual use; ``find_counterexample`` searches random
scenarios for a gap above threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abl import DIV_TOL, born_distribution
from .errors import DimensionMismatchError, UndefinedTermError, ValidationError
from .linalg import Ket, ObservableDecomposition
from .sampling import random_basis, random_ket, substream

#: Default minimum gap for the counterexample search.
DEFAULT_GAP_MIN = 0.01


@dataclass(frozen=True)
class MixingReport:
    """The three totals for one (state, final basis, observable, branch)
    question, and the counterfactual gap |born_total - ss_total|."""

    born_total: float
    ss_total: float
    vaidman_total: float
    ss_gap: float


@dataclass(frozen=True, eq=False)
class Counterexample:
    """A scenario whose mixing gap exceeded the search threshold.

    ``tries`` is the 1-based index of the successful draw, a crude empirical
    handle on how common such violations are at the given dimension.
    """

    preselection: Ket
    final_basis: ObservableDecomposition
    observable: ObservableDecomposition
    branch: int
    report: MixingReport
    tries: int


def _check_inputs(a: Ket, final_basis: ObservableDecomposition,
                  observable: ObservableDecomposition, branch: int):
    if not (a.dim == final_basis.dim == observable.dim):
        raise DimensionMismatchError(
            f"dimensions differ: state {a.dim}, final basis {final_basis.dim}, "
            f"observable {observable.dim}")
    if not 0 <= branch < len(observable):
        raise IndexError(f"branch {branch} out of range for {len(observable)} branches")


def _joint_table(a: Ket, final_basis: ObservableDecomposition,
                 observable: ObservableDecomposition, branch: int) -> np.ndarray:
    # joints[l, j] = Tr(F_l P_j P_a P_j) = ||F_l P_j a||^2 for final-basis
    # branches F_l of any rank.
    _check_inputs(a, final_basis, observable, branch)
    w = (observable.stack @ a.amplitudes) @ final_basis.stack.swapaxes(1, 2)
    return (w.real ** 2 + w.imag ** 2).sum(axis=2)


def sharp_shanks_total(a: Ket, final_basis: ObservableDecomposition,
                       observable: ObservableDecomposition, branch: int) -> float:
    """Average the ABL conditionals for ``branch`` over the final outcomes,
    weighted as if nothing were measured in between.

    Final outcomes of zero weight contribute nothing and their (possibly
    undefined) conditionals are never consulted.  A nonzero-weight outcome
    whose ABL denominator vanishes leaves the average undefined and raises
    :class:`UndefinedTermError`.
    """
    joints = _joint_table(a, final_basis, observable, branch)
    denominators = joints.sum(axis=1)
    weights = born_distribution(a, final_basis)
    live = weights > DIV_TOL
    undefined = np.flatnonzero(live & (denominators <= DIV_TOL))
    if undefined.size:
        l = int(undefined[0])
        raise UndefinedTermError(
            f"final outcome {l} has weight {float(weights[l])!r} but the ABL conditional is "
            f"undefined (denominator {float(denominators[l])!r})")
    return float(np.sum(weights[live] * (joints[live, branch] / denominators[live])))


def vaidman_total(a: Ket, final_basis: ObservableDecomposition,
                  observable: ObservableDecomposition, branch: int) -> float:
    """Same average, but weighted by the final-outcome probabilities that
    obtain when the intermediate observable really is measured.  Equals the
    Born probability of ``branch`` up to rounding."""
    joints = _joint_table(a, final_basis, observable, branch)
    denominators = joints.sum(axis=1)
    # The disturbed weight of an outcome is its ABL denominator, so outcomes
    # with a vanishing denominator contribute zero.
    live = denominators > DIV_TOL
    return float(np.sum(denominators[live] * (joints[live, branch] / denominators[live])))


def mixing_report(a: Ket, final_basis: ObservableDecomposition,
                  observable: ObservableDecomposition, branch: int) -> MixingReport:
    _check_inputs(a, final_basis, observable, branch)
    born_total = float(born_distribution(a, observable)[branch])
    ss_total = sharp_shanks_total(a, final_basis, observable, branch)
    vt = vaidman_total(a, final_basis, observable, branch)
    return MixingReport(born_total, ss_total, vt, float(abs(born_total - ss_total)))


def find_counterexample(dim: int, seed: int, gap_min: float = DEFAULT_GAP_MIN,
                        max_tries: int = 1000) -> Counterexample | None:
    """Search Haar-random scenarios for a counterfactual gap above ``gap_min``.

    Try ``t`` draws everything from ``substream(seed, t)``, so the result is
    a pure function of (dim, seed, gap_min, max_tries): re-running returns
    the identical counterexample, and re-evaluating its report from the
    stored fields reproduces the numbers bit for bit.  Returns ``None`` when
    ``max_tries`` draws all fall short.
    """
    if not 2 <= dim <= 6:
        raise ValidationError(f"dim must be in [2, 6], got {dim}")
    if not gap_min > 0.0:
        raise ValidationError(f"gap_min must be positive, got {gap_min}")
    if max_tries < 1:
        raise ValidationError(f"max_tries must be at least 1, got {max_tries}")
    for t in range(max_tries):
        rng = substream(seed, t)
        a = random_ket(rng, dim)
        final_basis = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        observable = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        branch = int(rng.integers(dim))
        try:
            report = mixing_report(a, final_basis, observable, branch)
        except UndefinedTermError:
            continue
        if report.ss_gap > gap_min:
            return Counterexample(a, final_basis, observable, branch, report, t + 1)
    return None
