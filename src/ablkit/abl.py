"""Probabilities for measurements between a preselection and a postselection.

The ABL rule gives the probability of finding outcome ``c_i`` in an
intermediate projective measurement of ``C = sum_i c_i P_i``, conditioned on
preparing ``|a>`` beforehand and successfully postselecting ``|b>``
afterwards:

    P(c_i | a, b) = |<b|P_i|a>|^2 / sum_j |<b|P_j|a>|^2

The numerator terms are the joint probabilities "outcome i, then
postselection succeeds"; the denominator is the total probability that the
postselection succeeds at all, given that C was measured.  Every rank-1
quantity reads the amplitudes ``x_j = <b|P_j|a>`` from the one kernel that
:mod:`ablkit.histories` reads too; the trace form ``Tr(P_b P_j P_a P_j)``
serves only the projector endpoints of :func:`abl_probabilities`.  This
module also covers the Born distribution (``ObservableDecomposition._born``),
the Lüders update after a projective outcome, and the postselection
probability as disturbed by an intervening measurement.  The joints are
``ObservableDecomposition._weights`` of the amplitudes, and the Lüders
update divides by ``Ket._norm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatchError, ImpossiblePostselectionError, ValidationError,
                     ZeroProjectionError)
from .linalg import Ket, ObservableDecomposition, Projector, operator_matrix

#: Denominators at or below this threshold count as zero.
DIV_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PrePostContext:
    """A preselected and postselected experiment: prepare ``preselection`` at
    the initial time, accept the run only if a final measurement finds
    ``postselection``."""

    preselection: Ket
    postselection: Ket

    def __post_init__(self):
        if self.preselection.dim != self.postselection.dim:
            raise DimensionMismatchError(
                f"preselection dim {self.preselection.dim} != postselection dim {self.postselection.dim}")

    @property
    def dim(self) -> int:
        return self.preselection.dim

    @property
    def initial_projector(self) -> np.ndarray:
        """Rank-1 projector matrix onto the preselected state, built on access."""
        return self.preselection.projector().matrix

    @property
    def final_projector(self) -> np.ndarray:
        """Rank-1 projector matrix onto the postselected state, built on access."""
        return self.postselection.projector().matrix


@dataclass(frozen=True, eq=False)
class AblDistribution:
    """ABL conditional outcome probabilities together with the raw
    denominator ``float(joints.sum())``, the postselection probability if
    the observable is measured (what :func:`disturbed_final_probability`
    returns), kept so callers can see how close the conditioning came to
    being impossible, and the read-only ``joints`` it conditioned: entry
    ``i`` is :func:`joint_probability` for branch ``i``."""

    context: PrePostContext
    observable: ObservableDecomposition
    probabilities: np.ndarray
    denominator: float
    joints: np.ndarray


def born_distribution(state: Ket, observable: ObservableDecomposition) -> np.ndarray:
    """Born outcome probabilities for measuring ``observable`` on ``state``."""
    return observable._born(state.amplitudes)[1]


def _context_joints(ctx: PrePostContext, observable: ObservableDecomposition) -> np.ndarray:
    if ctx.dim != observable.dim:
        raise DimensionMismatchError(f"context dim {ctx.dim} != observable dim {observable.dim}")
    x = ObservableDecomposition._amplitudes(observable.stack, ctx.preselection.amplitudes,
                                            ctx.postselection.amplitudes)
    return ObservableDecomposition._weights(x)


def joint_probability(ctx: PrePostContext, observable: ObservableDecomposition, branch: int) -> float:
    """Probability of outcome ``branch`` AND a successful postselection,
    given preparation in ``ctx.preselection`` and a measurement of
    ``observable`` in between."""
    joints = _context_joints(ctx, observable)
    if not 0 <= branch < len(observable):
        raise IndexError(f"branch {branch} out of range for {len(observable)} branches")
    return float(joints[branch])


def _conditionals(joints: np.ndarray, div_tol: float) -> tuple[np.ndarray, float]:
    denominator = float(joints.sum())
    if denominator <= div_tol:
        raise ImpossiblePostselectionError(
            f"postselection probability {denominator!r} is below the division cutoff {div_tol}")
    return joints / denominator, denominator


def abl_probabilities(initial, observable: ObservableDecomposition, final,
                      *, div_tol: float = DIV_TOL) -> tuple[np.ndarray, float]:
    """ABL conditional probabilities in projector form.

    ``initial`` and ``final`` are projectors (or matrices) and may have rank
    above 1; the rank-1 case reduces to conditioning on pure pre- and
    postselected states.  Returns ``(probabilities, denominator)``.

    Raises :class:`ImpossiblePostselectionError` when the denominator, the
    probability that the postselection succeeds at all, is ``div_tol`` or
    below.
    """
    if not div_tol >= 0.0:
        raise ValidationError(f"tolerance must be non-negative, got {div_tol}")
    p_init = operator_matrix(initial, dim=observable.dim)
    p_final = operator_matrix(final, dim=observable.dim)
    stack = observable.stack
    # Tr(P_f P_j P_i P_j) for every branch j at once.
    traces = np.einsum("jab,jba->j", p_final @ stack, p_init @ stack)
    return _conditionals(np.maximum(traces.real, 0.0), div_tol)


def abl_distribution(ctx: PrePostContext, observable: ObservableDecomposition) -> AblDistribution:
    """The ABL distribution of ``observable`` outcomes in a pre- and
    postselected context."""
    joints = _context_joints(ctx, observable)
    probs, denominator = _conditionals(joints, DIV_TOL)
    probs.setflags(write=False)
    joints.setflags(write=False)
    return AblDistribution(ctx, observable, probs, denominator, joints)


def luders_update(state: Ket, projector) -> Ket:
    """State after a projective outcome: project and renormalize.  Only a raw
    matrix goes through the :class:`Projector` checks."""
    m = operator_matrix(projector, dim=state.dim)
    if not isinstance(projector, Projector):
        Projector._checked(m.copy())  # a copy: the checks leave it read-only
    projected = m @ state.amplitudes
    norm = Ket._norm(projected)
    if norm <= DIV_TOL:
        raise ZeroProjectionError("state is orthogonal to the outcome subspace")
    return Ket(projected / norm)


def disturbed_final_probability(ctx: PrePostContext, observable: ObservableDecomposition) -> float:
    """Probability that the postselection succeeds when ``observable`` is
    measured (and its outcome discarded) between the two selections.

    This is the ABL denominator ``float(joints.sum())``, bit for bit
    :attr:`AblDistribution.denominator`; with no intervening measurement the
    postselection probability would instead be ``|<b|a>|^2``.
    """
    return float(_context_joints(ctx, observable).sum())
