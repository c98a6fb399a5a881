"""Consistent-histories checks for pre/postselected measurement families.

A history family here is the two-time chain (preselect, measure one
observable, postselect).  Its decoherence functional is

    D(i, j) = Tr(P_b P_i P_a P_j) = x_i conj(x_j),  x_i = <b|P_i|a>

whose diagonal holds the joint probabilities of the chain.  A family
computes its amplitudes ``x`` and |<b|a>|^2 once, at construction.  It is
consistent (medium decoherence) when every off-diagonal entry vanishes;
under the weaker criterion only the real parts have to vanish.  For a
consistent family the intervening measurement does not disturb the
postselection statistics: sum_j D(j, j) equals |<b|a>|^2.  That disturbance
identity is checked separately so callers can see both predicates; the
implication only runs from consistency to the identity, not back.
``coarse_graining_table`` gives both verdicts for the families around every
grouping of the observable's branches from one table of block amplitudes
x_I = <b|sum_{i in I} P_i|a>, through the same routines as one family's
rows; ``coarse_graining_verdicts`` wraps its rows in the reports above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .abl import PrePostContext
from .errors import TooManyBranchesError, ValidationError, DimensionMismatchError
from .linalg import ObservableDecomposition, Projector

#: Default tolerance for consistency verdicts and the disturbance identity.
CONSISTENCY_TOL = 1e-9

#: Branch-count cap for coarse-graining enumeration (partition counts grow
#: like the Bell numbers: 7 branches would already mean 877 families).
MAX_ENUMERATED_BRANCHES = 6

_CRITERIA = ("medium", "weak")


def _state_of(projector: Projector) -> np.ndarray:
    # A unit vector spanning a rank-1 projector, up to a global phase (which
    # cancels from every quantity below): its largest column, rescaled.
    m = projector.matrix
    k = int(m.diagonal().real.argmax())
    return m[:, k] / math.sqrt(m[k, k].real)


def _amplitudes(stack: np.ndarray, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    # x_i = <b|P_i|a> for each matrix P_i of ``stack``.  Per-row np.vdot keeps
    # the rounding residue of cancelling terms (1e-18 for the three-box coarse
    # families) that a zero tolerance sees and the captured CLI outputs pin; a
    # stacked matmul can round it to exactly 0.
    return np.array([np.vdot(post, p) for p in stack @ pre])


def _decoherence(x: np.ndarray, criterion: str, tol: float):
    # For each row of the (k, n) amplitude stack x: its decoherence matrix
    # D = x x^dagger (read-only), its largest off-diagonal violation under
    # the criterion, and whether that is within tol.
    if criterion not in _CRITERIA:
        raise ValidationError(f"criterion must be one of {_CRITERIA}, got {criterion!r}")
    if not tol >= 0.0:
        raise ValidationError(f"tolerance must be non-negative, got {tol}")
    k, n = x.shape
    # Adding 0.0 turns the -0.0 parts of exactly real products into +0.0.
    d = x[:, :, None] * x.conj()[:, None, :] + 0.0
    d.setflags(write=False)
    magnitude = (np.abs(d) if criterion == "medium" else np.abs(d.real)).reshape(k, -1)
    magnitude[:, ::n + 1] = 0.0
    violations = magnitude.max(axis=1)
    return d, violations, violations <= tol


@dataclass(frozen=True, eq=False)
class HistoryFamily:
    """One chain family: rank-1 initial and final projectors around a single
    intermediate projective decomposition."""

    initial: Projector
    intermediate: ObservableDecomposition
    final: Projector

    def __post_init__(self):
        if self.initial.dim != self.intermediate.dim or self.final.dim != self.intermediate.dim:
            raise DimensionMismatchError("initial, intermediate, and final dimensions differ")
        if self.initial.rank != 1 or self.final.rank != 1:
            raise ValidationError("initial and final projectors must be rank 1")
        object.__setattr__(self, "_pre", _state_of(self.initial))
        object.__setattr__(self, "_post", _state_of(self.final))
        object.__setattr__(self, "_x", _amplitudes(self.intermediate.stack, self._pre, self._post))
        object.__setattr__(self, "_undisturbed", float(abs(np.vdot(self._post, self._pre)) ** 2))

    @property
    def dim(self) -> int:
        return self.intermediate.dim

    @classmethod
    def from_context(cls, ctx: PrePostContext,
                     observable: ObservableDecomposition) -> "HistoryFamily":
        return cls(ctx.preselection.projector(), observable, ctx.postselection.projector())


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Verdict plus the full decoherence-functional matrix and the largest
    off-diagonal violation under the criterion used."""

    consistent: bool
    matrix: np.ndarray
    max_violation: float
    criterion: str
    tolerance: float


@dataclass(frozen=True)
class DisturbanceCheck:
    """Both sides of the disturbance identity for one family.

    ``undisturbed`` is |<b|a>|^2, the postselection probability with nothing
    measured in between; ``disturbed`` is the same probability when the
    intermediate observable is measured and ignored.
    """

    undisturbed: float
    disturbed: float
    holds: bool


def decoherence_functional(family: HistoryFamily, i: int, j: int) -> complex:
    """Single entry D(i, j) = Tr(P_b P_i P_a P_j)."""
    n = len(family.intermediate)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"branch pair ({i}, {j}) out of range for {n} branches")
    return complex(decoherence_matrix(family)[i, j])


def decoherence_matrix(family: HistoryFamily) -> np.ndarray:
    return is_consistent(family).matrix


def is_consistent(family: HistoryFamily, *, criterion: str = "medium",
                  tol: float = CONSISTENCY_TOL) -> ConsistencyReport:
    """Check the family's off-diagonal decoherence under the chosen criterion.

    ``medium`` requires |D(i, j)| = 0 for i != j; ``weak`` only Re D(i, j) = 0.
    """
    d, violations, consistent = _decoherence(family._x[None], criterion, tol)
    return ConsistencyReport(bool(consistent[0]), d[0], float(violations[0]), criterion, tol)


def disturbance_check(family: HistoryFamily, *, tol: float = CONSISTENCY_TOL) -> DisturbanceCheck:
    """Compare the postselection probability with and without the
    intermediate measurement.  Consistency of the family implies the two
    agree; the converse is not checked because it does not hold."""
    if not tol >= 0.0:
        raise ValidationError(f"tolerance must be non-negative, got {tol}")
    x, undisturbed = family._x, family._undisturbed
    disturbed = float((x.real ** 2 + x.imag ** 2).sum())
    return DisturbanceCheck(undisturbed, disturbed, abs(undisturbed - disturbed) <= tol)


def _set_partitions(n: int) -> list[list[tuple[int, ...]]]:
    # Partitions of range(n), blocks as ascending tuples ordered by first
    # appearance; order is deterministic (each element joins existing blocks
    # first, then starts a new one).
    partitions: list[list[tuple[int, ...]]] = [[]]
    for i in range(n):
        partitions = [[*p[:g], p[g] + (i,), *p[g + 1:]] if g < len(p) else [*p, (i,)]
                      for p in partitions for g in range(len(p) + 1)]
    return partitions


def _coarse_blocks(base: ObservableDecomposition):
    # The partitions of base's branch set, a slot for every subset of it (the
    # empty one first, each after its prefix), and each slot's branch matrices
    # summed from zero in ascending branch order, one add per slot.
    n = len(base)
    if n > MAX_ENUMERATED_BRANCHES:
        raise TooManyBranchesError(
            f"{n} branches would enumerate too many partitions (cap is {MAX_ENUMERATED_BRANCHES})")
    subsets: list[tuple[int, ...]] = [()]
    sums = np.zeros((1 << n, base.dim, base.dim), dtype=np.complex128)
    for i in range(n):
        sums[len(subsets):2 * len(subsets)] = sums[:len(subsets)] + base.stack[i]
        subsets += [block + (i,) for block in subsets]
    sums.setflags(write=False)
    return _set_partitions(n), {block: k for k, block in enumerate(subsets)}, sums


def enumerate_coarse_grainings(base: ObservableDecomposition) -> list[ObservableDecomposition]:
    """Every coarse-graining of ``base``: one decomposition per partition of
    its branch set, each block's projector the sum over the block.

    Blocks are labeled by consecutive integers in order of first appearance,
    so results are deterministic.  The k-th result is the coarse-graining of
    the k-th partition ``_set_partitions(len(base))`` returns, with its
    branches in the order of that partition's blocks.  Each distinct block
    (``2**n - 1`` of them) is summed once, in ascending branch order, and
    each partition's stack is gathered from those sums.  Nothing is validated
    again: a coarse-graining of a validated resolution of the identity is
    one, with residues at most ``|I|*|J|`` times the base's for blocks ``I``
    and ``J``.  Refuses more than :data:`MAX_ENUMERATED_BRANCHES` branches.
    """
    partitions, slots, sums = _coarse_blocks(base)
    ranks = {block: sum(base.ranks[i] for i in block) for block in slots}
    return [ObservableDecomposition._validated(
                sums[[slots[block] for block in blocks]],
                [float(k) for k in range(len(blocks))], [ranks[block] for block in blocks])
            for blocks in partitions]


def coarse_graining_table(family: HistoryFamily, *, criterion: str = "medium",
                          tol: float = CONSISTENCY_TOL):
    """:func:`coarse_graining_verdicts` as columns, without its dataclasses:
    ``(partitions, matrices, violations, consistent, disturbed, holds)``.
    Partitions come in :func:`enumerate_coarse_grainings`' order, their
    decoherence matrices zero-padded to one ``(n, n)`` shape; the other four
    are per-partition lists of the max violation, the consistency verdict,
    the disturbed probability and the disturbance identity's verdict.
    """
    partitions, slots, sums = _coarse_blocks(family.intermediate)
    # x_I = <b|P_I|a> as HistoryFamily computes x; slot 0, the empty block,
    # has amplitude 0 and pads the rows.
    amplitudes = _amplitudes(sums, family._pre, family._post)
    width = len(family.intermediate)
    x = amplitudes[[[slots[block] for block in blocks] + [0] * (width - len(blocks))
                    for blocks in partitions]]
    d, violations, consistent = _decoherence(x, criterion, tol)
    disturbed = (x.real ** 2 + x.imag ** 2).sum(axis=1).tolist()
    return (partitions, d, violations.tolist(), consistent.tolist(),
            disturbed, [abs(family._undisturbed - s) <= tol for s in disturbed])


def coarse_graining_verdicts(family: HistoryFamily, *, criterion: str = "medium",
                             tol: float = CONSISTENCY_TOL) -> list[tuple]:
    """``(blocks, ConsistencyReport, DisturbanceCheck)`` for each
    coarse-graining of ``family.intermediate``, in the order of
    :func:`enumerate_coarse_grainings`: bit for bit what :func:`is_consistent`
    and :func:`disturbance_check` report on the family around it, read from
    :func:`coarse_graining_table` instead of those families.
    """
    partitions, d, violations, consistent, disturbed, holds = coarse_graining_table(
        family, criterion=criterion, tol=tol)
    return [(tuple(blocks),
             ConsistencyReport(c, d[k, :len(blocks), :len(blocks)], v, criterion, tol),
             DisturbanceCheck(family._undisturbed, s, h))
            for k, (blocks, v, c, s, h)
            in enumerate(zip(partitions, violations, consistent, disturbed, holds))]
