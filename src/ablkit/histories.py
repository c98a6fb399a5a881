"""Consistent-histories checks for pre/postselected measurement families.

A history family here is the two-time chain (preselect, measure one
observable, postselect).  Its decoherence functional is

    D(i, j) = Tr(P_b P_i P_a P_j) = x_i conj(x_j),  x_i = <b|P_i|a>

whose diagonal holds the joint probabilities of the chain.  A family
computes its amplitudes ``x`` once, at construction, and every quantity
below reads them.  The family is consistent (medium decoherence) when every
off-diagonal entry vanishes; under the weaker criterion only the real parts
have to vanish.  For a consistent family the intervening measurement does
not disturb the postselection statistics: sum_j D(j, j) equals |<b|a>|^2.
That disturbance identity is checked separately so callers can see both
predicates; the implication only runs from consistency to the identity, not
back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .abl import PrePostContext
from .errors import TooManyBranchesError, ValidationError, DimensionMismatchError
from .linalg import Branch, ObservableDecomposition, Projector

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
    k = int(np.argmax(m.diagonal().real))
    return m[:, k] / np.sqrt(m[k, k].real)


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
        pre, post = _state_of(self.initial), _state_of(self.final)
        # Per-row np.vdot keeps the rounding residue of cancelling terms (1e-18
        # for the three-box coarse families) that a zero tolerance sees and the
        # captured CLI outputs pin; a stacked matmul can round it to exactly 0.
        object.__setattr__(self, "_x", np.array([np.vdot(post, p)
                                                 for p in self.intermediate.stack @ pre]))
        object.__setattr__(self, "_overlap", np.vdot(post, pre))

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
    # Adding 0.0 turns the -0.0 parts of exactly real products into +0.0.
    d = np.outer(family._x, family._x.conj()) + 0.0
    d.setflags(write=False)
    return d


def is_consistent(family: HistoryFamily, *, criterion: str = "medium",
                  tol: float = CONSISTENCY_TOL) -> ConsistencyReport:
    """Check the family's off-diagonal decoherence under the chosen criterion.

    ``medium`` requires |D(i, j)| = 0 for i != j; ``weak`` only Re D(i, j) = 0.
    """
    if criterion not in _CRITERIA:
        raise ValueError(f"criterion must be one of {_CRITERIA}, got {criterion!r}")
    if not tol >= 0.0:
        raise ValidationError(f"tolerance must be non-negative, got {tol}")
    d = decoherence_matrix(family)
    off = d - np.diag(np.diag(d))
    magnitude = np.abs(off) if criterion == "medium" else np.abs(off.real)
    max_violation = float(magnitude.max()) if len(family.intermediate) > 1 else 0.0
    return ConsistencyReport(max_violation <= tol, d, max_violation, criterion, tol)


def disturbance_check(family: HistoryFamily, *, tol: float = CONSISTENCY_TOL) -> DisturbanceCheck:
    """Compare the postselection probability with and without the
    intermediate measurement.  Consistency of the family implies the two
    agree; the converse is not checked because it does not hold."""
    if not tol >= 0.0:
        raise ValidationError(f"tolerance must be non-negative, got {tol}")
    undisturbed = float(abs(family._overlap) ** 2)
    x = family._x
    disturbed = float(np.sum(x.real ** 2 + x.imag ** 2))
    return DisturbanceCheck(undisturbed, disturbed, abs(undisturbed - disturbed) <= tol)


def _set_partitions(n: int) -> Iterator[list[list[int]]]:
    # Yields partitions of range(n) with blocks ordered by first appearance;
    # order is deterministic (each element joins existing blocks first).
    def rec(i: int, groups: list[list[int]]):
        if i == n:
            yield [list(g) for g in groups]
            return
        for g in groups:
            g.append(i)
            yield from rec(i + 1, groups)
            g.pop()
        groups.append([i])
        yield from rec(i + 1, groups)
        groups.pop()

    yield from rec(0, [])


def enumerate_coarse_grainings(base: ObservableDecomposition) -> list[ObservableDecomposition]:
    """Every coarse-graining of ``base``: one decomposition per partition of
    its branch set, each block's projector the sum over the block.

    Blocks are labeled by consecutive integers in order of first appearance,
    so results are deterministic.  The k-th result is the coarse-graining of
    the k-th partition ``_set_partitions(len(base))`` yields, with its
    branches in the order of that partition's blocks.  Each distinct block
    (at most ``2**n - 1`` of them) is summed once, in ascending branch order,
    and the partitions share those projectors.  Nothing is validated again:
    a coarse-graining of a validated resolution of the identity is one, with
    residues at most ``|I|*|J|`` times the base's for blocks ``I`` and ``J``.
    Refuses more than :data:`MAX_ENUMERATED_BRANCHES` branches.
    """
    n = len(base)
    if n > MAX_ENUMERATED_BRANCHES:
        raise TooManyBranchesError(
            f"{n} branches would enumerate too many partitions (cap is {MAX_ENUMERATED_BRANCHES})")
    partitions = [[tuple(block) for block in blocks] for blocks in _set_partitions(n)]
    slots: dict[tuple[int, ...], int] = {}
    for blocks in partitions:
        for block in blocks:
            slots.setdefault(block, len(slots))
    sums = np.zeros((len(slots), base.dim, base.dim), dtype=np.complex128)
    for k, block in enumerate(slots):
        for idx in block:
            sums[k] += base.stack[idx]
    sums.setflags(write=False)
    projectors = [Projector._validated(m, sum(base.projector(idx).rank for idx in block))
                  for m, block in zip(sums, slots)]
    return [ObservableDecomposition._validated(
                tuple(Branch(float(k), projectors[slots[block]]) for k, block in enumerate(blocks)),
                sums[[slots[block] for block in blocks]])
            for blocks in partitions]
