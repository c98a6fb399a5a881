"""Consistent-histories checks for pre/postselected measurement families.

A history family here is the two-time chain (preselect, measure one
observable, postselect).  Its decoherence functional is

    D(i, j) = Tr(P_b P_i P_a P_j) = x_i conj(x_j),  x_i = <b|P_i|a>

whose diagonal holds the joint probabilities of the chain; a family takes
``x`` and |<b|a>|^2 (through ``Ket._inner``) once, at construction, from the
states that span its projectors (``from_context``: the context's kets) and
the amplitude kernel :mod:`ablkit.abl` uses; its disturbed probability sums
``ObservableDecomposition._weights(x)``, so it is bit for bit the ABL
denominator.  It is consistent (medium decoherence) when every off-diagonal
entry vanishes, under the weak criterion when their real parts do.  A consistent family satisfies the
disturbance identity sum_j D(j, j) = |<b|a>|^2 (measuring in between leaves
the postselection statistics alone), but not conversely, so both are checked.
Every grouping of the observable's branches is one row of a table of block
bitmasks; each block's amplitude x_I = <b|sum_{i in I} P_i|a> is taken once,
at the slot of its mask, gathered into the rows, and judged by the same
routines as one family's ``x`` (``coarse_graining_table``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abl import PrePostContext
from .errors import TooManyBranchesError, ValidationError, DimensionMismatchError
from .linalg import Ket, ObservableDecomposition, Projector

#: Default tolerance for consistency verdicts and the disturbance identity.
CONSISTENCY_TOL = 1e-9

#: Branch-count cap for coarse-graining enumeration (partition counts grow
#: like the Bell numbers: 7 branches would already mean 877 families).
MAX_ENUMERATED_BRANCHES = 6

_CRITERIA = ("medium", "weak")


def _decoherence(x: np.ndarray, criterion: str, tol: float):
    # For each row of the (k, n) amplitude stack x: its decoherence matrix
    # D = x x^dagger (read-only), its largest off-diagonal violation under
    # the criterion, and whether that is within tol.
    if criterion not in _CRITERIA:
        raise ValidationError(f"criterion must be one of {_CRITERIA}, got {criterion!r}")
    if not tol >= 0.0:
        raise ValidationError(f"tolerance must be non-negative, got {tol}")
    k, n = x.shape
    d = Projector._rank1(x, signed_zeros=False)
    d.setflags(write=False)
    magnitude = (np.abs(d) if criterion == "medium" else np.abs(d.real)).reshape(k, -1)
    magnitude[:, ::n + 1] = 0.0
    violations = magnitude.max(axis=1)
    return d, violations, violations <= tol


@dataclass(frozen=True, eq=False)
class HistoryFamily:
    """One chain family: rank-1 initial and final projectors around a single
    intermediate projective decomposition.  What it derives from them is
    read-only, and a copy derives it again."""

    initial: Projector
    intermediate: ObservableDecomposition
    final: Projector

    def __post_init__(self):
        if self.initial.dim != self.intermediate.dim or self.final.dim != self.intermediate.dim:
            raise DimensionMismatchError("initial, intermediate, and final dimensions differ")
        if self.initial.rank != 1 or self.final.rank != 1:
            raise ValidationError("initial and final projectors must be rank 1")
        pre, post = self.initial._state(), self.final._state()
        x = ObservableDecomposition._amplitudes(self.intermediate.stack, pre, post)
        x.setflags(write=False)
        self.__dict__.update(_pre=pre, _post=post, _x=x,
                             _undisturbed=float(abs(Ket._inner(post, pre)) ** 2))

    def __reduce__(self):
        return type(self), (self.initial, self.intermediate, self.final)

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
    disturbed = float(ObservableDecomposition._weights(x).sum())
    return DisturbanceCheck(undisturbed, disturbed, abs(undisturbed - disturbed) <= tol)


def _partition_masks(n: int) -> np.ndarray:
    # The partitions of range(n), each a row of block bitmasks by first
    # element, zero-padded to n, in lexicographic order of restricted growth
    # strings.  A row is built as an int holding block g's mask in byte g.
    rows = [0]
    for i in range(n):
        rows = [r | 1 << (8 * g + i) for r in rows for g in range((r.bit_length() + 15) >> 3)]
    return np.array(rows, dtype="<u8").view(np.uint8).reshape(-1, 8)[:, :n]


def _set_partitions(n: int, masks=None) -> list[list[tuple[int, ...]]]:
    # The rows of ``masks`` (default: n's whole table) as lists of block tuples.
    blocks = [()]
    for i in range(n):
        blocks += [block + (i,) for block in blocks]
    masks = _partition_masks(n) if masks is None else masks
    return [[blocks[m] for m in row if m] for row in masks.tolist()]


def _coarse_blocks(base: ObservableDecomposition):
    # base's partition mask table, and each block's branch matrices summed in
    # ascending branch order at the slot of its bitmask (slot 0 stays zero).
    n = len(base)
    if n > MAX_ENUMERATED_BRANCHES:
        raise TooManyBranchesError(
            f"{n} branches would enumerate too many partitions (cap is {MAX_ENUMERATED_BRANCHES})")
    sums = np.zeros((1 << n, base.dim, base.dim), dtype=np.complex128)
    for i in range(n):
        sums[1 << i:2 << i] = sums[:1 << i] + base.stack[i]
    sums.setflags(write=False)
    return _partition_masks(n), sums


def enumerate_coarse_grainings(base: ObservableDecomposition) -> list[ObservableDecomposition]:
    """Every coarse-graining of ``base``: one decomposition per partition of
    its branch set, each block's projector the sum over the block.

    Blocks are labeled by consecutive integers in order of first appearance,
    so results are deterministic.  The k-th result is the coarse-graining of
    the k-th partition ``_set_partitions(len(base))`` returns, with its
    branches in the order of that partition's blocks.  Each distinct block
    (``2**n - 1`` of them) is summed once, in ascending branch order, and
    each partition's stack is gathered from those sums by bitmask.  Nothing
    is validated again: a coarse-graining of a validated resolution of the
    identity is one, with residues at most ``|I|*|J|`` times the base's for
    blocks ``I`` and ``J``.  Refuses more than :data:`MAX_ENUMERATED_BRANCHES`.
    """
    masks, sums = _coarse_blocks(base)
    ranks = [0]
    for rank in base.ranks:
        ranks += [r + rank for r in ranks]
    return [ObservableDecomposition._validated(
                sums[blocks], [float(k) for k in range(len(blocks))], [ranks[m] for m in blocks])
            for blocks in ([m for m in row if m] for row in masks.tolist())]


def coarse_graining_table(family: HistoryFamily, *, criterion: str = "medium",
                          tol: float = CONSISTENCY_TOL):
    """:func:`coarse_graining_verdicts` as columns, without its dataclasses:
    ``(partitions, matrices, violations, consistent, disturbed, holds)``.
    Partitions come in :func:`enumerate_coarse_grainings`' order, their
    decoherence matrices zero-padded to one ``(n, n)`` shape; the other four
    are per-partition lists of the max violation, the consistency verdict,
    the disturbed probability and the disturbance identity's verdict, all read
    from one zero-padded row of block bitmasks per partition.
    """
    masks, sums = _coarse_blocks(family.intermediate)
    x = ObservableDecomposition._amplitudes(sums, family._pre, family._post)[masks]
    d, violations, consistent = _decoherence(x, criterion, tol)
    disturbed = ObservableDecomposition._weights(x).sum(axis=1).tolist()
    return (_set_partitions(masks.shape[1], masks), d, violations.tolist(), consistent.tolist(),
            disturbed, [abs(family._undisturbed - s) <= tol for s in disturbed])


def coarse_graining_verdicts(family: HistoryFamily, *, criterion: str = "medium",
                             tol: float = CONSISTENCY_TOL) -> list[tuple]:
    """``(blocks, ConsistencyReport, DisturbanceCheck)`` for each
    coarse-graining of ``family.intermediate``, in the order of
    :func:`enumerate_coarse_grainings`: bit for bit what :func:`is_consistent`
    and :func:`disturbance_check` report on the family around it, read from
    :func:`coarse_graining_table` instead of those families.
    """
    return [(tuple(blocks), ConsistencyReport(c, m[:len(blocks), :len(blocks)], v, criterion, tol),
             DisturbanceCheck(family._undisturbed, s, h))
            for blocks, m, v, c, s, h in zip(*coarse_graining_table(family, criterion=criterion,
                                                                     tol=tol))]
