"""Complex linear algebra for small Hilbert spaces.

Kets, projectors, and projective decompositions of observables (spectral
resolutions of the identity), plus inner products, operator application,
and traces of operator products.  A decomposition also carries its branch
projectors as one stacked array, which the probability kernels work on.
Validation happens once, at construction from raw numbers; what is derived
from validated objects (a ket's projector, a coarse-graining) is valid by
construction and not checked again.  A basis of kets is checked from its
amplitudes alone: for rows ``a_i`` of ``A`` and ``P_i = a_i a_i^dagger``,
``sum_i P_i = A^T conj(A)`` and
``max|P_i P_j| = |<a_i|a_j>| max|a_i| max|a_j|``, so the checks cost two
small products instead of ``n^2`` matrix products.  Everything is
immutable, so instances are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateSpanError, DimensionMismatchError, ValidationError

#: Tolerance for algebraic identities on exact inputs (sized for dims <= 16).
ALG_TOL = 1e-10
#: Tolerance on ket normalization, |norm^2 - 1|.
NORM_TOL = 1e-9
#: Linear-dependence cutoff on residual norms in Gram-Schmidt.
SPAN_TOL = 1e-8


def _as_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"expected a nonempty 1-d amplitude vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("amplitudes must be finite")
    return arr


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm's arithmetic for a 1-d complex vector, without its dispatch.
    v = v.ravel(order="K")
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _checked_unit(arr: np.ndarray) -> np.ndarray:
    norm_sq = float(np.vdot(arr, arr).real)
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValidationError(f"ket norm^2 = {norm_sq!r}, expected 1 within {NORM_TOL}")
    return arr


def _max_abs(values: np.ndarray) -> float:
    # np.allclose costs ~100us per call; constructors are hot enough to care.
    return float(np.abs(values).max())


def operator_matrix(op, *, dim: int | None = None) -> np.ndarray:
    """Return the square complex matrix behind ``op``.

    Accepts a :class:`Projector` or anything ``np.asarray`` turns into a
    square matrix.  ``dim``, when given, is enforced.
    """
    m = op.matrix if isinstance(op, Projector) else np.asarray(op, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square operator matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("operator entries must be finite")
    if dim is not None and m.shape[0] != dim:
        raise DimensionMismatchError(f"operator dimension {m.shape[0]} != expected {dim}")
    return m


@dataclass(frozen=True, eq=False)
class Ket:
    """A normalized state vector.

    Amplitudes are stored as a read-only complex128 array; ``norm^2`` must be
    1 within :data:`NORM_TOL`.  Use :meth:`normalized` to build one from an
    unnormalized vector.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _checked_unit(_as_vector(self.amplitudes).copy())
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @classmethod
    def _validated(cls, amplitudes: np.ndarray) -> "Ket":
        # Mirrors Projector._validated, for amplitudes of unit norm by construction.
        amplitudes.setflags(write=False)
        ket = object.__new__(cls)
        object.__setattr__(ket, "amplitudes", amplitudes)
        return ket

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, values) -> "Ket":
        """Scale ``values`` to unit norm.  Rejects (near-)zero vectors."""
        arr = _as_vector(values)
        norm = _norm(arr)
        if norm <= SPAN_TOL:
            raise ValidationError("cannot normalize a vector of (near-)zero norm")
        return cls._validated(_checked_unit(arr / norm))

    def projector(self) -> "Projector":
        """The rank-1 projector onto this state."""
        a = self.amplitudes
        return Projector._validated(a[:, None] * a.conj()[None, :], 1)


@dataclass(frozen=True, eq=False)
class Projector:
    """An orthogonal projector, validated as Hermitian and idempotent.

    ``rank`` is inferred from the trace when omitted; the zero matrix is
    rejected (rank must be positive).
    """

    matrix: np.ndarray
    rank: int | None = None

    def __post_init__(self):
        m = operator_matrix(self.matrix).copy()
        if _max_abs(m - m.conj().T) > ALG_TOL:
            raise ValidationError("projector matrix is not Hermitian")
        # An overflowing m @ m gives a NaN residue, which the check refuses
        # without a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            residue = _max_abs(m @ m - m)
        if not residue <= ALG_TOL:
            raise ValidationError("projector matrix is not idempotent")
        trace = float(m.trace().real)
        rank = int(round(trace)) if self.rank is None else int(self.rank)
        if rank <= 0:
            raise ValidationError("projector rank must be a positive integer")
        if abs(trace - rank) > ALG_TOL * m.shape[0]:
            raise ValidationError(f"projector trace {trace!r} does not match rank {rank}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rank", rank)

    @classmethod
    def _validated(cls, matrix: np.ndarray, rank: int) -> "Projector":
        # For a matrix that is a projector by construction, made read-only
        # here: a validated ket's |v><v| (Hermitian to rounding, residues
        # norm^2 - 1, within NORM_TOL) or a sum of a decomposition's branches.
        matrix.setflags(write=False)
        proj = object.__new__(cls)
        object.__setattr__(proj, "matrix", matrix)
        object.__setattr__(proj, "rank", rank)
        return proj

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def complement(self) -> "Projector":
        """Projector onto the orthogonal complement (must itself be nonzero)."""
        if self.rank >= self.dim:
            raise ValidationError("complement of a full-rank projector is the zero projector")
        return Projector(np.eye(self.dim) - self.matrix, rank=self.dim - self.rank)


class Branch(NamedTuple):
    eigenvalue: float
    projector: Projector


@dataclass(frozen=True, eq=False, init=False)
class ObservableDecomposition:
    """A projective decomposition of an observable.

    Built from ``(eigenvalue, projector)`` branches with pairwise distinct
    eigenvalue labels, mutually orthogonal projectors, and completeness: the
    branch projectors sum to the identity.  It holds the labels, the ranks
    and ``stack``, the branch matrices as one read-only ``(n, d, d)`` array
    that every probability kernel works on; :attr:`branches`, iteration and
    :meth:`projector` give views of it.  A basis of kets is validated from
    its amplitudes (:meth:`from_eigenbasis`), with the same checks and errors.
    """

    eigenvalues: tuple[float, ...]
    ranks: tuple[int, ...]
    stack: np.ndarray = field(repr=False)

    def __init__(self, branches: Sequence[tuple[float, Projector]]):
        branches = [(float(e), p) for e, p in branches]
        if not branches:
            raise ValidationError("a decomposition needs at least one branch")
        if len({p.dim for _, p in branches}) != 1:
            raise DimensionMismatchError("branch projectors differ in dimension")
        labels = [e for e, _ in branches]
        _check_labels(labels)
        stack = np.array([p.matrix for _, p in branches])
        dim = stack.shape[1]
        if _max_abs(stack.sum(axis=0) - np.eye(dim)) > ALG_TOL * dim:
            raise ValidationError(_INCOMPLETE)
        # P_i against every later branch in one product per row, which keeps
        # memory at O(n d^2).
        for i in range(len(branches) - 1):
            overlaps = np.abs(stack[i] @ stack[i + 1:])
            if overlaps.max() > ALG_TOL:
                j = i + 1 + int((overlaps.max(axis=(1, 2)) > ALG_TOL).argmax())
                raise ValidationError(_overlapping(i, j))
        stack.setflags(write=False)
        # As in _validated.
        self.__dict__.update(eigenvalues=tuple(labels), ranks=tuple(p.rank for _, p in branches),
                             stack=stack)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def __iter__(self):
        return iter(self.branches)

    @property
    def branches(self) -> tuple[Branch, ...]:
        return tuple(Branch(e, Projector._validated(m, r))
                     for e, m, r in zip(self.eigenvalues, self.stack, self.ranks))

    def projector(self, branch: int) -> Projector:
        return Projector._validated(self.stack[branch], self.ranks[branch])

    def matrix(self, branch: int) -> np.ndarray:
        return self.stack[branch]

    @classmethod
    def from_projectors(cls, projectors: Sequence[Projector],
                        eigenvalues: Sequence[float] | None = None) -> "ObservableDecomposition":
        labels = _labels(eigenvalues, len(projectors))
        return cls(list(zip(labels, projectors)))

    @classmethod
    def from_eigenbasis(cls, kets: Sequence[Ket],
                        eigenvalues: Sequence[float] | None = None) -> "ObservableDecomposition":
        """Nondegenerate decomposition with one rank-1 branch per basis ket.

        Validated from the kets' amplitudes, with the checks and errors of
        the constructor given the kets' :meth:`Ket.projector`; the branch
        matrices equal those projectors bit for bit.
        """
        labels = _labels(eigenvalues, len(kets))
        if not kets or len({k.dim for k in kets}) != 1:
            # Empty or mixed-dimension input: the constructor reports it.
            return cls([(e, k.projector()) for e, k in zip(labels, kets)])
        return cls._from_amplitudes(np.array([k.amplitudes for k in kets]), labels)

    @classmethod
    def _from_amplitudes(cls, amps: np.ndarray, eigenvalues: Sequence[float], *,
                         signed_zeros: bool = True) -> "ObservableDecomposition":
        # One rank-1 branch P_i = a_i a_i^dagger per unit row a_i of ``amps``,
        # checked from the amplitudes as the module docstring explains.  With
        # ``signed_zeros`` false, the -0.0 entries of the products read +0.0,
        # as in a sum that starts from zeros.
        labels = [float(e) for e in eigenvalues]
        _check_labels(labels)
        n, dim = amps.shape
        conj = amps.conj()
        residue = amps.T @ conj
        residue.flat[::dim + 1] -= 1.0
        if _max_abs(residue) > ALG_TOL * dim:
            raise ValidationError(_INCOMPLETE)
        peaks = np.abs(amps).max(axis=1)
        overlaps = np.abs(conj @ amps.T)
        overlaps *= peaks
        overlaps *= peaks[:, None]
        overlaps.flat[::n + 1] = 0.0
        if overlaps.max() > ALG_TOL:
            # The first pair i < j in row-major order, as the constructor
            # reports it; either order of a pair may be the one that rounds
            # above the bound.
            i, j = np.nonzero(np.triu(np.maximum(overlaps, overlaps.T)) > ALG_TOL)
            raise ValidationError(_overlapping(int(i[0]), int(j[0])))
        stack = amps[:, :, None] * conj[:, None, :]
        if not signed_zeros:
            stack += 0.0
        return cls._validated(stack, labels, (1,) * n)

    @classmethod
    def _validated(cls, stack: np.ndarray, eigenvalues: Sequence[float],
                   ranks: Sequence[int]) -> "ObservableDecomposition":
        # Mirrors Projector._validated for a decomposition that is one by
        # construction (a checked basis of kets, a coarse-graining of a
        # validated decomposition): branch i is ``stack[i]``, labeled
        # ``eigenvalues[i]`` (floats), of rank ``ranks[i]``.  One dict update
        # sets the three fields past the frozen __setattr__.
        stack.setflags(write=False)
        obs = object.__new__(cls)
        obs.__dict__.update(eigenvalues=tuple(eigenvalues), ranks=tuple(ranks), stack=stack)
        return obs


_INCOMPLETE = "branch projectors do not sum to the identity"


def _overlapping(i: int, j: int) -> str:
    return f"branch projectors {i} and {j} are not orthogonal"


def _labels(eigenvalues: Sequence[float] | None, n: int) -> list[float]:
    if eigenvalues is not None and len(eigenvalues) != n:
        raise ValidationError(f"{len(eigenvalues)} eigenvalue labels for {n} branches")
    return [float(e) for e in (range(n) if eigenvalues is None else eigenvalues)]


def _check_labels(labels: list[float]):
    if len(set(labels)) != len(labels):
        raise ValidationError(f"eigenvalue labels must be pairwise distinct, got {labels}")


def inner(x: Ket, y: Ket) -> complex:
    """Inner product <x|y>, conjugate-linear in the first argument."""
    if x.dim != y.dim:
        raise DimensionMismatchError(f"kets of dimension {x.dim} and {y.dim}")
    return complex(np.vdot(x.amplitudes, y.amplitudes))


def apply_operator(op, state: Ket) -> np.ndarray:
    """Apply an operator to a ket.  The result is a plain (generally
    unnormalized) amplitude vector, not a Ket."""
    m = operator_matrix(op, dim=state.dim)
    return m @ state.amplitudes


def trace_product(ops: Sequence) -> complex:
    """Trace of the ordered product of operators.

    Each entry may be a :class:`Projector` or a raw square matrix; all must
    share one dimension.
    """
    if len(ops) == 0:
        raise ValidationError("trace_product needs at least one operator")
    mats = [operator_matrix(op) for op in ops]
    dim = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != dim:
            raise DimensionMismatchError("operators differ in dimension")
    acc = mats[0]
    for m in mats[1:]:
        acc = acc @ m
    return complex(acc.trace())


def orthonormalize(vectors: Sequence[np.ndarray], *, tol: float = SPAN_TOL) -> list[np.ndarray]:
    """Modified Gram-Schmidt orthonormalization.

    A vector whose residual keeps less than 1/sqrt(2) of its norm is
    projected a second time ("twice is enough": Giraud, Langou & Rozložník
    2005), since one pass leaves it a non-orthogonality of about
    eps / residual.  Raises :class:`DegenerateSpanError` when a residual norm
    falls to ``tol`` or below, i.e. the inputs are (numerically) linearly
    dependent.
    """
    if not tol >= 0.0:
        raise ValidationError(f"tolerance must be non-negative, got {tol}")
    basis: list[np.ndarray] = []
    for k, v in enumerate(vectors):
        w = np.array(v, dtype=np.complex128)
        input_sq = np.vdot(w, w).real if basis else 0.0
        for _ in range(2):
            for q in basis:
                w -= q * np.vdot(q, w)
            norm = _norm(w)
            if norm <= tol or 2.0 * norm * norm >= input_sq:
                break
        if norm <= tol:
            raise DegenerateSpanError(
                f"vector {k} is linearly dependent on its predecessors (residual norm {norm:.3e})")
        basis.append(w / norm)
    return basis


def projector_from_kets(kets: Sequence[Ket]) -> Projector:
    """Projector onto the span of the given kets (need not be orthogonal)."""
    if not kets:
        raise ValidationError("projector_from_kets needs at least one ket")
    dim = kets[0].dim
    for k in kets:
        if k.dim != dim:
            raise DimensionMismatchError("kets differ in dimension")
    basis = orthonormalize([k.amplitudes for k in kets])
    m = np.zeros((dim, dim), dtype=np.complex128)
    for q in basis:
        m += q[:, None] * q.conj()[None, :]
    return Projector(m, rank=len(basis))


def complete_basis(vectors: Sequence[np.ndarray], dim: int) -> list[np.ndarray]:
    """Extend vectors to a full orthonormal basis of a ``dim``-dimensional space.

    Deterministic: candidates are the canonical basis vectors taken in index
    order, keeping each one whose Gram-Schmidt residual survives the
    dependence cutoff.
    """
    basis = orthonormalize(vectors) if len(vectors) else []
    if len(basis) > dim:
        raise ValidationError(f"{len(basis)} orthonormal vectors cannot fit in dimension {dim}")
    for k in range(dim):
        if len(basis) == dim:
            break
        w = np.zeros(dim, dtype=np.complex128)
        w[k] = 1.0
        for q in basis:
            w -= q * np.vdot(q, w)
        norm = _norm(w)
        if norm > SPAN_TOL:
            basis.append(w / norm)
    if len(basis) != dim:
        raise ValidationError("failed to complete an orthonormal basis")
    return basis


def basis_containing(ket: Ket) -> ObservableDecomposition:
    """A nondegenerate basis observable whose branch 0 projects onto ``ket``.

    The remaining directions come from :func:`complete_basis`, so the result
    is deterministic for a given input.
    """
    vectors = complete_basis([ket.amplitudes], ket.dim)
    return ObservableDecomposition._from_amplitudes(np.array(vectors),
                                                    [float(k) for k in range(ket.dim)])
