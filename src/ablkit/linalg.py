"""Complex linear algebra for small Hilbert spaces.

Kets, projectors, and projective decompositions of observables (spectral
resolutions of the identity), plus inner products, operator application,
and traces of operator products.  A decomposition also carries its branch
projectors as one stacked array, which the probability kernels work on, the
one projection ``_born`` giving every ``P_j a`` and Born weight, and the one
routine that takes every rank-1 amplitude ``<b|P_j|a>`` from it.
Three primitives hold the vector arithmetic, so how each rounds is one
decision: ``Ket._inner`` (``np.vdot``) is every inner product, ``Ket._norm``
every vector norm, and ``ObservableDecomposition._weights`` every weight
``|z|^2 = re^2 + im^2``.
Every rank-1 ``|q><q|`` comes from ``Projector._rank1``: bases built in
process keep its signed zeros; spans, one-ket branches read from a file and
decoherence matrices read +0.0.
Validation happens once, at construction from raw numbers; what is derived
from validated objects (a ket's projector, the projector onto a span of
kets, a complement, a coarse-graining) or built orthonormal (a vector scaled
to unit norm, a completed basis, a Haar-random ket or counterexample basis)
is valid by construction and not checked again.  A basis of kets is checked
from its amplitudes alone: for rows ``a_i`` of ``A`` and
``P_i = a_i a_i^dagger``, ``sum_i P_i = A^T conj(A)`` and
``max|P_i P_j| = |<a_i|a_j>| max|a_i| max|a_j|``, so the checks cost two
small products instead of ``n^2`` matrix products.  A norm below
``_MIN_NORM`` = 1.49e-154, whose square is the smallest normal float, is
refused, so Gram-Schmidt answers ``c v`` alike for ``c |v|`` from 1.5e-146
to 1.3e154.  Everything is immutable, so instances are thread-safe; what is
derived from one (a ket's projector) is memoized on it, read-only, and two
threads that race to build it compute the same bits twice.  A copy is
rebuilt by the unchecked constructors, read-only and without memos.
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
#: Linear-dependence cutoff in Gram-Schmidt, relative to each vector's norm.
SPAN_TOL = 1e-8
_MIN_NORM = math.sqrt(np.finfo(np.float64).smallest_normal)


def _as_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"expected a nonempty 1-d amplitude vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("amplitudes must be finite")
    return arr


def _checked_unit(arr: np.ndarray) -> np.ndarray:
    norm_sq = float(Ket._inner(arr, arr).real)
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

    #: <x|y>, conjugate-linear in x: every inner product's one source, an alias for no extra call.
    _inner = staticmethod(np.vdot)

    @staticmethod
    def _norm(v: np.ndarray) -> float:
        # np.linalg.norm's arithmetic for a 1-d complex vector, without its
        # dispatch.  np.vdot takes the same dot product as x.dot but checks no
        # floating-point flags, so an overflow gives inf without a warning.
        v = v.ravel(order="K")
        return math.sqrt(Ket._inner(v.real, v.real) + Ket._inner(v.imag, v.imag))

    def __post_init__(self):
        arr = _checked_unit(_as_vector(self.amplitudes).copy())
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @classmethod
    def _validated(cls, amplitudes: np.ndarray) -> "Ket":
        # Mirrors Projector._validated, for amplitudes of unit norm by construction.
        amplitudes.setflags(write=False)
        ket = object.__new__(cls)
        ket.__dict__["amplitudes"] = amplitudes
        return ket

    def __reduce__(self):
        return type(self)._validated, (self.amplitudes,)

    @staticmethod
    def _unit(a: np.ndarray) -> np.ndarray:
        # The finite vector ``a`` checked as Ket(a) checks it, and scaled to
        # unit norm with the bits of orthonormalize([a])[0].
        return a / Ket._norm(_checked_unit(a))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, values) -> "Ket":
        """Scale ``values`` to unit norm.  Rejects a norm below ``_MIN_NORM``
        and one that overflows."""
        return cls._scaled(_as_vector(values))

    @classmethod
    def _scaled(cls, arr: np.ndarray) -> "Ket":
        # ``arr / |arr|`` for a finite, nonempty 1-d complex vector: within the
        # norm's checked range the quotient is a unit vector to rounding.
        norm = Ket._norm(arr)
        if not _MIN_NORM <= norm < math.inf:
            raise ValidationError("cannot normalize a vector whose norm overflows"
                                  if norm == math.inf else
                                  "cannot normalize a vector of (near-)zero norm")
        return cls._validated(arr / norm)

    def projector(self) -> "Projector":
        """The rank-1 projector onto this state, built once per ket."""
        if "_projector" not in self.__dict__:
            p = Projector._validated(Projector._rank1(self.amplitudes), 1)
            p.__dict__["_ket"] = self.amplitudes
            self.__dict__["_projector"] = p
        return self.__dict__["_projector"]


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
        # An overflowing m - m^dagger or m @ m gives an inf or NaN residue,
        # which the checks refuse without a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            if not _max_abs(m - m.conj().T) <= ALG_TOL:
                raise ValidationError("projector matrix is not Hermitian")
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
        # norm^2 - 1, within NORM_TOL), a sum of orthonormal |q><q|, or I - P.
        matrix.setflags(write=False)
        proj = object.__new__(cls)
        object.__setattr__(proj, "matrix", matrix)
        object.__setattr__(proj, "rank", rank)
        return proj

    def __reduce__(self):
        if "_ket" in self.__dict__:
            return Ket.projector, (Ket._validated(self._ket),)
        return type(self)._validated, (self.matrix, self.rank)

    @staticmethod
    def _rank1(rows: np.ndarray, *, signed_zeros: bool = True) -> np.ndarray:
        # |q><q| for a ket q or per row q of a (k, d) stack; with ``signed_zeros``
        # false, -0.0 entries read +0.0, as in a sum that starts from zeros.
        m = rows[..., :, None] * rows.conj()[..., None, :]
        return m if signed_zeros else m + 0.0

    def _state(self) -> np.ndarray:
        # A read-only unit vector spanning this rank-1 projector, up to a global
        # phase: the ket whose projector() it is, else the largest column, rescaled.
        if "_ket" in self.__dict__:
            return self._ket
        m = self.matrix
        k = int(m.diagonal().real.argmax())
        state = m[:, k] / math.sqrt(m[k, k].real)
        state.setflags(write=False)
        return state

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def complement(self) -> "Projector":
        """Projector onto the orthogonal complement (must itself be nonzero),
        not re-validated: ``I - P`` has the residues of the validated ``P``."""
        if self.rank >= self.dim:
            raise ValidationError("complement of a full-rank projector is the zero projector")
        return Projector._validated(np.eye(self.dim) - self.matrix, self.dim - self.rank)


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
        # checked from the amplitudes as the module docstring explains.
        labels = [float(e) for e in eigenvalues]
        _check_labels(labels)
        n, dim = amps.shape
        conj = amps.conj()
        residue = amps.T @ conj
        residue.reshape(-1)[::dim + 1] -= 1.0
        if _max_abs(residue) > ALG_TOL * dim:
            raise ValidationError(_INCOMPLETE)
        peaks = np.abs(amps).max(axis=1)
        overlaps = np.abs(conj @ amps.T)
        overlaps *= peaks
        overlaps *= peaks[:, None]
        overlaps.reshape(-1)[::n + 1] = 0.0
        if overlaps.max() > ALG_TOL:
            # The first pair i < j in row-major order, as the constructor
            # reports it; either order of a pair may be the one that rounds
            # above the bound.
            i, j = np.nonzero(np.triu(np.maximum(overlaps, overlaps.T)) > ALG_TOL)
            raise ValidationError(_overlapping(int(i[0]), int(j[0])))
        return cls._validated(Projector._rank1(amps, signed_zeros=signed_zeros), labels, (1,) * n)

    @classmethod
    def _from_orthonormal(cls, rows) -> "ObservableDecomposition":
        # _from_amplitudes's branches 0..n-1, unchecked, for rows orthonormal by construction.
        amps = np.asarray(rows)
        return cls._validated(Projector._rank1(amps), _labels(None, len(amps)), (1,) * len(amps))

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

    def __reduce__(self):
        return type(self)._validated, (self.stack, self.eigenvalues, self.ranks)

    def _born(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (P_j a per branch j, Born weights ||P_j a||^2): every Born weight's one source.
        if a.size != self.dim:
            raise DimensionMismatchError(f"state dim {a.size} != observable dim {self.dim}")
        projected = self.stack @ a
        return projected, self._weights(projected).sum(axis=1)

    @staticmethod
    def _weights(z: np.ndarray) -> np.ndarray:
        return z.real ** 2 + z.imag ** 2  # |z|^2 elementwise: every Born weight's one rule

    @staticmethod
    def _amplitudes(stack: np.ndarray, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
        # <post|P_j|pre> for each P_j of ``stack``.  Two einsum steps call no BLAS, so
        # the bits are the same on each CPU kernel tested and row j's need no other row.
        return np.einsum("ja,a->j", np.einsum("jab,b->ja", stack, pre), post.conj())


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
    return complex(Ket._inner(x.amplitudes, y.amplitudes))


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
    acc = operator_matrix(ops[0])
    for op in ops[1:]:
        acc = acc @ operator_matrix(op, dim=acc.shape[0])
    return complex(acc.trace())


def _project_out(w: np.ndarray, basis: Sequence[np.ndarray], tol: float,
                 again_below_sq: float) -> float:
    # Modified Gram-Schmidt of ``w`` against the orthonormal ``basis``, in
    # place; returns the residual norm.  Unless that is at most ``tol``, a
    # residual whose squared norm is below ``again_below_sq`` is projected a
    # second time.
    for _ in range(2):
        for q in basis:
            w -= q * Ket._inner(q, w)
        norm = Ket._norm(w)
        if norm <= tol or norm * norm >= again_below_sq:
            break
    return norm


def orthonormalize(vectors: Sequence[np.ndarray], *, tol: float = SPAN_TOL) -> list[np.ndarray]:
    """Modified Gram-Schmidt orthonormalization.

    A vector whose residual keeps less than 1/sqrt(2) of its norm is
    projected a second time ("twice is enough": Giraud, Langou & Rozložník
    2005), since one pass leaves it a non-orthogonality of about
    eps / residual.  Raises :class:`DegenerateSpanError` when a residual norm
    falls to ``max(tol |v|, _MIN_NORM)`` or below, so ``c v`` gets one answer
    for ``c |v|`` from 1.5e-146 to 1.3e154 (and more than ``d`` vectors of
    length ``d`` are refused; a vector whose own norm is at most ``_MIN_NORM``
    is named as of (near-)zero norm), :class:`DimensionMismatchError` for
    vectors of differing lengths, and :class:`ValidationError` for a vector
    that is not 1-d or whose norm is not finite (named as overflowing when
    its entries are finite).
    """
    if not tol >= 0.0:
        raise ValidationError(f"tolerance must be non-negative, got {tol}")
    basis: list[np.ndarray] = []
    for k, v in enumerate(vectors):
        w = np.array(v, dtype=np.complex128)
        if w.ndim != 1:
            raise ValidationError(f"vector {k} is not 1-d: shape {w.shape}")
        if basis and w.shape != basis[0].shape:
            raise DimensionMismatchError(
                f"vector {k} has length {w.size}, vector 0 has length {basis[0].size}")
        size_sq = Ket._inner(w, w).real
        if not math.isfinite(size_sq):
            raise ValidationError(f"vector {k} is finite, but its norm overflows"
                                  if np.isfinite(w).all() else
                                  f"vector {k} does not have a finite norm")
        cutoff = max(tol * math.sqrt(size_sq), _MIN_NORM)
        norm = _project_out(w, basis, cutoff, 0.5 * size_sq)
        if norm <= cutoff:
            raise DegenerateSpanError(
                f"vector {k} has (near-)zero norm" if math.sqrt(size_sq) <= _MIN_NORM else
                f"vector {k} is linearly dependent on its predecessors (residual norm {norm:.3e})")
        basis.append(w / norm)
    return basis


def projector_from_kets(kets: Sequence[Ket]) -> Projector:
    """Projector onto the span of the given kets (need not be orthogonal), not
    re-validated: :func:`orthonormalize` returns a basis orthonormal to eps."""
    if not kets:
        raise ValidationError("projector_from_kets needs at least one ket")
    basis = np.array(orthonormalize([k.amplitudes for k in kets]))
    return Projector._validated(Projector._rank1(basis, signed_zeros=False).sum(axis=0), len(basis))


def complete_basis(vectors: Sequence[np.ndarray], dim: int) -> list[np.ndarray]:
    """Extend vectors to a full orthonormal basis of a ``dim``-dimensional space.

    Deterministic: after :func:`orthonormalize`, candidates are the canonical
    basis vectors taken in index order, keeping each one whose Gram-Schmidt
    residual survives the dependence cutoff.  They go through the same loop
    with a narrower second-pass rule: a candidate whose residual's squared
    norm is below 1e-3 (about 3 % of its norm) is projected a second time,
    so the basis completed around a vector near an axis, or with several
    small components, is orthonormal too.  Raises :class:`ValidationError`
    for ``dim < 1`` and :class:`DimensionMismatchError` for vectors whose
    length is not ``dim``.
    """
    if dim < 1:
        raise ValidationError(f"dimension must be at least 1, got {dim}")
    basis = orthonormalize(vectors)
    if basis and basis[0].size != dim:
        raise DimensionMismatchError(f"vectors of length {basis[0].size} in dimension {dim}")
    for k in range(dim):
        if len(basis) == dim:
            break
        w = np.zeros(dim, dtype=np.complex128)
        w[k] = 1.0
        norm = _project_out(w, basis, SPAN_TOL, 1e-3)
        if norm > SPAN_TOL:
            basis.append(w / norm)
    if len(basis) != dim:
        raise ValidationError("failed to complete an orthonormal basis")
    return basis


def basis_containing(ket: Ket) -> ObservableDecomposition:
    """A nondegenerate basis observable whose branch 0 projects onto ``ket``.

    The remaining directions come from :func:`complete_basis`, so the result
    is deterministic for a given input.  Its second pass leaves the basis
    orthonormal to rounding, so the decomposition is not checked again.
    """
    return ObservableDecomposition._from_orthonormal(complete_basis([ket.amplitudes], ket.dim))
