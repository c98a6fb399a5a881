"""The per-scenario helpers give the bits of NumPy's Python-level wrappers.

Where the helpers once called ``np.outer``, ``np.sum``, ``np.flatnonzero``,
``np.argmax``, ``np.sqrt``, ``np.diagonal`` or projected out of place in
Gram-Schmidt (``w = w - q * np.vdot(q, w)``), they now use array methods,
broadcasts, ``math.sqrt`` and in-place ufuncs.  This module keeps the wrapper
expressions, and an out-of-place copy of the Gram-Schmidt loops, as its
reference, and requires every helper's output to equal it byte for byte,
signed zeros included.  Inputs reach past the oracles (construction stops
at dim 12, mixing at dim 8, and neither has signed zeros): seeded Haar draws
at every dim 1-64, ``Ket([1, 0])``, ``Ket([-0.0, 1j])``, a ket with a tie on
the diagonal of its projector, and two kets at an angle of 1e-6; spans also
of three kets with signed zeros and of whole Haar bases.
"""

import functools
import math

import numpy as np
import pytest

from ablkit.abl import DIV_TOL
from ablkit.counterfactual import _mix
from ablkit.errors import UndefinedTermError, ValidationError
from ablkit.histories import HistoryFamily, disturbance_check
from ablkit.linalg import (SPAN_TOL, Ket, ObservableDecomposition, Projector,
                           basis_containing, complete_basis, orthonormalize, projector_from_kets)
from ablkit.sampling import random_basis, random_ket, substream

SEED = 2323
DIMS = range(1, 65)
ANGLE = 1e-6
SPECIAL = {
    "[1, 0]": Ket([1, 0]),
    "[-0.0, 1j]": Ket([-0.0, 1j]),
    "diagonal tie": Ket([math.sqrt(0.5), -math.sqrt(0.5)]),
    "angle 1e-6": Ket([math.cos(ANGLE), math.sin(ANGLE)]),
}
#: Pairs of the special kets, for the helpers that take several vectors.
SPECIAL_PAIRS = {
    "[1, 0] and angle 1e-6": (SPECIAL["[1, 0]"], SPECIAL["angle 1e-6"]),
    "[1, 0] and [-0.0, 1j]": (SPECIAL["[1, 0]"], SPECIAL["[-0.0, 1j]"]),
    "[-0.0, 1j] and diagonal tie": (SPECIAL["[-0.0, 1j]"], SPECIAL["diagonal tie"]),
}
#: Three kets in dim 3 with exact and negative zeros, the third not orthogonal
#: to the first: some entries of their span's terms are -0.0, and a sum that
#: starts from the first term keeps one of them.
ZEROS_TRIPLE = tuple(Ket.normalized([complex(*z) for z in ket]) for ket in (
    [(0.0, -0.0), (0.0, -0.0), (1.0, 1.0)],
    [(-0.0, 0.0), (1.0, -0.0), (-0.0, -0.0)],
    [(0.0, 1.0), (-0.0, 0.0), (1.0, -0.0)]))
#: Dims at which projector_from_kets takes the full span of a Haar basis.
FULL_SPAN_DIMS = (2, 3, 8, 24)


@functools.lru_cache(maxsize=None)
def _draws(dim: int):
    # Two Haar kets, two Haar bases and a set of dim Gaussian vectors.
    rng = substream(SEED, dim)
    a, b = random_ket(rng, dim), random_ket(rng, dim)
    observable, final = random_basis(rng, dim), random_basis(rng, dim)
    gaussians = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a, b, observable, final, tuple(gaussians)


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _kets():
    # (label, ket) for every Haar ket of every dim and the special kets.
    for dim in DIMS:
        a, b, observable, final, _ = _draws(dim)
        yield from ((f"dim {dim} ket {i}", k) for i, k in enumerate([a, b, *observable, *final]))
    yield from SPECIAL.items()


# --- the reference: the wrapper expressions --------------------------------

def _ref_projector(a: np.ndarray) -> np.ndarray:
    return np.outer(a, a.conj())


def _ref_orthonormalize(vectors) -> list[np.ndarray]:
    basis = []
    for v in vectors:
        w = np.array(v, dtype=np.complex128)
        input_sq = np.vdot(w, w).real if basis else 0.0
        for _ in range(2):
            for q in basis:
                w = w - q * np.vdot(q, w)
            norm = Ket._norm(w)
            if norm <= SPAN_TOL or 2.0 * norm * norm >= input_sq:
                break
        assert norm > SPAN_TOL
        basis.append(w / norm)
    return basis


def _ref_complete_basis(vectors, dim: int) -> list[np.ndarray]:
    basis = _ref_orthonormalize(vectors) if len(vectors) else []
    for k in range(dim):
        if len(basis) == dim:
            break
        w = np.zeros(dim, dtype=np.complex128)
        w[k] = 1.0
        # A candidate whose residual's squared norm is below 1e-3 is projected twice.
        for _ in range(2):
            for q in basis:
                w = w - q * np.vdot(q, w)
            norm = Ket._norm(w)
            if norm <= SPAN_TOL or norm * norm >= 1e-3:
                break
        if norm > SPAN_TOL:
            basis.append(w / norm)
    return basis


def _ref_projector_from_kets(kets) -> np.ndarray:
    dim = kets[0].dim
    m = np.zeros((dim, dim), dtype=np.complex128)
    for q in _ref_orthonormalize([k.amplitudes for k in kets]):
        m += np.outer(q, q.conj())
    return m


def _ref_state_of(m: np.ndarray) -> np.ndarray:
    k = int(np.argmax(m.diagonal().real))
    return m[:, k] / np.sqrt(m[k, k].real)


def _ref_mix(joints, denominators, weights, branch: int):
    # The total, or the index of the first undefined live term.
    live = weights > DIV_TOL
    undefined = np.flatnonzero(live & (denominators <= DIV_TOL))
    if undefined.size:
        return int(undefined[0])
    return float(np.sum(weights[live] * (joints[live, branch] / denominators[live])))


def _ref_random_basis(rng: np.random.Generator, dim: int) -> list[np.ndarray]:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return list(q.T.copy())


# --- the tests -------------------------------------------------------------

def test_ket_projector():
    differ = [label for label, ket in _kets()
              if not _same(ket.projector().matrix, _ref_projector(ket.amplitudes))]
    assert differ == []


def test_state_of():
    # A projector built from a matrix carries no ket: its state is read from its columns.
    differ = [label for label, ket in _kets()
              if not _same(Projector._validated(_ref_projector(ket.amplitudes), 1)._state(),
                           _ref_state_of(_ref_projector(ket.amplitudes)))]
    assert differ == []


def _vector_sets():
    # (label, vectors) for orthonormalize and complete_basis.
    for dim in DIMS:
        a, b, _, _, gaussians = _draws(dim)
        yield f"dim {dim} Gaussians", list(gaussians)
        yield f"dim {dim} Haar ket", [a.amplitudes]
        if dim > 1:
            yield f"dim {dim} Haar pair", [a.amplitudes, b.amplitudes]
    for label, ket in SPECIAL.items():
        yield label, [ket.amplitudes]
    for label, kets in SPECIAL_PAIRS.items():
        yield label, [k.amplitudes for k in kets]


def test_orthonormalize_projects_in_place_with_the_bits_of_out_of_place():
    differ = []
    for label, vectors in _vector_sets():
        before = [v.copy() for v in vectors]
        got, want = orthonormalize(vectors), _ref_orthonormalize(vectors)
        if len(got) != len(want) or not all(map(_same, got, want)):
            differ.append(label)
        if not all(map(_same, vectors, before)):
            differ.append(f"{label}: an input changed")
    assert differ == []


def test_complete_basis_projects_in_place_with_the_bits_of_out_of_place():
    differ = []
    for label, vectors in _vector_sets():
        dim = len(vectors[0])
        if len(vectors) > dim:
            continue
        before = [v.copy() for v in vectors]
        got, want = complete_basis(vectors, dim), _ref_complete_basis(vectors, dim)
        if len(got) != dim or not all(map(_same, got, want)):
            differ.append(label)
        if not all(map(_same, vectors, before)):
            differ.append(f"{label}: an input changed")
    for dim in DIMS:
        if not all(map(_same, complete_basis([], dim), _ref_complete_basis([], dim))):
            differ.append(f"dim {dim} no vectors")
    assert differ == []


def test_projector_from_kets():
    cases = [(f"dim {dim}", [a, b, *observable[:1]][:dim])
             for dim in DIMS for a, b, observable, _, _ in [_draws(dim)]]
    cases += [(label, [ket]) for label, ket in SPECIAL.items()]
    cases += [(label, list(kets)) for label, kets in SPECIAL_PAIRS.items()]
    cases += [("dim 3 triple with zeros", list(ZEROS_TRIPLE))]
    cases += [(f"dim {dim} full Haar span", list(_draws(dim)[2])) for dim in FULL_SPAN_DIMS]
    differ = []
    for label, kets in cases:
        got = projector_from_kets(kets)
        if got.rank != len(kets) or not _same(got.matrix, _ref_projector_from_kets(kets)):
            differ.append(label)
    assert differ == []


def _basis_containing_outcome(build, ket):
    # The decomposition's labels and stack, or the message of the
    # ValidationError it raises.  Both sides project a canonical candidate
    # that keeps less than about 3 % of its norm a second time, so both
    # accept a ket within 1e-6 of an axis, which one pass left non-orthogonal
    # by about 1e-10.
    try:
        obs = build(ket)
    except ValidationError as err:
        return str(err)
    return obs.eigenvalues, obs.stack


def test_basis_containing():
    def ref(ket):
        return ObservableDecomposition._from_amplitudes(
            np.array(_ref_complete_basis([ket.amplitudes], ket.dim)), range(ket.dim))

    kets = [(f"dim {dim}", _draws(dim)[0]) for dim in DIMS] + list(SPECIAL.items())
    differ = []
    for label, ket in kets:
        got = _basis_containing_outcome(basis_containing, ket)
        want = _basis_containing_outcome(ref, ket)
        if type(got) is not type(want) or (
                got != want if isinstance(want, str)
                else got[0] != want[0] or not _same(got[1], want[1])):
            differ.append(label)
    assert differ == []


def test_random_basis():
    differ = []
    for dim in DIMS:
        got = random_basis(substream(SEED, dim), dim)
        want = _ref_random_basis(substream(SEED, dim), dim)
        if not all(_same(k.amplitudes, w) for k, w in zip(got, want, strict=True)):
            differ.append(dim)
    assert differ == []


def _mixing_cases():
    # (label, joints, denominators, weights): both weightings of every Haar
    # scenario and of canonical and diagonal bases around the special kets,
    # plus tables with signed zeros and undefined terms.  For rank-1 final
    # and observable bases, joints[l, j] = |<f_l|o_j>|^2 |<o_j|a>|^2.
    s = math.sqrt(0.5)
    canonical, diagonal = np.eye(2, dtype=complex), np.array([[s, s], [s, -s]], dtype=complex)
    scenarios = [(f"dim {dim}", a.amplitudes, np.array([k.amplitudes for k in final]),
                  np.array([k.amplitudes for k in observable]))
                 for dim in DIMS for a, _, observable, final, _ in [_draws(dim)]]
    scenarios += [(label, ket.amplitudes, fin, obs) for label, ket in SPECIAL.items()
                  for fin, obs in ((canonical, diagonal), (diagonal, canonical),
                                   (canonical, canonical))]
    for label, a, fin, obs in scenarios:
        joints = np.abs(fin.conj() @ obs.T) ** 2 * np.abs(obs.conj() @ a) ** 2
        denominators = joints.sum(axis=1)
        yield f"{label} Sharp-Shanks", joints, denominators, np.abs(fin.conj() @ a) ** 2
        yield f"{label} Vaidman", joints, denominators, denominators
    signed = np.array([[-0.0, 0.25], [0.5, -0.0], [-0.0, -0.0]])
    yield "signed zeros", signed, np.array([0.25, 0.5, 0.125]), np.array([0.5, 0.25, 0.25])
    yield "all terms -0.0", signed[[2]], np.array([0.5]), np.array([1.0])
    yield "undefined first", signed, np.array([0.0, 0.5, DIV_TOL]), np.array([0.5, 0.25, 0.25])
    yield "undefined last", signed, np.array([0.25, 0.5, -0.0]), np.array([0.5, 0.0, 0.5])


def test_mix():
    differ = []
    for label, joints, denominators, weights in _mixing_cases():
        for branch in range(joints.shape[1]):
            want = _ref_mix(joints, denominators, weights, branch)
            if isinstance(want, int):
                with pytest.raises(UndefinedTermError, match=f"^final outcome {want} has"):
                    _mix(joints, denominators, weights, branch)
                continue
            got = _mix(joints, denominators, weights, branch)
            if type(got) is not float or not _same(got, want):
                differ.append(f"{label} branch {branch}")
    assert differ == []


def test_disturbance_check():
    families = []
    for dim in DIMS:
        a, b, observable, _, _ = _draws(dim)
        families.append((f"dim {dim}", HistoryFamily(
            a.projector(), ObservableDecomposition.from_eigenbasis(observable), b.projector())))
    canonical = ObservableDecomposition.from_eigenbasis([Ket([1, 0]), Ket([0, 1])])
    families += [(f"{pre} to {post}", HistoryFamily(a.projector(), canonical, b.projector()))
                 for pre, a in SPECIAL.items() for post, b in SPECIAL.items()]
    differ = []
    for label, family in families:
        got = disturbance_check(family).disturbed
        want = float(np.sum(family._x.real ** 2 + family._x.imag ** 2))
        if type(got) is not float or not _same(got, want):
            differ.append(label)
    assert differ == []
