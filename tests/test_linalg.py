import dataclasses

import numpy as np
import pytest

from ablkit.errors import DegenerateSpanError, DimensionMismatchError, ValidationError
from ablkit.histories import enumerate_coarse_grainings
from ablkit.linalg import (
    Branch,
    Ket,
    ObservableDecomposition,
    Projector,
    apply_operator,
    basis_containing,
    complete_basis,
    inner,
    orthonormalize,
    projector_from_kets,
    trace_product,
)
from ablkit.linalg import _norm

from conftest import OVERFLOWING_HERMITIAN, mixed_rank_decomposition


def unit(dim, k):
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return Ket(v)


A = Ket.normalized([1, 1, 1])
B = Ket.normalized([1, 1, -1])
# orthogonal to both A and B
PERP = Ket.normalized([-1, 1, 0])


def test_ket_rejects_unnormalized():
    with pytest.raises(ValidationError):
        Ket(np.array([1.0, 1.0]))


def test_ket_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        Ket(np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValidationError):
        Ket(np.array([], dtype=complex))
    with pytest.raises(ValidationError):
        Ket(np.array([np.nan, 0.0]))


def test_ket_normalized_scales():
    k = Ket.normalized([3, 4j])
    np.testing.assert_allclose(k.amplitudes, [0.6, 0.8j], atol=1e-15)
    with pytest.raises(ValidationError):
        Ket.normalized([0.0, 0.0])


def test_ket_amplitudes_read_only():
    with pytest.raises(ValueError):
        A.amplitudes[0] = 0.0


def test_inner_frozen_values():
    assert inner(A, A) == pytest.approx(1.0, abs=1e-12)
    assert inner(B, A) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert inner(PERP, A) == pytest.approx(0.0, abs=1e-12)


def test_inner_conjugate_linear_first_argument():
    x = Ket.normalized([1, 1j])
    y = Ket.normalized([1, 1])
    assert inner(x, y) == pytest.approx(np.conj(inner(y, x)), abs=1e-15)


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner(A, unit(2, 0))


def test_rank1_projector_matrix():
    p = unit(3, 0).projector()
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(p.matrix, expected, atol=1e-15)
    assert p.rank == 1 and p.dim == 3


def test_projector_validation():
    with pytest.raises(ValidationError):
        Projector(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValidationError):
        Projector(0.5 * np.eye(2))  # Hermitian but not idempotent
    with pytest.raises(ValidationError):
        Projector(np.zeros((2, 2)))  # zero projector has no rank
    with pytest.raises(ValidationError):
        Projector(np.eye(2), rank=1)  # declared rank contradicts the trace


@pytest.mark.parametrize("complement", [False, True])
def test_projector_refuses_a_nan_idempotency_residue(complement):
    m = np.eye(3) - OVERFLOWING_HERMITIAN if complement else OVERFLOWING_HERMITIAN
    with pytest.raises(ValidationError, match="not idempotent"):
        Projector(m)


def test_projector_complement():
    p = unit(3, 0).projector()
    q = p.complement()
    assert q.rank == 2
    np.testing.assert_allclose(p.matrix + q.matrix, np.eye(3), atol=1e-15)
    with pytest.raises(ValidationError):
        Projector(np.eye(2)).complement()


def test_projector_from_kets_matches_direct_gram_schmidt():
    # independent two-vector construction: q1 = a, q2 = (b - <a|b> a) / norm
    a = A.amplitudes
    b = B.amplitudes
    q2 = b - np.vdot(a, b) * a
    q2 = q2 / np.linalg.norm(q2)
    expected = np.outer(a, a.conj()) + np.outer(q2, q2.conj())

    p = projector_from_kets([A, B])
    assert p.rank == 2
    np.testing.assert_allclose(p.matrix, expected, atol=1e-12)
    np.testing.assert_allclose(p.matrix @ a, a, atol=1e-12)
    np.testing.assert_allclose(p.matrix @ b, b, atol=1e-12)
    np.testing.assert_allclose(p.matrix @ PERP.amplitudes, 0.0, atol=1e-12)


def test_projector_from_kets_rejects_dependent_set():
    with pytest.raises(DegenerateSpanError):
        projector_from_kets([A, A])


def test_orthonormalize_output_is_orthonormal():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4, 5):
        vecs = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        basis = orthonormalize(list(vecs))
        gram = np.array([[np.vdot(p, q) for q in basis] for p in basis])
        np.testing.assert_allclose(gram, np.eye(dim), atol=1e-10)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300, float("-inf")])
def test_orthonormalize_refuses_an_invalid_tolerance(tol):
    # Such a tolerance let a zero residual through, as a vector of nan.
    for vectors in ([np.zeros(2)], [np.array([1.0, 0.0])], []):
        with pytest.raises(ValidationError) as err:
            orthonormalize(vectors, tol=tol)
        assert str(err.value) == f"tolerance must be non-negative, got {tol}"


def test_orthonormalize_accepts_a_zero_tolerance():
    assert len(orthonormalize([np.array([1.0, 1j])], tol=0.0)) == 1
    with pytest.raises(DegenerateSpanError):
        orthonormalize([np.zeros(2)], tol=0.0)


def _near_dependent_kets(seed: int, r: float):
    # q0 and normalize(q0 + r q1) for a seeded complex QR basis q: the second
    # ket's Gram-Schmidt residual is about r, and one pass leaves it a
    # non-orthogonality of about eps / r.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    near = q[:, 0] + r * q[:, 1]
    return [Ket(q[:, 0]), Ket(near / np.linalg.norm(near))]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("r", [2e-8, 5e-8, 1e-7, 1e-6])
def test_near_dependent_kets_in_a_generic_basis_are_reorthogonalized(seed, r):
    # A single Gram-Schmidt pass had these projectors refused as "not
    # idempotent" (up to r = 1e-6 for seeds 0 and 2).
    kets = _near_dependent_kets(seed, r)
    first, second = orthonormalize([k.amplitudes for k in kets])
    assert abs(np.vdot(first, second)) <= 1e-15
    p = projector_from_kets(kets)
    assert p.rank == 2
    for k in kets:
        np.testing.assert_allclose(p.matrix @ k.amplitudes, k.amplitudes, atol=1e-12)


def test_trace_product_frozen_values():
    pa = A.projector()
    pb = B.projector()
    p1 = unit(3, 0).projector()
    assert trace_product([np.eye(3)]).real == pytest.approx(3.0, abs=1e-12)
    assert trace_product([pb, pa]).real == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert trace_product([pb, p1, pa, p1]).real == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_trace_product_cyclic_invariance():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5):
        ms = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
              for _ in range(3)]
        t1 = trace_product(ms)
        t2 = trace_product(ms[1:] + ms[:1])
        assert t1 == pytest.approx(t2, rel=1e-10)


def test_trace_product_of_two_rank1_is_overlap():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = Ket.normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        y = Ket.normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        t = trace_product([x.projector(), y.projector()])
        assert t.real == pytest.approx(abs(inner(x, y)) ** 2, abs=1e-12)
        assert t.imag == pytest.approx(0.0, abs=1e-12)


def test_trace_product_input_checks():
    with pytest.raises(ValidationError):
        trace_product([])
    with pytest.raises(DimensionMismatchError):
        trace_product([np.eye(2), np.eye(3)])


def test_apply_operator():
    out = apply_operator(unit(3, 0).projector(), A)
    np.testing.assert_allclose(out, [1 / np.sqrt(3), 0, 0], atol=1e-12)
    np.testing.assert_allclose(apply_operator(np.eye(3), A), A.amplitudes, atol=1e-15)
    with pytest.raises(DimensionMismatchError):
        apply_operator(np.eye(2), A)


def test_decomposition_requires_completeness():
    p0 = unit(2, 0).projector()
    with pytest.raises(ValidationError):
        ObservableDecomposition((Branch(1.0, p0),))


def test_decomposition_requires_orthogonal_branches():
    p0 = unit(2, 0).projector()
    plus = Ket.normalized([1, 1]).projector()
    with pytest.raises(ValidationError):
        ObservableDecomposition((Branch(1.0, p0), Branch(2.0, plus)))


def test_decomposition_requires_distinct_eigenvalues():
    with pytest.raises(ValidationError):
        ObservableDecomposition.from_eigenbasis([unit(2, 0), unit(2, 1)], eigenvalues=[1.0, 1.0])


def test_decomposition_requires_matching_dims():
    with pytest.raises(DimensionMismatchError):
        ObservableDecomposition((Branch(1.0, unit(2, 0).projector()),
                                 Branch(2.0, unit(3, 0).projector())))


def test_decomposition_accessors():
    obs = ObservableDecomposition.from_eigenbasis([unit(2, 0), unit(2, 1)], eigenvalues=[3.0, -3.0])
    assert len(obs) == 2
    assert obs.dim == 2
    assert obs.eigenvalues == (3.0, -3.0)
    assert obs.projector(1).rank == 1
    assert [e for e, _ in obs] == [3.0, -3.0]
    with pytest.raises(IndexError):
        obs.projector(2)


def test_single_branch_identity_decomposition():
    obs = ObservableDecomposition((Branch(1.0, Projector(np.eye(3))),))
    assert len(obs) == 1
    assert obs.projector(0).rank == 3


def test_complete_basis_deterministic_and_canonical():
    first = complete_basis([A.amplitudes], 3)
    second = complete_basis([A.amplitudes], 3)
    assert all(np.array_equal(x, y) for x, y in zip(first, second))
    gram = np.array([[np.vdot(p, q) for q in first] for p in first])
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)
    # starting from a canonical vector, the remaining canonical vectors
    # survive untouched in index order
    rest = complete_basis([unit(3, 1).amplitudes], 3)
    np.testing.assert_allclose(rest[1], [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(rest[2], [0, 0, 1], atol=1e-15)


def test_complete_basis_full_space():
    basis = complete_basis([], 4)
    np.testing.assert_allclose(np.array(basis), np.eye(4), atol=1e-15)


def test_basis_containing_puts_ket_first():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 4, 5):
        k = Ket.normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        obs = basis_containing(k)
        assert len(obs) == dim
        np.testing.assert_allclose(obs.matrix(0), np.outer(k.amplitudes, k.amplitudes.conj()),
                                   atol=1e-12)


def _branchwise(kets, eigenvalues):
    # The reference path: validate each rank-1 branch, then the decomposition.
    return ObservableDecomposition.from_projectors([k.projector() for k in kets], eigenvalues)


@pytest.mark.parametrize("kets, eigenvalues, error, message", [
    ([unit(2, 0), Ket.normalized([1, 1])], [0.0, 1.0], ValidationError, "sum to the identity"),
    # complete within tolerance, but branches 1 and 2 overlap by 1.5e-10
    ([unit(3, 0), unit(3, 1), Ket.normalized([0, 1.5e-10, 1])], [0.0, 1.0, 2.0],
     ValidationError, "1 and 2 are not orthogonal"),
    ([unit(3, 0), unit(3, 1)], [0.0, 1.0], ValidationError, "sum to the identity"),
    ([unit(2, 0), unit(3, 1)], [0.0, 1.0], DimensionMismatchError, "differ in dimension"),
    ([unit(2, 0), unit(2, 1)], [1.0, 1.0], ValidationError, "pairwise distinct"),
    # a ket accepted at norm^2 = 1 + 5e-10 has a valid projector, but the
    # completeness residue 5e-10 exceeds ALG_TOL * d = 2e-10
    ([Ket(np.array([np.sqrt(1 + 5e-10), 0.0])), unit(2, 1)], [0.0, 1.0],
     ValidationError, "sum to the identity"),
    # the counts are checked before anything else: zip would drop the extras
    ([unit(2, 0), unit(2, 1)], [1.0, 2.0, 3.0], ValidationError,
     "3 eigenvalue labels for 2 branches"),
    ([unit(2, 0), unit(2, 1)], [1.0], ValidationError, "1 eigenvalue labels for 2 branches"),
    ([unit(2, 0), unit(3, 1)], [1.0], ValidationError, "1 eigenvalue labels for 2 branches"),
], ids=["non-orthogonal", "nearly-orthogonal", "incomplete", "mixed-dimension",
        "repeated-labels", "norm-off-by-5e-10", "extra-label", "missing-label",
        "missing-label-mixed-dimension"])
def test_from_eigenbasis_rejects_like_branch_constructor(kets, eigenvalues, error, message):
    with pytest.raises(error, match=message) as branchwise:
        _branchwise(kets, eigenvalues)
    with pytest.raises(error, match=message) as stacked:
        ObservableDecomposition.from_eigenbasis(kets, eigenvalues)
    assert str(stacked.value) == str(branchwise.value)


def test_norm_equals_numpy_norm_bit_for_bit():
    # contiguous, strided and reversed views, over twelve decades of scale;
    # np.linalg.norm sums a reversed view in memory order
    rng = np.random.default_rng(23)
    for dim in range(1, 65):
        for _ in range(20):
            raw = rng.standard_normal(3 * dim) + 1j * rng.standard_normal(3 * dim)
            raw *= 10.0 ** rng.integers(-6, 7)
            for v in (raw[:dim], raw[::3], raw[dim - 1::-1]):
                assert _norm(v) == float(np.linalg.norm(v))


def test_norm_overflows_like_numpy_norm():
    v = np.array([1e200, 1e200j, 3.0])
    with np.errstate(over="ignore"):
        assert _norm(v) == float(np.linalg.norm(v)) == np.inf


def test_ket_projector_in_the_norm_band():
    # norm^2 = 1 + 5e-10 is inside NORM_TOL, and so are the projector's
    # idempotence and trace residues, which equal norm^2 - 1
    ket = Ket(np.array([np.sqrt(1 + 5e-10), 0.0]))
    proj = ket.projector()
    assert proj.rank == 1
    np.testing.assert_array_equal(proj.matrix, np.outer(ket.amplitudes, ket.amplitudes.conj()))
    with pytest.raises(ValueError):
        proj.matrix[0, 0] = 0.0


def test_from_eigenbasis_matches_branch_constructor():
    rng = np.random.default_rng(17)
    for dim in (1, 2, 3, 5):
        vecs = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))[0]
        kets = [Ket(v) for v in vecs.T]
        labels = [float(3 * k) for k in range(dim)]
        stacked = ObservableDecomposition.from_eigenbasis(kets, labels)
        branchwise = _branchwise(kets, labels)
        assert stacked.eigenvalues == branchwise.eigenvalues
        assert [p.rank for _, p in stacked] == [1] * dim
        np.testing.assert_array_equal(stacked.stack, branchwise.stack)
        for j in range(dim):
            np.testing.assert_array_equal(stacked.matrix(j), kets[j].projector().matrix)


def test_decomposition_stack_is_read_only():
    obs = ObservableDecomposition.from_projectors(
        [unit(3, 0).projector(), projector_from_kets([unit(3, 1), unit(3, 2)])])
    assert obs.stack.shape == (2, 3, 3)
    np.testing.assert_array_equal(obs.stack[1], obs.matrix(1))
    with pytest.raises(ValueError):
        obs.stack[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        obs.matrix(0)[0, 0] = 0.0


def _one_stack_case(case):
    # (observable, its branch ranks)
    mixed = mixed_rank_decomposition(5, [2, 1, 3])
    if case == "constructor":
        return mixed, (2, 1, 3)
    if case == "coarse-graining":  # blocks {0} and {1, 2}
        return enumerate_coarse_grainings(mixed)[3], (2, 4)
    if case == "from_eigenbasis":
        kets = [Ket.normalized([1, 1j, 0]), Ket.normalized([1, -1j, 0]), unit(3, 2)]
        return ObservableDecomposition.from_eigenbasis(kets, [2.0, -1.0, 0.5]), (1, 1, 1)
    return basis_containing(A), (1, 1, 1)


@pytest.mark.parametrize("case", ["constructor", "from_eigenbasis", "basis_containing",
                                  "coarse-graining"])
def test_branches_are_views_of_the_one_stack(case):
    obs, ranks = _one_stack_case(case)
    n = len(obs)
    assert obs.stack.shape == (n, obs.dim, obs.dim)
    for i in range(n):
        m = obs.projector(i).matrix
        assert np.shares_memory(m, obs.stack[i])
        np.testing.assert_array_equal(m, obs.stack[i])
        assert not m.flags.writeable
    assert obs.ranks == ranks and len(obs.eigenvalues) == n
    assert [p.rank for _, p in obs] == list(obs.ranks)
    for (e, p), (e2, p2) in zip(obs, obs.branches, strict=True):
        assert isinstance(p, Projector)
        assert e == e2 and np.shares_memory(p.matrix, p2.matrix)
    for attr in ("eigenvalues", "ranks", "stack", "branches", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obs, attr, None)
    with pytest.raises(IndexError):
        obs.projector(n)


# --- rank-1 bases checked from their amplitudes ------------------------------

def _hadamard_kets(dim):
    # Rows of a Sylvester-Hadamard matrix over sqrt(dim): every amplitude
    # has modulus 1/sqrt(dim), so max|P_i P_j| = |<a_i|a_j>| / dim.
    h = np.ones((1, 1))
    while h.shape[0] < dim:
        h = np.block([[h, h], [h, -h]])
    return [Ket(row / np.sqrt(dim)) for row in h]


def _tilted(kets, i, j, delta):
    # kets[j] tilted towards kets[i], leaving <a_i|a_j> of about delta.
    tilted = list(kets)
    tilted[j] = Ket.normalized(kets[j].amplitudes + delta * kets[i].amplitudes)
    return tilted


def _residues(kets):
    # The constructor's two residues, from the branch matrices:
    # (max|sum P - I| / (ALG_TOL d), max_{i<j} max|P_i P_j| / ALG_TOL).
    from ablkit.linalg import ALG_TOL

    stack = np.array([k.projector().matrix for k in kets])
    dim = stack.shape[1]
    complete = np.abs(stack.sum(axis=0) - np.eye(dim)).max() / (ALG_TOL * dim)
    overlap = max((np.abs(stack[i] @ stack[j]).max() for i in range(len(kets))
                   for j in range(i + 1, len(kets))), default=0.0)
    return complete, overlap / ALG_TOL


def _norm_off(eps, dim=2):
    # An orthonormal basis but for norm^2 = 1 + eps on the first ket.
    first = np.zeros(dim)
    first[0] = np.sqrt(1 + eps)
    return [Ket(first)] + [unit(dim, k) for k in range(1, dim)]


# (kets, which residue sits near the bound, its multiple of the bound,
#  expected message or None)
_GRAM_CASES = {
    "overlap-0.5x": (_tilted([unit(3, k) for k in range(3)], 1, 2, 5e-11),
                     1, 0.5, None),
    "overlap-2x": (_tilted([unit(3, k) for k in range(3)], 1, 2, 2e-10),
                   1, 2.0, "branch projectors 1 and 2 are not orthogonal"),
    # spread amplitudes make the max|a_i| factors count: <a_2|a_5> is 8x
    # the residue
    "spread-overlap-0.5x": (_tilted(_hadamard_kets(8), 2, 5, 4e-10), 1, 0.5, None),
    "spread-overlap-2x": (_tilted(_hadamard_kets(8), 2, 5, 1.6e-9),
                          1, 2.0, "branch projectors 2 and 5 are not orthogonal"),
    "completeness-0.5x": (_norm_off(1e-10), 0, 0.5, None),
    "completeness-2x": (_norm_off(4e-10), 0, 2.0, "branch projectors do not sum to the identity"),
}


@pytest.mark.parametrize("case", list(_GRAM_CASES))
def test_amplitude_checks_agree_with_the_matrix_checks_at_the_bounds(case):
    kets, which, multiple, message = _GRAM_CASES[case]
    residues = _residues(kets)
    assert residues[which] == pytest.approx(multiple, rel=0.02)
    assert residues[1 - which] < 0.75
    labels = [float(k) for k in range(len(kets))]
    if message is None:
        stacked = ObservableDecomposition.from_eigenbasis(kets, labels)
        np.testing.assert_array_equal(
            stacked.stack, ObservableDecomposition.from_projectors(
                [k.projector() for k in kets], labels).stack)
        return
    with pytest.raises(ValidationError) as branchwise:
        ObservableDecomposition.from_projectors([k.projector() for k in kets], labels)
    with pytest.raises(ValidationError) as stacked:
        ObservableDecomposition.from_eigenbasis(kets, labels)
    assert str(stacked.value) == str(branchwise.value) == message


def test_amplitude_checks_report_the_first_pair_in_row_major_order():
    # pairs (1, 3) and (0, 2) both overlap; the matrix checks report (0, 2)
    kets = _tilted(_tilted([unit(4, k) for k in range(4)], 1, 3, 1.5e-10), 0, 2, 1.5e-10)
    with pytest.raises(ValidationError) as branchwise:
        ObservableDecomposition.from_projectors([k.projector() for k in kets])
    with pytest.raises(ValidationError) as stacked:
        ObservableDecomposition.from_eigenbasis(kets)
    assert str(stacked.value) == str(branchwise.value)
    assert "0 and 2" in str(stacked.value)


def test_rank1_branches_equal_the_kets_projectors():
    rng = np.random.default_rng(23)
    for dim in (1, 3, 8, 64):
        vecs = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))[0]
        kets = [Ket(v) for v in vecs.T]
        for obs in (ObservableDecomposition.from_eigenbasis(kets), basis_containing(kets[0])):
            assert len(obs) == dim and obs.dim == dim
            assert obs.eigenvalues == tuple(float(k) for k in range(dim))
            assert [p.rank for _, p in obs] == [1] * dim
            with pytest.raises(ValueError):
                obs.matrix(0)[0, 0] = 0.0
        obs = ObservableDecomposition.from_eigenbasis(kets)
        for j in range(dim):
            np.testing.assert_array_equal(obs.matrix(j), kets[j].projector().matrix)
            np.testing.assert_array_equal(obs.projector(j).matrix, obs.stack[j])
