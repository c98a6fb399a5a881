import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ablkit.abl import (
    DIV_TOL,
    AblDistribution,
    PrePostContext,
    abl_distribution,
    abl_probabilities,
    born_distribution,
    disturbed_final_probability,
    joint_probability,
    luders_update,
)
from ablkit.errors import (
    DimensionMismatchError,
    ImpossiblePostselectionError,
    ValidationError,
    ZeroProjectionError,
)
from ablkit.histories import HistoryFamily, decoherence_matrix, disturbance_check
from ablkit.linalg import (Ket, ObservableDecomposition, apply_operator, basis_containing,
                           projector_from_kets)
from ablkit.sampling import random_basis, random_ket
from ablkit.scenarios import spin, three_box

from conftest import make_context, mixed_rank_decomposition

SCENARIO = three_box()
CTX = SCENARIO.context
C = SCENARIO.observables["C"]
CPRIME = SCENARIO.observables["Cprime"]
CDPRIME = SCENARIO.observables["Cdprime"]
A_BASIS = SCENARIO.observables["A"]
B_BASIS = SCENARIO.observables["B"]


def test_context_validates_dimensions():
    with pytest.raises(DimensionMismatchError):
        PrePostContext(Ket.normalized([1, 1]), Ket.normalized([1, 1, 1]))


def test_context_projectors_are_rank1():
    np.testing.assert_allclose(np.trace(CTX.initial_projector), 1.0, atol=1e-12)
    np.testing.assert_allclose(CTX.initial_projector @ CTX.preselection.amplitudes,
                               CTX.preselection.amplitudes, atol=1e-12)


def test_born_three_box_is_uniform():
    np.testing.assert_allclose(born_distribution(CTX.preselection, C), [1 / 3] * 3, atol=1e-12)


def test_born_eigenstate_is_deterministic():
    np.testing.assert_allclose(born_distribution(CTX.preselection, A_BASIS), [1, 0, 0], atol=1e-12)


def test_born_spin_quarter():
    s = spin(math.pi / 3)
    np.testing.assert_allclose(born_distribution(s.context.preselection, s.observables["Sn"]),
                               [0.75, 0.25], atol=1e-12)


def test_born_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        born_distribution(Ket.normalized([1, 1]), C)


def test_joint_probabilities_three_box():
    for i in range(3):
        assert joint_probability(CTX, C, i) == pytest.approx(1 / 9, abs=1e-12)
    assert joint_probability(CTX, A_BASIS, 0) == pytest.approx(1 / 9, abs=1e-12)
    assert joint_probability(CTX, A_BASIS, 1) == pytest.approx(0.0, abs=1e-12)


def test_joint_branch_out_of_range():
    with pytest.raises(IndexError):
        joint_probability(CTX, C, 3)
    with pytest.raises(IndexError):
        joint_probability(CTX, C, -1)


def test_three_box_abl_all_boxes_uniform():
    dist = abl_distribution(CTX, C)
    np.testing.assert_allclose(dist.probabilities, [1 / 3] * 3, atol=1e-10)
    assert dist.denominator == pytest.approx(1 / 3, abs=1e-10)


def test_three_box_abl_box1_versus_rest_is_certain():
    dist = abl_distribution(CTX, CPRIME)
    np.testing.assert_allclose(dist.probabilities, [1.0, 0.0], atol=1e-10)
    assert dist.denominator == pytest.approx(1 / 9, abs=1e-10)


def test_three_box_abl_box2_versus_rest_is_certain():
    # same eigenvalue asked about through a different grouping: the answer flips
    dist = abl_distribution(CTX, CDPRIME)
    np.testing.assert_allclose(dist.probabilities, [0.0, 1.0], atol=1e-10)


def test_contextuality_of_box1_answer():
    p_fine = abl_distribution(CTX, C).probabilities[0]
    p_coarse = abl_distribution(CTX, CPRIME).probabilities[0]
    assert p_fine == pytest.approx(1 / 3, abs=1e-10)
    assert p_coarse == pytest.approx(1.0, abs=1e-10)


def test_identity_observables_are_certain():
    np.testing.assert_allclose(abl_distribution(CTX, A_BASIS).probabilities[0], 1.0, atol=1e-10)
    np.testing.assert_allclose(abl_distribution(CTX, B_BASIS).probabilities[0], 1.0, atol=1e-10)


def test_spin_pi3_abl():
    s = spin(math.pi / 3)
    dist = abl_distribution(s.context, s.observables["Sn"])
    np.testing.assert_allclose(dist.probabilities, [0.9, 0.1], atol=1e-12)
    np.testing.assert_allclose(abl_distribution(s.context, s.observables["Sx"]).probabilities,
                               [0.5, 0.5], atol=1e-12)


def test_impossible_postselection_raises():
    ctx = PrePostContext(Ket.normalized([1, 0, 0]), Ket.normalized([0, 1, 0]))
    a_basis = basis_containing(ctx.preselection)
    with pytest.raises(ImpossiblePostselectionError):
        abl_distribution(ctx, a_basis)


@pytest.mark.parametrize("denominator, defined", [(2e-12, True), (5e-13, False)])
def test_denominators_either_side_of_div_tol(denominator, defined):
    # a = |0>, observable {|0>, |1>}: x_0 = conj(b_0) and x_1 = 0, so the
    # ABL denominator is |b_0|^2.
    assert (denominator > DIV_TOL) == defined
    b = Ket(np.array([np.sqrt(denominator), np.sqrt(1.0 - denominator)]))
    ctx = PrePostContext(Ket.normalized([1, 0]), b)
    obs = ObservableDecomposition.from_eigenbasis([Ket.normalized([1, 0]),
                                                   Ket.normalized([0, 1])])
    cutoff = "is below the division cutoff 1e-12"
    if not defined:
        with pytest.raises(ImpossiblePostselectionError, match=cutoff):
            abl_distribution(ctx, obs)
        with pytest.raises(ImpossiblePostselectionError, match=cutoff):
            abl_probabilities(ctx.initial_projector, obs, ctx.final_projector)
        return
    dist = abl_distribution(ctx, obs)
    for probs, denom in ((dist.probabilities, dist.denominator),
                         abl_probabilities(ctx.initial_projector, obs, ctx.final_projector)):
        assert denom == pytest.approx(denominator, rel=1e-12)
        np.testing.assert_array_equal(probs, [1.0, 0.0])


@pytest.mark.parametrize("div_tol", [float("nan"), -1.0, -1e-300, float("-inf")])
def test_abl_probabilities_refuses_an_invalid_division_cutoff(div_tol):
    # Such a cutoff let a zero denominator through, as probabilities of nan.
    obs = ObservableDecomposition.from_eigenbasis([Ket.normalized([1, 0]),
                                                   Ket.normalized([0, 1])])
    with pytest.raises(ValidationError) as err:
        abl_probabilities(Ket.normalized([1, 0]).projector(), obs,
                          Ket.normalized([0, 1]).projector(), div_tol=div_tol)
    assert str(err.value) == f"tolerance must be non-negative, got {div_tol}"


def test_abl_probabilities_accepts_a_zero_division_cutoff():
    obs = ObservableDecomposition.from_eigenbasis([Ket.normalized([1, 0]),
                                                   Ket.normalized([0, 1])])
    probs, denom = abl_probabilities(Ket.normalized([1, 0]).projector(), obs,
                                     Ket.normalized([1, 1]).projector(), div_tol=0.0)
    np.testing.assert_array_equal(probs, [1.0, 0.0])
    assert denom == pytest.approx(0.5, rel=1e-12)


def test_abl_probabilities_accepts_multirank_endpoints():
    # postselect on a 2-dimensional subspace instead of a single state
    span = projector_from_kets([CTX.postselection, Ket.normalized([-1, 1, 0])])
    probs, denom = abl_probabilities(CTX.initial_projector, C, span)
    assert probs.shape == (3,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert denom > 0.0


def test_abl_distribution_is_read_only():
    dist = abl_distribution(CTX, C)
    assert isinstance(dist, AblDistribution)
    with pytest.raises(ValueError):
        dist.probabilities[0] = 0.5
    with pytest.raises(ValueError):
        dist.joints[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        dist.joints = np.zeros(3)


def test_abl_normalization_random():
    rng = np.random.default_rng(23)
    for trial in range(200):
        dim = 2 + trial % 4
        ctx = make_context(rng, dim)
        obs = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        probs, _ = abl_probabilities(ctx.initial_projector, obs, ctx.final_projector)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0 + 1e-12)


def test_abl_unit_identities_random():
    rng = np.random.default_rng(29)
    for trial in range(200):
        dim = 2 + trial % 4
        ctx = make_context(rng, dim)
        p_a = abl_distribution(ctx, basis_containing(ctx.preselection)).probabilities
        p_b = abl_distribution(ctx, basis_containing(ctx.postselection)).probabilities
        assert p_a[0] == pytest.approx(1.0, abs=1e-9)
        assert p_b[0] == pytest.approx(1.0, abs=1e-9)


def test_matching_selections_reweight_by_second_born_factor():
    # b = a does NOT reduce ABL to Born: each branch picks up a second factor
    rng = np.random.default_rng(31)
    for trial in range(50):
        dim = 2 + trial % 4
        a = random_ket(rng, dim)
        ctx = PrePostContext(a, a)
        obs = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        born = born_distribution(a, obs)
        # conditioning reweights by a second Born factor
        expected = born * born / np.sum(born * born)
        np.testing.assert_allclose(abl_distribution(ctx, obs).probabilities, expected, atol=1e-9)


def test_luders_update_frozen():
    u1 = Ket.normalized([1, 0, 0])
    after = luders_update(CTX.preselection, u1.projector())
    np.testing.assert_allclose(after.amplitudes, [1, 0, 0], atol=1e-12)
    rest = projector_from_kets([Ket.normalized([0, 1, 0]), Ket.normalized([0, 0, 1])])
    after = luders_update(CTX.preselection, rest)
    np.testing.assert_allclose(after.amplitudes, [0, 1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_luders_update_unit_norm_random():
    rng = np.random.default_rng(37)
    for _ in range(50):
        state = random_ket(rng, 4)
        proj = projector_from_kets(random_basis(rng, 4)[:2])
        out = luders_update(state, proj)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim", range(2, 9))
def test_luders_update_divides_by_numpy_norm_bit_for_bit(dim):
    # Each branch of a Haar basis and the span of its first two kets, on a
    # Haar state: the norm is np.linalg.norm's to the last bit.
    rng = np.random.default_rng(3800 + dim)
    state = random_ket(rng, dim)
    basis = random_basis(rng, dim)
    for proj in [k.projector() for k in basis] + [projector_from_kets(basis[:2])]:
        projected = apply_operator(proj, state)
        want = Ket(projected / np.linalg.norm(projected)).amplitudes
        assert luders_update(state, proj).amplitudes.tobytes() == want.tobytes()
    # A branch of Born weight 0: the state has no amplitude on the last axis.
    flat = Ket.normalized(np.append(random_ket(rng, dim - 1).amplitudes, 0.0))
    axis = Ket(np.eye(dim)[-1])
    assert np.linalg.norm(apply_operator(axis.projector(), flat)) == 0.0
    with pytest.raises(ZeroProjectionError):
        luders_update(flat, axis.projector())


@pytest.mark.parametrize("matrix, check", [
    (2 * np.eye(2), "not idempotent"),
    (np.full((2, 2), 1e200), "not idempotent"),
    (np.array([[1, 1], [0, 0]]), "not Hermitian"),
])
def test_luders_update_refuses_a_raw_matrix_that_is_not_a_projector(matrix, check):
    with pytest.raises(ValidationError, match=f"^projector matrix is {check}$"):
        luders_update(Ket([1, 0]), matrix)


def test_luders_update_takes_a_raw_projector_as_its_projector():
    # The same bits, and the caller's array is left writable.
    proj = projector_from_kets([Ket.normalized([1, 1j, 0])])
    state = Ket.normalized([1, 2, 3])
    matrix = np.array(proj.matrix)
    want = luders_update(state, proj).amplitudes
    assert luders_update(state, matrix).amplitudes.tobytes() == want.tobytes()
    assert matrix.flags.writeable


def test_luders_update_orthogonal_raises():
    perp = Ket.normalized([-1, 1, 0])
    with pytest.raises(ZeroProjectionError):
        luders_update(CTX.preselection, perp.projector())


def test_disturbed_final_probability_frozen():
    assert disturbed_final_probability(CTX, C) == pytest.approx(1 / 3, abs=1e-12)
    assert disturbed_final_probability(CTX, CPRIME) == pytest.approx(1 / 9, abs=1e-12)
    assert disturbed_final_probability(CTX, CDPRIME) == pytest.approx(1 / 9, abs=1e-12)


@pytest.mark.parametrize("kernel", [abl_distribution, disturbed_final_probability,
                                    lambda ctx, obs: joint_probability(ctx, obs, 0)],
                         ids=["abl_distribution", "disturbed_final_probability", "joint_probability"])
def test_context_kernels_refuse_an_observable_of_another_dimension(kernel):
    two_dim = basis_containing(Ket.normalized([1, 1]))
    with pytest.raises(DimensionMismatchError, match="context dim 3 != observable dim 2"):
        kernel(CTX, two_dim)


def test_disturbed_final_probability_is_the_abl_denominator_bit_for_bit():
    # From 8 branches on NumPy's sum is pairwise, so a Python sum of the same
    # joints can differ from it by an ulp (73 of these 200 draws).
    rng = np.random.default_rng(27)
    for trial in range(200):
        dim = 8 + trial % 5
        ctx = make_context(rng, dim)
        obs = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        assert disturbed_final_probability(ctx, obs) == abl_distribution(ctx, obs).denominator


def test_disturbed_final_probability_is_sum_of_joints():
    rng = np.random.default_rng(41)
    for trial in range(50):
        dim = 2 + trial % 4
        ctx = make_context(rng, dim)
        obs = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        total = sum(joint_probability(ctx, obs, i) for i in range(len(obs)))
        assert disturbed_final_probability(ctx, obs) == total


def _nearly_orthogonal_context(rng: np.random.Generator, dim: int, eps: float) -> PrePostContext:
    """A Haar preselection ``a`` and the postselection ``normalize(p + eps a)``
    for a Haar ``p`` orthogonalized against ``a``: ``|<b|a>|^2`` is about
    ``eps^2``, below the overlap floor of :func:`make_context`."""
    a, p = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    a = a / np.linalg.norm(a)
    p = p - np.vdot(a, p) * a
    b = p / np.linalg.norm(p) + eps * a
    return PrePostContext(Ket(a), Ket(b / np.linalg.norm(b)))


@st.composite
def _contexts_and_observables(draw):
    """A rank-mixed observable, dims 1-8, with a Haar-random context or (dims
    2-8) a nearly orthogonal one, where postselection is nearly impossible
    without the intermediate measurement."""
    dim = draw(st.integers(1, 8))
    ranks, left = [], dim
    while left:
        ranks.append(draw(st.integers(1, left)))
        left -= ranks[-1]
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if dim >= 2 and draw(st.booleans()):
        ctx = _nearly_orthogonal_context(rng, dim, draw(st.sampled_from([1e-3, 1e-5])))
    else:
        ctx = make_context(rng, dim)
    return ctx, mixed_rank_decomposition(seed, ranks)


@settings(max_examples=200, deadline=None)
@given(case=_contexts_and_observables())
def test_amplitude_kernel_properties(case):
    ctx, obs = case
    dist = abl_distribution(ctx, obs)
    # the trace form over projector endpoints is the oracle for the rank-1 path
    probs, denominator = abl_probabilities(ctx.initial_projector, obs, ctx.final_projector)
    np.testing.assert_allclose(dist.probabilities, probs, rtol=0, atol=1e-12)
    assert dist.denominator == pytest.approx(denominator, abs=1e-12)
    assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    # time symmetry: |<b|P_i|a>|^2 = |<a|P_i|b>|^2
    swapped = abl_distribution(PrePostContext(ctx.postselection, ctx.preselection), obs)
    np.testing.assert_allclose(swapped.probabilities, dist.probabilities, rtol=0, atol=1e-12)
    disturbed = disturbed_final_probability(ctx, obs)
    # joints: bit for bit what joint_probability gives, and what was conditioned
    by_branch = np.array([joint_probability(ctx, obs, i) for i in range(len(obs))])
    assert by_branch.tobytes() == dist.joints.tobytes()
    assert (dist.joints / dist.denominator).tobytes() == dist.probabilities.tobytes()
    joints = sum(joint_probability(ctx, obs, i) for i in range(len(obs)))
    assert disturbed == pytest.approx(joints, abs=1e-12)
    assert disturbed == pytest.approx(dist.denominator, abs=1e-12)
    family = HistoryFamily.from_context(ctx, obs)
    d = decoherence_matrix(family)
    np.testing.assert_allclose(d, d.conj().T, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(d).min() >= -1e-12
    trace = np.trace(d)
    assert trace.imag == pytest.approx(0.0, abs=1e-12)
    assert trace.real == pytest.approx(disturbance_check(family).disturbed, abs=1e-12)
    assert trace.real == pytest.approx(disturbed, abs=1e-12)
