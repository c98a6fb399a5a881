import numpy as np
import pytest

from ablkit.errors import ValidationError
from ablkit.linalg import Ket, ObservableDecomposition
from ablkit.sampling import random_basis, random_ket, substream, substream_uniforms
from ablkit.scenarios import builtin
from ablkit.simulate import estimate_abl, run_trial


def _state(rng) -> str:
    # A bit generator's state dict holds arrays, which == cannot compare.
    return repr(rng.bit_generator.state)


def test_substream_reproducible():
    a = substream(42, 5).random(8)
    b = substream(42, 5).random(8)
    np.testing.assert_array_equal(a, b)


def test_substream_counter_block_arithmetic():
    # index i shifts the 256-bit counter by i * 2**192, i.e. occupies the
    # highest 64-bit word
    manual = np.random.Generator(np.random.Philox(key=42, counter=[0, 0, 0, 9]))
    np.testing.assert_array_equal(substream(42, 9).random(8), manual.random(8))


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1])
@pytest.mark.parametrize("index", [0, 1, 2 ** 63, 2 ** 64 - 1])
def test_substream_is_numpys_philox_of_the_int_key_and_counter(seed, index):
    # substream passes the key and counter as uint64 words; numpy's own
    # conversion of the ints must give the same state and draws.
    got = substream(seed, index)
    want = np.random.Generator(np.random.Philox(key=seed, counter=index << 192))
    assert _state(got) == _state(want)
    np.testing.assert_array_equal(got.bit_generator.random_raw(8),
                                  want.bit_generator.random_raw(8))


@pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32])
def test_numpy_integer_seeds_and_indices_select_the_int_streams(kind):
    for seed, index in ((5, 3), (7, 1), (2 ** 31 - 1, 2 ** 31 - 1)):
        assert _state(substream(kind(seed), kind(index))) == _state(substream(seed, index))
    np.testing.assert_array_equal(substream_uniforms(kind(7), kind(3), kind(40), 2),
                                  substream_uniforms(7, 3, 40, 2))
    tb = builtin("three-box")
    ctx, obs = tb.context, tb.observables["C"]
    trials = [run_trial(ctx, obs, substream(7, i)) for i in np.arange(6, dtype=kind)]
    assert trials == [run_trial(ctx, obs, substream(7, i)) for i in range(6)]
    got = estimate_abl(ctx, obs, 2000, kind(3))
    want = estimate_abl(ctx, obs, 2000, 3)
    assert (got.postselected_count, got.branch_counts.tolist()) == \
        (want.postselected_count, want.branch_counts.tolist())


def test_a_float_seed_or_index_is_refused():
    for seed, index in ((5.0, 0), (5, 0.0), (np.float64(5), 0)):
        with pytest.raises(TypeError):
            substream(seed, index)
    with pytest.raises(TypeError):
        substream_uniforms(5.0, 0, 4, 1)


def test_substreams_differ_between_indices_and_seeds():
    base = substream(1, 0).random(4)
    assert not np.array_equal(base, substream(1, 1).random(4))
    assert not np.array_equal(base, substream(2, 0).random(4))


def test_substream_validation():
    with pytest.raises(ValidationError):
        substream(-1, 0)
    with pytest.raises(ValidationError):
        substream(0, -1)
    with pytest.raises(ValidationError):
        substream(2 ** 128, 0)
    with pytest.raises(ValidationError):
        substream(0, 2 ** 64)


@pytest.mark.parametrize("seed", [0, 42, 2 ** 100 + 7, 2 ** 128 - 1])
@pytest.mark.parametrize("start", [0, 2 ** 64 - 257], ids=["first", "last"])
def test_substream_uniforms_match_substreams(seed, start):
    # windows at the first index and ending at the last index, 2**64 - 1
    stop = start + 257
    for k in (1, 2, 3, 4):
        expected = np.array([substream(seed, i).random(k) for i in range(start, stop)])
        np.testing.assert_array_equal(substream_uniforms(seed, start, stop, k), expected)


def test_substream_uniforms_empty_range():
    assert substream_uniforms(1, 5, 5, 2).shape == (0, 2)


@pytest.mark.parametrize("seed, start, stop", [
    (-1, 0, 1), (2 ** 128, 0, 1), (0, -1, 1), (0, 0, 2 ** 64 + 1), (0, 2 ** 64, 2 ** 64 + 1),
])
def test_substream_uniforms_validation_matches_substream(seed, start, stop):
    bad = stop - 1 if start >= 0 else start
    with pytest.raises(ValidationError) as scalar:
        substream(seed, bad)
    with pytest.raises(ValidationError) as vector:
        substream_uniforms(seed, start, stop, 2)
    assert str(vector.value) == str(scalar.value)


@pytest.mark.parametrize("k", [0, 5])
def test_substream_uniforms_word_count(k):
    with pytest.raises(ValidationError):
        substream_uniforms(0, 0, 1, k)


def test_random_ket_is_normalized():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 5, 8):
        k = random_ket(rng, dim)
        assert k.dim == dim
        assert np.linalg.norm(k.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_random_ket_equals_the_normalized_draw():
    # random_ket skips the checks a Gaussian draw cannot fail
    rng, again = substream(33, 0), substream(33, 0)
    for i in range(200):
        dim = 1 + i % 9
        draw = again.standard_normal(dim) + 1j * again.standard_normal(dim)
        assert random_ket(rng, dim).amplitudes.tobytes() == \
            Ket.normalized(draw).amplitudes.tobytes()


@pytest.mark.parametrize("dim", [0, (2, 2)])
def test_random_ket_refuses_a_shape_as_normalized_does(dim):
    rng = np.random.default_rng(0)
    draw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    with pytest.raises(ValidationError) as expected:
        Ket.normalized(draw)
    with pytest.raises(ValidationError) as got:
        random_ket(rng, dim)
    assert str(got.value) == str(expected.value)


# The errors the two-draw random_ket and random_basis gave each dim.
_DIM_ERRORS = {
    0: ((ValidationError, "expected a nonempty 1-d amplitude vector, got shape (0,)"), None),
    (2, 2): ((ValidationError, "expected a nonempty 1-d amplitude vector, got shape (2, 2)"),
             (TypeError, "'tuple' object cannot be interpreted as an integer")),
    3.0: ((TypeError, "expected a sequence of integers or a single integer, got '3.0'"),
          (TypeError, "'float' object cannot be interpreted as an integer")),
    True: ((TypeError, "expected a sequence of integers or a single integer, got 'True'"),
           (TypeError, "an integer is required")),
}


@pytest.mark.parametrize("dim", list(_DIM_ERRORS), ids=repr)
@pytest.mark.parametrize("draw", [random_ket, random_basis])
def test_random_draws_keep_their_errors_for_a_dim_that_is_not_a_count(draw, dim):
    error = _DIM_ERRORS[dim][draw is random_basis]
    if error is None:
        assert draw(substream(1, 0), dim) == []
        return
    with pytest.raises(error[0]) as got:
        draw(substream(1, 0), dim)
    assert str(got.value) == error[1]


@pytest.mark.parametrize("draw", [random_ket, random_basis])
def test_random_draws_accept_a_numpy_integer_dim(draw):
    def amplitudes(out):
        return [k.amplitudes.tobytes() for k in (out if isinstance(out, list) else [out])]
    assert amplitudes(draw(substream(2, 5), np.int64(3))) == amplitudes(draw(substream(2, 5), 3))


def test_random_basis_is_orthonormal_and_complete():
    rng = np.random.default_rng(9)
    for dim in (2, 3, 4, 6):
        kets = random_basis(rng, dim)
        assert len(kets) == dim
        # constructing the decomposition re-validates orthogonality and
        # completeness
        ObservableDecomposition.from_eigenbasis(kets)


def test_random_basis_kets_are_read_only_unitary_columns():
    # each ket holds, read-only, the bits of the phase-fixed QR column
    for dim in (1, 2, 5, 8):
        kets = random_basis(substream(3, dim), dim)
        rng = substream(3, dim)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        for j, ket in enumerate(kets):
            assert ket.amplitudes.tobytes() == Ket(q[:, j]).amplitudes.tobytes()
            with pytest.raises(ValueError):
                ket.amplitudes[0] = 0.0


def test_random_basis_equals_the_phase_fixed_qr_of_two_draws():
    # random_basis takes both parts from one draw: the stream and the
    # arithmetic of the two draws it replaces
    rng, again = substream(34, 0), substream(34, 0)
    for i in range(200):
        dim = 1 + i % 9
        z = again.standard_normal((dim, dim)) + 1j * again.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        q = q * (r.diagonal() / np.abs(r.diagonal()))
        assert [k.amplitudes.tobytes() for k in random_basis(rng, dim)] == \
            [column.tobytes() for column in q.T.copy()]


def test_random_basis_first_moment_is_unbiased():
    # |<e_0|column 0>|^2 averages to 1/dim under the Haar measure
    rng = np.random.default_rng(15)
    dim = 3
    acc = 0.0
    n = 4000
    for _ in range(n):
        kets = random_basis(rng, dim)
        acc += abs(kets[0].amplitudes[0]) ** 2
    assert acc / n == pytest.approx(1.0 / dim, abs=0.02)
