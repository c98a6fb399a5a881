import numpy as np
import pytest

from ablkit.errors import ValidationError
from ablkit.linalg import ObservableDecomposition
from ablkit.sampling import random_basis, random_ket, substream, substream_uniforms


def test_substream_reproducible():
    a = substream(42, 5).random(8)
    b = substream(42, 5).random(8)
    np.testing.assert_array_equal(a, b)


def test_substream_counter_block_arithmetic():
    # index i shifts the 256-bit counter by i * 2**192, i.e. occupies the
    # highest 64-bit word
    manual = np.random.Generator(np.random.Philox(key=42, counter=[0, 0, 0, 9]))
    np.testing.assert_array_equal(substream(42, 9).random(8), manual.random(8))


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


def test_random_basis_is_orthonormal_and_complete():
    rng = np.random.default_rng(9)
    for dim in (2, 3, 4, 6):
        kets = random_basis(rng, dim)
        assert len(kets) == dim
        # constructing the decomposition re-validates orthogonality and
        # completeness
        ObservableDecomposition.from_eigenbasis(kets)


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
