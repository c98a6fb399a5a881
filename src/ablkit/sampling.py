"""Reproducible randomness: counter-based substreams and Haar-random states.

Streams come from the Philox (4x64, 10 rounds) counter-based generator keyed
by the user seed.  Substream ``index`` starts the 256-bit counter at
``index * 2**192``, which gives every (seed, index) pair its own block of
2**192 draws.  Results therefore depend only on the pair, never on
scheduling, chunking, or worker count.  As 64-bit words, the key is
``[seed mod 2**64, seed >> 64]`` and the counter ``[0, 0, 0, index]``, for
a seed and an index of any integer type: a numpy integer means its ``int``.

``substream`` returns a numpy ``Generator`` for one index.
``substream_uniforms`` computes the first output block, at counter
``[1, 0, 0, index]``, for a whole range of indices at once in plain
``uint64`` arithmetic (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11): row ``i - start`` is bit for bit
``substream(seed, i).random(k)``, for ``k <= 4``.  Every array step writes
into a fixed set of buffers allocated once per call, the low word of each
Philox product is one wrapping ``uint64`` multiply, and the last round
skips the product whose words a call with ``k <= 2`` never returns.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ValidationError
from .linalg import Ket


def _check(seed: int, *indices: int) -> tuple[int, ...]:
    # As ints, in range: a numpy integer would wrap in the key and counter words.
    seed, *indices = map(operator.index, (seed, *indices))
    if not 0 <= seed < 2 ** 128:
        raise ValidationError(f"seed must be in [0, 2**128), got {seed}")
    for index in indices:
        if not 0 <= index < 2 ** 64:
            raise ValidationError(f"substream index must be in [0, 2**64), got {index}")
    return seed, *indices


def substream(seed: int, index: int) -> np.random.Generator:
    """An independent generator for draw ``index`` of stream ``seed``."""
    seed, index = _check(seed, index)
    # As uint64 words, which numpy reads faster than it converts ints.
    return np.random.Generator(np.random.Philox(
        key=np.array([seed & _MASK64, seed >> 64], dtype=np.uint64),
        counter=np.array([0, 0, 0, index], dtype=np.uint64)))


# Philox4x64 multipliers and Weyl key increments, as in numpy's Philox.
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_MASK64 = 2 ** 64 - 1


def _u64(value) -> np.ndarray:
    # A 0-d array operand costs a ufunc call no more than an array does;
    # a numpy scalar is converted again on every call.
    return np.array(value, dtype=np.uint64)


_LOW32, _SHIFT32, _SHIFT11 = _u64(0xFFFFFFFF), _u64(32), _u64(11)
# Each multiplier as an int, then as 0-d arrays: whole, low 32 bits, high 32 bits.
_MULT0 = (_M0, _u64(_M0), _u64(_M0 & 0xFFFFFFFF), _u64(_M0 >> 32))
_MULT1 = (_M1, _u64(_M1), _u64(_M1 & 0xFFFFFFFF), _u64(_M1 >> 32))


def _mulhilo(mult, x, free: list, scratch):
    """High and low words of the 128-bit product ``m * x``.

    An int ``x`` gives ints.  An array ``x`` is overwritten with the high
    word, and the low word, one wrapping uint64 product, goes into a buffer
    popped from ``free``.  The high word is summed from 32-bit halves, so
    that no partial product overflows, in the three ``scratch`` buffers.
    """
    m, m_arr, m_lo, m_hi = mult
    if isinstance(x, int):
        product = m * x
        return product >> 64, product & _MASK64
    lo, (a, b, c) = free.pop(), scratch
    np.multiply(x, m_arr, lo)
    np.bitwise_and(x, _LOW32, a)        # x_lo
    np.right_shift(x, _SHIFT32, x)      # x_hi
    np.multiply(a, m_hi, b)
    np.multiply(a, m_lo, a)
    np.right_shift(a, _SHIFT32, a)
    np.add(b, a, b)                     # m_hi x_lo + (m_lo x_lo >> 32) < 2**64
    np.bitwise_and(b, _LOW32, a)
    np.right_shift(b, _SHIFT32, b)
    np.multiply(x, m_lo, c)
    np.add(c, a, c)                     # the middle word and its carry
    np.right_shift(c, _SHIFT32, c)
    np.multiply(x, m_hi, x)
    np.add(x, b, x)
    np.add(x, c, x)
    return x, lo


def _xor(h, w, key: int, free: list):
    """``h ^ w ^ key``, written over an array operand; an array ``w`` it
    consumes goes back to ``free``."""
    if isinstance(h, int):
        h, w = w, h
    if isinstance(h, int):
        return h ^ w ^ key
    if isinstance(w, int):
        np.bitwise_xor(h, _u64(w ^ key), h)
    else:
        np.bitwise_xor(h, w, h)
        np.bitwise_xor(h, _u64(key), h)
        free.append(w)
    return h


def substream_uniforms(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """Uniforms in [0, 1) of shape ``(stop - start, k)``, ``1 <= k <= 4``:
    row ``i - start`` equals ``substream(seed, i).random(k)`` bit for bit.
    An empty or reversed range gives shape ``(0, k)``.

    Computes Philox4x64-10 of counter ``[1, 0, 0, i]`` (the first block a
    fresh ``substream(seed, i)`` emits) under key
    ``(seed mod 2**64, seed >> 64)`` and maps output word ``w`` to
    ``(w >> 11) * 2**-53``, as ``Generator.random`` does.  The key schedule
    and the counter words that do not yet depend on ``i`` stay ints; the
    words that do are ``uint64`` arrays, computed in place in the index
    array and seven buffers allocated once per call.  The last round skips the product
    that feeds only words 2 and 3 when ``k <= 2``.  Raises the same
    :class:`ValidationError` as ``substream`` for a seed or an index out of
    range, before drawing anything.
    """
    if not 1 <= k <= 4:
        raise ValidationError(f"k must be in [1, 4], got {k}")
    stop = operator.index(stop)
    seed, start, _ = _check(seed, start, max(start, stop - 1))
    n = max(stop - start, 0)
    c0, c1, c2, c3 = 1, 0, 0, np.arange(start, stop, dtype=np.uint64)
    if n == 1:
        # numpy runs in-place ufuncs on a one-element array by a slower
        # path, so a single index is computed in two identical lanes.
        c3 = c3.repeat(2)
    buffers = np.empty((7, len(c3)), dtype=np.uint64)
    free, scratch = list(buffers[:4]), buffers[4:]
    for r in range(10):
        # Round r uses the key bumped r times by the Weyl increments.
        k0 = (seed + r * _W0) & _MASK64
        k1 = ((seed >> 64) + r * _W1) & _MASK64
        hi1, lo1 = _mulhilo(_MULT1, c2, free, scratch)
        next0, c1 = _xor(hi1, c1, k0, free), lo1
        if r < 9 or k > 2:
            hi0, lo0 = _mulhilo(_MULT0, c0, free, scratch)
            c2, c3 = _xor(hi0, c3, k1, free), lo0
        c0 = next0
    out = np.empty((len(c0), k))
    for j, word in enumerate((c0, c1, c2, c3)[:k]):
        np.right_shift(word, _SHIFT11, word)
        out[:, j] = word
    out *= 2.0 ** -53
    return out[:n]


def random_ket(rng: np.random.Generator, dim: int) -> Ket:
    """A Haar-random pure state: normalized standard complex Gaussian."""
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
        # Two draws, for the errors numpy and Ket.normalized give such a dim.
        return Ket.normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    # One draw, the stream and arithmetic of two; only Ket._scaled's norm checks can fail.
    z = rng.standard_normal((2, dim))
    return Ket._scaled(z[0] + 1j * z[1])


def random_basis(rng: np.random.Generator, dim: int) -> list[Ket]:
    """Columns of a Haar-random unitary, as kets.

    QR of a complex Ginibre matrix with the R diagonal's phases divided out,
    which makes the distribution exactly Haar rather than merely orthonormal.
    The columns are orthonormal to rounding and not checked again.  Like the
    QR's, their bits are reproducible per BLAS/LAPACK build and CPU kernel.
    """
    z = rng.standard_normal((2, dim, dim))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    d = r.diagonal()
    q = q * (d / np.abs(d))
    return [Ket._validated(row) for row in q.T.copy()]
