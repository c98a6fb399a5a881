"""Reproducible randomness: counter-based substreams and Haar-random states.

Streams come from the Philox (4x64, 10 rounds) counter-based generator keyed
by the user seed.  Substream ``index`` starts the 256-bit counter at
``index * 2**192``, which gives every (seed, index) pair its own block of
2**192 draws.  Results therefore depend only on the pair, never on
scheduling, chunking, or worker count.

``substream`` returns a numpy ``Generator`` for one index.
``substream_uniforms`` computes the first output block, at counter
``[1, 0, 0, index]``, for a whole range of indices at once in plain
``uint64`` arithmetic (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11): row ``i - start`` is bit for bit
``substream(seed, i).random(k)``, for ``k <= 4``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import Ket


def _check(seed: int, *indices: int):
    if not 0 <= seed < 2 ** 128:
        raise ValidationError(f"seed must be in [0, 2**128), got {seed}")
    for index in indices:
        if not 0 <= index < 2 ** 64:
            raise ValidationError(f"substream index must be in [0, 2**64), got {index}")


def substream(seed: int, index: int) -> np.random.Generator:
    """An independent generator for draw ``index`` of stream ``seed``."""
    _check(seed, index)
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 192))


# Philox4x64 multipliers and Weyl key increments, as in numpy's Philox.
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK64 = 2 ** 64 - 1


def _mulhilo(m: np.uint64, x):
    """High and low words of the 128-bit product ``m * x``, from 32-bit
    halves so that no uint64 product overflows."""
    m_lo, m_hi = m & _MASK32, m >> 32
    x_lo, x_hi = x & _MASK32, x >> 32
    lo_lo = m_lo * x_lo
    hi_lo = m_hi * x_lo
    cross = (lo_lo >> 32) + (hi_lo & _MASK32) + m_lo * x_hi
    hi = m_hi * x_hi + (hi_lo >> 32) + (cross >> 32)
    return hi, (cross << 32) | (lo_lo & _MASK32)


def substream_uniforms(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """Uniforms in [0, 1) of shape ``(stop - start, k)``, ``1 <= k <= 4``:
    row ``i - start`` equals ``substream(seed, i).random(k)`` bit for bit.

    Computes Philox4x64-10 of counter ``[1, 0, 0, i]`` (the first block a
    fresh ``substream(seed, i)`` emits) under key
    ``(seed mod 2**64, seed >> 64)`` and maps output word ``w`` to
    ``(w >> 11) * 2**-53``, as ``Generator.random`` does.  Raises the same
    :class:`ValidationError` as ``substream`` for a seed or an index out of
    range, before drawing anything.
    """
    if not 1 <= k <= 4:
        raise ValidationError(f"k must be in [1, 4], got {k}")
    _check(seed, start, max(start, stop - 1))
    # Counter words that do not depend on the index stay numpy scalars
    # until a round mixes the index into them.
    c0, c1, c2 = np.uint64(1), np.uint64(0), np.uint64(0)
    c3 = np.arange(start, stop, dtype=np.uint64)
    for r in range(10):
        # Round r uses the key bumped r times by the Weyl increments.
        k0 = np.uint64((seed + r * _W0) & _MASK64)
        k1 = np.uint64(((seed >> 64) + r * _W1) & _MASK64)
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    out = np.empty((len(c3), k))
    for j, word in enumerate((c0, c1, c2, c3)[:k]):
        out[:, j] = word >> 11
    return out * 2.0 ** -53


def random_ket(rng: np.random.Generator, dim: int) -> Ket:
    """A Haar-random pure state: normalized standard complex Gaussian."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Ket.normalized(v)


def random_basis(rng: np.random.Generator, dim: int) -> list[Ket]:
    """Columns of a Haar-random unitary, as kets.

    QR of a complex Ginibre matrix with the R diagonal's phases divided out,
    which makes the distribution exactly Haar rather than merely orthonormal.
    """
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return [Ket._validated(row) for row in q.T.copy()]
