"""Regression oracle for random-scenario construction.

``construction_oracle.json`` holds, for each dimension 1-12, one sha256
digest per construction routine over ``DRAWS`` fixed substreams of seed
``SEED``: the amplitudes of ``random_ket`` and ``random_basis``, the stacks
and branch matrices of ``from_eigenbasis`` and ``basis_containing``, the rows
of ``complete_basis``, and ``orthonormalize`` of near-dependent pairs.  Every
array enters its digest with its shape and writeable flag before its bytes;
an error enters as its type and message.  The file also holds the errors
``Ket.normalized`` raises on vectors of zero, underflowing, overflowing and
infinite norm.  The test recomputes every field and requires it to match.

The file was written by running this module as a script on the
construction code as it stood before the random-scenario path stopped
re-validating unit kets; rewriting it from the code under test would make
the comparison vacuous.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from ablkit.linalg import Ket, ObservableDecomposition, basis_containing, complete_basis, orthonormalize
from ablkit.sampling import random_basis, random_ket, substream

ORACLE = pathlib.Path(__file__).with_name("construction_oracle.json")
SEED = 20031
DRAWS = 25
DIMS = range(1, 13)
# Scales of the perturbation in a near-dependent pair [v, v + eps w]: both
# residuals are re-projected, and the last is cut off as dependent.
NEAR_DEPENDENT = (1e-3, 1e-7, 1e-12)
BAD_NORMS = ([0, 0], [1e-300, 0], [1e200, 1e200], [float("inf"), 0])


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def array(self, arr: np.ndarray):
        self._h.update(repr((arr.dtype.str, arr.shape, arr.flags.writeable)).encode())
        self._h.update(np.ascontiguousarray(arr).tobytes())

    def decomposition(self, obs: ObservableDecomposition):
        self._h.update(repr(obs.eigenvalues).encode())
        self.array(obs.stack)
        for _, proj in obs:
            self._h.update(repr(proj.rank).encode())
            self.array(proj.matrix)

    def call(self, fn, *args):
        # The rows fn returns, or the error it raises.
        try:
            rows = fn(*args)
        except Exception as exc:
            self._h.update(f"{type(exc).__name__}: {exc}".encode())
            return
        for row in rows:
            self.array(row)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def digests(dim: int) -> dict:
    """One digest per construction routine over the dimension's draws."""
    names = ("random_ket", "random_basis", "from_eigenbasis", "basis_containing",
             "complete_basis", "orthonormalize")
    out = {name: _Digest() for name in names}
    for i in range(DRAWS):
        rng = substream(SEED, dim * 1000 + i)
        ket, other = random_ket(rng, dim), random_ket(rng, dim)
        kets = random_basis(rng, dim)
        out["random_ket"].array(ket.amplitudes)
        out["random_ket"].array(other.amplitudes)
        for k in kets:
            out["random_basis"].array(k.amplitudes)
        out["from_eigenbasis"].decomposition(ObservableDecomposition.from_eigenbasis(kets))
        out["basis_containing"].decomposition(basis_containing(ket))
        out["complete_basis"].call(complete_basis, [ket.amplitudes], dim)
        out["complete_basis"].call(complete_basis, [ket.amplitudes, other.amplitudes], dim)
        for eps in NEAR_DEPENDENT:
            pair = [ket.amplitudes, ket.amplitudes + eps * other.amplitudes]
            out["orthonormalize"].call(orthonormalize, pair)
    return {name: d.hexdigest() for name, d in out.items()}


def normalized_error(values) -> str:
    try:
        with np.errstate(over="ignore"):
            Ket.normalized(values)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"


def _oracle() -> dict:
    return json.loads(ORACLE.read_text())


@pytest.mark.parametrize("dim", DIMS)
def test_construction_matches_oracle(dim):
    assert digests(dim) == _oracle()["digests"][str(dim)]


def test_normalized_errors_match_oracle():
    assert [normalized_error(v) for v in BAD_NORMS] == _oracle()["normalized_errors"]


if __name__ == "__main__":
    data = {"seed": SEED, "draws": DRAWS,
            "digests": {str(dim): digests(dim) for dim in DIMS},
            "normalized_errors": [normalized_error(v) for v in BAD_NORMS]}
    ORACLE.write_text(json.dumps(data, indent=1) + "\n")
