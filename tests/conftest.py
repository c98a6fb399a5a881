import numpy as np
import pytest

from ablkit.abl import PrePostContext
from ablkit.linalg import Ket, ObservableDecomposition, Projector
from ablkit.scenarios import three_box


#: Hermitian, but ``m @ m`` overflows, so its idempotency residue is NaN
#: rather than large; the same holds for ``np.eye(3) - m``.
OVERFLOWING_HERMITIAN = np.array([
    [0, 1e155 + 1e200j, -1e155 - 1e300j],
    [1e155 - 1e200j, 1, 1e155 + 1e200j],
    [-1e155 + 1e300j, 1e155 - 1e200j, 1]])


@pytest.fixture(scope="session")
def box_scenario():
    return three_box()


@pytest.fixture(scope="session")
def box_ctx(box_scenario):
    return box_scenario.context


def make_context(rng: np.random.Generator, dim: int, min_overlap: float = 1e-6) -> PrePostContext:
    """Random pre/post context with a non-negligible overlap; rejection keeps
    the postselection reachable."""
    while True:
        a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        a = a / np.linalg.norm(a)
        b = b / np.linalg.norm(b)
        if abs(np.vdot(b, a)) ** 2 >= min_overlap:
            return PrePostContext(Ket(a), Ket(b))


def mixed_rank_decomposition(seed: int, ranks, eigenvalues=None) -> ObservableDecomposition:
    """Decomposition of dimension ``sum(ranks)`` with one branch per entry of
    ``ranks``, each projecting onto the next ``rank`` columns of a random
    unitary."""
    rng = np.random.default_rng(seed)
    dim = sum(ranks)
    unitary, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                              + 1j * rng.standard_normal((dim, dim)))
    projectors, start = [], 0
    for rank in ranks:
        cols = unitary[:, start:start + rank]
        projectors.append(Projector(cols @ cols.conj().T, rank=rank))
        start += rank
    return ObservableDecomposition.from_projectors(projectors, eigenvalues)
