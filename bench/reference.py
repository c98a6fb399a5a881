"""Reference values computed apart from ablkit.

Everything here works on the plain amplitude vectors and projector matrices
the benchmark generated or drew itself, with per-branch ``np.vdot``
arithmetic and explicit loops.  No ablkit function is called, so a fault
in ablkit cannot hide by being repeated in the check.

For pure pre- and postselections ``a`` and ``b`` and an intermediate
observable with projectors ``P_i``:

    x_i = <b|P_i|a>,   ABL_i = |x_i|^2 / sum_j |x_j|^2,   D = x conj(x)^T

and the two mixing totals average the ABL conditionals of one branch over
a final basis ``{f_l}`` with the undisturbed weights ``|<f_l|a>|^2``
(Sharp-Shanks) or the disturbed ones ``sum_j |<f_l|P_j|a>|^2`` (Vaidman).
"""

from __future__ import annotations

import math

import numpy as np

#: Agreement required between ablkit and the reference arithmetic.
TOL = 1e-10
#: Largest allowed |Vaidman total - Born| (the paper's identity).
VAIDMAN_TOL = 1e-9
#: Consistency tolerance ablkit applies by default (histories.CONSISTENCY_TOL).
CONSISTENCY_TOL = 1e-9
#: Monte Carlo frequencies must lie within this many standard errors.
MC_SIGMAS = 5.0


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Columns of a Haar-random unitary (QR of a complex Ginibre matrix with
    the phases of R's diagonal divided out)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / math.sqrt(float(np.vdot(v, v).real))


def projector_from_basis(columns: np.ndarray) -> np.ndarray:
    """sum_k |q_k><q_k| over orthonormal columns ``q_k``."""
    return columns @ columns.conj().T


def amplitudes(pre: np.ndarray, projectors, post: np.ndarray) -> np.ndarray:
    """x_i = <b|P_i|a>, one np.vdot per branch."""
    return np.array([np.vdot(post, p @ pre) for p in projectors])


def rank1_amplitudes(pre: np.ndarray, kets, post: np.ndarray) -> np.ndarray:
    """x_i = <b|v_i><v_i|a> for a basis of kets ``v_i``."""
    return np.array([np.vdot(post, v) * np.vdot(v, pre) for v in kets])


def abl(x: np.ndarray) -> np.ndarray:
    joints = np.array([abs(z) ** 2 for z in x])
    return joints / sum(joints)


def joints(x: np.ndarray) -> np.ndarray:
    return np.array([abs(z) ** 2 for z in x])


def decoherence(x: np.ndarray) -> np.ndarray:
    n = len(x)
    return np.array([[x[i] * np.conj(x[j]) for j in range(n)] for i in range(n)])


def max_off_diagonal(d: np.ndarray) -> float:
    n = len(d)
    return max((abs(d[i, j]) for i in range(n) for j in range(n) if i != j), default=0.0)


def born(pre: np.ndarray, projectors) -> np.ndarray:
    return np.array([float(np.vdot(p @ pre, p @ pre).real) for p in projectors])


def mixing_totals(pre: np.ndarray, final_projectors, projectors, branch: int
                  ) -> tuple[float, float, float]:
    """(Born, Sharp-Shanks, Vaidman) totals for ``branch``, each final
    outcome ``F_l`` taken in turn in an explicit loop."""
    born_total = born(pre, projectors)[branch]
    ss = 0.0
    vaidman = 0.0
    for f in final_projectors:
        weight = float(np.vdot(f @ pre, f @ pre).real)
        row = [float(np.vdot(f @ p @ pre, f @ p @ pre).real) for p in projectors]
        denominator = sum(row)
        conditional = row[branch] / denominator
        ss += weight * conditional
        vaidman += denominator * conditional
    return float(born_total), ss, vaidman


def mixing_totals_rank1(pre: np.ndarray, final_kets, kets, branch: int
                        ) -> tuple[float, float, float]:
    """The same totals when every projector is rank 1: ``F_l = |f_l><f_l|``
    and ``P_j = |v_j><v_j|``."""
    born_total = abs(complex(np.vdot(kets[branch], pre))) ** 2
    ss = 0.0
    vaidman = 0.0
    for f in final_kets:
        weight = abs(complex(np.vdot(f, pre))) ** 2
        row = [abs(complex(np.vdot(f, v) * np.vdot(v, pre))) ** 2 for v in kets]
        denominator = sum(row)
        conditional = row[branch] / denominator
        ss += weight * conditional
        vaidman += denominator * conditional
    return born_total, ss, vaidman


def bell(n: int) -> int:
    """Number of set partitions of n elements (Bell triangle)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def close(a, b, tol: float = TOL) -> bool:
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def within_sigmas(freq: float, target: float, n: int) -> bool:
    """|freq - target| within MC_SIGMAS binomial standard errors at ``n``."""
    stderr = math.sqrt(max(target * (1.0 - target), 0.0) / n)
    return abs(freq - target) <= MC_SIGMAS * stderr + 1e-12


# --- closed forms of the built-in scenarios --------------------------------

def three_box() -> dict:
    """Pre (1,1,1)/sqrt3, post (1,1,-1)/sqrt3, the box projectors, and the
    two groupings of the boxes."""
    s = 1 / math.sqrt(3)
    e = np.eye(3, dtype=np.complex128)
    boxes = [np.outer(e[k], e[k]) for k in range(3)]
    return {
        "pre": np.array([s, s, s], dtype=np.complex128),
        "post": np.array([s, s, -s], dtype=np.complex128),
        "C": boxes,
        "Cprime": [boxes[0], boxes[1] + boxes[2]],
        "Cdprime": [boxes[0] + boxes[2], boxes[1]],
    }


def spin_pi3() -> dict:
    """Spin-1/2 selected along +z; Sn at pi/3 from z, and the Sx basis."""
    t = math.pi / 3
    plus_n = np.array([math.cos(t / 2), math.sin(t / 2)], dtype=np.complex128)
    minus_n = np.array([-math.sin(t / 2), math.cos(t / 2)], dtype=np.complex128)
    h = 1 / math.sqrt(2)
    plus_x = np.array([h, h], dtype=np.complex128)
    minus_x = np.array([h, -h], dtype=np.complex128)
    up = np.array([1, 0], dtype=np.complex128)
    return {
        "pre": up,
        "post": up,
        "Sn": [np.outer(plus_n, plus_n.conj()), np.outer(minus_n, minus_n.conj())],
        "Sx": [np.outer(plus_x, plus_x.conj()), np.outer(minus_x, minus_x.conj())],
    }


THREE_BOX_ABL_BOX1 = 1 / 3          # C: box 1 alone
THREE_BOX_ABL_CPRIME = 1.0          # box 1 against boxes {2, 3}
THREE_BOX_ABL_CDPRIME = 1.0         # box 2 against boxes {1, 3}
THREE_BOX_VIOLATION = 1 / 9         # largest |D(i, j)|, i != j, for C
SPIN_PI3_SS_TOTAL = 15 / 26         # Sharp-Shanks total, Sn branch +, Sx basis
