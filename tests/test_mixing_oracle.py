"""Regression oracle for the counterfactual mixing totals and the per-trial sampler.

``mixing_oracle.json`` holds sha256 digests of:

* ``sharp_shanks_total``, ``vaidman_total`` and ``mixing_report`` (all four
  fields) for ``DRAWS`` Haar-random scenarios at each dimension in ``DIMS``:
  preselection, final basis, observable basis and branch drawn from
  ``substream(SEED, t)``, as ``find_counterexample`` draws them;
* the same three functions on ``forced_cases()``, final outcomes whose
  weight and ABL denominator straddle ``DIV_TOL`` so that some Sharp-Shanks
  terms are undefined;
* ``run_trial``'s records on ``substream(seed, i)``, ``i < TRIALS``, for
  every builtin in ``BUILTIN_NAMES`` and ``spin:0.7``, for each of its
  observables and for no intermediate measurement.

Each float enters its digest as its ``repr``, and each raised
``UndefinedTermError`` as its message, so the digests pin every bit.  The
file was written by running this module as a script on the code as it
stood before the Vaidman total became the Sharp-Shanks average with the
disturbed weights; rewriting it from the code under test would make the
comparison vacuous.
"""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from ablkit.counterfactual import mixing_report, sharp_shanks_total, vaidman_total
from ablkit.errors import UndefinedTermError
from ablkit.linalg import Ket, ObservableDecomposition, basis_containing
from ablkit.sampling import random_basis, random_ket, substream
from ablkit.scenarios import BUILTIN_NAMES, builtin
from ablkit.simulate import run_trial

ORACLE = pathlib.Path(__file__).with_name("mixing_oracle.json")
DIMS = (2, 3, 4, 5, 6, 7, 8)
DRAWS = 200
SEED = 2024
SCENARIOS = BUILTIN_NAMES + ("spin:0.7",)
TRIAL_SEEDS = (0, 2 ** 128 - 1)
TRIALS = 64


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _outcome(fn, *args) -> str:
    try:
        result = fn(*args)
    except UndefinedTermError as err:
        return f"UndefinedTermError: {err}"
    if hasattr(result, "ss_gap"):
        return repr((result.born_total, result.ss_total, result.vaidman_total, result.ss_gap))
    return repr(result)


def _mixing_lines(a, final_basis, observable, branches):
    for branch in branches:
        for fn in (sharp_shanks_total, vaidman_total, mixing_report):
            yield _outcome(fn, a, final_basis, observable, branch)


def haar_digest(dim: int) -> str:
    lines = []
    for t in range(DRAWS):
        rng = substream(SEED, dim * DRAWS + t)
        a = random_ket(rng, dim)
        final_basis = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        observable = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        lines.extend(_mixing_lines(a, final_basis, observable, [int(rng.integers(dim))]))
    return _digest(lines)


def forced_cases():
    """``a`` and ``b`` put amplitudes ``s`` and ``t`` on indices 1..k, so over
    the observable of unit kets final outcome ``b`` has weight (k s t)^2 and
    ABL denominator k (s t)^2; the grid of (s t)^2 puts both on either side
    of DIV_TOL."""
    s = 1e-3
    for k in (2, 3, 4):
        dim = k + 2
        observable = ObservableDecomposition.from_eigenbasis(
            [Ket(v) for v in np.eye(dim, dtype=complex)])
        for st_sq in np.geomspace(1e-15, 1e-10, 26):
            t = math.sqrt(st_sq) / s
            a = np.zeros(dim, dtype=complex)
            a[1:1 + k] = s
            a[0] = math.sqrt(1 - k * s * s)
            b = np.zeros(dim, dtype=complex)
            b[1:1 + k] = t
            b[-1] = math.sqrt(1 - k * t * t)
            yield Ket(a), basis_containing(Ket(b)), observable, range(dim)


def _forced_lines() -> list:
    return [line for case in forced_cases() for line in _mixing_lines(*case)]


def trial_digest(name: str) -> dict:
    scenario = builtin(name)
    out = {}
    for key, observable in [("(none)", None), *scenario.observables.items()]:
        records = [run_trial(scenario.context, observable, substream(seed, i))
                   for seed in TRIAL_SEEDS for i in range(TRIALS)]
        out[key] = _digest(repr((r.intermediate_branch, r.final_branch, r.postselected))
                           for r in records)
    return out


def _oracle() -> dict:
    return json.loads(ORACLE.read_text())


@pytest.mark.parametrize("dim", DIMS)
def test_mixing_totals_on_haar_draws_match_oracle(dim):
    assert haar_digest(dim) == _oracle()["haar"][str(dim)]


def test_mixing_totals_on_forced_undefined_terms_match_oracle():
    lines = _forced_lines()
    # the grid reaches both sides of the cutoff
    assert any(line.startswith("UndefinedTermError") for line in lines)
    assert not all(line.startswith("UndefinedTermError") for line in lines)
    assert _digest(lines) == _oracle()["forced"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_run_trial_records_match_oracle(name):
    assert trial_digest(name) == _oracle()["trials"][name]


if __name__ == "__main__":
    data = {"haar": {str(dim): haar_digest(dim) for dim in DIMS},
            "forced": _digest(_forced_lines()),
            "trials": {name: trial_digest(name) for name in SCENARIOS}}
    ORACLE.write_text(json.dumps(data, indent=1) + "\n")
