"""Regression oracle for the batched Philox draw and the simulations it feeds.

``sampling_oracle.json`` holds sha256 digests of ``substream_uniforms``
for every seed in ``SEEDS``, every window kind in ``WINDOWS`` (starting at
index 0, crossing 2**32, ending at 2**64 - 1), every length in ``LENGTHS``
and every ``k`` from 1 to 4; each array enters its digest with its dtype
and shape before its bytes.  It also holds the stdout, stderr and exit code
of ``ablkit simulate --json`` for every command in ``COMMANDS`` at every
seed in ``SIM_SEEDS`` and trial count in ``SIM_TRIALS``.  The tests
recompute every field and require it to match, and check that no draw in
the grid emits a ``RuntimeWarning`` and that an empty or reversed window
gives no rows.

The file was written by running this module as a script on the sampler as
it stood before its blocks were computed in preallocated buffers; rewriting
it from the code under test would make the comparison vacuous.
"""

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import warnings

import numpy as np
import pytest

from ablkit.cli import main
from ablkit.sampling import substream_uniforms
from ablkit.simulate import CHUNK

ORACLE = pathlib.Path(__file__).with_name("sampling_oracle.json")
SEEDS = (0, 1, 2 ** 64 - 1, 2 ** 64, 2 ** 100 + 7, 2 ** 128 - 1)
LENGTHS = (1, 2, 257, 4000, 65536, 65537)
#: First index of a window of ``n`` substreams, per window kind.
WINDOWS = {
    "from-0": lambda n: 0,
    "across-2**32": lambda n: 2 ** 32 - n // 2,
    "to-2**64-1": lambda n: 2 ** 64 - n,
}
KS = (1, 2, 3, 4)
COMMANDS = {
    "three-box C": ["--builtin", "three-box", "--observable", "C"],
    "three-box A": ["--builtin", "three-box", "--observable", "A"],
    "three-box Cprime": ["--builtin", "three-box", "--observable", "Cprime"],
    "three-box no-intermediate": ["--builtin", "three-box", "--no-intermediate"],
    "spin-pi3 Sn": ["--builtin", "spin-pi3", "--observable", "Sn"],
}
SIM_SEEDS = (0, 7, 2 ** 128 - 1)
SIM_TRIALS = (1, 4000, CHUNK + 3)


def _digest(arr: np.ndarray) -> str:
    h = hashlib.sha256(repr((arr.dtype.str, arr.shape)).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def uniform_digests(seed: int) -> dict:
    """``"<window> n=<length>"`` -> the digests for k = 1..4."""
    out = {}
    for window, first in WINDOWS.items():
        for n in LENGTHS:
            start = first(n)
            out[f"{window} n={n}"] = [_digest(substream_uniforms(seed, start, start + n, k))
                                      for k in KS]
    return out


@functools.cache
def _drawn(seed: int):
    # The seed's digests, and the messages of the RuntimeWarnings drawing them emitted.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        digests = uniform_digests(seed)
    return digests, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


def simulate_capture(command: str, seed: int, trials: int) -> dict:
    out, err = io.StringIO(), io.StringIO()
    argv = ["simulate", *COMMANDS[command], "--trials", str(trials), "--seed", str(seed), "--json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def simulate_captures(command: str) -> dict:
    return {f"seed={seed} trials={trials}": simulate_capture(command, seed, trials)
            for seed in SIM_SEEDS for trials in SIM_TRIALS}


def _oracle() -> dict:
    return json.loads(ORACLE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_substream_uniforms_match_oracle(seed):
    assert _drawn(seed)[0] == _oracle()["uniforms"][str(seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_substream_uniforms_emit_no_runtime_warning(seed):
    assert _drawn(seed)[1] == []


@pytest.mark.parametrize("command", COMMANDS)
def test_simulate_matches_oracle(command):
    assert simulate_captures(command) == _oracle()["simulate"][command]


@pytest.mark.parametrize("seed", (0, 2 ** 128 - 1))
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("stop", (5, 3, 0))
def test_empty_or_reversed_window_has_no_rows(seed, k, stop):
    u = substream_uniforms(seed, 5, stop, k)
    assert u.shape == (0, k) and u.dtype == np.float64


if __name__ == "__main__":
    data = {"uniforms": {str(seed): uniform_digests(seed) for seed in SEEDS},
            "simulate": {command: simulate_captures(command) for command in COMMANDS}}
    ORACLE.write_text(json.dumps(data, indent=1) + "\n")
