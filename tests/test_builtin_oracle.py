"""Regression oracle for the compiled-in scenarios.

``builtin_oracle.json`` holds, for every name in ``BUILTIN_NAMES`` (in that
order) and for ``spin:0.7``, the scenario's name, description, dimension and
default observable, the raw bytes of its pre- and postselection amplitudes,
and for each observable, in the scenario's order, its eigenvalues, branch
ranks, and the raw bytes of its stacked projector array and of each branch's
projector matrix.  The test rebuilds each scenario and requires every field
to match exactly, byte for byte where bytes are stored.

The file was written by running this module as a script on the scenario
factories as they stood before they were folded into one table; rewriting it
from the code under test would make the comparison vacuous.
"""

import json
import pathlib

import pytest

from ablkit.scenarios import BUILTIN_NAMES, builtin

ORACLE = pathlib.Path(__file__).with_name("builtin_oracle.json")
EXTRA_NAMES = ("spin:0.7",)


def snapshot(name: str) -> dict:
    """Every stored field of ``builtin(name)``."""
    s = builtin(name)
    return {
        "name": s.name,
        "description": s.description,
        "dim": s.dim,
        "default_observable": s.default_observable,
        "preselection": s.context.preselection.amplitudes.tobytes().hex(),
        "postselection": s.context.postselection.amplitudes.tobytes().hex(),
        "observables": [
            {"name": key,
             "eigenvalues": list(obs.eigenvalues),
             "ranks": [p.rank for _, p in obs],
             "stack": obs.stack.tobytes().hex(),
             "matrices": [p.matrix.tobytes().hex() for _, p in obs]}
            for key, obs in s.observables.items()],
    }


def _oracle() -> dict:
    return json.loads(ORACLE.read_text())


def test_builtin_names_in_oracle_order():
    assert list(BUILTIN_NAMES) == _oracle()["names"]


@pytest.mark.parametrize("name", BUILTIN_NAMES + EXTRA_NAMES)
def test_builtin_matches_oracle(name):
    assert snapshot(name) == _oracle()["scenarios"][name]


if __name__ == "__main__":
    data = {"names": list(BUILTIN_NAMES),
            "scenarios": {name: snapshot(name) for name in BUILTIN_NAMES + EXTRA_NAMES}}
    ORACLE.write_text(json.dumps(data, indent=1) + "\n")
