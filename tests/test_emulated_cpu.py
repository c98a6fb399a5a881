"""A slice of the suite under another CPU kernel, emulated on this one.

OpenBLAS picks its kernel from ``OPENBLAS_CORETYPE`` and numpy skips the
loops named in ``NPY_DISABLE_CPU_FEATURES``; both act only on the process
that sets them.  A child interpreter, started with ``-W error`` under the
``Nehalem`` kernel and numpy's SSE loops, refuses the non-finite vectors of
``test_linalg.NON_FINITE`` and replays every document of
``parse_error_oracle.json``, and prints what differs.
"""

import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

import ablkit

_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:]
from ablkit.errors import ValidationError
from ablkit.linalg import orthonormalize
import test_parse_error_oracle as oracle
from test_linalg import NON_FINITE

wrong = []
for name, (vectors, message) in NON_FINITE.items():
    try:
        orthonormalize(vectors)
        wrong.append(f"{name}: accepted")
    except ValidationError as err:
        if str(err) != message:
            wrong.append(f"{name}: {err}")
expected = json.loads(oracle.ORACLE.read_text())
for doc, node in oracle._documents().items():
    for case, result in oracle.outcomes(node).items():
        if result != expected[doc][case]:
            wrong.append(f"{doc} {case}: {result}")
print(json.dumps(wrong))
"""


def _dispatched_features() -> list[str]:
    # numpy refuses at import to disable a feature its build does not
    # dispatch, so the list is what this build dispatches and this CPU has.
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        pytest.skip("this numpy does not list its dispatched CPU features")
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def test_non_finite_vectors_and_parse_errors_under_the_nehalem_kernel():
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the Nehalem kernel is an x86-64 kernel")
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem",
               NPY_DISABLE_CPU_FEATURES=" ".join(_dispatched_features()))
    paths = [str(pathlib.Path(ablkit.__file__).parents[1]), str(pathlib.Path(__file__).parent)]
    child = subprocess.run([sys.executable, "-W", "error", "-c", _CHILD, *paths],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == []
