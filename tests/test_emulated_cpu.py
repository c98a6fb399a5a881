"""Slices of the suite under other CPU kernels, emulated on this one.

OpenBLAS picks its kernel from ``OPENBLAS_CORETYPE`` and numpy skips the
loops named in ``NPY_DISABLE_CPU_FEATURES``; both act only on the process
that sets them.  Each child interpreter, started with ``-W error``, prints
what differs:

- under the ``Nehalem`` kernel and numpy's SSE loops, it refuses the
  non-finite vectors of ``test_linalg.NON_FINITE`` and replays every
  document of ``parse_error_oracle.json``;
- under the ``Haswell`` kernel, it replays ``sampling_oracle.json`` (the
  uniform windows of up to 4000 draws, whose longer windows repeat the
  same elementwise arithmetic, and every ``simulate`` command) and
  ``builtin_oracle.json``, none of which depends on LAPACK's rounding;
- under both, it replays the ten three-box ``consistency`` commands of
  ``cli_oracle/captured.json``, whose amplitudes call no BLAS.
"""

import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

import ablkit

# The end of each child: replay the three-box consistency captures, then
# print what differs.
_CAPTURES = """
import contextlib, hashlib, io, pathlib
from ablkit import cli
replayed = 0
for case in json.loads(pathlib.Path(sys.argv[2], "cli_oracle", "captured.json").read_text()):
    if case["argv"][:3] == ["consistency", "--builtin", "three-box"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case["argv"])
        replayed += 1
        if (code, err.getvalue(), hashlib.sha256(out.getvalue().encode()).hexdigest()) != (
                case["exit"], case["stderr"], case["stdout_sha256"]):
            wrong.append("captured " + " ".join(case["argv"]))
if replayed != 10:
    wrong.append(f"replayed {replayed} captures")
print(json.dumps(wrong))
"""

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
""" + _CAPTURES


_HASWELL_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:]
import test_builtin_oracle as builtins
import test_sampling_oracle as sampling
from ablkit.scenarios import BUILTIN_NAMES

wrong = []
expected = json.loads(sampling.ORACLE.read_text())
for seed in sampling.SEEDS:
    for window, first in sampling.WINDOWS.items():
        for n in (n for n in sampling.LENGTHS if n <= 4000):
            got = [sampling._digest(sampling.substream_uniforms(seed, first(n), first(n) + n, k))
                   for k in sampling.KS]
            if got != expected["uniforms"][str(seed)][f"{window} n={n}"]:
                wrong.append(f"uniforms seed={seed} {window} n={n}")
for command in sampling.COMMANDS:
    if sampling.simulate_captures(command) != expected["simulate"][command]:
        wrong.append(f"simulate {command}")
expected = json.loads(builtins.ORACLE.read_text())
for name in BUILTIN_NAMES + builtins.EXTRA_NAMES:
    if builtins.snapshot(name) != expected["scenarios"][name]:
        wrong.append(f"builtin {name}")
""" + _CAPTURES


def _x86_64_child(script: str, kernel: str, **env) -> list:
    # What the child running ``script`` under the OpenBLAS ``kernel`` and
    # the extra environment ``env`` reports as differing.
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"the {kernel} kernel is an x86-64 kernel")
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, **env)
    paths = [str(pathlib.Path(ablkit.__file__).parents[1]), str(pathlib.Path(__file__).parent)]
    child = subprocess.run([sys.executable, "-W", "error", "-c", script, *paths],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def _dispatched_features() -> list[str]:
    # numpy refuses at import to disable a feature its build does not
    # dispatch, so the list is what this build dispatches and this CPU has.
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        pytest.skip("this numpy does not list its dispatched CPU features")
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def test_non_finite_vectors_and_parse_errors_under_the_nehalem_kernel():
    env = {"NPY_DISABLE_CPU_FEATURES": " ".join(_dispatched_features())}
    assert _x86_64_child(_CHILD, "Nehalem", **env) == []


def test_sampling_and_builtin_oracles_under_the_haswell_kernel():
    assert _x86_64_child(_HASWELL_CHILD, "Haswell") == []
