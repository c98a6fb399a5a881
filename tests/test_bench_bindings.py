"""The benchmark's tracer (``bench/run.py --trace 1``) rebinds ablkit names
listed in ``bench/workloads.py``; a refactor that renames or drops one of
them breaks the trace, and so does a handler that calls a name it did not
read from ``ablkit.cli`` at call time.  This reads ``bench/`` and changes
nothing there."""

import importlib
import json
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("bindings", ["_cli_bindings", "_sweep_bindings"])
def test_traced_names_exist(monkeypatch, bindings):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    entries = getattr(workloads, bindings)()
    assert entries
    for module, attr, span in entries:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"
        if not isinstance(span, str):
            _, methods = span
            for method in methods:
                assert callable(getattr(getattr(module, attr), method, None)), \
                    f"{module.__name__}.{attr}.{method}"


# In a fresh interpreter: wrap ``ablkit.cli.<name>`` in a counting wrapper,
# before the CLI's first use of the name or after it, run the command with
# the wrapper and without it, and print the count and both outputs.
_REBIND = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import ablkit, ablkit.cli as cli
name, when, argv = sys.argv[2], sys.argv[3], sys.argv[4:]
calls = []

def run():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()

def wrapper(*args, **kwargs):
    calls.append(name)
    return original(*args, **kwargs)

if when == "before":
    original = getattr(ablkit, name)  # the package's name, not cli's
    setattr(cli, name, wrapper)
    wrapped = run()
    setattr(cli, name, original)
    plain = run()
else:
    plain = run()
    original = getattr(cli, name)
    setattr(cli, name, wrapper)
    wrapped = run()
print(json.dumps({"calls": len(calls), "wrapped": wrapped, "plain": plain}))
"""

_CALLERS = {
    "builtin": ["abl", "--builtin", "three-box"],
    "load_scenario": ["abl", "--scenario", "tests/cli_oracle/three-box.json"],
    "estimate_abl": ["simulate", "--builtin", "three-box", "--trials", "50"],
    "abl_distribution": ["abl", "--builtin", "three-box"],
    "is_consistent": ["consistency", "--builtin", "three-box"],
    "dump_scenario": ["scenario", "validate", "tests/cli_oracle/three-box.json"],
    "find_counterexample": ["counterexample", "--dim", "2"],
}


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize("name", list(_CALLERS))
def test_a_rebound_cli_name_is_what_the_command_calls(name, when):
    # The tracer rebinds names on ablkit.cli, which resolves them lazily: a
    # rebinding made before or after the first use must be what is called.
    root = BENCH.parent
    done = subprocess.run([sys.executable, "-c", _REBIND, str(root / "src"), name, when,
                           *_CALLERS[name]],
                          cwd=root, capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(done.stdout)
    assert seen["calls"] >= 1
    assert seen["wrapped"] == seen["plain"] != ""


# In a fresh interpreter: the names given, each read from ``ablkit.cli`` first,
# that are not the package's own object.
_SAME = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ablkit, ablkit.cli
print(json.dumps([name for name in sys.argv[2:]
                  if getattr(ablkit.cli, name) is not getattr(ablkit, name)]))
"""


def test_a_traced_cli_name_is_the_package_name(monkeypatch):
    # cli resolves library names through the package's one table, the names
    # that only the tracer reads included.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    names = [attr for module, attr, _ in workloads._cli_bindings()
             if module.__name__ == "ablkit.cli"]
    assert names
    root = BENCH.parent
    done = subprocess.run([sys.executable, "-c", _SAME, str(root / "src"), *names],
                          cwd=root, capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == []
