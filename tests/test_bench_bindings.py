"""The benchmark's tracer (``bench/run.py --trace 1``) rebinds ablkit names
listed in ``bench/workloads.py``; a refactor that renames or drops one of
them breaks the trace.  This reads ``bench/`` and changes nothing there."""

import importlib
import pathlib

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
