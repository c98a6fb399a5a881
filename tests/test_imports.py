"""Import hygiene of the ``ablkit`` package.

Read from its source with ``ast``: no module reaches into a private name of
a sibling module, and every name a module imports is used there or rebound
on it by the benchmark's tracer (``bench/run.py --trace 1``), and no module
calls one of NumPy's Python-level wrappers that an array method replaces
with the same bits.  This reads ``bench/`` and changes nothing there.

Run in fresh interpreters: importing ``ablkit.cli`` loads no library module,
each command loads only the modules it runs, and ``python -m ablkit.cli``
loads no second copy of ``cli``.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ablkit"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_sibling(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "ablkit"


def _module_aliases(tree: ast.Module) -> set[str]:
    # Names bound to a sibling module: `from . import abl as m`, `import ablkit.abl as m`.
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_sibling(node):
            for alias in node.names:
                if node.module is None and (PACKAGE / f"{alias.name}.py").exists():
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ablkit.") and alias.asname:
                    aliases.add(alias.asname)
    return aliases


def _private_reaches(tree: ast.Module) -> list[str]:
    aliases = _module_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_sibling(node):
            found += [f"line {node.lineno}: from {'.' * node.level}{node.module or ''} "
                      f"import {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.fixture(scope="module")
def traced_names():
    # (module name, attribute) pairs the tracer rebinds, read as
    # test_bench_bindings.py reads them.
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "bench"))
        workloads = importlib.import_module("workloads")
        return {(module.__name__, attr)
                for bindings in (workloads._cli_bindings, workloads._sweep_bindings)
                for module, attr, _ in bindings()}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_of_a_sibling_module(path):
    assert _private_reaches(_tree(path)) == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used_or_traced(path, traced_names):
    # __init__.py is left out: what it imports is the package's namespace.
    tree = _tree(path)
    used = _used_names(tree)
    module = f"ablkit.{path.stem}"
    unused = [f"line {line}: {name}" for name, line in _imported_names(tree).items()
              if name not in used and (module, name) not in traced_names]
    assert unused == []


#: NumPy functions whose Python-level wrapper costs 0.5-2 us per call at the
#: sizes ablkit works at, with the form that computes the same bits without it.
_WRAPPERS = {
    "sum": "x.sum()",
    "outer": "a[:, None] * b[None, :] (1-d a, b)",
    "flatnonzero": "x.nonzero()[0] (1-d x)",
    "argmax": "x.argmax()",
    "diagonal": "x.diagonal()",
    "cumsum": "x.cumsum()",
    "searchsorted": "a.searchsorted(v)",
    "trace": "x.trace()",
}


def _wrapper_uses(tree: ast.Module) -> list[str]:
    numpy = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names if alias.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _WRAPPERS
                and isinstance(node.value, ast.Name) and node.value.id in numpy):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}: "
                         f"use {_WRAPPERS[node.attr]}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"line {node.lineno}: from numpy import {alias.name}: "
                      f"use {_WRAPPERS[alias.name]}"
                      for alias in node.names if alias.name in _WRAPPERS]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_wrapper_that_an_array_method_replaces(path):
    assert _wrapper_uses(_tree(path)) == []


@pytest.mark.parametrize("name", list(_WRAPPERS))
def test_the_wrapper_rule_names_the_array_method(name):
    tree = ast.parse(f"import numpy as xp\nfrom numpy import {name}\nxp.{name}(v)\n")
    assert sorted(_wrapper_uses(tree)) == [f"line 2: from numpy import {name}: use {_WRAPPERS[name]}",
                                           f"line 3: xp.{name}: use {_WRAPPERS[name]}"]



def _unresolved_cli_reads(tree: ast.Module, exported) -> list[str]:
    # Names read with ``from .cli import`` that cli neither defines at top
    # level nor resolves through the package's exports.
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined |= set(_imported_names(ast.Module(body=[node], type_ignores=[])))
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "cli"
            for alias in node.names if alias.name not in defined | set(exported)]


def test_every_name_cli_reads_from_itself_resolves():
    # A handler's ``from .cli import name`` finds the name only if cli
    # defines it or the package exports it; otherwise its command fails.
    import ablkit
    tree = _tree(PACKAGE / "cli.py")
    assert any(isinstance(node, ast.ImportFrom) and node.module == "cli"
               for node in ast.walk(tree))
    assert _unresolved_cli_reads(tree, ablkit.__all__) == []


def test_the_cli_read_rule_names_an_unexported_name():
    tree = ast.parse("import sys\n_FMT = 1\ndef f():\n"
                     "    from .cli import sys, _FMT, f, inner, DEFAULT_GAP_MIN\n")
    assert _unresolved_cli_reads(tree, ["inner"]) == ["line 4: DEFAULT_GAP_MIN"]


@pytest.mark.parametrize("name", ["no_such_name", "_SUBMODULES", "_HOME", "DEFAULT_GAP_MIN"])
def test_the_cli_resolves_no_name_the_package_does_not_export(name):
    import ablkit.cli
    with pytest.raises(AttributeError) as err:
        getattr(ablkit.cli, name)
    assert str(err.value) == f"module 'ablkit.cli' has no attribute {name!r}"

# Runs ``main(argv)`` (or nothing, for an empty argv) in a fresh interpreter
# and prints the ablkit modules it loaded.
_LOADED = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import ablkit.cli
if sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ablkit.cli.main(sys.argv[2:])
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "ablkit")))
"""


def _loaded(*argv: str) -> set[str]:
    done = subprocess.run([sys.executable, "-c", _LOADED, str(ROOT / "src"), *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return {name.removeprefix("ablkit.") for name in json.loads(done.stdout)}


def test_importing_the_cli_loads_no_library_module():
    assert _loaded() == {"ablkit", "cli", "errors"}


_UNUSED = {
    "abl --builtin three-box": {"simulate", "sampling", "scenario_io", "counterfactual",
                                "histories"},
    "abl --scenario tests/cli_oracle/three-box.json": {"simulate", "sampling", "counterfactual"},
    "simulate --builtin three-box --trials 50": {"scenario_io", "counterfactual", "histories"},
}


@pytest.mark.parametrize("command", list(_UNUSED))
def test_a_command_loads_only_the_modules_it_runs(command):
    loaded = _loaded(*command.split())
    assert "scenarios" in loaded  # the command ran
    assert loaded & _UNUSED[command] == set()


def test_running_the_cli_as_a_module_loads_it_once(capsys):
    # The handlers' ``from .cli import`` must find the ``__main__`` module,
    # not import cli.py again (-X importtime lists each module imported).
    argv = ["abl", "--builtin", "three-box"]
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "ablkit.cli", *argv],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120, check=True)
    from ablkit.cli import main
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
    assert "ablkit" in imported and "ablkit.cli" not in imported
