"""Import hygiene of the ``ablkit`` package, read from its source with ``ast``.

No module reaches into a private name of a sibling module, and every name a
module imports is used there or rebound on it by the benchmark's tracer
(``bench/run.py --trace 1``).  This reads ``bench/`` and changes nothing
there.
"""

import ast
import importlib
import pathlib

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
