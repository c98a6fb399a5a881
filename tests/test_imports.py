"""Import hygiene of the ``ablkit`` package.

Read from its source with ``ast``: no module reaches into a private name of
a sibling module, and every name a module imports is used there or rebound
on it by the benchmark's tracer (``bench/run.py --trace 1``), and no module
calls one of NumPy's Python-level wrappers that an array method replaces
with the same bits.  One table gives each piece of arithmetic its one home:
the broadcast rank-1 product ``q q^dagger`` is written only in
``Projector._rank1``, the branch projection ``<expr>.stack @ <expr>`` only
in ``ObservableDecomposition._born``, ``np.vdot`` only in ``Ket._inner``,
the weight ``z.real ** 2 + z.imag ** 2`` only in
``ObservableDecomposition._weights``, and ``np.linalg.norm`` nowhere (its
arithmetic is ``Ket._norm``).  This reads ``bench/`` and changes nothing
there.

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
from typing import Callable, NamedTuple

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
    "outer": "Projector._rank1(q) (for q q^dagger)",
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


def _broadcasts(node: ast.AST) -> bool:
    # A subscript with a None (new axis) in its index.
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    return any(isinstance(e, ast.Constant) and e.value is None for e in index)


def _squared_part(node: ast.AST) -> bool:
    # ``<expr>.real ** 2`` or ``<expr>.imag ** 2``.
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Attribute) and node.left.attr in ("real", "imag")
            and isinstance(node.right, ast.Constant) and node.right.value == 2)


def _rank1_product(node: ast.AST) -> bool:
    # q[..., :, None] * q.conj()[..., None, :], with its zero-sign rule.
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and _broadcasts(node.left) and _broadcasts(node.right))


def _stack_projection(node: ast.AST) -> bool:
    # <expr>.stack @ <expr>, the projection of a state onto each branch.
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and isinstance(node.left, ast.Attribute) and node.left.attr == "stack")


def _vdot(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "vdot"


def _numpy_norm(node: ast.AST) -> bool:
    # <expr>.linalg.norm
    return (isinstance(node, ast.Attribute) and node.attr == "norm"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg")


def _born_weight(node: ast.AST) -> bool:
    # re^2 + im^2, or either square alone.
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _squared_part(node.left) and _squared_part(node.right)
    return _squared_part(node)


class _Home(NamedTuple):
    what: str
    matches: Callable[[ast.AST], bool]
    #: The routine ``Class.name`` that holds the arithmetic, the one place the
    #: pattern may be written unless ``nowhere``.
    use: str
    nowhere: bool = False


#: Arithmetic written in one place only, so that how it rounds is one decision.
_HOMES = [
    _Home("rank-1 product", _rank1_product, "Projector._rank1"),
    _Home("stack projection", _stack_projection, "ObservableDecomposition._born"),
    _Home("inner product", _vdot, "Ket._inner"),
    _Home("vector norm", _numpy_norm, "Ket._norm", nowhere=True),
    _Home("Born weight", _born_weight, "ObservableDecomposition._weights"),
]


def _nodes_in(tree: ast.Module, cls_name: str, name: str) -> set[int]:
    # The ids of every node inside ``cls_name.name``, a method or a class-level assignment.
    return {id(node) for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == cls_name
            for member in cls.body
            if (isinstance(member, ast.FunctionDef) and member.name == name)
            or (isinstance(member, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in member.targets))
            for node in ast.walk(member)}


def _outside_home(tree: ast.Module, row: _Home) -> list[str]:
    # Every match of the row's pattern outside its home routine; a match
    # inside another (the squares of re^2 + im^2) counts with it.
    home = set() if row.nowhere else _nodes_in(tree, *row.use.split("."))
    matches = [node for node in ast.walk(tree) if id(node) not in home and row.matches(node)]
    nested = {id(inner) for node in matches for inner in ast.walk(node) if inner is not node}
    return [f"line {node.lineno}: {row.what}: use {row.use}" for node in matches
            if id(node) not in nested]


@pytest.mark.parametrize("row", _HOMES, ids=lambda row: row.what)
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_each_pattern_is_written_only_in_its_home(path, row):
    assert _outside_home(_tree(path), row) == []


#: A planted tree per row, with its home routine, and the lines the rule must name.
_PLANTED = {
    "rank-1 product": ("class Projector:\n"
                       "    def _rank1(rows):\n"
                       "        return rows[..., :, None] * rows.conj()[..., None, :]\n"
                       "def f(a, x, conj):\n"
                       "    p = a[:, None] * a.conj()[None, :]\n"
                       "    d = x.conj()[:, None, :] * x[:, :, None] + 0.0\n"
                       "    s = a[:, :, None] * conj[:, None, :]\n"
                       "    return a * a.conj()[:, None], a.conj() * a, a[1:] * a[:-1]\n", (5, 6, 7)),
    "stack projection": ("class ObservableDecomposition:\n"
                         "    def _born(self, a):\n"
                         "        return self.stack @ a\n"
                         "def f(obs, a, stack, p):\n"
                         "    x = obs.stack @ a\n"
                         "    y = obs.final.stack @ (a + a)\n"
                         "    return p @ stack, p @ obs.stack, stack[0] @ a, obs.stacks @ a\n",
                         (5, 6)),
    "inner product": ("import numpy as np\n"
                      "class Ket:\n"
                      "    _inner = staticmethod(np.vdot)\n"
                      "    def _norm(v):\n"
                      "        return np.vdot(v.real, v.real) + np.vdot(v.imag, v.imag)\n"
                      "def f(a, b, xp):\n"
                      "    return xp.vdot(a, b), Ket._inner(a, b), a.dot(b), np.inner(a, b)\n",
                      (5, 5, 7)),
    "vector norm": ("import numpy as np\n"
                    "class Ket:\n"
                    "    def _norm(v):\n"
                    "        return np.linalg.norm(v)\n"
                    "def f(v, np2):\n"
                    "    return np2.linalg.norm(v, axis=1), Ket._norm(v), np.linalg.qr(v)\n",
                    (4, 6)),
    "Born weight": ("class ObservableDecomposition:\n"
                    "    def _weights(z):\n"
                    "        return z.real ** 2 + z.imag ** 2\n"
                    "def f(x, w):\n"
                    "    s = (x.real ** 2 + x.imag ** 2).sum()\n"
                    "    t = w.imag ** 2 + w.real ** 2\n"
                    "    u = x.real ** 2\n"
                    "    return abs(x) ** 2, x.real ** 3, x.imag * x.imag, x.real * 2\n",
                    (5, 6, 7)),
}


@pytest.mark.parametrize("row", _HOMES, ids=lambda row: row.what)
def test_each_home_rule_names_its_planted_sites(row):
    source, lines = _PLANTED[row.what]
    assert sorted(_outside_home(ast.parse(source), row)) == [
        f"line {n}: {row.what}: use {row.use}" for n in lines]


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
