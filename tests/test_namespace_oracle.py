"""Regression oracle for the public namespace of the ``ablkit`` package.

``namespace_oracle.json`` holds, as seen by a fresh interpreter that has only
run ``import ablkit``:

* ``dir``: the public names of ``dir(ablkit)``;
* ``star``: the names ``from ablkit import *`` binds;
* ``homes``: each of those names' defining module, the submodule whose
  source defines it at top level (a submodule's home is itself).

The probe runs in a fresh ``sys.executable`` subprocess because other tests
import ``ablkit.cli``, which binds ``cli`` on the package.  The file was
written by running this module as a script on the package as it stood before
its imports became lazy; rewriting it from the code under test would make the
comparison vacuous.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ORACLE = pathlib.Path(__file__).with_name("namespace_oracle.json")

# dir() first, then each name's identity with its home module's object, and
# only then the star import, which touches every name.
_PROBE = """
import ast, importlib, json, pathlib, sys, types
sys.path.insert(0, sys.argv[1])
import ablkit
public = sorted(n for n in dir(ablkit) if not n.startswith("_"))
defined = {}
for path in sorted(pathlib.Path(ablkit.__file__).parent.glob("*.py")):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            defined.setdefault(name, []).append("ablkit." + path.stem)
homes, not_identical = {}, []
for name in public:
    value = getattr(ablkit, name)
    if isinstance(value, types.ModuleType):
        homes[name] = value.__name__
        same = value is importlib.import_module(value.__name__)
    else:
        (homes[name],) = defined[name]
        same = value is getattr(importlib.import_module(homes[name]), name)
    if not same:
        not_identical.append(name)
namespace = {}
exec("from ablkit import *", namespace)
star = sorted(n for n in namespace if n != "__builtins__")
print(json.dumps({"dir": public, "star": star, "homes": homes, "not_identical": not_identical}))
"""


def probe() -> dict:
    done = subprocess.run([sys.executable, "-c", _PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_namespace_matches_oracle():
    seen = probe()
    oracle = json.loads(ORACLE.read_text())
    assert seen["not_identical"] == []
    assert seen["dir"] == oracle["dir"]
    assert seen["star"] == oracle["star"]
    assert seen["homes"] == oracle["homes"]


if __name__ == "__main__":
    seen = probe()
    assert seen.pop("not_identical") == []
    ORACLE.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
