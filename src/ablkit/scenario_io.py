"""Scenario files: a small JSON schema for contexts plus named observables.

Schema (complex numbers are two-element ``[re, im]`` arrays)::

    {
      "dim": 3,
      "name": "...",                    // optional string
      "description": "...",             // optional string
      "preselection":  [[re, im], ...], // dim amplitudes
      "postselection": [[re, im], ...],
      "observables": {
        "C": [                          // one entry per branch
          {"eigenvalue": 1, "kets": [ket, ...]},      // spanning kets, or
          {"eigenvalue": 2, "matrix": [[c, ...], ...]} // explicit projector
        ]
      },
      "default_observable": "C"         // optional; first named otherwise
    }

Parsed values go through the same validation as directly constructed ones.
A key repeated within one object is refused, not overwritten.  An
observable's kets and matrix rows are converted in one flat numpy call,
after one pass per nesting level over the lists; only when that fails is
each field read on its own, so that the first error is reported at its
field by one wrapper.  Either way the branches are read once, in order.
Counts no valid file has (more branches, or kets or matrix rows in a
branch, than ``dim``) are refused before any entry is read.  A branch
given by one ket is the rank-1 projector ``|q><q|`` onto the ket's unit
vector ``q`` by construction, so it is not checked again as a matrix; an
observable of one-ket branches is a rank-1 basis, checked from the Gram
matrix of its kets with the errors, in the order, of the matrix checks.
Each branch matrix is bit for bit the one ``projector_from_kets`` builds.

Emission is canonical (sorted keys, two-space indent, exact float
round-trip), so emitting, parsing, and emitting again is byte-identical;
the text is that of ``json.dumps(scenario_to_jsonable(s), sort_keys=True,
indent=2)``.  Each amplitude array is rendered from its float view:
``float.__repr__``, the encoder's float form, runs once per distinct
magnitude in the array, and a value whose sign bit is set (-0.0 too) is
that text with a ``-`` in front.  The pieces of text are joined once, at
the end.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .abl import PrePostContext
from .errors import AblkitError, ScenarioParseError, ValidationError
from .linalg import Ket, ObservableDecomposition, Projector, projector_from_kets
from .scenarios import Scenario

if TYPE_CHECKING:  # annotation only; counterfactual would load sampling
    from .counterfactual import Counterexample

_TOP_KEYS = {"dim", "name", "description", "preselection", "postselection",
             "observables", "default_observable"}
_BRANCH_KEYS = {"eigenvalue", "kets", "matrix"}
_NOUNS = {dict: "an object", list: "an array", str: "a string"}
#: Largest ``dim`` a scenario file may declare, checked before any array is
#: built.  Emitted, a basis of 64 rank-1 branches is a 26 MiB file, and the
#: text grows as ``dim**3``.  Emission refuses a larger scenario, so what is
#: written parses back.
MAX_DIM = 64


def _fail(path: str, message: str) -> ScenarioParseError:
    return ScenarioParseError(f"{path}: {message}")


def _expect(node, path: str, kind: type):
    if not isinstance(node, kind):
        raise _fail(path, f"expected {_NOUNS[kind]}, got {type(node).__name__}")
    return node


def _number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise _fail(path, f"expected a number, got {type(node).__name__}")
    # JSON text can spell inf (1e999, or an integer too long for a float)
    # and nan (the NaN literal json.loads accepts).
    try:
        value = float(node)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise _fail(path, f"expected a finite number, got {value}")
    return value


def _complex(node, path: str) -> complex:
    pair = _expect(node, path, list)
    if len(pair) != 2:
        raise _fail(path, f"expected a [re, im] pair, got {len(pair)} elements")
    return complex(_number(pair[0], f"{path}[0]"), _number(pair[1], f"{path}[1]"))


def _bulk_complex(items: list, shape: tuple[int, ...]) -> np.ndarray | None:
    """``items`` as a complex array of ``shape`` when it nests lists of
    those lengths down to ``[re, im]`` pairs of finite ints and floats;
    ``None`` otherwise, so that the caller can name the offending field."""
    # One pass per nesting level checks the types and lengths of all its
    # lists, so numpy converts one flat list of numbers.
    nodes = [items]
    for size in shape + (2,):
        if set(map(type, nodes)) != {list} or set(map(len, nodes)) != {size}:
            return None
        nodes = list(chain.from_iterable(nodes))
    # numpy would also convert bools and numeric strings, which the schema refuses.
    if not set(map(type, nodes)) <= {int, float}:
        return None
    try:
        pairs = np.array(nodes, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        return None
    if not np.isfinite(pairs).all():
        return None
    return pairs.view(np.complex128).reshape(shape)


def _array(node, path: str, shape: tuple[int, ...]) -> np.ndarray:
    # Converted whole when it can be; otherwise walked row by row and pair
    # by pair, so that the error names the offending field.
    items = _expect(node, path, list)
    if len(items) != shape[0]:
        unit = "amplitudes" if len(shape) == 1 else "rows"
        raise _fail(path, f"expected {shape[0]} {unit}, got {len(items)}")
    array = _bulk_complex(items, shape)
    if array is not None:
        return array
    if len(shape) == 1:
        return np.array([_complex(c, f"{path}[{k}]") for k, c in enumerate(items)],
                        dtype=np.complex128)
    return np.array([_array(row, f"{path}[{r}]", shape[1:]) for r, row in enumerate(items)])


def _built(path: str, construct: Callable, *args):
    # construct(*args), with its validation error reported at ``path``.  The
    # arguments are read before the call, so their parse errors never get here.
    try:
        return construct(*args)
    except AblkitError as err:
        raise _fail(path, str(err)) from err


def _ket(node, path: str, dim: int) -> Ket:
    return _built(path, Ket, _array(node, path, (dim,)))


def _spec(node, path: str, dim: int) -> tuple[float, str, list]:
    # The branch's eigenvalue, its form ("kets" or "matrix") and that list,
    # after every check that reads no amplitude.
    spec = _expect(node, path, dict)
    unknown = set(spec) - _BRANCH_KEYS
    if unknown:
        raise _fail(path, f"unknown keys {sorted(unknown)}")
    if "eigenvalue" not in spec:
        raise _fail(path, "missing 'eigenvalue'")
    eigenvalue = _number(spec["eigenvalue"], f"{path}.eigenvalue")
    if ("kets" in spec) == ("matrix" in spec):
        raise _fail(path, "need exactly one of 'kets' or 'matrix'")
    if "matrix" in spec:
        return eigenvalue, "matrix", _expect(spec["matrix"], f"{path}.matrix", list)
    nodes = _expect(spec["kets"], f"{path}.kets", list)
    if not nodes:
        raise _fail(f"{path}.kets", "expected at least one ket")
    if len(nodes) > dim:  # more than dim kets are linearly dependent
        raise _fail(f"{path}.kets", f"expected at most {dim} kets, got {len(nodes)}")
    return eigenvalue, "kets", nodes


def _branches(nodes: list, path: str, dim: int) -> list[tuple[float, Projector | np.ndarray]]:
    # Each branch's eigenvalue, and its Projector or, for a branch given by
    # one ket, that ket's unit vector q: |q><q| is a rank-1 projector by
    # construction, which _observable assembles.  The rows of all branches
    # are converted in one call; when that fails, each field is read by
    # _array, so that the first error in reading order names its field.
    # A list longer than dim is refused by its branch before it is read.
    lists = [b.get("matrix", b.get("kets")) if isinstance(b, dict) else None for b in nodes]
    amps = None
    if all(isinstance(rows, list) and len(rows) <= dim for rows in lists):
        rows = list(chain.from_iterable(lists))
        amps = _bulk_complex(rows, (len(rows), dim))
    branches, k = [], 0
    for i, node in enumerate(nodes):
        at = f"{path}[{i}]"
        eigenvalue, form, entry = _spec(node, at, dim)
        field, n = f"{at}.{form}", len(entry)
        if form == "matrix":  # _array names a block of other than dim rows
            matrix = (amps[k:k + n] if amps is not None and n == dim
                      else _array(entry, field, (dim, dim)))
            branch = _built(at, Projector, matrix)
        else:
            kets = []
            for j, ket in enumerate(entry):  # each ket read, then checked, in turn
                a = amps[k + j] if amps is not None else _array(ket, f"{field}[{j}]", (dim,))
                kets.append((a, _built(f"{field}[{j}]", Ket._unit, a)))
            branch = kets[0][1] if n == 1 else _built(
                at, projector_from_kets, [Ket._validated(a) for a, _ in kets])
        branches.append((eigenvalue, branch))
        k += n
    return branches


def _observable(branches: list[tuple[float, Projector | np.ndarray]]) -> ObservableDecomposition:
    # When every branch is one ket, the observable is a rank-1 basis,
    # checked from its amplitudes as from_eigenbasis checks one.
    eigenvalues = [e for e, _ in branches]
    if branches and all(isinstance(p, np.ndarray) for _, p in branches):
        return ObservableDecomposition._from_amplitudes(
            np.array([q for _, q in branches]), eigenvalues, signed_zeros=False)
    return ObservableDecomposition([
        (e, Projector._validated(Projector._rank1(p, signed_zeros=False), 1)
         if isinstance(p, np.ndarray) else p)
        for e, p in branches])


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    # json.loads would keep the last of a repeated key's values.
    node = dict(pairs)
    if len(node) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return node


def parse_scenario(text: str, *, fallback_name: str = "scenario") -> Scenario:
    """Parse scenario JSON.  All errors surface as
    :class:`ScenarioParseError` carrying line or field context."""
    try:
        root = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ScenarioParseError(
            f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}") from err
    except ValueError as err:  # a repeated key, or an integer past Python's digit limit
        raise ScenarioParseError(f"invalid JSON: {err}") from err
    top = _expect(root, "scenario", dict)
    unknown = set(top) - _TOP_KEYS
    if unknown:
        raise _fail("scenario", f"unknown keys {sorted(unknown)}")
    for key in ("dim", "preselection", "postselection", "observables"):
        if key not in top:
            raise _fail("scenario", f"missing {key!r}")
    for key in ("name", "description"):
        _expect(top.get(key, ""), key, str)
    dim_raw = _number(top["dim"], "dim")
    dim = int(dim_raw)
    if dim != dim_raw or dim < 1:
        raise _fail("dim", f"expected a positive integer, got {top['dim']!r}")
    if dim > MAX_DIM:
        raise _fail("dim", f"{dim} exceeds the largest supported dimension {MAX_DIM}")
    preselection = _ket(top["preselection"], "preselection", dim)
    postselection = _ket(top["postselection"], "postselection", dim)
    observables: dict[str, ObservableDecomposition] = {}
    obs_node = _expect(top["observables"], "observables", dict)
    if not obs_node:
        raise _fail("observables", "expected at least one observable")
    for name, branches_node in obs_node.items():
        path = f"observables.{name}"
        nodes = _expect(branches_node, path, list)
        if len(nodes) > dim:  # every branch has rank at least 1
            raise _fail(path, f"expected at most {dim} branches, got {len(nodes)}")
        observables[name] = _built(path, _observable, _branches(nodes, path, dim))
    default = top.get("default_observable", next(iter(observables)))
    if not isinstance(default, str) or default not in observables:
        raise _fail("default_observable",
                    f"{default!r} is not one of {sorted(observables)}")
    return Scenario(
        name=top.get("name", fallback_name),
        description=top.get("description", ""),
        context=PrePostContext(preselection, postselection),
        observables=observables,
        default_observable=default,
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ScenarioParseError(f"{path}: not UTF-8 text: {err}") from err
    return parse_scenario(text, fallback_name=str(path))


def _pairs(a: np.ndarray) -> np.ndarray:
    # Float64 view of a complex array with a trailing [re, im] axis.
    a = np.ascontiguousarray(a)
    return a.view(np.float64).reshape(a.shape + (2,))


def _tree(scenario: Scenario, leaf: Callable[[np.ndarray], Any]) -> dict[str, Any]:
    # The emitted structure, with ``leaf`` applied to each amplitude array's
    # float view.
    if scenario.dim > MAX_DIM:
        raise ValidationError(
            f"dim {scenario.dim} exceeds the largest supported dimension {MAX_DIM}")
    observables = {}
    for name, obs in scenario.observables.items():
        observables[name] = [
            {"eigenvalue": eigenvalue, "matrix": leaf(_pairs(m))}
            for eigenvalue, m in zip(obs.eigenvalues, obs.stack)
        ]
    return {
        "dim": scenario.dim,
        "name": scenario.name,
        "description": scenario.description,
        "preselection": leaf(_pairs(scenario.context.preselection.amplitudes)),
        "postselection": leaf(_pairs(scenario.context.postselection.amplitudes)),
        "observables": observables,
        "default_observable": scenario.default_observable,
    }


def scenario_to_jsonable(scenario: Scenario) -> dict[str, Any]:
    """Plain-JSON form of a scenario; branches are emitted in explicit
    matrix form, which is lossless."""
    return _tree(scenario, np.ndarray.tolist)


def _indent(level: int) -> str:
    return "\n" + "  " * level


def _render_array(pairs: np.ndarray, level: int) -> str:
    # One %s slot per float, laid out as json's indent=2 encoder would nest
    # the lists.  float.__repr__, the encoder's float form, runs once per
    # distinct magnitude, and a value with the sign bit set (-0.0 too) gets
    # a "-" in front: repr(-y) == "-" + repr(y) for every y >= +0.0.
    template = "%s"
    for depth in range(pairs.ndim, 0, -1):
        inner = _indent(level + depth)
        template = ("[" + inner + ("," + inner).join([template] * pairs.shape[depth - 1])
                    + _indent(level + depth - 1) + "]")
    flat = pairs.ravel()
    magnitudes, index = np.unique(np.abs(flat), return_inverse=True)
    texts = [repr(m) for m in magnitudes.tolist()]
    texts += ["-" + t for t in texts]
    index += len(magnitudes) * np.signbit(flat)
    return template % tuple(np.array(texts, dtype=object)[index].tolist())


def _render(node, level: int, out: list[str]):
    # Appends the text of ``node`` at nesting ``level`` to ``out``, laid out
    # as json's indent=2 encoder lays it out; the caller joins the pieces
    # once, so no level copies the text below it.
    if isinstance(node, np.ndarray):
        out.append(_render_array(node, level))
    elif isinstance(node, (dict, list)) and node:
        is_dict = isinstance(node, dict)
        separator = _indent(level + 1)
        out.append("{" if is_dict else "[")
        for item in sorted(node.items()) if is_dict else node:
            out.append(separator)
            if is_dict:
                key, item = item
                out.append(json.dumps(key) + ": ")
            _render(item, level + 1, out)
            separator = "," + _indent(level + 1)
        out.append(_indent(level) + ("}" if is_dict else "]"))
    else:
        out.append(json.dumps(node))


def dump_scenario(scenario: Scenario) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline;
    the same text as ``json.dumps(scenario_to_jsonable(scenario),
    sort_keys=True, indent=2) + "\\n"``."""
    out: list[str] = []
    _render(_tree(scenario, lambda pairs: pairs), 0, out)
    out.append("\n")
    return "".join(out)


def counterexample_scenario(example: Counterexample) -> Scenario:
    """Package a counterexample as a scenario: its state and the first
    final-basis direction become the selections, with the questioned
    observable as ``C`` and the final basis as ``B``; the postselection's
    largest amplitude is positive and real to rounding."""
    post = Ket._validated(example.final_basis.projector(0)._state())
    return Scenario(
        name="counterexample",
        description=(f"counterfactual gap {example.report.ss_gap:.6g} "
                     f"on branch {example.branch} of C"),
        context=PrePostContext(example.preselection, post),
        observables={"C": example.observable, "B": example.final_basis},
        default_observable="C",
    )
