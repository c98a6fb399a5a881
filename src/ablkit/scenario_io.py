"""Scenario files: a small JSON schema for contexts plus named observables.

Schema (complex numbers are two-element ``[re, im]`` arrays)::

    {
      "dim": 3,
      "name": "...",                    // optional
      "description": "...",             // optional
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

Parsed values go through the same validation as directly constructed ones,
and parse errors name the offending field.  Amplitude arrays are parsed
whole: a vector or matrix of plain numbers converts in one numpy call (any
other array goes through the element-by-element checks, which name the
offending field).  A branch given by one ket is the rank-1 projector
``|q><q|`` onto the ket's unit vector ``q`` by construction, so it is not
checked again as a matrix.  An observable whose branches are all one ket
is a rank-1 basis, checked from the Gram matrix of its kets with the
errors, in the order, of the matrix checks that any other observable goes
through.  Either way each branch matrix is bit for bit the one
``projector_from_kets`` builds.

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
from typing import Any, Callable

import numpy as np

from .abl import PrePostContext
from .counterfactual import Counterexample
from .errors import AblkitError, ScenarioParseError, ValidationError
from .linalg import Ket, ObservableDecomposition, Projector, projector_from_kets
from .scenarios import Scenario

_TOP_KEYS = {"dim", "name", "description", "preselection", "postselection",
             "observables", "default_observable"}
_BRANCH_KEYS = {"eigenvalue", "kets", "matrix"}
#: Largest ``dim`` a scenario file may declare, checked before any array is
#: built.  Emitted, a basis of 64 rank-1 branches is a 26 MiB file, and the
#: text grows as ``dim**3``.  Emission refuses a larger scenario, so what is
#: written parses back.
MAX_DIM = 64


def _fail(path: str, message: str) -> ScenarioParseError:
    return ScenarioParseError(f"{path}: {message}")


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise _fail(path, f"expected an object, got {type(node).__name__}")
    return node


def _expect_list(node, path: str) -> list:
    if not isinstance(node, list):
        raise _fail(path, f"expected an array, got {type(node).__name__}")
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
    pair = _expect_list(node, path)
    if len(pair) != 2:
        raise _fail(path, f"expected a [re, im] pair, got {len(pair)} elements")
    return complex(_number(pair[0], f"{path}[0]"), _number(pair[1], f"{path}[1]"))


def _bulk_complex(items: list, shape: tuple[int, ...]) -> np.ndarray | None:
    """``items`` as a complex array of ``shape`` when every leaf is a finite
    int or float and each innermost list is a ``[re, im]`` pair; ``None``
    otherwise, so that the caller can name the offending field."""
    try:
        pairs = np.array(items, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if pairs.shape != shape + (2,) or not np.isfinite(pairs).all():
        return None
    # numpy also converts bools and numeric strings, which the schema refuses.
    leaves = items
    for _ in shape:
        leaves = chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= {int, float}:
        return None
    return pairs.view(np.complex128).reshape(shape)


def _vector(node, path: str, dim: int) -> np.ndarray:
    items = _expect_list(node, path)
    if len(items) != dim:
        raise _fail(path, f"expected {dim} amplitudes, got {len(items)}")
    vector = _bulk_complex(items, (dim,))
    if vector is not None:
        return vector
    return np.array([_complex(c, f"{path}[{k}]") for k, c in enumerate(items)],
                    dtype=np.complex128)


def _ket(node, path: str, dim: int) -> Ket:
    try:
        return Ket(_vector(node, path, dim))
    except AblkitError as err:
        if isinstance(err, ScenarioParseError):
            raise
        raise _fail(path, str(err)) from err


def _branch(node, path: str, dim: int) -> tuple[float, Projector | np.ndarray]:
    # The eigenvalue, and the branch's Projector or, for a branch given by
    # one ket, that ket's unit vector q: |q><q| is a rank-1 projector by
    # construction, which _observable assembles.
    spec = _expect_mapping(node, path)
    unknown = set(spec) - _BRANCH_KEYS
    if unknown:
        raise _fail(path, f"unknown keys {sorted(unknown)}")
    if "eigenvalue" not in spec:
        raise _fail(path, "missing 'eigenvalue'")
    eigenvalue = _number(spec["eigenvalue"], f"{path}.eigenvalue")
    if ("kets" in spec) == ("matrix" in spec):
        raise _fail(path, "need exactly one of 'kets' or 'matrix'")
    try:
        if "kets" in spec:
            kets = [_ket(k, f"{path}.kets[{i}]", dim)
                    for i, k in enumerate(_expect_list(spec["kets"], f"{path}.kets"))]
            if not kets:
                raise _fail(f"{path}.kets", "expected at least one ket")
            if len(kets) == 1:
                # Scaled as orthonormalize scales it.
                v = kets[0].amplitudes
                return eigenvalue, v / float(np.linalg.norm(v))
            projector = projector_from_kets(kets)
        else:
            rows = _expect_list(spec["matrix"], f"{path}.matrix")
            if len(rows) != dim:
                raise _fail(f"{path}.matrix", f"expected {dim} rows, got {len(rows)}")
            matrix = _bulk_complex(rows, (dim, dim))
            if matrix is None:
                matrix = np.array([_vector(row, f"{path}.matrix[{r}]", dim)
                                   for r, row in enumerate(rows)])
            projector = Projector(matrix)
    except AblkitError as err:
        if isinstance(err, ScenarioParseError):
            raise
        raise _fail(path, str(err)) from err
    return eigenvalue, projector


def _observable(branches: list[tuple[float, Projector | np.ndarray]]) -> ObservableDecomposition:
    # A one-ket branch's matrix is |q><q| + 0.0: projector_from_kets sums
    # from zeros, which turns the -0.0 entries of the product into +0.0.
    # When every branch is one ket, the observable is a rank-1 basis,
    # checked from its amplitudes as from_eigenbasis checks one.
    eigenvalues = [e for e, _ in branches]
    if branches and all(isinstance(p, np.ndarray) for _, p in branches):
        return ObservableDecomposition._from_amplitudes(
            np.array([q for _, q in branches]), eigenvalues, signed_zeros=False)
    return ObservableDecomposition([
        (e, Projector._validated(np.outer(p, p.conj()) + 0.0, 1) if isinstance(p, np.ndarray) else p)
        for e, p in branches])


def parse_scenario(text: str, *, fallback_name: str = "scenario") -> Scenario:
    """Parse scenario JSON.  All errors surface as
    :class:`ScenarioParseError` carrying line or field context."""
    try:
        root = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioParseError(
            f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}") from err
    except ValueError as err:  # e.g. an integer literal past Python's digit limit
        raise ScenarioParseError(f"invalid JSON: {err}") from err
    top = _expect_mapping(root, "scenario")
    unknown = set(top) - _TOP_KEYS
    if unknown:
        raise _fail("scenario", f"unknown keys {sorted(unknown)}")
    for key in ("dim", "preselection", "postselection", "observables"):
        if key not in top:
            raise _fail("scenario", f"missing {key!r}")
    dim_raw = _number(top["dim"], "dim")
    dim = int(dim_raw)
    if dim != dim_raw or dim < 1:
        raise _fail("dim", f"expected a positive integer, got {top['dim']!r}")
    if dim > MAX_DIM:
        raise _fail("dim", f"{dim} exceeds the largest supported dimension {MAX_DIM}")
    preselection = _ket(top["preselection"], "preselection", dim)
    postselection = _ket(top["postselection"], "postselection", dim)
    observables: dict[str, ObservableDecomposition] = {}
    obs_node = _expect_mapping(top["observables"], "observables")
    if not obs_node:
        raise _fail("observables", "expected at least one observable")
    for name, branches_node in obs_node.items():
        path = f"observables.{name}"
        branches = [_branch(b, f"{path}[{i}]", dim)
                    for i, b in enumerate(_expect_list(branches_node, path))]
        try:
            observables[name] = _observable(branches)
        except AblkitError as err:
            raise _fail(path, str(err)) from err
    default = top.get("default_observable", next(iter(observables)))
    if not isinstance(default, str) or default not in observables:
        raise _fail("default_observable",
                    f"{default!r} is not one of {sorted(observables)}")
    try:
        context = PrePostContext(preselection, postselection)
        return Scenario(
            name=str(top.get("name", fallback_name)),
            description=str(top.get("description", "")),
            context=context,
            observables=observables,
            default_observable=default,
        )
    except (AblkitError, ValueError) as err:
        if isinstance(err, ScenarioParseError):
            raise
        raise _fail("scenario", str(err)) from err


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


def _ket_from_rank1(m: np.ndarray) -> Ket:
    # Largest column of the rank-1 projector |v><v| is v (up to phase); fix
    # the phase by making the largest amplitude real positive.
    col = m[:, int(np.argmax(np.linalg.norm(m, axis=0)))]
    v = col / np.linalg.norm(col)
    lead = v[int(np.argmax(np.abs(v)))]
    return Ket.normalized(v * (lead.conjugate() / abs(lead)))


def counterexample_scenario(example: Counterexample) -> Scenario:
    """Package a counterexample as a scenario: its state and the first
    final-basis direction become the selections, with the questioned
    observable as ``C`` and the final basis as ``B``."""
    context = PrePostContext(example.preselection, _ket_from_rank1(example.final_basis.matrix(0)))
    return Scenario(
        name="counterexample",
        description=(f"counterfactual gap {example.report.ss_gap:.6g} "
                     f"on branch {example.branch} of C"),
        context=context,
        observables={"C": example.observable, "B": example.final_basis},
        default_observable="C",
    )
