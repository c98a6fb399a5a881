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
and parse errors name the offending field.  Emission is canonical (sorted
keys, two-space indent, exact float round-trip), so emitting, parsing, and
emitting again is byte-identical.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .abl import PrePostContext
from .counterfactual import Counterexample
from .errors import AblkitError, ScenarioParseError
from .linalg import Branch, Ket, ObservableDecomposition, Projector, projector_from_kets
from .scenarios import Scenario

_TOP_KEYS = {"dim", "name", "description", "preselection", "postselection",
             "observables", "default_observable"}
_BRANCH_KEYS = {"eigenvalue", "kets", "matrix"}


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


def _vector(node, path: str, dim: int) -> np.ndarray:
    items = _expect_list(node, path)
    if len(items) != dim:
        raise _fail(path, f"expected {dim} amplitudes, got {len(items)}")
    return np.array([_complex(c, f"{path}[{k}]") for k, c in enumerate(items)],
                    dtype=np.complex128)


def _ket(node, path: str, dim: int) -> Ket:
    try:
        return Ket(_vector(node, path, dim))
    except AblkitError as err:
        if isinstance(err, ScenarioParseError):
            raise
        raise _fail(path, str(err)) from err


def _branch(node, path: str, dim: int) -> Branch:
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
            projector = projector_from_kets(kets)
        else:
            rows = _expect_list(spec["matrix"], f"{path}.matrix")
            if len(rows) != dim:
                raise _fail(f"{path}.matrix", f"expected {dim} rows, got {len(rows)}")
            matrix = np.array([_vector(row, f"{path}.matrix[{r}]", dim)
                               for r, row in enumerate(rows)])
            projector = Projector(matrix)
    except AblkitError as err:
        if isinstance(err, ScenarioParseError):
            raise
        raise _fail(path, str(err)) from err
    return Branch(eigenvalue, projector)


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
    preselection = _ket(top["preselection"], "preselection", dim)
    postselection = _ket(top["postselection"], "postselection", dim)
    observables: dict[str, ObservableDecomposition] = {}
    obs_node = _expect_mapping(top["observables"], "observables")
    if not obs_node:
        raise _fail("observables", "expected at least one observable")
    for name, branches_node in obs_node.items():
        branch_list = _expect_list(branches_node, f"observables.{name}")
        branches = [_branch(b, f"observables.{name}[{i}]", dim)
                    for i, b in enumerate(branch_list)]
        try:
            observables[name] = ObservableDecomposition(tuple(branches))
        except AblkitError as err:
            raise _fail(f"observables.{name}", str(err)) from err
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


def _complex_out(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _vector_out(v: np.ndarray) -> list[list[float]]:
    return [_complex_out(z) for z in v]


def scenario_to_jsonable(scenario: Scenario) -> dict[str, Any]:
    """Plain-JSON form of a scenario; branches are emitted in explicit
    matrix form, which is lossless."""
    observables = {}
    for name, obs in scenario.observables.items():
        observables[name] = [
            {"eigenvalue": eigenvalue, "matrix": [_vector_out(row) for row in projector.matrix]}
            for eigenvalue, projector in obs
        ]
    return {
        "dim": scenario.dim,
        "name": scenario.name,
        "description": scenario.description,
        "preselection": _vector_out(scenario.context.preselection.amplitudes),
        "postselection": _vector_out(scenario.context.postselection.amplitudes),
        "observables": observables,
        "default_observable": scenario.default_observable,
    }


def dump_scenario(scenario: Scenario) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(scenario_to_jsonable(scenario), sort_keys=True, indent=2) + "\n"


def _ket_from_rank1(projector: Projector) -> Ket:
    # Largest column of |v><v| is v (up to phase); fix the phase by making
    # the largest amplitude real positive.
    m = projector.matrix
    col = m[:, int(np.argmax(np.linalg.norm(m, axis=0)))]
    v = col / np.linalg.norm(col)
    lead = v[int(np.argmax(np.abs(v)))]
    return Ket.normalized(v * (lead.conjugate() / abs(lead)))


def counterexample_scenario(example: Counterexample) -> Scenario:
    """Package a counterexample as a scenario: its state and the first
    final-basis direction become the selections, with the questioned
    observable as ``C`` and the final basis as ``B``."""
    context = PrePostContext(example.preselection, _ket_from_rank1(example.final_basis.projector(0)))
    return Scenario(
        name="counterexample",
        description=(f"counterfactual gap {example.report.ss_gap:.6g} "
                     f"on branch {example.branch} of C"),
        context=context,
        observables={"C": example.observable, "B": example.final_basis},
        default_observable="C",
    )
