"""Regression oracle for the scenario parser's results and errors.

``parse_error_oracle.json`` holds, for each mutation of two scenario
documents, what ``parse_scenario`` made of it: the exception type and
message, or the sha256 of ``dump_scenario`` of the parsed scenario.  The
documents are ``_matrix_form()`` from ``test_scenario_io.py`` and
``cli_oracle/zeros.json``.  Each mutation is one of:

- a leaf under ``dim``, the selections, ``observables`` or
  ``default_observable`` replaced by one of ``LITERALS``;
- one element of a list deleted;
- one key of an object dropped.

No mutation touches ``name`` or ``description`` or lengthens a list.  The
test replays every case and requires the same result, so a refactor of the
parser keeps every error message and the order in which errors are found.

The file was written by running this module as a script on the parser as
it stood before its amplitude reading and error wrapping were merged;
rewriting it from the code under test would make the comparison vacuous.
"""

import hashlib
import json
import pathlib

import pytest

from ablkit.scenario_io import dump_scenario, parse_scenario

from test_scenario_io import _matrix_form

ORACLE = pathlib.Path(__file__).with_name("parse_error_oracle.json")
ZEROS = pathlib.Path(__file__).with_name("cli_oracle") / "zeros.json"
LITERALS = ("true", '"1"', "null", "[0]", "[0,0,0]", "{}", str(2**60 + 1), "0.5", "1e999", "NaN")
MUTABLE_KEYS = ("dim", "preselection", "postselection", "observables", "default_observable")
SENTINEL = "@mutated@"


def _documents() -> dict:
    return {"matrix_form": _matrix_form(), "zeros": json.loads(ZEROS.read_text())}


def _nodes(node, path=()):
    # Every (path, node) pair below ``node``, the node itself first.
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _edited(doc, path, edit) -> dict:
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    edit(parent, path[-1])
    return copy


def _replace(parent, key):
    parent[key] = SENTINEL


def _delete(parent, key):
    del parent[key]


def _cases(doc):
    # (case id, document text) for every mutation of ``doc``.
    for path, node in _nodes(doc):
        name = "/".join(map(str, path))
        if isinstance(node, (dict, list)):
            if isinstance(node, list):
                for k in range(len(node)):
                    yield f"delete {name}/{k}", json.dumps(_edited(doc, path + (k,), _delete))
            if isinstance(node, dict):
                for key in node:
                    if path or key in MUTABLE_KEYS:
                        yield f"drop {name}/{key}", json.dumps(_edited(doc, path + (key,), _delete))
        elif path and path[0] in MUTABLE_KEYS:
            text = json.dumps(_edited(doc, path, _replace))
            for literal in LITERALS:
                yield f"{name} = {literal}", text.replace(json.dumps(SENTINEL), literal)


def outcome(text: str) -> str:
    """What the parser makes of ``text``: its error, or the digest of the
    parsed scenario's canonical text."""
    try:
        scenario = parse_scenario(text)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "sha256 " + hashlib.sha256(dump_scenario(scenario).encode()).hexdigest()


def outcomes(doc) -> dict:
    return {case: outcome(text) for case, text in _cases(doc)}


@pytest.mark.parametrize("name", ["matrix_form", "zeros"])
def test_parse_results_match_oracle(name):
    expected = json.loads(ORACLE.read_text())[name]
    actual = outcomes(_documents()[name])
    assert actual.keys() == expected.keys()
    wrong = [f"{case}: {actual[case]!r} != {expected[case]!r}"
             for case in expected if actual[case] != expected[case]]
    assert not wrong, "\n".join(wrong[:10])


if __name__ == "__main__":
    data = {name: outcomes(doc) for name, doc in _documents().items()}
    ORACLE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
