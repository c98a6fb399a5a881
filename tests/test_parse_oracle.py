"""Regression oracle for parsing valid scenario files and two-fault documents.

``parse_oracle.json`` holds two tables:

- ``valid``: for each file of ``valid_documents()`` (seeded, one per dim
  from 1 to 24), the sha256 of its text, of ``dump_scenario`` of the parsed
  scenario and of each observable's ``stack.tobytes()``.  The files mix
  one-ket branches, branches of several skewed, non-orthogonal kets and
  matrix branches, int and float leaves, and ``-0.0``, ``1e-320`` and
  ``5e-324`` amplitudes.
- ``faults``: for each document of ``fault_documents()``, which carries two
  faults in different branches or stages, the exception type and message.
  The first error in reading order is the one reported, so a parser that
  reads in another order, or names another field, fails here.

The file was written by running this module as a script on the parser as
it stood before each observable's amplitudes were converted in one call;
rewriting it from the code under test would make the comparison vacuous.
"""

import copy
import hashlib
import json
import math
import pathlib

import numpy as np

from ablkit.scenario_io import dump_scenario, parse_scenario

ORACLE = pathlib.Path(__file__).with_name("parse_oracle.json")
SEED = 3030
TINY = (-0.0, 1e-320, 5e-324)


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _pairs(v):
    return [[float(z.real), float(z.imag)] for z in v]


def _haar(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ranks(rng, dim):
    ranks = []
    while sum(ranks) < dim:
        ranks.append(int(min(rng.integers(1, 5), dim - sum(ranks))))
    return ranks


def _spanning(rng, q):
    # Unit kets spanning the columns of q, skewed so that they are not
    # orthogonal when there are several.
    rank = q.shape[1]
    skew = np.eye(rank) + 0.5 * np.triu(rng.standard_normal((rank, rank))
                                        + 1j * rng.standard_normal((rank, rank)), 1)
    kets = q @ skew
    return [_pairs(k) for k in (kets / np.linalg.norm(kets, axis=0)).T]


def _generic(rng, u):
    # Branches over blocks of the columns of u: one ket, several kets, or
    # the projector matrix, chosen at random.
    nodes, col = [], 0
    for i, rank in enumerate(_ranks(rng, u.shape[0])):
        q = u[:, col:col + rank]
        col += rank
        if rng.random() < 0.4:
            nodes.append({"eigenvalue": i + 0.5, "matrix": [_pairs(row) for row in q @ q.conj().T]})
        else:
            nodes.append({"eigenvalue": i + 0.5, "kets": _spanning(rng, q)})
    return nodes


def _canonical(rng, dim):
    # Branches over blocks of the canonical basis with int leaves, zeros
    # spelled -0.0 here and there, and the tiny amplitudes of TINY where a
    # one-ket branch or a matrix has room for them.
    signs = iter(rng.integers(0, 2, dim * dim * dim).tolist())

    def zero():
        return [-0.0 if next(signs) else 0, 0]

    nodes, start = [], 0
    for i, rank in enumerate(_ranks(rng, dim)):
        block = range(start, start + rank)
        start += rank
        if rank > 1 and rng.random() < 0.5:
            m = [[[1, 0] if r == c and r in block else zero() for c in range(dim)]
                 for r in range(dim)]
            r, c = block[0], block[-1]
            m[r][c], m[c][r] = [1e-320, 5e-324], [1e-320, -5e-324]
            nodes.append({"eigenvalue": -i, "matrix": m})
        elif rank > 1:
            kets = [[[1, 0] if k == r else zero() for k in range(dim)] for r in block]
            kets[-1][block[0]] = [0.6, 0]
            kets[-1][block[-1]] = [0, 0.8]
            nodes.append({"eigenvalue": -i, "kets": kets})
        else:
            ket = [[1, 0] if k == block[0] else zero() for k in range(dim)]
            if dim > 1:
                ket[(block[0] + 1) % dim] = [TINY[i % 3], TINY[(i + 1) % 3]]
            nodes.append({"eigenvalue": -i, "kets": [ket]})
    return nodes


def valid_documents() -> dict[str, str]:
    texts = {}
    for dim in range(1, 25):
        rng = np.random.default_rng([SEED, dim])
        u, v = _haar(rng, dim), _haar(rng, dim)
        post = [[0, 0]] * dim
        post[-1] = [1, -0.0]
        doc = {"dim": dim, "name": f"oracle-{dim}",
               "preselection": _pairs(u[:, 0]), "postselection": post,
               "observables": {"B": [{"eigenvalue": k, "kets": [_pairs(v[:, k])]}
                                     for k in range(dim)],
                               "C": _generic(rng, u),
                               "Z": _canonical(rng, dim)},
               "default_observable": "C"}
        texts[f"dim-{dim:02d}"] = json.dumps(doc)
    return texts


def valid_outcome(text: str) -> dict:
    scenario = parse_scenario(text)
    return {"text": _sha(text), "dump": _sha(dump_scenario(scenario)),
            "stacks": {name: _sha(obs.stack.tobytes())
                       for name, obs in scenario.observables.items()}}


# --- documents with two faults ----------------------------------------------

_DIM = 8
#: The form of each branch of the base document's observable X: every form
#: twice, so that any two branch faults find branches i < j to go in.
_FORMS = ("one", "two", "matrix", "one", "two", "matrix")


def _base():
    rng = np.random.default_rng([SEED, 0])
    u = _haar(rng, _DIM)
    x, col = [], 0
    for i, form in enumerate(_FORMS):
        rank = 2 if form == "two" else 1
        q = u[:, col:col + rank]
        col += rank
        if form == "matrix":
            x.append({"eigenvalue": i, "matrix": [_pairs(row) for row in q @ q.conj().T]})
        else:
            x.append({"eigenvalue": i, "kets": _spanning(rng, q)})
    y = [{"eigenvalue": k, "kets": [[[float(r == k), 0.0] for r in range(_DIM)]]}
         for k in range(_DIM)]
    return {"dim": _DIM, "preselection": _pairs(u[:, 0]), "postselection": _pairs(u[:, 1]),
            "observables": {"X": x, "Y": y}}


def _first_ket(branch):
    return branch["kets"][0]


def _set(path_of, value):
    def edit(branch):
        parent, key = path_of(branch)
        parent[key] = value
    return edit


def _scale_ket(branch):
    branch["kets"][0] = [[1.25 * re, 1.25 * im] for re, im in branch["kets"][0]]


def _dependent(branch):
    branch["kets"][1] = copy.deepcopy(branch["kets"][0])


def _both_forms(branch):
    branch["matrix" if "kets" in branch else "kets"] = [[[0, 0]] * _DIM]


def _not_hermitian(branch):
    branch["matrix"][0][1] = [0.5, 0.25]


def _doubled(branch):
    branch["matrix"] = [[[2 * re, 2 * im] for re, im in row] for row in branch["matrix"]]


#: name: (forms it applies to, edit of the branch, or None to replace it).
_ANY = {"one", "two", "matrix"}
_KETS = {"one", "two"}
BRANCH_FAULTS = {
    "not-an-object": (_ANY, None),
    "unknown-key": (_ANY, _set(lambda b: (b, "extra"), 1)),
    "no-eigenvalue": (_ANY, lambda b: b.pop("eigenvalue")),
    "bool-eigenvalue": (_ANY, _set(lambda b: (b, "eigenvalue"), True)),
    "nan-eigenvalue": (_ANY, _set(lambda b: (b, "eigenvalue"), math.nan)),
    "both-forms": (_ANY, _both_forms),
    "non-unit-ket": (_KETS, _scale_ket),
    "bool-leaf": (_KETS, _set(lambda b: (_first_ket(b)[0], 0), True)),
    "string-leaf": (_KETS, _set(lambda b: (_first_ket(b)[1], 1), "0")),
    "nan-leaf": (_KETS, _set(lambda b: (_first_ket(b)[1], 0), math.nan)),
    "huge-int-leaf": (_KETS, _set(lambda b: (_first_ket(b)[0], 1), 10 ** 400)),
    "three-element-pair": (_KETS, _set(lambda b: (_first_ket(b), 1), [0, 0, 0])),
    "string-pair": (_KETS, _set(lambda b: (_first_ket(b), 1), "00")),
    "short-ket": (_KETS, lambda b: _first_ket(b).pop()),
    "no-kets": (_KETS, _set(lambda b: (b, "kets"), [])),
    "kets-object": (_KETS, _set(lambda b: (b, "kets"), {})),
    "dependent-kets": ({"two"}, _dependent),
    "ragged-matrix": ({"matrix"}, lambda b: b["matrix"][1].pop()),
    "short-matrix": ({"matrix"}, lambda b: b["matrix"].pop()),
    "matrix-string-leaf": ({"matrix"}, _set(lambda b: (b["matrix"][2][0], 0), "1")),
    "matrix-pair-object": ({"matrix"}, _set(lambda b: (b["matrix"][0], 0), {"re": 0})),
    "not-hermitian": ({"matrix"}, _not_hermitian),
    "not-idempotent": ({"matrix"}, _doubled),
}


def _y_labels(doc):
    doc["observables"]["Y"][-1]["eigenvalue"] = 0


def _y_overlap(doc):
    doc["observables"]["Y"][-1]["kets"] = copy.deepcopy(doc["observables"]["Y"][0]["kets"])


def _y_first(edit):
    def edit_first(doc):
        edit(doc)
        observables = doc["observables"]
        doc["observables"] = {"Y": observables["Y"], "X": observables["X"]}
    return edit_first


def _pre_non_unit(doc):
    doc["preselection"] = [[2 * re, 2 * im] for re, im in doc["preselection"]]


#: The faults that follow each branch fault in a later branch, and each
#: stage fault: two each of the faults found reading the branch, converting
#: its numbers, and validating what they build.
SECOND_FAULTS = ("unknown-key", "kets-object", "string-leaf", "huge-int-leaf",
                 "ragged-matrix", "non-unit-ket", "dependent-kets", "not-idempotent")

#: Faults outside observable X's branches, each at its own stage.
STAGE_FAULTS = {
    "unknown-top-key": lambda d: d.update(extra=1),
    "preselection-non-unit": _pre_non_unit,
    "postselection-short": lambda d: d["postselection"].pop(),
    "Y-repeated-label": _y_labels,
    "Y-overlapping-branches": _y_overlap,
    "Y-too-many-branches": lambda d: d["observables"]["Y"].extend(d["observables"]["Y"][:1]),
    "Y-first-repeated-label": _y_first(_y_labels),
    "Y-first-overlapping-branches": _y_first(_y_overlap),
    "bad-default-observable": lambda d: d.update(default_observable="W"),
}


def _with_branch_fault(doc, name, after=-1) -> int:
    # Puts the fault in the first branch of X after ``after`` that it
    # applies to; returns that branch's index.
    forms, edit = BRANCH_FAULTS[name]
    i = next(k for k, form in enumerate(_FORMS) if k > after and form in forms)
    branches = doc["observables"]["X"]
    if edit is None:
        branches[i] = [branches[i]]
    else:
        edit(branches[i])
    return i


def fault_documents() -> dict[str, str]:
    base = json.dumps(_base())
    texts = {}
    for first in BRANCH_FAULTS:
        for second in SECOND_FAULTS:
            doc = json.loads(base)
            i = _with_branch_fault(doc, first)
            j = _with_branch_fault(doc, second, after=i)
            texts[f"X[{i}] {first} + X[{j}] {second}"] = json.dumps(doc)
    for stage, edit in STAGE_FAULTS.items():
        for name in SECOND_FAULTS:
            doc = json.loads(base)
            edit(doc)
            i = _with_branch_fault(doc, name)
            texts[f"{stage} + X[{i}] {name}"] = json.dumps(doc)
    return texts


def fault_outcome(text: str) -> str:
    try:
        parse_scenario(text)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "parsed"


def test_base_fault_document_is_valid():
    parse_scenario(json.dumps(_base()))


def test_valid_files_match_oracle():
    expected = json.loads(ORACLE.read_text())["valid"]
    texts = valid_documents()
    assert texts.keys() == expected.keys()
    for name, text in texts.items():
        assert _sha(text) == expected[name]["text"], f"{name}: the generated text changed"
        assert valid_outcome(text) == expected[name], name


def test_two_fault_documents_match_oracle():
    expected = json.loads(ORACLE.read_text())["faults"]
    actual = {case: fault_outcome(text) for case, text in fault_documents().items()}
    assert actual.keys() == expected.keys()
    wrong = [f"{case}: {actual[case]!r} != {expected[case]!r}"
             for case in expected if actual[case] != expected[case]]
    assert not wrong, "\n".join(wrong[:10])


if __name__ == "__main__":
    ORACLE.write_text(json.dumps({
        "valid": {name: valid_outcome(text) for name, text in valid_documents().items()},
        "faults": {case: fault_outcome(text) for case, text in fault_documents().items()},
    }, indent=1, sort_keys=True) + "\n")
