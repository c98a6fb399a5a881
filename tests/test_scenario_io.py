import json
import math
import pathlib
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ablkit import scenario_io
from ablkit.abl import PrePostContext, abl_distribution
from ablkit.counterfactual import find_counterexample, mixing_report
from ablkit.errors import ScenarioParseError
from ablkit.linalg import Ket, basis_containing, projector_from_kets
from ablkit.scenario_io import (
    MAX_DIM,
    _bulk_complex,
    counterexample_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_jsonable,
)
from ablkit.scenarios import BUILTIN_NAMES, Scenario, builtin

from conftest import mixed_rank_decomposition
from test_parse_oracle import valid_documents

MINIMAL = """
{
  "dim": 2,
  "preselection": [[1, 0], [0, 0]],
  "postselection": [[0.7071067811865476, 0], [0.7071067811865476, 0]],
  "observables": {
    "X": [
      {"eigenvalue": 1, "kets": [[[0.7071067811865476, 0], [0.7071067811865476, 0]]]},
      {"eigenvalue": -1, "kets": [[[0.7071067811865476, 0], [-0.7071067811865476, 0]]]}
    ]
  }
}
"""


def test_parse_minimal_scenario():
    s = parse_scenario(MINIMAL)
    assert s.dim == 2
    assert list(s.observables) == ["X"]
    assert s.default_observable == "X"  # first named when unspecified
    np.testing.assert_allclose(abl_distribution(s.context, s.observables["X"]).probabilities,
                               [1.0, 0.0], atol=1e-10)


def test_round_trip_is_byte_identical_for_builtins():
    for name in BUILTIN_NAMES:
        text = dump_scenario(builtin(name))
        assert dump_scenario(parse_scenario(text)) == text


def test_kets_and_matrix_branch_forms_agree():
    s_kets = parse_scenario(MINIMAL)
    text = dump_scenario(s_kets)  # emitted in matrix form
    s_matrix = parse_scenario(text)
    for name in s_kets.observables:
        for (_, p1), (_, p2) in zip(s_kets.observables[name], s_matrix.observables[name]):
            np.testing.assert_array_equal(p1.matrix, p2.matrix)


def test_jsonable_uses_exact_floats():
    s = builtin("three-box")
    payload = scenario_to_jsonable(s)
    a = payload["preselection"]
    assert a[0][0] == s.context.preselection.amplitudes[0].real  # no rounding


def _expect_error(text, fragment):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert fragment in str(err.value), str(err.value)


def test_parse_error_invalid_json():
    _expect_error("{", "line 1")


def test_parse_error_missing_keys():
    _expect_error("{}", "missing 'dim'")


def test_parse_error_unknown_top_key():
    _expect_error('{"dim": 2, "preselection": [], "postselection": [], '
                  '"observables": {}, "extra": 1}', "unknown keys ['extra']")


@pytest.mark.parametrize("old, new, key", [
    ('"dim": 2,', '"dim": 2, "dim": 3,', "dim"),
    ('"X": [', '"X": [{"eigenvalue": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}],\n    "X": [',
     "X"),
    ('{"eigenvalue": -1,', '{"eigenvalue": 2, "eigenvalue": -1,', "eigenvalue"),
], ids=["top-level", "observable", "branch"])
def test_parse_error_repeated_key(old, new, key):
    text = MINIMAL.replace(old, new, 1)
    json.loads(text)  # plain json.loads parses it, keeping the last value
    _expect_error(text, f"repeated key {key!r}")


def test_parse_error_bad_dim():
    _expect_error(MINIMAL.replace('"dim": 2', '"dim": 2.5'), "dim")


def test_parse_error_wrong_amplitude_count():
    _expect_error(MINIMAL.replace('"preselection": [[1, 0], [0, 0]]',
                                  '"preselection": [[1, 0]]'),
                  "preselection: expected 2 amplitudes")


def test_parse_error_bad_complex_pair():
    _expect_error(MINIMAL.replace("[[1, 0], [0, 0]]", "[[1], [0, 0]]"),
                  "expected a [re, im] pair")


def test_parse_error_unnormalized_ket():
    _expect_error(MINIMAL.replace('"preselection": [[1, 0], [0, 0]]',
                                  '"preselection": [[1, 0], [1, 0]]'),
                  "preselection")


def test_parse_error_branch_needs_exactly_one_form():
    both = MINIMAL.replace(
        '{"eigenvalue": 1, "kets": [[[0.7071067811865476, 0], [0.7071067811865476, 0]]]}',
        '{"eigenvalue": 1, "kets": [[[0.7071067811865476, 0], [0.7071067811865476, 0]]], '
        '"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}')
    _expect_error(both, "exactly one of 'kets' or 'matrix'")
    neither = MINIMAL.replace(
        '{"eigenvalue": 1, "kets": [[[0.7071067811865476, 0], [0.7071067811865476, 0]]]}',
        '{"eigenvalue": 1}')
    _expect_error(neither, "observables.X[0]")


def test_parse_error_missing_eigenvalue():
    _expect_error(MINIMAL.replace('"eigenvalue": 1,', ''), "missing 'eigenvalue'")


def test_parse_error_non_orthogonal_branches():
    bad = MINIMAL.replace("[[[0.7071067811865476, 0], [-0.7071067811865476, 0]]]",
                          "[[[1, 0], [0, 0]]]")
    _expect_error(bad, "observables.X")


def test_parse_error_bad_default_observable():
    bad = MINIMAL.rstrip().rstrip("}") + ', "default_observable": "Y"}'
    _expect_error(bad, "default_observable")


def test_parse_error_field_path_reaches_into_branches():
    bad = MINIMAL.replace('{"eigenvalue": -1, "kets"', '{"eigenvalue": -1, "surprise": 1, "kets"')
    _expect_error(bad, "observables.X[1]")


def test_parse_error_empty_observables():
    _expect_error('{"dim": 2, "preselection": [[1, 0], [0, 0]], '
                  '"postselection": [[1, 0], [0, 0]], "observables": {}}',
                  "at least one observable")


@pytest.mark.parametrize("key", ["name", "description"])
@pytest.mark.parametrize("literal, type_name", [
    ("null", "NoneType"), ("5", "int"), ('["a"]', "list"), ("true", "bool")])
def test_name_and_description_must_be_strings(key, literal, type_name):
    bad = MINIMAL.replace('"dim": 2,', f'"dim": 2, "{key}": {literal},')
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(bad)
    assert str(err.value) == f"{key}: expected a string, got {type_name}"


@pytest.mark.parametrize("where, message", [
    ("branches", "observables.X: expected at most 2 branches, got 3"),
    ("kets", "observables.X[0].kets: expected at most 2 kets, got 3"),
    ("no kets", "observables.X[0].kets: expected at least one ket"),
    ("matrix 2+4", "observables.X[0].matrix: expected 3 rows, got 2"),
    ("matrix 4+2", "observables.X[0].matrix: expected 3 rows, got 4"),
    ("matrix 2+3", "observables.X[0].matrix: expected 3 rows, got 2"),
])
def test_parse_refuses_impossible_counts_before_reading_entries(where, message):
    # The entries are not even objects or kets: the count comes first.  A
    # matrix split across two branches has rows that read, but each branch
    # has its own count.
    doc = json.loads(MINIMAL)
    if where == "branches":
        doc["observables"]["X"] = [0, 0, 0]
    elif where.startswith("matrix"):
        doc = _kets_doc([np.zeros((int(n), 3)) for n in where.split()[1].split("+")])
    else:
        doc["observables"]["X"][0]["kets"] = [] if where == "no kets" else [0, 0, 0]
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(json.dumps(doc))
    assert str(err.value) == message


@pytest.mark.parametrize("form", ["kets", "matrix"])
def test_a_list_longer_than_dim_is_refused_before_it_is_converted(monkeypatch, form):
    shapes = []

    def bulk_complex(items, shape):
        shapes.append(shape)
        return original(items, shape)

    original = scenario_io._bulk_complex
    monkeypatch.setattr(scenario_io, "_bulk_complex", bulk_complex)
    doc = json.loads(MINIMAL)
    doc["observables"]["X"][0] = {"eigenvalue": 1, form: [[[1, 0], [0, 0]]] * 3}
    message = "expected at most 2 kets, got 3" if form == "kets" else "expected 2 rows, got 3"
    assert _parse_error(doc) == f"observables.X[0].{form}: {message}"
    assert shapes == [(2,), (2,)]  # the two selections


@pytest.mark.parametrize("branch", [0, 1])
@pytest.mark.parametrize("node", [1, None, True, 2.5, "matrix", "kets", ["matrix"], []],
                         ids=json.dumps)
def test_parse_error_branch_that_is_not_an_object(branch, node):
    doc = json.loads(MINIMAL)
    doc["observables"]["X"][branch] = node
    assert _parse_error(doc) == (f"observables.X[{branch}]: expected an object, "
                                 f"got {type(node).__name__}")


def test_parse_error_infinite_dim():
    # 1e999 reads as inf; int(inf) would raise OverflowError.
    _expect_error('{"dim": 1e999, "preselection": [], "postselection": [], '
                  '"observables": {}}', "dim: expected a finite number")


def test_parse_error_nan_eigenvalue():
    # json.loads accepts the NaN literal; emitting it back is not JSON.
    _expect_error(MINIMAL.replace('"eigenvalue": -1', '"eigenvalue": NaN'),
                  "observables.X[1].eigenvalue: expected a finite number")


def test_parse_error_non_finite_amplitude():
    _expect_error(MINIMAL.replace('"preselection": [[1, 0], [0, 0]]',
                                  '"preselection": [[1, 0], [0, Infinity]]'),
                  "preselection[1][1]: expected a finite number")
    _expect_error(MINIMAL.replace('"preselection": [[1, 0], [0, 0]]',
                                  '"preselection": [[1, 0], [0, 1' + '0' * 400 + ']]'),
                  "preselection[1][1]: expected a finite number")


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "box.json"
    path.write_text(dump_scenario(builtin("three-box")), encoding="utf-8")
    s = load_scenario(path)
    assert s.dim == 3
    assert set(s.observables) == {"A", "B", "C", "Cdprime", "Cprime"}


def test_counterexample_scenario_round_trip_replays_exactly():
    example = find_counterexample(3, seed=5, gap_min=0.05)
    assert example is not None
    scenario = counterexample_scenario(example)
    assert set(scenario.observables) == {"C", "B"}
    assert scenario.default_observable == "C"

    reloaded = parse_scenario(dump_scenario(scenario))
    replay = mixing_report(reloaded.context.preselection, reloaded.observables["B"],
                           reloaded.observables["C"], example.branch)
    # matrices and amplitudes survive JSON exactly, so the gap is bitwise equal
    assert replay.ss_gap == example.report.ss_gap
    assert replay == example.report


def test_counterexample_postselection_matches_first_final_branch():
    for dim, seed in ((2, 11), (3, 0), (4, 11), (5, 2), (6, 7)):
        example = find_counterexample(dim, seed=seed, gap_min=0.05)
        b = counterexample_scenario(example).context.postselection.amplitudes
        p0 = example.final_basis.matrix(0)
        np.testing.assert_allclose(np.outer(b, b.conj()), p0, atol=1e-12)
        # the phase convention: the largest-magnitude amplitude is real, to
        # rounding, and positive
        lead = b[np.abs(b).argmax()]
        assert abs(lead.imag) <= 1e-15 * lead.real


def test_dump_is_canonical_json():
    text = dump_scenario(builtin("identity-A"))
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text


# --- canonical emission against the json encoder -------------------------

def _jsonable_oracle(scenario):
    # The per-element form scenario_to_jsonable had before emission worked on
    # whole float arrays; dump_scenario must print exactly what the json
    # encoder prints for it.
    def vector(v):
        return [[float(z.real), float(z.imag)] for z in v]

    return {
        "dim": scenario.dim,
        "name": scenario.name,
        "description": scenario.description,
        "preselection": vector(scenario.context.preselection.amplitudes),
        "postselection": vector(scenario.context.postselection.amplitudes),
        "observables": {
            name: [{"eigenvalue": e, "matrix": [vector(row) for row in p.matrix]} for e, p in obs]
            for name, obs in scenario.observables.items()
        },
        "default_observable": scenario.default_observable,
    }


def _assert_emission_matches_oracle(scenario):
    oracle = _jsonable_oracle(scenario)
    assert dump_scenario(scenario) == json.dumps(oracle, sort_keys=True, indent=2) + "\n"
    # repr tells -0.0 from 0.0 and a numpy scalar from a float
    assert repr(scenario_to_jsonable(scenario)) == repr(oracle)


@pytest.mark.parametrize("name", list(BUILTIN_NAMES) + ["spin:0", "spin:0.7", "spin:-2.5"])
def test_emission_matches_json_encoder_on_builtins(name):
    _assert_emission_matches_oracle(builtin(name))


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(-10.0, 10.0))
def test_emission_matches_json_encoder_on_spin(theta):
    _assert_emission_matches_oracle(builtin(f"spin:{theta!r}"))


def _random_scenario(seed, ranks, eigenvalues, name, description):
    observable = mixed_rank_decomposition(seed, ranks, eigenvalues)
    rng = np.random.default_rng(seed + 1)
    pre, post = (Ket.normalized(rng.standard_normal(observable.dim)
                                + 1j * rng.standard_normal(observable.dim))
                 for _ in range(2))
    return Scenario(name=name, description=description, context=PrePostContext(pre, post),
                    observables={"O": observable, "B": basis_containing(post)},
                    default_observable="O")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ranks=st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda r: sum(r) <= 8),
       data=st.data(), name=st.text(), description=st.text())
def test_emission_matches_json_encoder_on_random_scenarios(seed, ranks, data, name, description):
    eigenvalues = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=len(ranks),
                                     max_size=len(ranks), unique=True))
    _assert_emission_matches_oracle(_random_scenario(seed, ranks, eigenvalues, name, description))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6))
@example(values=[-0.0, 5e-324, 1e300, -1e300, -5e-324, 0.0])
@example(values=[1e16, 1e-5, 1e-4, 123456789012345678.0, 0.1, -0.0])
def test_emission_matches_json_encoder_on_any_finite_amplitude(values):
    # The renderer must print any finite float as the encoder does, not only
    # normalized amplitudes, so the preselection's array is overwritten here
    # behind Ket's validation.
    scenario = _random_scenario(3, [1, 2], [0, 1], "extremes", "")
    amplitudes = np.array(values[0::2]) + 1j * np.array(values[1::2])
    object.__setattr__(scenario.context.preselection, "amplitudes", amplitudes)
    _assert_emission_matches_oracle(scenario)


def test_emission_of_non_ascii_and_empty_text():
    scenario = _random_scenario(5, [2, 1], [7, -3], "Ψ-box ✓ é\U0001f600", "")
    _assert_emission_matches_oracle(scenario)
    assert '"description": "",' in dump_scenario(scenario)


# --- bulk number parsing keeps the per-field errors ----------------------

def _matrix_form():
    return {"dim": 2, "preselection": [[1, 0], [0, 0]], "postselection": [[0.6, 0], [0.8, 0]],
            "observables": {"Z": [
                {"eigenvalue": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                {"eigenvalue": -1, "kets": [[[0, 0], [1, 0]]]}]}}


def _leaf_parent(doc, where):
    # The [re, im] pair list a case edits: the preselection, row 1 of the
    # first branch's matrix, or the second branch's ket.
    if where == "preselection":
        return doc["preselection"]
    if where == "matrix":
        return doc["observables"]["Z"][0]["matrix"][1]
    return doc["observables"]["Z"][1]["kets"][0]


_FIELD = {"preselection": "preselection[1][1]",
          "matrix": "observables.Z[0].matrix[1][0][1]",
          "ket": "observables.Z[1].kets[0][1][0]"}


@pytest.mark.parametrize("where", ["preselection", "matrix", "ket"])
@pytest.mark.parametrize("literal, message", [
    ("true", "expected a number, got bool"),
    ('"1"', "expected a number, got str"),
    ("null", "expected a number, got NoneType"),
    ("[0]", "expected a number, got list"),
    ("1e999", "expected a finite number, got inf"),
])
def test_parse_error_text_for_bad_numbers(where, literal, message):
    doc = _matrix_form()
    pairs = _leaf_parent(doc, where)
    if where == "ket":
        pairs[1][0] = "@"
    else:
        pairs[1 if where == "preselection" else 0][1] = "@"
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(json.dumps(doc).replace('"@"', literal))
    assert str(err.value) == f"{_FIELD[where]}: {message}"


@pytest.mark.parametrize("where, message", [
    ("preselection", "preselection[0]: expected a [re, im] pair, got 3 elements"),
    ("matrix", "observables.Z[0].matrix[1][0]: expected a [re, im] pair, got 3 elements"),
    ("ket", "observables.Z[1].kets[0][0]: expected a [re, im] pair, got 3 elements"),
])
def test_parse_error_text_for_three_element_pair(where, message):
    doc = _matrix_form()
    _leaf_parent(doc, where)[0] = [0, 0, 0]
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(json.dumps(doc))
    assert str(err.value) == message


@pytest.mark.parametrize("where, message", [
    ("preselection", "preselection: expected 2 amplitudes, got 1"),
    ("matrix", "observables.Z[0].matrix[1]: expected 2 amplitudes, got 1"),
    ("ket", "observables.Z[1].kets[0]: expected 2 amplitudes, got 1"),
])
def test_parse_error_text_for_short_row(where, message):
    doc = _matrix_form()
    del _leaf_parent(doc, where)[1]
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(json.dumps(doc))
    assert str(err.value) == message


@pytest.mark.parametrize("where, message", [
    ("preselection", "preselection: ket norm^2 = 1.329227995784916e+36, expected 1 within 1e-09"),
    ("matrix", "observables.Z[0]: projector matrix is not Hermitian"),
    ("ket", "observables.Z[1].kets[0]: ket norm^2 = 1.329227995784916e+36, "
            "expected 1 within 1e-09"),
])
def test_large_integer_amplitudes_convert_as_float_does(where, message):
    # 2**60 + 1 rounds to 2**60 as float() rounds it; the validation errors
    # then print the same numbers as the element-by-element conversion did.
    doc = _matrix_form()
    pairs = _leaf_parent(doc, where)
    if where == "ket":
        pairs[1][0] = 2 ** 60 + 1
    else:
        pairs[1 if where == "preselection" else 0][1] = 2 ** 60 + 1
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(json.dumps(doc))
    assert str(err.value) == message


def test_bulk_parse_keeps_each_number_bit_for_bit():
    doc = _matrix_form()
    doc["preselection"] = [[1, -0.0], [-0.0, 5e-324]]
    scenario = parse_scenario(json.dumps(doc))
    expected = np.array([complex(1.0, -0.0), complex(-0.0, 5e-324)])
    assert scenario.context.preselection.amplitudes.tobytes() == expected.tobytes()
    matrix = doc["observables"]["Z"][0]["matrix"]
    expected = np.array([[complex(float(re), float(im)) for re, im in row] for row in matrix])
    assert scenario.observables["Z"].matrix(0).tobytes() == expected.tobytes()


def _nested_bulk_complex(items, shape):
    # The converter as it was before the flat conversion: numpy on the
    # nested lists, then a separate scan of the leaf types.
    try:
        pairs = np.array(items, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if pairs.shape != shape + (2,) or not np.isfinite(pairs).all():
        return None
    leaves = items
    for _ in shape:
        leaves = chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= {int, float}:
        return None
    return pairs.view(np.complex128).reshape(shape)


_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-3, 3),
                     st.sampled_from([-0.0, 5e-324, 1e-320, 2 ** 60 + 1, 2 ** 70 + 1, 10 ** 308]))
#: What JSON can put where a number belongs and the schema refuses.
_BAD_LEAVES = st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 309, -(10 ** 400), True,
                               False, "1", "1.5", "nan", None, {}, [1.0, 0.0], []])
#: What JSON can put where a list belongs and the schema refuses.
_BAD_LISTS = st.sampled_from(["ab", "12", "", {}, {"re": 1, "im": 0}, 1.0, 2, True, None])


@st.composite
def _nested(draw, shape):
    # Lists nested as ``shape`` + (2,) around numbers, with here and there a
    # leaf or a list the schema refuses, or a list one item short or long.
    sizes = shape + (2,)

    def node(level):
        if level == len(sizes):
            return draw(_NUMBERS if draw(st.integers(0, 29)) else _BAD_LEAVES)
        if not draw(st.integers(0, 29)):
            return draw(_BAD_LISTS)
        size = sizes[level]
        if not draw(st.integers(0, 29)):
            size = draw(st.integers(max(size - 1, 0), size + 1))
        return [node(level + 1) for _ in range(size)]
    return node(0)


@settings(max_examples=300, deadline=None)
@given(shape=st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple), data=st.data())
@example(shape=(2,), data=None)
def test_flat_conversion_matches_the_nested_one(shape, data):
    items = [[1, 0.5], [True, 0]] if data is None else data.draw(_nested(shape))
    expected = _nested_bulk_complex(items, shape)
    actual = _bulk_complex(items, shape)
    assert (actual is None) == (expected is None)
    if expected is not None:
        assert actual.shape == shape
        assert actual.tobytes() == expected.tobytes()


def _valid_texts():
    oracle = pathlib.Path(__file__).with_name("cli_oracle")
    for name in ("dim-12.json", "three-box.json", "zeros.json"):
        yield (oracle / name).read_text()
    yield from (dump_scenario(builtin(name)) for name in BUILTIN_NAMES)
    yield from valid_documents().values()


def test_valid_files_are_never_walked_branch_by_branch(monkeypatch):
    # Reading an observable's fields one by one is only there to name an
    # error: a valid file that took that path would parse the same, only
    # slower.  Valid files read only the two selections field by field.
    read = []

    def array(node, path, shape):
        read.append(path)
        return original(node, path, shape)

    original = scenario_io._array
    monkeypatch.setattr(scenario_io, "_array", array)
    for text in _valid_texts():
        parse_scenario(text)
    assert set(read) == {"preselection", "postselection"}
    # A fault in branch 1 has branch 0 read field by field.
    doc = json.loads(MINIMAL)
    doc["observables"]["X"][1]["kets"][0][1] = [0.5]
    _expect_error(json.dumps(doc), "observables.X[1].kets[0][1]: expected a [re, im] pair")
    assert "observables.X[0].kets[0]" in read


@pytest.mark.parametrize("dim", [MAX_DIM + 1, 10 ** 12])
def test_parse_refuses_a_dim_above_the_cap(dim):
    # The amplitude lists are not even looked at: the cap comes first.
    _expect_error(json.dumps({"dim": dim, "preselection": [], "postselection": [],
                              "observables": {}}),
                  f"dim: {dim} exceeds the largest supported dimension {MAX_DIM}")


def test_parse_accepts_the_largest_dim():
    unit = [[1, 0]] + [[0, 0]] * (MAX_DIM - 1)
    identity = [[[float(r == c), 0] for c in range(MAX_DIM)] for r in range(MAX_DIM)]
    scenario = parse_scenario(json.dumps({
        "dim": MAX_DIM, "preselection": unit, "postselection": unit,
        "observables": {"I": [{"eigenvalue": 1, "matrix": identity}]}}))
    assert scenario.dim == MAX_DIM


def test_emission_refuses_a_dim_above_the_cap():
    from ablkit.errors import ValidationError
    from ablkit.linalg import ObservableDecomposition

    dim = MAX_DIM + 1
    kets = [Ket(v) for v in np.eye(dim, dtype=complex)]
    scenario = Scenario("big", "", PrePostContext(kets[0], kets[0]),
                        {"Z": ObservableDecomposition.from_eigenbasis(kets)}, "Z")
    message = f"dim {dim} exceeds the largest supported dimension {MAX_DIM}"
    with pytest.raises(ValidationError, match=message):
        dump_scenario(scenario)
    with pytest.raises(ValidationError, match=message):
        scenario_to_jsonable(scenario)


# --- extreme finite amplitudes reach the validators cleanly -------------

_EXTREMES = [1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1e154, 1e-154,
             1e-320, 5e-324]


def _edited_pairs(doc):
    # The [re, im] pairs the cases edit: the first amplitude of each
    # selection, and in each branch the first amplitude of its first ket or
    # the first two entries of its matrix's first row (one on the diagonal).
    yield doc["preselection"][0]
    yield doc["postselection"][0]
    for branches in doc["observables"].values():
        for branch in branches:
            if "kets" in branch:
                yield branch["kets"][0][0]
            else:
                yield from branch["matrix"][0][:2]


@pytest.mark.parametrize("name", ["three-box.json", "zeros.json"])
def test_an_extreme_finite_amplitude_parses_or_raises_a_parse_error(name):
    # Under the suite's warnings-as-errors filter: an imaginary 1e308 on a
    # branch matrix's diagonal overflowed the Hermiticity residue with
    # numpy's RuntimeWarning.
    doc = json.loads((pathlib.Path(__file__).with_name("cli_oracle") / name).read_text())
    for pair in _edited_pairs(doc):
        for part in (0, 1):
            kept = pair[part]
            for value in _EXTREMES:
                pair[part] = value
                try:
                    parse_scenario(json.dumps(doc))
                except ScenarioParseError:
                    pass
            pair[part] = kept


# --- one-ket branches: errors and matrices ---------------------------------
# The messages below were recorded before one-ket branches were parsed as a
# rank-1 basis, when each went through projector_from_kets and the
# observable through the matrix-path checks.

def _pairs(v):
    return [[float(z.real), float(z.imag)] for z in v]


def _unit(v):
    return v / np.linalg.norm(v)


_E = np.eye(4)


def _kets_doc(branches, eigenvalues=None):
    # One branch per entry of ``branches``: a list of kets, or a matrix.
    dim = len(_E[0]) if not branches else len(branches[0][0])
    eigenvalues = list(range(len(branches))) if eigenvalues is None else eigenvalues
    nodes = [{"eigenvalue": e, "kets": [_pairs(k) for k in b]} if isinstance(b, list)
             else {"eigenvalue": e, "matrix": [_pairs(row) for row in b]}
             for e, b in zip(eigenvalues, branches)]
    unit = np.eye(dim)
    return {"dim": dim, "preselection": _pairs(unit[0]), "postselection": _pairs(unit[-1]),
            "observables": {"X": nodes}}


def _parse_error(doc):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(json.dumps(doc))
    return str(err.value)


@pytest.mark.parametrize("branches, eigenvalues, message", [
    ([[_E[0]], [_E[1]], [_E[2]]], None, "branch projectors do not sum to the identity"),
    # Completeness is checked before orthogonality.
    ([[_E[0]], [_unit(_E[0] + _E[1])], [_E[2]], [_E[3]]], None,
     "branch projectors do not sum to the identity"),
    # Both residues are 2e-10: inside the completeness bound (4e-10), twice
    # the orthogonality bound; of the two bad pairs the row-major first is
    # named.
    ([[_unit(_E[0] + 2e-10 * _E[3])], [_unit(_E[1] + 2e-10 * _E[2])], [_E[2]], [_E[3]]], None,
     "branch projectors 0 and 3 are not orthogonal"),
    ([[_E[0]], [_E[1]], [_E[2]], [_E[3]]], [1, 2, 1, 3],
     "eigenvalue labels must be pairwise distinct, got [1.0, 2.0, 1.0, 3.0]"),
    # Labels are checked before completeness.
    ([[_E[0]], [_E[1]], [_E[2]]], [1, 1, 2],
     "eigenvalue labels must be pairwise distinct, got [1.0, 1.0, 2.0]"),
    ([], None, "a decomposition needs at least one branch"),
    # A mixed observable: a one-ket branch, a matrix branch, a one-ket branch.
    ([[_unit(_E[0] + 2e-10 * _E[3])], np.diag([0.0, 1.0, 1.0, 0.0]), [_E[3]]], None,
     "branch projectors 0 and 2 are not orthogonal"),
    ([[_E[0]], np.diag([0.0, 1.0, 0.0, 0.0]), [_E[3]]], None,
     "branch projectors do not sum to the identity"),
])
def test_one_ket_observable_error_text(branches, eigenvalues, message):
    assert _parse_error(_kets_doc(branches, eigenvalues)) == f"observables.X: {message}"


def test_one_ket_observable_with_one_invalid_ket():
    doc = _kets_doc([[_E[0]], [_E[1]], [_E[2]], [_E[3]]], [1, 2, 1, 3])
    doc["observables"]["X"][2]["kets"][0][1][0] = 0.5
    # The ket is checked when its branch is read, before the labels.
    assert _parse_error(doc) == "observables.X[2].kets[0]: ket norm^2 = 1.25, expected 1 within 1e-09"
    doc["observables"]["X"][2]["kets"][0][1] = [0.5]
    assert _parse_error(doc) == ("observables.X[2].kets[0][1]: "
                                 "expected a [re, im] pair, got 1 elements")


def _ket_branches_match_projector_from_kets(scenario, doc):
    for name, nodes in doc["observables"].items():
        for node, (_, projector) in zip(nodes, scenario.observables[name]):
            if "kets" in node:
                kets = [Ket(np.array([complex(re, im) for re, im in k])) for k in node["kets"]]
                expected = projector_from_kets(kets)
                assert projector.matrix.tobytes() == expected.matrix.tobytes()
                assert projector.rank == expected.rank
                assert not projector.matrix.flags.writeable


def test_one_ket_observable_just_inside_the_orthogonality_bound():
    doc = _kets_doc([[_unit(_E[0] + 5e-11 * _E[3])], [_unit(_E[1] + 5e-11 * _E[2])],
                     [_E[2]], [_E[3]]])
    _ket_branches_match_projector_from_kets(parse_scenario(json.dumps(doc)), doc)


def test_one_ket_branches_hold_the_signed_zeros_of_projector_from_kets():
    # |q><q| of a ket with exact zeros holds -0.0 entries; the matrix is the
    # zero-initialised sum projector_from_kets builds, where they read +0.0.
    text = (pathlib.Path(__file__).with_name("cli_oracle") / "zeros.json").read_text()
    doc = json.loads(text)
    scenario = parse_scenario(text)
    _ket_branches_match_projector_from_kets(scenario, doc)
    matrix = scenario.observables["B"].stack.view(np.float64)
    assert not np.signbit(matrix[matrix == 0.0]).any()


@pytest.mark.parametrize("residual, accepted", [(2e-8, True), (5e-9, False)])
def test_near_dependent_kets_against_span_tol(residual, accepted):
    # Two kets of one branch whose Gram-Schmidt residual is ``residual``,
    # just above and below SPAN_TOL = 1e-8.
    near = _unit(_E[0, :3] + residual * _E[1, :3])
    doc = _kets_doc([[_E[0, :3], near], [_E[2, :3]]])
    if accepted:
        observable = parse_scenario(json.dumps(doc)).observables["X"]
        assert observable.projector(0).rank == 2
        np.testing.assert_array_equal(observable.matrix(0), np.diag([1.0, 1.0, 0.0]))
    else:
        assert _parse_error(doc) == ("observables.X[0]: vector 1 is linearly dependent on "
                                     f"its predecessors (residual norm {residual:.3e})")


@pytest.mark.parametrize("r", [2e-8, 5e-8, 1e-7])
def test_near_dependent_kets_in_a_generic_basis(r):
    # The branch's kets are q0 and normalize(q0 + r q1) for a seeded complex
    # QR basis q; one Gram-Schmidt pass had the branch refused as "projector
    # matrix is not idempotent".  The second branch is the complement of the
    # span those float kets define, which differs from span(q0, q1) by about
    # eps / r, so it is given as a matrix.
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    kets = [q[:, 0], _unit(q[:, 0] + r * q[:, 1])]
    span = projector_from_kets([Ket(k) for k in kets])
    doc = _kets_doc([kets, np.eye(3) - span.matrix])
    scenario = parse_scenario(json.dumps(doc))
    assert [p.rank for _, p in scenario.observables["X"]] == [2, 1]
    _ket_branches_match_projector_from_kets(scenario, doc)


# --- emission of repeated, signed and extreme floats ----------------------

#: Floats whose text tests the renderer: both zeros, x beside -x, the
#: smallest subnormal and normal, and both sides of repr's switches to
#: exponent form (below 1e-4 and from 1e16 on).
_SPECIAL = [0.0, -0.0, 0.36, -0.36, 0.6400000000000001, -0.6400000000000001, 5e-324, -5e-324,
            2.2250738585072014e-308, -2.2250738585072014e-308, 1e-05, -1e-05,
            9.999999999999999e-05, 0.0001, -0.0001, 1e16, -1e16, 9999999999999998.0,
            1.0000000000000002e16, 1e300, -1.7976931348623157e308]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL),
                    st.floats(allow_nan=False, allow_infinity=False))


def _with_arrays(dim, vector, matrix):
    # A dim-``dim`` scenario whose preselection amplitudes (a (dim, 2) float
    # view) and first branch matrix (dim, dim, 2), in the observable's
    # stack, are replaced behind the validation by the given floats.
    scenario = _random_scenario(7, [1] * dim, list(range(dim)), "arrays", "")
    object.__setattr__(scenario.context.preselection, "amplitudes",
                       np.array(vector, dtype=np.float64).view(np.complex128))
    observable = scenario.observables["O"]
    stack = observable.stack.copy()
    stack[0] = np.array(matrix, dtype=np.float64).view(np.complex128).reshape(dim, dim)
    object.__setattr__(observable, "stack", stack)
    return scenario


def test_emission_of_signed_zeros_subnormals_and_exponent_switches():
    values = _SPECIAL + [-v for v in _SPECIAL] + [0.1, 0.1, -0.1]
    dim = 5
    vector = values[:2 * dim]
    matrix = (values * 2)[:2 * dim * dim]
    scenario = _with_arrays(dim, vector, matrix)
    _assert_emission_matches_oracle(scenario)
    text = dump_scenario(scenario)
    for literal in ("-0.0", "5e-324", "-5e-324", "1e-05", "-1e-05", "0.0001", "1e+16", "-1e+16",
                    "9999999999999998.0", "2.2250738585072014e-308"):
        assert f" {literal},\n" in text or f" {literal}\n" in text, literal


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 4), data=st.data())
def test_emission_matches_json_encoder_on_any_float_arrays(dim, data):
    vector = data.draw(st.lists(_FLOATS, min_size=2 * dim, max_size=2 * dim))
    matrix = data.draw(st.lists(_FLOATS, min_size=2 * dim * dim, max_size=2 * dim * dim))
    _assert_emission_matches_oracle(_with_arrays(dim, vector, matrix))


def _haar_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _generated_doc(rng, dim):
    # Shaped like the scenario-cli benchmark's files: C has six branches,
    # alternately skewed spanning kets and projector matrices, and B one
    # ket per branch.
    u, v = _haar_unitary(rng, dim), _haar_unitary(rng, dim)
    ranks = [dim // 6 + (i < dim % 6) for i in range(6)]
    c_nodes, col = [], 0
    for i, rank in enumerate(ranks):
        q = u[:, col:col + rank]
        col += rank
        if i % 2 == 0:
            skew = np.eye(rank) + 0.5 * np.triu(rng.standard_normal((rank, rank))
                                                + 1j * rng.standard_normal((rank, rank)), 1)
            kets = q @ skew
            kets = kets / np.linalg.norm(kets, axis=0)
            c_nodes.append({"eigenvalue": i + 1, "kets": [_pairs(k) for k in kets.T]})
        else:
            c_nodes.append({"eigenvalue": i + 1, "matrix": [_pairs(row) for row in q @ q.conj().T]})
    return {"dim": dim, "name": f"generated-{dim}", "description": "",
            "preselection": _pairs(_unit(u[:, 0] + v[:, 0])), "postselection": _pairs(v[:, 1]),
            "observables": {"C": c_nodes,
                            "B": [{"eigenvalue": k, "kets": [_pairs(v[:, k])]} for k in range(dim)]},
            "default_observable": "C"}


@pytest.mark.parametrize("dim", range(6, 25, 2))
def test_generated_scenarios_parse_and_emit_exactly(dim):
    doc = _generated_doc(np.random.default_rng([2024, dim]), dim)
    scenario = parse_scenario(json.dumps(doc, indent=1))
    _ket_branches_match_projector_from_kets(scenario, doc)
    _assert_emission_matches_oracle(scenario)
    text = dump_scenario(scenario)
    assert dump_scenario(parse_scenario(text)) == text
