import json

import numpy as np
import pytest

from ablkit.abl import abl_distribution
from ablkit.counterfactual import find_counterexample, mixing_report
from ablkit.errors import ScenarioParseError
from ablkit.scenario_io import (
    counterexample_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_jsonable,
)
from ablkit.scenarios import BUILTIN_NAMES, builtin

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
    example = find_counterexample(2, seed=11, gap_min=0.05)
    scenario = counterexample_scenario(example)
    b = scenario.context.postselection
    p0 = example.final_basis.matrix(0)
    np.testing.assert_allclose(np.outer(b.amplitudes, b.amplitudes.conj()), p0, atol=1e-12)


def test_dump_is_canonical_json():
    text = dump_scenario(builtin("identity-A"))
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text
