import json
import math

import numpy as np
import pytest

import ablkit.cli
import ablkit.simulate
from ablkit.abl import abl_distribution
from ablkit.cli import main
from ablkit.counterfactual import mixing_report
from ablkit.scenario_io import dump_scenario, parse_scenario
from ablkit.scenarios import builtin


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_abl_human_output(capsys):
    code, out, err = run(capsys, "abl", "--builtin", "three-box")
    assert code == 0
    assert "abl 0.333333333333" in out
    assert "denominator: 0.333333333333" in out


def test_abl_json_matches_library_exactly(capsys):
    payload = run_json(capsys, "abl", "--builtin", "three-box", "--json")
    s = builtin("three-box")
    dist = abl_distribution(s.context, s.observables["C"])
    assert payload["abl"] == [float(p) for p in dist.probabilities]
    assert payload["denominator"] == dist.denominator
    assert payload["eigenvalues"] == [1.0, 2.0, 3.0]
    assert payload["observable"] == "C"


def test_abl_json_round_trips_floats(capsys):
    payload = run_json(capsys, "abl", "--builtin", "spin-pi3", "--json")
    rewritten = json.loads(json.dumps(payload))
    assert rewritten == payload
    assert payload["abl"][0] == 0.9


def test_abl_observable_flag(capsys):
    payload = run_json(capsys, "abl", "--builtin", "three-box", "--observable", "Cprime",
                       "--json")
    assert payload["abl"] == [1.0, 0.0]
    payload = run_json(capsys, "abl", "--builtin", "three-box", "--observable", "Cdprime",
                       "--json")
    assert payload["abl"] == [0.0, 1.0]


def test_consistency_json(capsys):
    payload = run_json(capsys, "consistency", "--builtin", "three-box", "--json")
    assert payload["consistent"] is False
    assert payload["max_violation"] == pytest.approx(1 / 9, abs=1e-10)
    assert len(payload["decoherence"]) == 3
    assert payload["disturbance"]["undisturbed"] == pytest.approx(1 / 9, abs=1e-10)
    assert payload["disturbance"]["disturbed"] == pytest.approx(1 / 3, abs=1e-10)
    assert payload["disturbance"]["holds"] is False


def test_consistency_consistent_observable(capsys):
    payload = run_json(capsys, "consistency", "--builtin", "three-box",
                       "--observable", "Cprime", "--json")
    assert payload["consistent"] is True
    assert payload["disturbance"]["holds"] is True


def test_consistency_tolerance_flag(capsys):
    payload = run_json(capsys, "consistency", "--builtin", "three-box",
                       "--tolerance", "0.2", "--json")
    assert payload["consistent"] is True  # 1/9 violation passes a 0.2 bar
    assert payload["tolerance"] == 0.2


def test_consistency_criterion_flag(capsys, tmp_path):
    # purely imaginary off-diagonal: medium fails, weak passes
    irt = 1 / math.sqrt(2)
    scenario = {
        "dim": 2,
        "preselection": [[irt, 0], [irt, 0]],
        "postselection": [[irt, 0], [0, irt]],
        "observables": {"Z": [
            {"eigenvalue": 1, "kets": [[[1, 0], [0, 0]]]},
            {"eigenvalue": -1, "kets": [[[0, 0], [1, 0]]]},
        ]},
    }
    path = tmp_path / "imag.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    medium = run_json(capsys, "consistency", "--scenario", str(path), "--json")
    weak = run_json(capsys, "consistency", "--scenario", str(path),
                    "--criterion", "weak", "--json")
    assert medium["consistent"] is False
    assert medium["max_violation"] == pytest.approx(0.25, abs=1e-10)
    assert weak["consistent"] is True


def test_consistency_coarse_grainings(capsys):
    payload = run_json(capsys, "consistency", "--builtin", "three-box",
                       "--coarse-grainings", "--json")
    entries = payload["coarse_grainings"]
    assert len(entries) == 5
    by_blocks = {tuple(tuple(b) for b in e["blocks"]): e for e in entries}
    assert by_blocks[((1.0, 2.0, 3.0),)]["consistent"] is True
    assert by_blocks[((1.0,), (2.0,), (3.0,))]["consistent"] is False
    assert by_blocks[((1.0,), (2.0, 3.0))]["consistent"] is True
    assert by_blocks[((1.0, 2.0), (3.0,))]["consistent"] is False
    assert by_blocks[((1.0, 2.0), (3.0,))]["max_violation"] == pytest.approx(2 / 9, abs=1e-10)


def test_simulate_json_deterministic(capsys):
    args = ("simulate", "--builtin", "three-box", "--trials", "4000", "--seed", "42", "--json")
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    assert first == second
    assert first["trials"] == 4000
    branches = first["branches"]
    assert len(branches) == 3
    for b in branches:
        assert abs(b["z"]) <= 4.0
        assert b["abl"] == pytest.approx(1 / 3, abs=1e-10)


def test_simulate_workers_flag_is_bit_stable(capsys):
    base = run_json(capsys, "simulate", "--builtin", "three-box", "--trials", "3001",
                    "--seed", "8", "--json")
    multi = run_json(capsys, "simulate", "--builtin", "three-box", "--trials", "3001",
                     "--seed", "8", "--workers", "4", "--json")
    assert base["branches"] == multi["branches"]
    assert base["final_probability"]["estimate"] == multi["final_probability"]["estimate"]


def _count_substreams(monkeypatch):
    # The simulator draws trials in index ranges through substream_uniforms;
    # record every trial index each call covers.
    drawn = []
    original = ablkit.simulate.substream_uniforms

    def counted(seed, start, stop, k):
        drawn.extend(range(start, stop))
        return original(seed, start, stop, k)

    monkeypatch.setattr(ablkit.simulate, "substream_uniforms", counted)
    return drawn


def test_simulate_runs_one_ensemble(capsys, monkeypatch):
    drawn = _count_substreams(monkeypatch)
    payload = run_json(capsys, "simulate", "--builtin", "three-box", "--trials", "500", "--json")
    assert drawn == list(range(500))
    assert payload["final_probability"]["estimate"] == payload["postselected"] / 500
    drawn.clear()
    run_json(capsys, "simulate", "--builtin", "three-box", "--trials", "500",
             "--no-intermediate", "--json")
    assert drawn == list(range(500))


def test_simulate_workers_change_nothing(capsys, monkeypatch):
    drawn = _count_substreams(monkeypatch)
    args = ("simulate", "--builtin", "three-box", "--trials", "500", "--seed", "4")
    for extra in ((), ("--json",)):
        one = run(capsys, *args, "--workers", "1", *extra)
        one_order = list(drawn)
        drawn.clear()
        three = run(capsys, *args, "--workers", "3", *extra)
        assert three[0] == one[0] == 0
        assert three[1] == one[1].replace("workers 1", "workers 3").replace(
            '"workers": 1', '"workers": 3')
        assert drawn == one_order == list(range(500))
        drawn.clear()


def test_simulate_no_intermediate(capsys):
    payload = run_json(capsys, "simulate", "--builtin", "three-box", "--no-intermediate",
                       "--trials", "4000", "--seed", "1", "--json")
    assert payload["observable"] is None
    fp = payload["final_probability"]
    assert fp["target_kind"] == "undisturbed"
    assert fp["target"] == pytest.approx(1 / 9, abs=1e-10)
    assert abs(fp["z"]) <= 4.0


def test_simulate_flag_conflict(capsys):
    code, _, err = run(capsys, "simulate", "--builtin", "three-box", "--no-intermediate",
                       "--observable", "C")
    assert code == 1
    assert "mutually exclusive" in err


def test_simulate_human_output(capsys):
    code, out, _ = run(capsys, "simulate", "--builtin", "spin-pi3", "--trials", "2000",
                       "--seed", "3")
    assert code == 0
    assert "abl 0.9" in out
    assert "born 0.75" in out


def test_counterexample_json_replays(capsys):
    payload = run_json(capsys, "counterexample", "--dim", "2", "--seed", "7",
                       "--gap-min", "0.05", "--json")
    assert payload["found"] is True
    scenario = parse_scenario(json.dumps(payload["scenario"]))
    replay = mixing_report(scenario.context.preselection, scenario.observables["B"],
                           scenario.observables["C"], payload["branch"])
    report = payload["report"]
    assert replay.ss_total == report["ss_total"]
    assert replay.ss_gap == report["ss_gap"]
    assert report["ss_gap"] > 0.05


def test_counterexample_not_found_exit_code(capsys):
    code, _, err = run(capsys, "counterexample", "--dim", "2", "--seed", "3",
                       "--gap-min", "1.5", "--max-tries", "20")
    assert code == 2
    assert "no counterexample" in err


def test_counterexample_human_output(capsys):
    code, out, _ = run(capsys, "counterexample", "--dim", "2", "--seed", "7",
                       "--gap-min", "0.05")
    assert code == 0
    assert "counterexample found" in out
    # the emitted scenario parses
    snippet = out[out.index("{"):]
    parse_scenario(snippet)


def test_scenario_validate(capsys, tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(dump_scenario(builtin("three-box")), encoding="utf-8")
    code, out, _ = run(capsys, "scenario", "validate", str(path))
    assert code == 0
    assert out.startswith("ok: three-box")
    canonical = out[out.index("{"):]
    assert canonical == dump_scenario(builtin("three-box"))


def test_scenario_validate_rejects_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2}', encoding="utf-8")
    code, _, err = run(capsys, "scenario", "validate", str(path))
    assert code == 1
    assert "missing" in err


def test_scenario_validate_missing_file(capsys):
    code, _, err = run(capsys, "scenario", "validate", "/no/such/file.json")
    assert code == 1


@pytest.mark.parametrize("text", [
    '{"dim": 1e999, "preselection": [], "postselection": [], "observables": {}}',
    dump_scenario(builtin("three-box")).replace('"eigenvalue": 2.0', '"eigenvalue": NaN'),
], ids=["infinite-dim", "nan-eigenvalue"])
def test_scenario_validate_rejects_non_finite_numbers(capsys, tmp_path, text):
    path = tmp_path / "non-finite.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "scenario", "validate", str(path))
    assert code == 1
    assert out == ""
    assert "expected a finite number" in err


def test_internal_key_error_is_not_hidden_as_exit_1(capsys, monkeypatch):
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(ablkit.cli, "cmd_abl", broken)
    with pytest.raises(KeyError):
        main(["abl", "--builtin", "three-box"])


def test_internal_value_error_is_not_hidden_as_exit_1(capsys, monkeypatch):
    def broken(args):
        raise ValueError("bug")

    monkeypatch.setattr(ablkit.cli, "cmd_abl", broken)
    with pytest.raises(ValueError):
        main(["abl", "--builtin", "three-box"])


@pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
def test_simulate_seed_out_of_range_exit_1(capsys, seed):
    code, out, err = run(capsys, "simulate", "--builtin", "three-box", "--trials", "30",
                         "--seed", seed)
    assert (code, out) == (1, "")
    assert err == f"error: seed must be in [0, 2**128), got {seed}\n"


def test_simulate_trials_beyond_the_index_space_exit_1(capsys, monkeypatch):
    drawn = _count_substreams(monkeypatch)
    code, out, err = run(capsys, "simulate", "--builtin", "three-box",
                         "--trials", str(2 ** 64 + 1))
    assert (code, out, drawn) == (1, "", [])
    assert err == f"error: trials must be at most 2**64 (one substream each), got {2 ** 64 + 1}\n"


@pytest.mark.parametrize("argv, message", [
    (("abl", "--builtin", "spin:x"), "bad spin angle in 'spin:x'"),
    (("abl", "--builtin", "spin:inf"), "spin angle must be finite"),
    (("counterexample", "--gap-min", "-1"), "gap_min must be positive, got -1.0"),
    (("counterexample", "--gap-min", "nan"), "gap_min must be positive, got nan"),
], ids=["spin-angle", "spin-inf", "gap-negative", "gap-nan"])
def test_bad_user_values_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    b'{"dim": ' + b"1" * 5000 + b"}",
], ids=["not-utf8", "integer-past-digit-limit"])
def test_scenario_validate_rejects_undecodable_files(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "scenario", "validate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "abl", "--builtin", "no-such")[0] == 1
    assert run(capsys, "abl", "--builtin", "three-box", "--observable", "Zeta")[0] == 1
    assert run(capsys, "simulate", "--builtin", "three-box", "--trials", "0")[0] == 1
    assert run(capsys, "abl")[0] == 1  # scenario source required
    assert run(capsys)[0] == 1  # subcommand required
    assert run(capsys, "abl", "--builtin", "three-box", "--scenario", "x.json")[0] == 1


def test_domain_errors_exit_2(capsys, tmp_path):
    orthogonal = {
        "dim": 2,
        "preselection": [[1, 0], [0, 0]],
        "postselection": [[0, 0], [1, 0]],
        "observables": {"A": [
            {"eigenvalue": 1, "kets": [[[1, 0], [0, 0]]]},
            {"eigenvalue": 2, "kets": [[[0, 0], [1, 0]]]},
        ]},
    }
    path = tmp_path / "orthogonal.json"
    path.write_text(json.dumps(orthogonal), encoding="utf-8")
    code, _, err = run(capsys, "abl", "--scenario", str(path))
    assert code == 2
    assert "postselection" in err
    code, _, err = run(capsys, "simulate", "--scenario", str(path), "--trials", "50")
    assert code == 2
