import hashlib
import json
import math
import pathlib
import sys
import time

import numpy as np
import pytest

import ablkit.cli
import ablkit.counterfactual
import ablkit.simulate
from ablkit.abl import abl_distribution
from ablkit.cli import main
from ablkit.counterfactual import mixing_report
from ablkit.errors import AblkitError
from ablkit.scenario_io import dump_scenario, parse_scenario
from ablkit.scenarios import builtin

from conftest import OVERFLOWING_HERMITIAN


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
    assert payload["joint"] == dist.joints.tolist()
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


@pytest.mark.parametrize("theta, name", [
    ("0", "spin:0"), ("-0.0", "spin:-0"), (repr(math.pi), "spin:3.14159"),
    (repr(2 * math.pi), "spin:6.28319"), ("1e-300", "spin:1e-300"),
])
def test_spin_edge_angles_through_every_scenario_command(capsys, theta, name):
    # Selected along +z on both sides: Sz is certain and Sx an even split,
    # whatever the tilt of Sn.
    source = f"spin:{theta}"
    exact = {"Sz": [1.0, 0.0], "Sx": [0.5, 0.5]}
    for obs in ("Sn", "Sz", "Sx"):
        code, out, err = run(capsys, "abl", "--builtin", source, "--observable", obs)
        assert (code, err) == (0, "") and out.startswith(f"scenario: {name} (dim 2)\n")
        payload = run_json(capsys, "abl", "--builtin", source, "--observable", obs, "--json")
        assert abs(sum(payload["abl"]) - 1.0) <= 1e-12
        consistency = run_json(capsys, "consistency", "--builtin", source, "--observable", obs,
                               "--coarse-grainings", "--json")
        simulated = run_json(capsys, "simulate", "--builtin", source, "--observable", obs,
                             "--trials", "500", "--json")
        if obs in exact:
            assert payload["abl"] == exact[obs]
            assert [b["abl"] for b in simulated["branches"]] == exact[obs]
            assert consistency["consistent"] is (obs == "Sz")
    assert run(capsys, "simulate", "--builtin", source, "--no-intermediate",
               "--trials", "500")[0] == 0
    sz = run_json(capsys, "simulate", "--builtin", source, "--observable", "Sz",
                  "--trials", "500", "--json")
    assert sz["postselected"] == 500
    assert [b["frequency"] for b in sz["branches"]] == [1.0, 0.0]


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


_IRT = 1 / math.sqrt(2)
_BETA = math.pi / 4 + 1.5e-10
_NEAR_TOLERANCE = {
    # preselection norm^2 = 1 + 5e-10, inside the ket tolerance
    "norm-band": {
        "dim": 2,
        "preselection": [[1.00000000025, 0], [0, 0]],
        "postselection": [[_IRT, 0], [_IRT, 0]],
        "observables": {"Z": [
            {"eigenvalue": 1, "kets": [[[1, 0], [0, 0]]]},
            {"eigenvalue": -1, "kets": [[[0, 0], [1, 0]]]},
        ]},
    },
    # branches overlap by sin(1.5e-10); their sum is idempotent only to 1.5e-10
    "beta": {
        "dim": 2,
        "preselection": [[1, 0], [0, 0]],
        "postselection": [[_IRT, 0], [_IRT, 0]],
        "observables": {"C": [
            {"eigenvalue": 1, "kets": [[[_IRT, 0], [_IRT, 0]]]},
            {"eigenvalue": 2, "kets": [[[-math.sin(_BETA), 0], [math.cos(_BETA), 0]]]},
        ]},
    },
}


@pytest.mark.parametrize("flags", [(), ("--coarse-grainings",)], ids=["plain", "coarse"])
@pytest.mark.parametrize("name", sorted(_NEAR_TOLERANCE))
def test_consistency_accepts_what_parsing_accepts(capsys, tmp_path, name, flags):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_NEAR_TOLERANCE[name]), encoding="utf-8")
    code, out, err = run(capsys, "consistency", "--scenario", str(path), *flags)
    assert (code, err) == (0, "")
    assert "consistent" in out


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


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def test_simulate_zero_stderr_z_keeps_its_sign_and_json_writes_null(capsys):
    # 20 trials at spin:0.3 postselect 18, all on branch 0: both branches
    # have stderr 0, branch 0 above its ABL value and branch 1 below.
    args = ("simulate", "--builtin", "spin:0.3", "--trials", "20", "--seed", "1")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert [line.rsplit(" z ", 1)[1] for line in out.splitlines()
            if line.startswith("branch")] == ["inf", "-inf"]
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0
    payload = _strict_json(out)
    assert [(b["stderr"], b["z"]) for b in payload["branches"]] == [(0.0, None), (0.0, None)]
    assert math.isfinite(payload["final_probability"]["z"])


def test_consistency_json_writes_an_infinite_tolerance_as_null(capsys):
    code, out, _ = run(capsys, "consistency", "--builtin", "three-box", "--tolerance", "inf",
                       "--json")
    assert code == 0
    payload = _strict_json(out)
    assert payload["tolerance"] is None
    assert payload["consistent"] is True


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
                       "--gap-min", "0.99", "--max-tries", "20")
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


@pytest.mark.parametrize("argv", [["abl", "--scenario"], ["scenario", "validate"]])
def test_an_observable_defined_twice_exits_1(capsys, tmp_path, argv):
    z = ('"Z": [{"eigenvalue": 1, "kets": [[[1, 0], [0, 0]]]}, '
         '{"eigenvalue": -1, "kets": [[[0, 0], [1, 0]]]}]')
    path = tmp_path / "twice.json"
    path.write_text('{"dim": 2, "preselection": [[1, 0], [0, 0]], '
                    '"postselection": [[1, 0], [0, 0]], '
                    f'"observables": {{{z}, {z}}}}}', encoding="utf-8")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (1, "", "error: invalid JSON: repeated key 'Z'\n")


@pytest.mark.parametrize("argv", [["abl", "--json", "--scenario"], ["scenario", "validate"]])
def test_a_branch_with_a_nan_idempotency_residue_exits_1(capsys, tmp_path, argv):
    # Both branches are Hermitian and sum to the identity, but neither is
    # idempotent: squaring them overflows.
    def pairs(m):
        return [[[z.real, z.imag] for z in row] for row in m.tolist()]
    unit = [[1, 0], [0, 0], [0, 0]]
    path = tmp_path / "nan-residue.json"
    path.write_text(json.dumps({
        "dim": 3, "preselection": unit, "postselection": unit,
        "observables": {"M": [
            {"eigenvalue": 0, "matrix": pairs(OVERFLOWING_HERMITIAN)},
            {"eigenvalue": 1, "matrix": pairs(np.eye(3) - OVERFLOWING_HERMITIAN)}]}}))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err == "error: observables.M[0]: projector matrix is not idempotent\n"


def test_scenario_validate_missing_file(capsys):
    code, _, err = run(capsys, "scenario", "validate", "/no/such/file.json")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["scenario", "validate", "{dir}"],
    ["abl", "--scenario", "{dir}"],
    ["consistency", "--scenario", "{dir}", "--coarse-grainings"],
])
def test_scenario_path_that_is_a_directory_exits_1(capsys, tmp_path, argv):
    # An unreadable file takes the same path (PermissionError is an OSError
    # too), but it cannot be made unreadable to a test that runs as root.
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


# captured.json holds the exit code, stderr and a digest of stdout of each
# command below, recorded before scenario emission and coarse-graining
# enumeration were rewritten on whole arrays (the `--criterion weak` and
# `--tolerance 0` coarse-grainings: before their verdicts were read from one
# table of block amplitudes; the `abl` commands and those on zeros.json:
# before one-ket branches were parsed as a rank-1 basis and emission
# formatted each distinct magnitude once).  Fifteen of them (the ten
# three-box coarse-grainings, four on dim-12.json and `abl --scenario
# dim-12.json --json`) were recorded again when abl and histories came to
# take every rank-1 amplitude from one einsum kernel, once each of their
# numbers was within 1e-12 of the earlier output and every verdict the same
# but those of the two exactly consistent three-box groupings at
# --tolerance 0.  The two `counterexample --dim 4 --seed 11` captures were
# recorded again when the postselection came to be read from the first final
# branch's largest column by Projector._state, once each of their eight moved
# numbers was within 2.3e-16 of the earlier output.  dim-12.json is the scenario-cli
# benchmark's dim-12 file for seed 1, three-box.json the canonical form of
# the built-in three-box scenario, and zeros.json a scenario whose kets and
# matrices hold exact zeros, where a branch |q><q| holds -0.0.
CLI_ORACLE = pathlib.Path(__file__).with_name("cli_oracle")


@pytest.mark.parametrize("case", json.loads((CLI_ORACLE / "captured.json").read_text()),
                         ids=lambda case: " ".join(case["argv"]))
def test_output_is_byte_identical_to_capture(capsys, monkeypatch, case):
    monkeypatch.chdir(CLI_ORACLE)  # --json output names the path it was given
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (case["exit"], case["stderr"])
    stdout = out.encode("utf-8")
    assert len(stdout) == case["stdout_bytes"]
    assert hashlib.sha256(stdout).hexdigest() == case["stdout_sha256"]


@pytest.mark.parametrize("extra", [[], ["--criterion", "weak", "--tolerance", "0", "--json"]])
def test_coarse_grainings_refuse_more_than_six_branches(capsys, monkeypatch, extra):
    monkeypatch.chdir(CLI_ORACLE)
    code, out, err = run(capsys, "consistency", "--scenario", "dim-12.json", "--observable", "B",
                         "--coarse-grainings", *extra)
    assert (code, out) == (1, "")
    assert err == "error: 12 branches would enumerate too many partitions (cap is 6)\n"


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


def test_scenario_validate_refuses_an_overflowing_hermiticity_residue(capsys, tmp_path):
    # The residue m - m^dagger overflows; numpy's warning used to precede the
    # error line.
    doc = json.loads((CLI_ORACLE / "three-box.json").read_text())
    doc["observables"]["A"][0]["matrix"][0][0][1] = 1e308
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "scenario", "validate", str(path))
    assert (code, out, err) == (1, "", "error: observables.A[0]: projector matrix is not Hermitian\n")


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


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--builtin", "three-box", "--trials", str(10 ** 10 + 1)),
     f"trials must be at most 10**10, the work budget, got {10 ** 10 + 1}"),
    (("simulate", "--builtin", "three-box", "--no-intermediate", "--trials", str(2 ** 64 + 1)),
     f"trials must be at most 10**10, the work budget, got {2 ** 64 + 1}"),
    (("counterexample", "--dim", "6", "--max-tries", str(5 * 10 ** 6 + 1)),
     f"max_tries must be at most 5*10**6, the work budget, got {5 * 10 ** 6 + 1}"),
], ids=["trials", "trials-no-intermediate", "max-tries"])
def test_work_beyond_the_budget_exits_1_before_it_starts(capsys, monkeypatch, argv, message):
    # Each cap is about 20 minutes of work; the refusal must cost none of it.
    drawn = _count_substreams(monkeypatch)

    def unreachable(*args):
        raise AssertionError("a counterexample try was drawn")
    monkeypatch.setattr(ablkit.counterfactual, "substream", unreachable)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert (code, out, err, drawn) == (1, "", f"error: {message}\n", [])
    assert elapsed < 0.1


@pytest.mark.parametrize("argv, message", [
    (("abl", "--builtin", "spin:x"), "bad spin angle in 'spin:x'"),
    (("abl", "--builtin", "spin:inf"), "spin angle must be finite"),
    (("counterexample", "--gap-min", "-1"), "gap_min must be positive, got -1.0"),
    (("counterexample", "--gap-min", "nan"), "gap_min must be positive, got nan"),
    (("counterexample", "--gap-min", "1"), "gap_min must be below 1, which no gap exceeds, got 1.0"),
    (("abl", "--builtin", "three-box", "--observable", ""),
     "usage error: unknown observable ''; scenario defines A, B, C, Cdprime, Cprime\n"),
    (("consistency", "--builtin", "three-box", "--observable", ""),
     "usage error: unknown observable ''; scenario defines A, B, C, Cdprime, Cprime\n"),
], ids=["spin-angle", "spin-inf", "gap-negative", "gap-nan", "gap-1", "abl-observable-empty",
        "consistency-observable-empty"])
def test_bad_user_values_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("tolerance, shown", [("nan", "nan"), ("-1", "-1.0")])
def test_consistency_tolerance_must_be_non_negative(capsys, tolerance, shown):
    for extra in ((), ("--coarse-grainings", "--json")):
        code, out, err = run(capsys, "consistency", "--builtin", "three-box",
                             "--observable", "Cprime", "--tolerance", tolerance, *extra)
        assert (code, out) == (1, "")
        assert err == f"error: tolerance must be non-negative, got {shown}\n"
    # zero stays a valid tolerance
    assert run_json(capsys, "consistency", "--builtin", "three-box", "--observable", "Cprime",
                    "--tolerance", "0", "--json")["tolerance"] == 0.0


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


def test_an_observable_named_empty_can_be_selected(capsys, tmp_path):
    z = [{"eigenvalue": 1, "kets": [[[1, 0], [0, 0]]]},
         {"eigenvalue": -1, "kets": [[[0, 0], [1, 0]]]}]
    x = [{"eigenvalue": 1, "kets": [[[_IRT, 0], [_IRT, 0]]]},
         {"eigenvalue": -1, "kets": [[[_IRT, 0], [-_IRT, 0]]]}]
    scenario = {
        "dim": 2,
        "preselection": [[1, 0], [0, 0]],
        "postselection": [[_IRT, 0], [_IRT, 0]],
        "observables": {"": z, "X": x},
        "default_observable": "X",
    }
    path = tmp_path / "empty-name.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, out, err = run(capsys, "abl", "--scenario", str(path), "--observable", "")
    assert (code, err) == (0, "")
    assert "observable: \n" in out
    assert run_json(capsys, "abl", "--scenario", str(path), "--json")["observable"] == "X"


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
    # The ensemble runs before the exact ABL distribution, so an impossible
    # postselection is reported as the simulation saw it.
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "simulate", "--scenario", str(path), "--trials", "100", *extra)
        assert (code, out, err) == (
            2, "", "error: none of the 100 trials passed postselection (seed 0)\n")


# main builds the named subcommand's parser alone when the first argument
# names one, else the full root parser.  The reference is the full root
# parser under main's error handling.

def _full_parser_main(argv):
    try:
        args = ablkit.cli.build_parser().parse_args(argv)
        return args.func(args)
    except ablkit.cli._UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except ablkit.cli._DOMAIN_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AblkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _outcome(capsys, entry, argv):
    try:
        code = entry(list(argv))
    except SystemExit as stop:  # --help
        code = ("exit", stop.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "abl"], ["bogus"], ["-5"], ["scenario"], ["scenario", "--help"],
    ["scenario", "validate"], ["abl"], ["abl", "--help"], ["counterexample", "--dim", "9"],
    ["--bogus", "abl", "--builtin", "three-box"], ["--", "abl", "--builtin", "three-box"],
    ["abl", "--builtin", "three-box", "consistency"],
    ["abl", "--builtin", "three-box", "--observable", "simulate"],
    ["simulate", "--builtin", "three-box", "--trials", "0"],
    ["consistency", "--builtin", "three-box", "--tolerance", "0.5", "--json"],
    # abbreviated options
    ["abl", "--built", "three-box", "--obs", "Cprime", "--js"],
    ["simulate", "--builtin", "three-box", "--tri", "40", "--se", "3", "--no-int"],
    ["consistency", "--builtin", "three-box", "--coarse", "--crit", "weak"],
    ["abl", "--builtin=three-box", "--he"], ["abl", "--s", "x.json"],
    # -- after the command
    ["abl", "--", "--builtin", "three-box"], ["abl", "--builtin", "three-box", "--"],
    ["scenario", "--", "validate", "no-such.json"],
    # -h after arguments
    ["abl", "--builtin", "three-box", "-h"], ["simulate", "--builtin", "three-box", "--help"],
    ["scenario", "validate", "no-such.json", "-h"],
    # nested subcommands
    ["scenario", "validate", "--help"], ["scenario", "validate", "no-such.json"],
    ["scenario", "bogus"], ["scenario", "-h", "validate"],
    # unrecognized trailing arguments
    ["abl", "--builtin", "three-box", "extra", "more"],
    ["consistency", "--builtin", "three-box", "--bogus"],
    ["counterexample", "--dim", "2", "--max-tries", "x"],
    ["simulate", "--builtin", "three-box", "--trials", "x"],
    ["scenario", "validate", "no-such.json", "extra"],
])
def test_main_parses_like_the_full_parser(capsys, argv):
    assert _outcome(capsys, main, argv) == _outcome(capsys, _full_parser_main, argv)


@pytest.mark.parametrize("argv", [
    ("simulate", "--builtin", "three-box", "--trials", "x"),
    ("simulate", "--builtin", "three-box", "--trials", "1.5"),
    ("simulate", "--builtin", "three-box", "--workers", "x"),
    ("counterexample", "--max-tries", "x"),
], ids=["trials", "trials-float", "workers", "max-tries"])
def test_positive_int_options_reject_non_integers(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"usage error: argument {argv[-2]}: expected a positive integer, got {argv[-1]}\n"


def test_scenario_dim_above_the_cap_exits_1(capsys, tmp_path):
    from ablkit.scenario_io import MAX_DIM

    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": MAX_DIM + 1, "preselection": [], "postselection": [],
                                "observables": {}}), encoding="utf-8")
    code, out, err = run(capsys, "abl", "--scenario", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: dim: ")
