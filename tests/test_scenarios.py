import copy
import json
import math
import pathlib
import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ablkit import cli, scenarios
from ablkit.abl import abl_distribution, born_distribution
from ablkit.errors import AblkitError, DimensionMismatchError, ValidationError
from ablkit.linalg import Ket, ObservableDecomposition, Projector, basis_containing
from ablkit.scenarios import BUILTIN_NAMES, Scenario, builtin, spin, three_box

NAMES = BUILTIN_NAMES + ("spin:0.7",)
ORACLE = json.loads(pathlib.Path(__file__).with_name("builtin_oracle.json").read_text())


def test_all_builtin_names_resolve():
    for name in BUILTIN_NAMES:
        scenario = builtin(name)
        assert isinstance(scenario, Scenario)
        assert scenario.name == name
        assert scenario.default_observable in scenario.observables


def test_three_box_structure():
    s = three_box()
    assert s.dim == 3
    assert set(s.observables) == {"C", "Cprime", "Cdprime", "A", "B"}
    assert s.default_observable == "C"
    np.testing.assert_allclose(s.context.preselection.amplitudes,
                               np.array([1, 1, 1]) / np.sqrt(3), atol=1e-15)
    np.testing.assert_allclose(s.context.postselection.amplitudes,
                               np.array([1, 1, -1]) / np.sqrt(3), atol=1e-15)
    assert s.observables["C"].eigenvalues == (1.0, 2.0, 3.0)
    assert [p.rank for _, p in s.observables["Cprime"]] == [1, 2]
    assert [p.rank for _, p in s.observables["Cdprime"]] == [2, 1]


def test_spin_pi3_naming_and_values():
    s = builtin("spin-pi3")
    assert s.name == "spin-pi3"
    assert s.dim == 2
    np.testing.assert_allclose(abl_distribution(s.context, s.observables["Sn"]).probabilities,
                               [0.9, 0.1], atol=1e-12)
    np.testing.assert_allclose(born_distribution(s.context.preselection, s.observables["Sn"]),
                               [0.75, 0.25], atol=1e-12)


def test_spin_parametrized():
    s = builtin("spin:0.7")
    assert s.name == "spin:0.7"
    plus = s.observables["Sn"].projector(0)
    expected = Ket([math.cos(0.35), math.sin(0.35)])
    np.testing.assert_allclose(plus.matrix @ expected.amplitudes, expected.amplitudes,
                               atol=1e-12)
    # theta = 0 degenerates to Sz
    s0 = builtin("spin:0")
    np.testing.assert_allclose(s0.observables["Sn"].matrix(0),
                               s0.observables["Sz"].matrix(0), atol=1e-15)


def test_spin_bad_angles():
    with pytest.raises(ValueError):
        builtin("spin:abc")
    with pytest.raises(ValueError):
        builtin("spin:inf")


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin("four-box")


def test_preselect_only_never_filters():
    s = builtin("preselect-only")
    assert s.default_observable == "Sz"
    ctx = s.context
    np.testing.assert_array_equal(ctx.preselection.amplitudes, ctx.postselection.amplitudes)
    # Sz and Sx: ABL coincides with Born; Sn: it does not
    np.testing.assert_allclose(abl_distribution(ctx, s.observables["Sz"]).probabilities,
                               born_distribution(ctx.preselection, s.observables["Sz"]),
                               atol=1e-12)
    np.testing.assert_allclose(abl_distribution(ctx, s.observables["Sx"]).probabilities,
                               born_distribution(ctx.preselection, s.observables["Sx"]),
                               atol=1e-12)
    sn = abl_distribution(ctx, s.observables["Sn"]).probabilities
    assert abs(sn[0] - born_distribution(ctx.preselection, s.observables["Sn"])[0]) > 0.1


def test_identity_scenarios():
    for name, which in (("identity-A", "preselection"), ("identity-B", "postselection")):
        s = builtin(name)
        assert s.default_observable == name[-1]
        dist = abl_distribution(s.context, s.observables[s.default_observable])
        assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-10)
        state = getattr(s.context, which)
        np.testing.assert_allclose(
            s.observables[name[-1]].matrix(0) @ state.amplitudes, state.amplitudes, atol=1e-12)


def test_scenario_validation():
    s = three_box()
    with pytest.raises(ValueError):
        Scenario(name="x", description="", context=s.context,
                 observables=dict(s.observables), default_observable="nope")
    two_dim = basis_containing(Ket.normalized([1, 1]))
    with pytest.raises(ValueError):
        Scenario(name="x", description="", context=s.context,
                 observables={"Q": two_dim}, default_observable="Q")


@pytest.mark.parametrize("observables, default, error, message", [
    ({"C": "C"}, "nope", ValidationError, "default observable 'nope' not among"),
    ({"Q": "two-dim"}, "Q", DimensionMismatchError, "observable 'Q' has dim 2, context has 3"),
], ids=["unknown-default", "mixed-dimension"])
def test_scenario_refusals_are_ablkit_errors(observables, default, error, message):
    s = three_box()
    two_dim = basis_containing(Ket.normalized([1, 1]))
    observables = {name: two_dim if obs == "two-dim" else s.observables[obs]
                   for name, obs in observables.items()}
    with pytest.raises(error, match=message) as err:
        Scenario(name="x", description="", context=s.context,
                 observables=observables, default_observable=default)
    assert isinstance(err.value, AblkitError)


def test_observable_accessor():
    s = three_box()
    assert s.observable() is s.observables["C"]
    assert s.observable("B") is s.observables["B"]
    with pytest.raises(KeyError):
        s.observable("missing")


@pytest.mark.parametrize("name", ["spin:abc", "spin:inf", "spin:nan", "four-box"])
def test_bad_builtin_names_raise_validation_error(name):
    # a ValueError subclass, and an AblkitError the CLI maps to exit 1
    with pytest.raises(ValidationError):
        builtin(name)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("spin:0.7",))
def test_builtin_observables_pass_the_validating_constructors(name):
    # Builtins skip the checks for matrices that are projectors by
    # construction; the checks must still accept them unchanged.
    for key, obs in builtin(name).observables.items():
        checked = ObservableDecomposition.from_projectors(
            [Projector(m) for m in obs.stack], obs.eigenvalues)
        assert [p.rank for _, p in checked] == [p.rank for _, p in obs], key
        assert checked.stack.tobytes() == obs.stack.tobytes(), key


@pytest.fixture
def built(monkeypatch):
    """Every observable the builtins build from here on, in build order: each
    one comes from a canonical grouping, a spin axis or a basis containing a
    selection."""
    observables = []
    for attr in ("_groups", "_spin_axis", "basis_containing"):
        def counted(*args, _build=getattr(scenarios, attr)):
            observables.append(_build(*args))
            return observables[-1]
        monkeypatch.setattr(scenarios, attr, counted)
    return observables


@pytest.mark.parametrize("name", NAMES)
def test_builtin_lookups_by_name_build_nothing(name, built):
    s = builtin(name)
    keys = list(s.observables)
    assert keys == [o["name"] for o in ORACLE["scenarios"][name]["observables"]]
    assert all(key in s.observables for key in keys)
    assert "missing" not in s.observables
    assert len(s.observables) == len(keys)
    assert sorted(s.observables) == sorted(keys)
    with pytest.raises(KeyError):
        s.observable("missing")
    with pytest.raises(KeyError):
        s.observables["missing"]
    assert built == []


@pytest.mark.parametrize("name", NAMES)
def test_builtin_builds_each_observable_once_on_first_lookup(name, built):
    s = builtin(name)
    for count, key in enumerate(s.observables, 1):
        obs = s.observables[key]
        assert len(built) == count and built[-1] is obs
        assert s.observables[key] is obs
        assert s.observable(key) is obs
        assert len(built) == count
    assert s.observable() is s.observables[s.default_observable]
    assert len(built) == len(s.observables)
    # no memo outlives its scenario
    fresh = builtin(name)
    assert fresh.observables[s.default_observable] is not s.observable()


def test_three_box_c_skips_basis_containing(monkeypatch):
    calls = []

    def counted(ket, _build=scenarios.basis_containing):
        calls.append(ket)
        return _build(ket)
    monkeypatch.setattr(scenarios, "basis_containing", counted)
    s = builtin("three-box")
    s.observables["C"]
    assert calls == []
    s.observables["A"]
    assert calls == [s.context.preselection]


@pytest.mark.parametrize("source, args, wanted", [
    ("three-box", ["--observable", "C"], "C"),
    ("three-box", ["--no-intermediate"], None),
    ("three-box", [], "C"),
    ("spin-pi3", ["--observable", "Sn"], "Sn"),
])
def test_simulate_builds_only_the_observable_it_reads(capsys, built, source, args, wanted):
    argv = ["simulate", "--builtin", source, *args, "--trials", "50", "--seed", "3", "--json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["observable"] == wanted
    made = list(built)
    if wanted is None:
        assert made == []
    else:
        assert len(made) == 1
        assert made[0].stack.tobytes() == builtin(source).observables[wanted].stack.tobytes()


def _pickled(scenario):
    return pickle.loads(pickle.dumps(scenario))


@pytest.mark.parametrize("round_trip", [_pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("built_first", [False, True], ids=["unbuilt", "built"])
@pytest.mark.parametrize("name", NAMES)
def test_builtins_survive_pickle_and_deepcopy(name, built_first, round_trip):
    s = builtin(name)
    if built_first:
        dict(s.observables.items())
    copied = round_trip(s)
    want = ORACLE["scenarios"][name]
    assert (copied.name, copied.description, copied.default_observable) == (
        want["name"], want["description"], want["default_observable"])
    assert copied.context.preselection.amplitudes.tobytes().hex() == want["preselection"]
    assert copied.context.postselection.amplitudes.tobytes().hex() == want["postselection"]
    assert list(copied.observables) == [o["name"] for o in want["observables"]]
    for key, o in zip(copied.observables, want["observables"]):
        assert copied.observables[key].stack.tobytes().hex() == o["stack"], key
        assert copied.observables[key] is copied.observable(key)


@pytest.mark.parametrize("name", NAMES)
def test_builtins_pass_the_checks_their_construction_skips(name):
    # Builtins skip Scenario.__post_init__, which would build every
    # observable; these are its two checks.
    s = builtin(name)
    assert s.default_observable in s.observables
    for key, obs in s.observables.items():
        assert obs.dim == s.context.dim, key


def test_threads_racing_on_a_first_lookup_get_one_observable():
    s = builtin("three-box")
    with ThreadPoolExecutor(4) as pool:
        seen = list(pool.map(lambda _: s.observables["A"], range(32)))
    assert all(obs is s.observables["A"] for obs in seen)
