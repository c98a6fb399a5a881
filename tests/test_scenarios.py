import math

import numpy as np
import pytest

from ablkit.abl import abl_distribution, born_distribution
from ablkit.errors import ValidationError
from ablkit.linalg import Ket, basis_containing
from ablkit.scenarios import BUILTIN_NAMES, Scenario, builtin, spin, three_box


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
