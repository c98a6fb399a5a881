import math

import numpy as np
import pytest

from ablkit.counterfactual import (
    Counterexample,
    MixingReport,
    find_counterexample,
    mixing_report,
    sharp_shanks_total,
    vaidman_total,
)
from ablkit.errors import DimensionMismatchError, UndefinedTermError, ValidationError
from ablkit.linalg import Ket, ObservableDecomposition, basis_containing
from ablkit.sampling import random_basis, random_ket, substream
from ablkit.scenarios import spin


def spin_inputs():
    s = spin(math.pi / 3)
    return s.context.preselection, s.observables["Sx"], s.observables["Sn"]


def spin_mix_by_hand():
    """Independent evaluation of the four conditional terms with nothing but
    amplitude arithmetic, kept deliberately separate from the library code."""
    theta = math.pi / 3
    a = [1.0, 0.0]
    plus_n = [math.cos(theta / 2), math.sin(theta / 2)]
    minus_n = [-math.sin(theta / 2), math.cos(theta / 2)]
    plus_x = [1 / math.sqrt(2), 1 / math.sqrt(2)]
    minus_x = [1 / math.sqrt(2), -1 / math.sqrt(2)]

    def amp(x, y):
        return x[0] * y[0] + x[1] * y[1]

    def conditional(b, c):  # P(c | a, b) over the two branches of n
        joints = {}
        for name, ck in (("+", plus_n), ("-", minus_n)):
            joints[name] = (amp(b, ck) * amp(ck, a)) ** 2
        return joints[c] / (joints["+"] + joints["-"])

    weights = {tuple(plus_x): amp(plus_x, a) ** 2, tuple(minus_x): amp(minus_x, a) ** 2}
    total = sum(w * conditional(list(b), "+") for b, w in weights.items())
    terms = (conditional(plus_x, "+"), conditional(minus_x, "+"))
    return total, terms


def test_hand_evaluated_spin_terms():
    total, (term_plus, term_minus) = spin_mix_by_hand()
    # exact closed forms of the two conditionals and their equal-weight mix
    assert term_plus == pytest.approx(15 / 26 + 3 * math.sqrt(3) / 13, abs=1e-12)
    assert term_minus == pytest.approx(15 / 26 - 3 * math.sqrt(3) / 13, abs=1e-12)
    assert total == pytest.approx(15 / 26, abs=1e-12)


def test_sharp_shanks_spin_frozen():
    a, final_basis, observable = spin_inputs()
    total = sharp_shanks_total(a, final_basis, observable, 0)
    hand_total, _ = spin_mix_by_hand()
    assert total == pytest.approx(hand_total, abs=1e-10)
    assert total == pytest.approx(15 / 26, abs=1e-10)
    # and the mixture over the other branch completes it to 1
    assert sharp_shanks_total(a, final_basis, observable, 1) == pytest.approx(11 / 26, abs=1e-10)


def test_mixing_report_spin_frozen():
    a, final_basis, observable = spin_inputs()
    report = mixing_report(a, final_basis, observable, 0)
    assert isinstance(report, MixingReport)
    assert report.born_total == pytest.approx(0.75, abs=1e-12)
    assert report.vaidman_total == pytest.approx(0.75, abs=1e-10)
    assert report.ss_total == pytest.approx(15 / 26, abs=1e-10)
    assert report.ss_gap == pytest.approx(9 / 52, abs=1e-10)


def test_mixture_totals_sum_to_one_random():
    rng = np.random.default_rng(61)
    for trial in range(100):
        dim = 2 + trial % 4
        a = random_ket(rng, dim)
        final_basis = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        observable = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        ss = sum(sharp_shanks_total(a, final_basis, observable, j) for j in range(dim))
        vt = sum(vaidman_total(a, final_basis, observable, j) for j in range(dim))
        assert ss == pytest.approx(1.0, abs=1e-9)
        assert vt == pytest.approx(1.0, abs=1e-9)


def test_vaidman_equals_born_random():
    rng = np.random.default_rng(67)
    for trial in range(300):
        dim = 2 + trial % 4
        a = random_ket(rng, dim)
        final_basis = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        observable = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        branch = int(rng.integers(dim))
        born = float(np.vdot(a.amplitudes, observable.matrix(branch) @ a.amplitudes).real)
        assert vaidman_total(a, final_basis, observable, branch) == pytest.approx(
            born, abs=1e-9)


def test_final_basis_equal_to_observable_closes_the_gap():
    # measuring the very observable at the end makes counterfactual use safe
    rng = np.random.default_rng(71)
    for trial in range(50):
        dim = 2 + trial % 4
        a = random_ket(rng, dim)
        basis = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        branch = int(rng.integers(dim))
        report = mixing_report(a, basis, basis, branch)
        assert report.ss_gap <= 1e-9


def test_eigenstate_preparation_closes_the_gap():
    rng = np.random.default_rng(73)
    for trial in range(50):
        dim = 2 + trial % 4
        basis = random_basis(rng, dim)
        observable = ObservableDecomposition.from_eigenbasis(basis)
        a = basis[int(rng.integers(dim))]
        final_basis = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        report = mixing_report(a, final_basis, observable, 0)
        assert report.ss_gap <= 1e-9


def test_undefined_term_detected():
    """A final outcome can carry (tiny but) above-cutoff weight while every
    joint underneath it falls below the division cutoff; the mixture is then
    undefined rather than silently zero."""
    dim, spread, s, t = 12, 10, 2e-2, 1e-5
    a = np.zeros(dim, dtype=complex)
    a[1:1 + spread] = s
    a[0] = math.sqrt(1 - spread * s * s)
    b = np.zeros(dim, dtype=complex)
    b[1:1 + spread] = t
    b[-1] = math.sqrt(1 - spread * t * t)
    final_basis = basis_containing(Ket(b))
    observable = ObservableDecomposition.from_eigenbasis(
        [Ket(v) for v in np.eye(dim, dtype=complex)])
    # weight 100 (s t)^2 = 4e-12 clears the cutoff, the denominator 10 (s t)^2
    # = 4e-13 does not
    with pytest.raises(UndefinedTermError):
        sharp_shanks_total(Ket(a), final_basis, observable, 0)
    # the disturbed-weight mixture is immune: that term's weight IS the
    # vanishing denominator
    assert vaidman_total(Ket(a), final_basis, observable, 0) == pytest.approx(
        abs(a[0]) ** 2, abs=1e-9)


def test_input_validation():
    a, final_basis, observable = spin_inputs()
    with pytest.raises(IndexError):
        sharp_shanks_total(a, final_basis, observable, 2)
    with pytest.raises(DimensionMismatchError):
        sharp_shanks_total(Ket.normalized([1, 1, 1]), final_basis, observable, 0)
    for bad in (dict(dim=1), dict(dim=7), dict(gap_min=0.0), dict(max_tries=0)):
        kwargs = dict(dim=2, seed=0, gap_min=0.05, max_tries=10)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            find_counterexample(**kwargs)


def test_find_counterexample_dim2():
    example = find_counterexample(2, seed=7, gap_min=0.05)
    assert isinstance(example, Counterexample)
    assert example.report.ss_gap > 0.05
    assert example.tries >= 1
    assert 0 <= example.branch < 2


def test_find_counterexample_replay_is_exact():
    for dim, seed in ((2, 7), (3, 19)):
        example = find_counterexample(dim, seed=seed, gap_min=0.05)
        assert example is not None
        replay = mixing_report(example.preselection, example.final_basis,
                               example.observable, example.branch)
        assert replay == example.report  # dataclass equality: bitwise floats


def test_find_counterexample_deterministic():
    first = find_counterexample(2, seed=123, gap_min=0.05)
    second = find_counterexample(2, seed=123, gap_min=0.05)
    assert first.tries == second.tries
    assert first.branch == second.branch
    assert first.report == second.report
    np.testing.assert_array_equal(first.preselection.amplitudes,
                                  second.preselection.amplitudes)


def test_find_counterexample_gives_up():
    assert find_counterexample(2, seed=3, gap_min=1.5, max_tries=25) is None


def test_draws_come_from_per_try_substreams():
    # the successful try's substream regenerates the stored state exactly
    example = find_counterexample(2, seed=55, gap_min=0.05)
    rng = substream(55, example.tries - 1)
    a = random_ket(rng, 2)
    np.testing.assert_array_equal(a.amplitudes, example.preselection.amplitudes)


@pytest.mark.parametrize("bad", [dict(dim=1), dict(dim=7), dict(gap_min=0.0),
                                 dict(gap_min=math.nan), dict(max_tries=0)],
                         ids=["dim-1", "dim-7", "gap-0", "gap-nan", "tries-0"])
def test_search_arguments_raise_validation_error(bad):
    kwargs = dict(dim=2, seed=0, gap_min=0.05, max_tries=10)
    kwargs.update(bad)
    with pytest.raises(ValidationError):
        find_counterexample(**kwargs)
