import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ablkit.abl import DIV_TOL, born_distribution
from ablkit.counterfactual import (
    Counterexample,
    MixingReport,
    find_counterexample,
    mixing_report,
    sharp_shanks_total,
    vaidman_total,
)
from ablkit.errors import DimensionMismatchError, UndefinedTermError, ValidationError
from ablkit.histories import HistoryFamily, disturbance_check, is_consistent
from ablkit.linalg import (Ket, ObservableDecomposition, basis_containing, complete_basis,
                           projector_from_kets)
from ablkit.sampling import random_basis, random_ket, substream
from ablkit.scenarios import spin

from conftest import near_degenerate_basis


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


def test_mixing_report_born_total_is_born_distributions():
    # mixing_report reads the Born total from its joint table's projected state
    for i in range(120):
        rng = substream(35, i)
        dim = 1 + i % 8
        a = random_ket(rng, dim)
        final_basis, observable = (ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
                                   for _ in range(2))
        for branch in range(dim):
            assert mixing_report(a, final_basis, observable, branch).born_total == \
                float(born_distribution(a, observable)[branch])


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


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_find_counterexample_bases_equal_from_eigenbasis(dim):
    # the search builds its Haar bases unchecked; from_eigenbasis checks
    # the same columns and must give the same bits
    for seed in range(4):
        example = find_counterexample(dim, seed=seed, gap_min=0.05)
        rng = substream(seed, example.tries - 1)
        random_ket(rng, dim)
        for got in (example.final_basis, example.observable):
            want = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
            assert got.stack.tobytes() == want.stack.tobytes()
            assert (got.eigenvalues, got.ranks) == (want.eigenvalues, want.ranks)


def test_find_counterexample_gives_up():
    assert find_counterexample(2, seed=3, gap_min=0.99, max_tries=25) is None


def test_draws_come_from_per_try_substreams():
    # the successful try's substream regenerates the stored state exactly
    example = find_counterexample(2, seed=55, gap_min=0.05)
    rng = substream(55, example.tries - 1)
    a = random_ket(rng, 2)
    np.testing.assert_array_equal(a.amplitudes, example.preselection.amplitudes)


@pytest.mark.parametrize("bad", [dict(dim=1), dict(dim=7), dict(gap_min=0.0),
                                 dict(gap_min=math.nan), dict(gap_min=1.0), dict(max_tries=0)],
                         ids=["dim-1", "dim-7", "gap-0", "gap-nan", "gap-1", "tries-0"])
def test_search_arguments_raise_validation_error(bad):
    kwargs = dict(dim=2, seed=0, gap_min=0.05, max_tries=10)
    kwargs.update(bad)
    with pytest.raises(ValidationError):
        find_counterexample(**kwargs)


def test_tries_beyond_the_budget_are_refused_before_the_first(monkeypatch):
    # 5*10**6 tries, about 15 minutes, is the cap; the cap itself reaches the first draw.
    from ablkit import counterfactual

    def unreachable(*args):
        raise AssertionError("a try was drawn")
    monkeypatch.setattr(counterfactual, "substream", unreachable)
    with pytest.raises(ValidationError, match=r"^max_tries must be at most 5\*10\*\*6, "
                                              r"the work budget, got 5000001$"):
        find_counterexample(6, seed=0, max_tries=5 * 10 ** 6 + 1)
    with pytest.raises(AssertionError, match="a try was drawn"):
        find_counterexample(6, seed=0, max_tries=5 * 10 ** 6)


def test_search_skips_a_try_whose_totals_are_undefined(monkeypatch):
    from ablkit import counterfactual
    calls = []

    def undefined_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise UndefinedTermError("final outcome 0 has an undefined conditional")
        return mixing_report(*args)

    monkeypatch.setattr(counterfactual, "mixing_report", undefined_once)
    example = find_counterexample(3, seed=0, gap_min=1e-6)
    assert example.tries == 2 and len(calls) == 2
    assert example.report == mixing_report(*calls[1])


def _live_mask_inputs(k, st_sq):
    """a = s on indices 1..k, b = t there too, each with its remaining
    weight on an index the other leaves at 0.  Final outcome b then has
    weight (k s t)^2 and ABL denominator k (s t)^2 over the observable of
    unit kets, whatever the split of s t."""
    dim = k + 2
    s = 1e-3
    t = math.sqrt(st_sq) / s
    a = np.zeros(dim, dtype=complex)
    a[1:1 + k] = s
    a[0] = math.sqrt(1 - k * s * s)
    b = np.zeros(dim, dtype=complex)
    b[1:1 + k] = t
    b[-1] = math.sqrt(1 - k * t * t)
    observable = ObservableDecomposition.from_eigenbasis(
        [Ket(v) for v in np.eye(dim, dtype=complex)])
    return Ket(a), basis_containing(Ket(b)), observable


@pytest.mark.parametrize("k, st_sq, weight, denominator, undefined", [
    # the weight decides, under a denominator below DIV_TOL
    (4, 1.25e-13, 2e-12, 5e-13, True),
    (4, 3.125e-14, 5e-13, 1.25e-13, False),
    # the denominator decides, under a weight above DIV_TOL
    (3, 2e-12 / 3, 6e-12, 2e-12, False),
    (3, 5e-13 / 3, 1.5e-12, 5e-13, True),
], ids=["weight-2e-12", "weight-5e-13", "denominator-2e-12", "denominator-5e-13"])
def test_sharp_shanks_live_mask_either_side_of_div_tol(k, st_sq, weight, denominator, undefined):
    from ablkit.abl import DIV_TOL

    a, final_basis, observable = _live_mask_inputs(k, st_sq)
    # joints[l, j] = ||F_l P_j a||^2, computed matrix by matrix
    joints = np.array([[np.linalg.norm(f @ p @ a.amplitudes) ** 2 for p in observable.stack]
                       for f in final_basis.stack])
    weights = np.array([np.linalg.norm(f @ a.amplitudes) ** 2 for f in final_basis.stack])
    assert weights[0] == pytest.approx(weight, rel=1e-6)
    assert joints[0].sum() == pytest.approx(denominator, rel=1e-6)
    # outcome 0 is the only one near the cutoff
    assert (joints[1:].sum(axis=1) > 1e3 * DIV_TOL).all()
    if undefined:
        with pytest.raises(UndefinedTermError, match="final outcome 0 ") as direct:
            sharp_shanks_total(a, final_basis, observable, 0)
        with pytest.raises(UndefinedTermError) as reported:
            mixing_report(a, final_basis, observable, 0)
        assert str(reported.value) == str(direct.value)
        return
    report = mixing_report(a, final_basis, observable, 0)
    assert report.ss_total == sharp_shanks_total(a, final_basis, observable, 0)
    assert report.vaidman_total == vaidman_total(a, final_basis, observable, 0)
    assert report.vaidman_total == pytest.approx(report.born_total, abs=1e-12)


@pytest.mark.parametrize("k, st_sq", [(4, 1.25e-13), (4, 3.125e-14), (3, 2e-12 / 3), (3, 5e-13 / 3)],
                         ids=["weight-2e-12", "weight-5e-13", "denominator-2e-12",
                              "denominator-5e-13"])
def test_vaidman_is_born_up_to_the_mass_below_div_tol(k, st_sq):
    # The live mask drops the final outcomes whose denominator D_l is at most
    # DIV_TOL, and with them their joints: for every branch j, Vaidman misses
    # Born by at most that mass, which is below 1e-12 here.
    a, final_basis, observable = _live_mask_inputs(k, st_sq)
    joints = np.array([[np.linalg.norm(f @ p @ a.amplitudes) ** 2 for p in observable.stack]
                       for f in final_basis.stack])
    dropped = joints[joints.sum(axis=1) <= DIV_TOL].sum(axis=0)
    born = born_distribution(a, observable)
    for j in range(len(observable)):
        gap = abs(vaidman_total(a, final_basis, observable, j) - born[j])
        assert gap <= dropped[j] + 1e-15
        assert gap <= 1e-12


def _quadrature(a, rng, rank, beta):
    """C = {P, I - P} for a Haar-random projector P of ``rank``, and a final
    basis holding cos(beta) u + i sin(beta) v and sin(beta) u - i cos(beta) v,
    with u and v the unit vectors along P a and (I - P) a.  On those two
    kets x_P conj(x_Q) = +-i |Pa||Qa| cos(beta) sin(beta), and the other kets
    miss a: every family (a, C, b_l) is weakly consistent, but not medium
    consistent unless beta is 0 or pi/2."""
    p = projector_from_kets(random_basis(rng, a.dim)[:rank])
    observable = ObservableDecomposition.from_projectors([p, p.complement()])
    u, v = (Ket.normalized(m @ a.amplitudes).amplitudes for m in observable.stack)
    c, s = math.cos(beta), math.sin(beta)
    return observable, [Ket(f) for f in complete_basis([c * u + 1j * s * v, s * u - 1j * c * v],
                                                        a.dim)]


@st.composite
def _final_bases_and_observables(draw):
    """Dims 1-8: a Haar-random preselection ``a``, a Haar or (from dim 2)
    near-degenerate final basis ``{b_l}``, and an observable ``C`` that is a
    Haar basis, a coarse-graining of the final basis, or a basis containing
    ``a``; or, from dim 2, ``C`` and ``{b_l}`` from ``_quadrature``, weakly
    but not medium consistent."""
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng([draw(st.integers(0, 2 ** 32 - 1)), 12])
    a = random_ket(rng, dim)
    near_degenerate = dim > 1 and draw(st.booleans())
    finals = (near_degenerate_basis if near_degenerate else random_basis)(rng, dim)
    kind = draw(st.sampled_from(["haar", "coarse-graining", "containing"]
                                + ["quadrature"] * (dim > 1)))
    if kind == "quadrature":
        observable, finals = _quadrature(a, rng, draw(st.integers(1, dim - 1)),
                                         draw(st.floats(0.0, math.pi / 2)))
    elif kind == "haar":
        observable = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
    elif kind == "coarse-graining":
        labels = draw(st.lists(st.integers(0, dim - 1), min_size=dim, max_size=dim))
        observable = ObservableDecomposition.from_projectors(
            [projector_from_kets([finals[k] for k in range(dim) if labels[k] == label])
             for label in sorted(set(labels))])
    else:
        observable = basis_containing(a)
    return a, finals, observable


@settings(max_examples=300, deadline=None)
@given(case=_final_bases_and_observables())
def test_consistent_final_families_make_sharp_shanks_born(case):
    # The paper's claim: ABL may be read counterfactually where that is free
    # of contradiction.  With x_j = <b|P_j|a>, |sum_j x_j|^2 - sum_j |x_j|^2 =
    # 2 sum_{i<j} Re x_i conj(x_j), so (i) each family (a, C, b_l) misses the
    # disturbance identity by at most n(n-1) times its weak violation; and
    # with w_l, D_l its undisturbed and disturbed probabilities, (ii)
    # |SS - Born| <= sum_l |D_l - w_l|.  So when every such family is
    # consistent at tol, SS is within d n(n-1) tol of Born.
    a, finals, observable = case
    d, n = a.dim, len(observable)
    final_basis = ObservableDecomposition.from_eigenbasis(finals)
    gaps, tol = 0.0, 0.0
    for b in finals:
        family = HistoryFamily(a.projector(), observable, b.projector())
        weak = is_consistent(family, criterion="weak", tol=0.0).max_violation
        check = disturbance_check(family)
        assert abs(check.disturbed - check.undisturbed) <= n * (n - 1) * weak + 1e-14
        gaps += abs(check.disturbed - check.undisturbed)
        tol = max(tol, weak)
    born = born_distribution(a, observable)
    for k in range(n):
        gap = abs(sharp_shanks_total(a, final_basis, observable, k) - born[k])
        assert gap <= gaps + d * 1e-12
        assert gap <= d * n * (n - 1) * tol + d * 1e-12 + d * 1e-14


def _dim2_quadrature(beta, phi):
    # a = (1, 1)/sqrt(2), C the Sz basis, final basis (cos beta, e^{i phi}
    # sin beta) and (sin beta, -e^{i phi} cos beta).  Then SS_0 - Born_0 =
    # sin(4 beta) cos(phi) / 4: only the quarter turn phi = pi/2 makes the
    # families weakly consistent whatever beta is.
    a = Ket.normalized([1, 1])
    sz = ObservableDecomposition.from_eigenbasis([Ket([1, 0]), Ket([0, 1])], eigenvalues=[1, -1])
    e = complex(math.cos(phi), math.sin(phi))
    c, s = math.cos(beta), math.sin(beta)
    final_basis = ObservableDecomposition.from_eigenbasis([Ket([c, e * s]), Ket([s, -e * c])])
    return a, sz, final_basis


def test_quadrature_final_basis_makes_sharp_shanks_born_frozen():
    # Final basis (1, +-i)/sqrt(2): both families are weakly consistent with
    # medium violation 1/4, and SS = Born = 1/2.
    a, sz, final_basis = _dim2_quadrature(math.pi / 4, math.pi / 2)
    for l in range(2):
        family = HistoryFamily(a.projector(), sz, final_basis.projector(l))
        assert is_consistent(family, criterion="weak", tol=1e-15).consistent
        medium = is_consistent(family, criterion="medium")
        assert not medium.consistent
        assert medium.max_violation == pytest.approx(0.25, abs=1e-15)
    for k in range(2):
        assert sharp_shanks_total(a, final_basis, sz, k) == pytest.approx(0.5, abs=1e-15)
        assert born_distribution(a, sz)[k] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("beta", [math.pi / 8, 0.3, math.pi / 4])
@pytest.mark.parametrize("phi", [0.0, math.pi / 3, math.pi / 2, 2.0, math.pi])
def test_a_phase_off_the_quarter_turn_breaks_sharp_shanks_born(beta, phi):
    # The negative control: off phi = pi/2 the families are not even weakly
    # consistent, and the gap appears unless the two final kets weigh u and v
    # alike (beta = pi/4), where no phase can open it.
    a, sz, final_basis = _dim2_quadrature(beta, phi)
    gap = sharp_shanks_total(a, final_basis, sz, 0) - born_distribution(a, sz)[0]
    assert gap == pytest.approx(math.sin(4 * beta) * math.cos(phi) / 4, abs=1e-15)
    weak = is_consistent(HistoryFamily(a.projector(), sz, final_basis.projector(0)),
                         criterion="weak", tol=0.0).max_violation
    assert weak == pytest.approx(abs(math.sin(2 * beta) * math.cos(phi)) / 4, abs=1e-15)
    if phi != math.pi / 2 and beta != math.pi / 4:
        assert abs(gap) > 0.05
