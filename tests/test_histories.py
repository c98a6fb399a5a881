import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ablkit.abl import PrePostContext, abl_distribution
from ablkit.errors import AblkitError, DimensionMismatchError, TooManyBranchesError, ValidationError
from ablkit.histories import (
    CONSISTENCY_TOL,
    MAX_ENUMERATED_BRANCHES,
    ConsistencyReport,
    HistoryFamily,
    _partition_masks,
    _set_partitions,
    coarse_graining_table,
    coarse_graining_verdicts,
    decoherence_functional,
    decoherence_matrix,
    disturbance_check,
    enumerate_coarse_grainings,
    is_consistent,
)
from ablkit.linalg import (
    ALG_TOL,
    Ket,
    ObservableDecomposition,
    Projector,
    basis_containing,
    inner,
    projector_from_kets,
)
from ablkit.sampling import random_basis, random_ket
from ablkit.scenario_io import load_scenario
from ablkit.scenarios import BUILTIN_NAMES, builtin, three_box

from conftest import make_context, mixed_rank_decomposition, near_degenerate_basis

SCENARIO = three_box()
CTX = SCENARIO.context
# the three families around the three-box context
FAMILY_BOXES = HistoryFamily.from_context(CTX, SCENARIO.observables["C"])
FAMILY_BOX1 = HistoryFamily.from_context(CTX, SCENARIO.observables["Cprime"])
FAMILY_BOX2 = HistoryFamily.from_context(CTX, SCENARIO.observables["Cdprime"])


def test_family_validates_ranks():
    with pytest.raises(ValidationError):
        HistoryFamily(projector_from_kets([CTX.preselection, Ket.normalized([-1, 1, 0])]),
                      SCENARIO.observables["C"],
                      Projector(CTX.final_projector, rank=1))


def test_family_validates_dimensions():
    two_dim = ObservableDecomposition.from_eigenbasis(
        [Ket.normalized([1, 0]), Ket.normalized([0, 1])])
    with pytest.raises(DimensionMismatchError):
        HistoryFamily(Projector(CTX.initial_projector, rank=1), two_dim,
                      Projector(CTX.final_projector, rank=1))


def test_family_dim_is_the_intermediate_dim():
    assert FAMILY_BOXES.dim == 3
    ctx = PrePostContext(Ket.normalized([1, 0]), Ket.normalized([1, 1]))
    assert HistoryFamily.from_context(ctx, basis_containing(Ket.normalized([1, 1j]))).dim == 2


def test_unknown_criterion_is_an_ablkit_validation_error():
    with pytest.raises(ValidationError, match="criterion must be one of") as err:
        is_consistent(FAMILY_BOXES, criterion="strong")
    assert isinstance(err.value, AblkitError)


def test_decoherence_functional_frozen_values():
    # fine-grained boxes: every off-diagonal pair interferes at magnitude 1/9
    assert decoherence_functional(FAMILY_BOXES, 0, 1) == pytest.approx(1 / 9, abs=1e-12)
    assert decoherence_functional(FAMILY_BOXES, 0, 2) == pytest.approx(-1 / 9, abs=1e-12)
    assert decoherence_functional(FAMILY_BOXES, 1, 2) == pytest.approx(-1 / 9, abs=1e-12)
    # merging boxes 2 and 3 kills the interference
    assert decoherence_functional(FAMILY_BOX1, 0, 1) == pytest.approx(0.0, abs=1e-12)
    assert decoherence_functional(FAMILY_BOX2, 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_decoherence_functional_index_checks():
    with pytest.raises(IndexError):
        decoherence_functional(FAMILY_BOXES, 0, 3)


def test_decoherence_diagonal_is_joint_probability():
    d = decoherence_matrix(FAMILY_BOXES)
    np.testing.assert_allclose(np.diag(d), [1 / 9] * 3, atol=1e-12)


def test_consistency_verdicts_frozen():
    report = is_consistent(FAMILY_BOXES)
    assert isinstance(report, ConsistencyReport)
    assert not report.consistent
    assert report.max_violation == pytest.approx(1 / 9, abs=1e-10)
    assert is_consistent(FAMILY_BOX1).consistent
    assert is_consistent(FAMILY_BOX2).consistent


def test_span_family_is_consistent():
    # {P onto span(a, b), complement} never interferes
    span = projector_from_kets([CTX.preselection, CTX.postselection])
    family = HistoryFamily(
        Projector(CTX.initial_projector, rank=1),
        ObservableDecomposition.from_projectors([span, span.complement()]),
        Projector(CTX.final_projector, rank=1))
    report = is_consistent(family)
    assert report.consistent
    assert disturbance_check(family).holds


def test_conjugate_symmetry_random():
    rng = np.random.default_rng(43)
    for trial in range(100):
        dim = 2 + trial % 4
        ctx = make_context(rng, dim)
        obs = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        d = decoherence_matrix(HistoryFamily.from_context(ctx, obs))
        np.testing.assert_allclose(d, d.conj().T, atol=1e-10)


def test_matrix_sums_to_overlap_random():
    rng = np.random.default_rng(47)
    for trial in range(100):
        dim = 2 + trial % 4
        ctx = make_context(rng, dim)
        obs = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        d = decoherence_matrix(HistoryFamily.from_context(ctx, obs))
        overlap = abs(inner(ctx.postselection, ctx.preselection)) ** 2
        assert complex(d.sum()) == pytest.approx(overlap, abs=1e-10)


def test_selection_bases_always_consistent():
    rng = np.random.default_rng(53)
    for trial in range(100):
        dim = 2 + trial % 4
        ctx = make_context(rng, dim)
        for basis_of in (ctx.preselection, ctx.postselection):
            family = HistoryFamily.from_context(ctx, basis_containing(basis_of))
            assert is_consistent(family).consistent
            assert disturbance_check(family).holds


def test_medium_versus_weak_criterion():
    # purely imaginary interference: weakly consistent, not medium
    ctx = PrePostContext(Ket.normalized([1, 1]), Ket.normalized([1, 1j]))
    z_basis = ObservableDecomposition.from_eigenbasis(
        [Ket.normalized([1, 0]), Ket.normalized([0, 1])])
    family = HistoryFamily.from_context(ctx, z_basis)
    d01 = decoherence_functional(family, 0, 1)
    assert d01.real == pytest.approx(0.0, abs=1e-12)
    assert abs(d01.imag) == pytest.approx(0.25, abs=1e-12)
    medium = is_consistent(family, criterion="medium")
    weak = is_consistent(family, criterion="weak")
    assert not medium.consistent and medium.max_violation == pytest.approx(0.25, abs=1e-10)
    assert weak.consistent
    assert weak.criterion == "weak"


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError):
        is_consistent(FAMILY_BOXES, criterion="strong")


def test_tolerance_threshold_is_respected():
    # the three-box violation 1/9 lies between the two tolerances
    assert is_consistent(FAMILY_BOXES, tol=0.2).consistent
    assert not is_consistent(FAMILY_BOXES, tol=0.1).consistent
    # {1}{2,3} is exactly consistent, and its amplitudes round to the exact zero
    report = is_consistent(FAMILY_BOX1, tol=0.0)
    assert report.consistent and report.max_violation == 0.0
    # single-branch family trivially consistent at any tolerance
    trivial = HistoryFamily(
        Projector(CTX.initial_projector, rank=1),
        ObservableDecomposition.from_projectors([Projector(np.eye(3))]),
        Projector(CTX.final_projector, rank=1))
    report = is_consistent(trivial, tol=0.0)
    assert report.consistent and report.max_violation == 0.0


def _rotated_family(theta: float) -> HistoryFamily:
    # a = |0>, b = |+>, intermediate basis {|0>, |1>} rotated by theta.  Then
    # x_0 = cos(theta) (cos(theta) + sin(theta)) / sqrt(2) and
    # x_1 = -sin(theta) (cos(theta) - sin(theta)) / sqrt(2), so the
    # off-diagonal is |x_0 x_1| = sin(4 theta) / 8, about sin(theta) / 2: an
    # exact nonzero far above any rounding residue.
    c, s = np.cos(theta), np.sin(theta)
    ctx = PrePostContext(Ket.normalized([1, 0]), Ket.normalized([1, 1]))
    basis = ObservableDecomposition.from_eigenbasis([Ket(np.array([c, s])),
                                                     Ket(np.array([-s, c]))])
    return HistoryFamily.from_context(ctx, basis)


def test_tolerance_threshold_on_a_constructed_off_diagonal():
    theta = 1e-6
    v = np.sin(4 * theta) / 8
    assert v == pytest.approx(np.sin(theta) / 2, rel=1e-11)
    family = _rotated_family(theta)
    assert is_consistent(family).max_violation == pytest.approx(v, rel=1e-9)
    for criterion in ("medium", "weak"):
        assert not is_consistent(family, criterion=criterion, tol=0.0).consistent
        assert not is_consistent(family, criterion=criterion, tol=0.9 * v).consistent
        assert is_consistent(family, criterion=criterion, tol=1.1 * v).consistent


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300, float("-inf")])
def test_tolerance_must_be_non_negative(tol):
    message = f"tolerance must be non-negative, got {tol}"
    with pytest.raises(ValidationError) as err:
        is_consistent(FAMILY_BOX1, tol=tol)
    assert str(err.value) == message
    with pytest.raises(ValidationError) as err:
        disturbance_check(FAMILY_BOX1, tol=tol)
    assert str(err.value) == message
    # the criterion is checked first
    with pytest.raises(ValueError, match="criterion must be one of"):
        is_consistent(FAMILY_BOX1, criterion="strong", tol=tol)


def test_zero_and_infinite_tolerances_are_valid():
    for tol in (0.0, float("inf")):
        assert is_consistent(FAMILY_BOXES, tol=tol).tolerance == tol
        # 1/9 undisturbed against 1/3 disturbed
        assert disturbance_check(FAMILY_BOXES, tol=tol).holds == (tol == float("inf"))


def test_disturbance_check_frozen():
    check = disturbance_check(FAMILY_BOXES)
    assert check.undisturbed == pytest.approx(1 / 9, abs=1e-12)
    assert check.disturbed == pytest.approx(1 / 3, abs=1e-12)
    assert not check.holds
    for family in (FAMILY_BOX1, FAMILY_BOX2):
        check = disturbance_check(family)
        assert check.undisturbed == pytest.approx(1 / 9, abs=1e-12)
        assert check.disturbed == pytest.approx(1 / 9, abs=1e-12)
        assert check.holds


def test_consistent_families_leave_postselection_undisturbed():
    """One-directional linkage: a consistent verdict implies the disturbance
    identity.  Inconsistent families may or may not satisfy it."""
    rng = np.random.default_rng(59)
    checked_consistent = 0
    for trial in range(500):
        dim = 2 + trial % 3
        ctx = make_context(rng, dim)
        kind = trial % 4
        if kind == 0:
            obs = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        elif kind == 1:
            obs = basis_containing(ctx.preselection)
        elif kind == 2:
            obs = basis_containing(ctx.postselection)
        else:
            fine = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
            grainings = enumerate_coarse_grainings(fine)
            obs = grainings[int(rng.integers(len(grainings)))]
        family = HistoryFamily.from_context(ctx, obs)
        if is_consistent(family).consistent:
            checked_consistent += 1
            assert disturbance_check(family).holds
    # structured draws guarantee the implication was exercised
    assert checked_consistent > 200


def test_enumerate_counts_match_bell_numbers():
    for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15)):
        base = ObservableDecomposition.from_eigenbasis(
            [Ket(v) for v in np.eye(n, dtype=complex)])
        grainings = enumerate_coarse_grainings(base)
        assert len(grainings) == bell


def test_enumerate_refuses_above_cap():
    base = ObservableDecomposition.from_eigenbasis(
        [Ket(v) for v in np.eye(7, dtype=complex)])
    with pytest.raises(TooManyBranchesError):
        enumerate_coarse_grainings(base)


def test_enumerate_labels_are_consecutive_integers():
    base = ObservableDecomposition.from_eigenbasis(
        [Ket(v) for v in np.eye(3, dtype=complex)], eigenvalues=[5.0, -2.0, 0.5])
    for grained in enumerate_coarse_grainings(base):
        assert grained.eigenvalues == tuple(float(k) for k in range(len(grained)))


def test_enumerate_includes_both_box_groupings(box_scenario):
    base = box_scenario.observables["C"]
    grainings = enumerate_coarse_grainings(base)

    def found(target):
        for grained in grainings:
            if len(grained) != len(target):
                continue
            if all(any(np.allclose(grained.matrix(i), target.matrix(j), atol=1e-10)
                       for i in range(len(grained))) for j in range(len(target))):
                return True
        return False

    assert found(box_scenario.observables["Cprime"])
    assert found(box_scenario.observables["Cdprime"])
    # the trivial single-branch graining is present too
    assert any(len(g) == 1 for g in grainings)


def test_coarse_graining_verdicts_three_box():
    # merging boxes {1,2} interferes even more strongly than the fine graining
    base = SCENARIO.observables["C"]
    verdicts = {}
    for grained in enumerate_coarse_grainings(base):
        family = HistoryFamily.from_context(CTX, grained)
        key = tuple(sorted(p.rank for _, p in grained))
        verdicts.setdefault(key, []).append(is_consistent(family))
    assert all(r.consistent for r in verdicts[(3,)])
    fine = verdicts[(1, 1, 1)]
    assert len(fine) == 1 and not fine[0].consistent
    two_block = verdicts[(1, 2)]
    assert len(two_block) == 3
    assert sum(r.consistent for r in two_block) == 2
    worst = max(r.max_violation for r in two_block)
    assert worst == pytest.approx(2 / 9, abs=1e-10)


def _coarse_grainings_oracle(base):
    # The per-partition loop enumerate_coarse_grainings ran before it built
    # each distinct block once: every block summed and validated afresh.
    out = []
    for blocks in _set_partitions(len(base)):
        projectors = []
        for block in blocks:
            m = np.zeros((base.dim, base.dim), dtype=np.complex128)
            rank = 0
            for idx in block:
                m += base.matrix(idx)
                rank += base.projector(idx).rank
            projectors.append(Projector(m, rank=rank))
        out.append(ObservableDecomposition.from_projectors(projectors))
    return out


_RANKS = [[1], [2], [1, 1], [2, 1], [1, 1, 1], [1, 3, 1], [1, 1, 1, 1], [2, 1, 1, 2],
          [1, 2, 1, 1, 1], [1, 1, 1, 1, 1, 1], [2, 1, 3, 1, 1, 2]]


@pytest.mark.parametrize("base", [
    *(pytest.param(mixed_rank_decomposition(k, ranks), id=f"ranks{ranks}")
      for k, ranks in enumerate(_RANKS)),
    *(pytest.param(SCENARIO.observables[name], id=f"three-box-{name}")
      for name in ("C", "Cprime", "Cdprime")),
])
def test_enumerate_matches_per_partition_loop_bit_for_bit(base):
    got, want = enumerate_coarse_grainings(base), _coarse_grainings_oracle(base)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.stack.tobytes() == w.stack.tobytes()
        assert [p.rank for _, p in g] == [p.rank for _, p in w]
        assert g.eigenvalues == w.eigenvalues


def _nested_set_partitions(n):
    # The partition order as the nested comprehension generated it before the
    # mask table: each element joins the existing blocks in turn, then starts
    # a new one.
    partitions = [[]]
    for i in range(n):
        partitions = [[*p[:g], p[g] + (i,), *p[g + 1:]] if g < len(p) else [*p, (i,)]
                      for p in partitions for g in range(len(p) + 1)]
    return partitions


@pytest.mark.parametrize("n", range(1, MAX_ENUMERATED_BRANCHES + 1))
def test_mask_table_keeps_the_nested_partition_order(n):
    want = _nested_set_partitions(n)
    masks = _partition_masks(n)
    assert masks.shape == (len(want), n)
    assert masks.tolist() == [[sum(1 << i for i in block) for block in p] + [0] * (n - len(p))
                              for p in want]
    assert _set_partitions(n) == want
    # The k-th coarse-graining is gathered from the k-th partition, each
    # block summed from zero in ascending branch order.
    ranks = [1 + i % 3 for i in range(n)]
    base = mixed_rank_decomposition(n, ranks)
    family = HistoryFamily.from_context(make_context(np.random.default_rng(n), base.dim), base)
    assert coarse_graining_table(family)[0] == want
    for blocks, grained in zip(want, enumerate_coarse_grainings(base), strict=True):
        stack = np.zeros((len(blocks), base.dim, base.dim), dtype=np.complex128)
        for a, block in enumerate(blocks):
            for i in block:
                stack[a] += base.stack[i]
        assert grained.stack.tobytes() == stack.tobytes()
        assert grained.ranks == tuple(sum(ranks[i] for i in block) for block in blocks)


def test_enumerate_accepts_a_basis_within_tolerance():
    # the branches overlap by sin(1.5e-10), which the base accepts; their sum
    # is idempotent only to 1.5e-10, within |I|*|J| times the base's residues
    beta = np.pi / 4 + 1.5e-10
    base = ObservableDecomposition.from_eigenbasis(
        [Ket.normalized([1, 1]), Ket(np.array([-np.sin(beta), np.cos(beta)]))])
    whole, split = enumerate_coarse_grainings(base)
    assert [p.rank for _, p in whole] == [2]
    np.testing.assert_array_equal(split.stack, base.stack)


def test_from_context_accepts_a_preselection_in_the_norm_band():
    ctx = PrePostContext(Ket(np.array([np.sqrt(1 + 5e-10), 0.0])), Ket.normalized([1, 1]))
    z_basis = ObservableDecomposition.from_eigenbasis(
        [Ket.normalized([1, 0]), Ket.normalized([0, 1])])
    family = HistoryFamily.from_context(ctx, z_basis)
    assert (family.initial.rank, family.final.rank) == (1, 1)
    np.testing.assert_array_equal(family.initial.matrix, ctx.initial_projector)
    assert is_consistent(family).consistent


# Rounding of the block sums and their products, far below ALG_TOL.
_ROUNDING = 1e-15


@st.composite
def _bases_and_contexts(draw):
    """A Haar-random or near-degenerate basis, optionally nudged toward the
    tolerances, or a rank-mixed decomposition (dims 1-6), with a Haar-random
    context whose preselection may be drawn inside one branch, which makes
    the family consistent."""
    dim = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng([seed, 1])
    kind = draw(st.sampled_from(["mixed-rank", "haar"] + ["near-degenerate"] * (dim > 1)))
    if kind == "mixed-rank":
        ranks, left = [], dim
        while left:
            ranks.append(draw(st.integers(1, left)))
            left -= ranks[-1]
        base = mixed_rank_decomposition(seed, ranks)
    else:
        nudge = draw(st.sampled_from([0.0, 1e-11, 3e-11]))
        basis = (random_basis if kind == "haar" else near_degenerate_basis)(rng, dim)
        kets = [Ket.normalized(k.amplitudes + nudge * (rng.standard_normal(dim)
                                                       + 1j * rng.standard_normal(dim)))
                for k in basis]
        try:
            base = ObservableDecomposition.from_eigenbasis(kets)
        except ValidationError:
            assume(False)
    ctx = make_context(rng, dim)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(base) - 1))
        inside = base.stack[k] @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        ctx = PrePostContext(Ket.normalized(inside), ctx.postselection)
    return base, ctx


@settings(max_examples=200, deadline=None)
@given(case=_bases_and_contexts())
def test_coarse_grainings_keep_the_bases_residues(case):
    # What enumerate_coarse_grainings no longer re-checks: every
    # coarse-graining is a resolution of the identity with residues at most
    # |I|*|J| times the base's, and consistency carries over at |I|*|J|*tol.
    base, ctx = case
    eye = np.eye(base.dim)
    tol = is_consistent(HistoryFamily.from_context(ctx, base), tol=0.0).max_violation + 1e-14
    for blocks, grained in zip(_set_partitions(len(base)), enumerate_coarse_grainings(base)):
        stack = grained.stack
        assert np.abs(stack - stack.conj().swapaxes(1, 2)).max() <= ALG_TOL
        assert np.abs(stack.sum(axis=0) - eye).max() <= ALG_TOL * base.dim + _ROUNDING
        d = decoherence_matrix(HistoryFamily.from_context(ctx, grained))
        for a, block_a in enumerate(blocks):
            square = stack[a] @ stack[a] - stack[a]
            assert np.abs(square).max() <= len(block_a) ** 2 * ALG_TOL + _ROUNDING
            for b, block_b in enumerate(blocks):
                if a != b:
                    scale = len(block_a) * len(block_b)
                    assert np.abs(stack[a] @ stack[b]).max() <= scale * ALG_TOL + _ROUNDING
                    assert abs(d[a, b]) <= scale * tol


def _assert_verdicts_bitwise(family):
    # Against what `consistency --coarse-grainings` computed before the block
    # table: one HistoryFamily per coarse-graining, checked on its own.
    base = family.intermediate
    per_family = [(tuple(blocks), HistoryFamily(family.initial, grained, family.final))
                  for blocks, grained in zip(_set_partitions(len(base)),
                                             enumerate_coarse_grainings(base))]
    for criterion in ("medium", "weak"):
        for tol in (0.0, 1e-9, 1e-3):
            got = coarse_graining_verdicts(family, criterion=criterion, tol=tol)
            assert len(got) == len(per_family)
            _, _, _, consistent, _, holds = coarse_graining_table(family, criterion=criterion,
                                                                  tol=tol)
            assert consistent == [report.consistent for _, report, _ in got]
            assert holds == [check.holds for _, _, check in got]
            for (blocks, report, check), (w_blocks, sub) in zip(got, per_family):
                w_report = is_consistent(sub, criterion=criterion, tol=tol)
                w_check = disturbance_check(sub, tol=tol)
                assert blocks == w_blocks
                assert (repr(report.max_violation), report.consistent, report.criterion,
                        report.tolerance) == (repr(w_report.max_violation), w_report.consistent,
                                              w_report.criterion, w_report.tolerance)
                assert report.matrix.shape == w_report.matrix.shape
                assert report.matrix.tobytes() == w_report.matrix.tobytes()
                assert not report.matrix.flags.writeable
                assert (repr(check.undisturbed), repr(check.disturbed), check.holds) == \
                    (repr(w_check.undisturbed), repr(w_check.disturbed), w_check.holds)


_CLI_ORACLE = pathlib.Path(__file__).with_name("cli_oracle")


def _named_scenarios():
    for name in (*BUILTIN_NAMES, "spin:0", "spin:0.7", "spin:-2.5"):
        yield name, builtin(name)
    for name in ("three-box.json", "dim-12.json"):
        yield name, load_scenario(str(_CLI_ORACLE / name))


@pytest.mark.parametrize("scenario, observable", [
    pytest.param(scenario, obs, id=f"{name}-{obs}")
    for name, scenario in _named_scenarios() for obs in sorted(scenario.observables)
    if len(scenario.observables[obs]) <= 6
])
def test_coarse_graining_verdicts_match_per_family_path_on_scenarios(scenario, observable):
    _assert_verdicts_bitwise(HistoryFamily.from_context(scenario.context,
                                                        scenario.observables[observable]))


def test_coarse_graining_verdicts_match_per_family_path_on_random_draws():
    # Dims 1-6 in turn, alternately a Haar basis and a rank-mixed observable;
    # every third preselection lies inside one branch, which makes the family
    # (and every coarse-graining of it) consistent.
    for k in range(216):
        rng = np.random.default_rng([k, 9])
        dim = 1 + k % 6
        if k % 2:
            base = ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))
        else:
            ranks, left = [], dim
            while left:
                ranks.append(int(rng.integers(1, left + 1)))
                left -= ranks[-1]
            base = mixed_rank_decomposition(k, ranks)
        ctx = make_context(rng, dim)
        if k % 3 == 0:
            inside = base.stack[k % len(base)] @ (rng.standard_normal(dim)
                                                  + 1j * rng.standard_normal(dim))
            ctx = PrePostContext(Ket.normalized(inside), ctx.postselection)
        _assert_verdicts_bitwise(HistoryFamily.from_context(ctx, base))


@pytest.mark.parametrize("dim", [1, 3])
def test_coarse_graining_verdicts_of_a_one_branch_observable(dim):
    rng = np.random.default_rng(dim)
    whole = ObservableDecomposition.from_projectors([Projector(np.eye(dim), rank=dim)])
    family = HistoryFamily.from_context(make_context(rng, dim), whole)
    _assert_verdicts_bitwise(family)
    [(blocks, report, check)] = coarse_graining_verdicts(family, tol=0.0)
    assert blocks == ((0,),) and report.consistent and report.max_violation == 0.0


def test_coarse_graining_verdicts_refuse_above_cap_like_enumeration():
    base = ObservableDecomposition.from_eigenbasis(
        [Ket(v) for v in np.eye(7, dtype=complex)])
    family = HistoryFamily.from_context(make_context(np.random.default_rng(7), 7), base)
    with pytest.raises(TooManyBranchesError) as want:
        enumerate_coarse_grainings(base)
    with pytest.raises(TooManyBranchesError) as got:
        coarse_graining_verdicts(family)
    assert str(got.value) == str(want.value) == \
        "7 branches would enumerate too many partitions (cap is 6)"


def test_coarse_graining_verdicts_validate_like_is_consistent():
    with pytest.raises(ValueError, match="criterion must be one of"):
        coarse_graining_verdicts(FAMILY_BOXES, criterion="strong")
    with pytest.raises(ValidationError, match="tolerance must be non-negative, got -1.0"):
        coarse_graining_verdicts(FAMILY_BOXES, tol=-1.0)


def _plain_verdicts(x, criterion):
    # One family's decoherence matrix, max off-diagonal violation and
    # disturbed probability, in plain numpy on its amplitudes x.
    d = np.outer(x, x.conj()) + 0.0
    magnitude = np.abs(d) if criterion == "medium" else np.abs(d.real)
    np.fill_diagonal(magnitude, 0.0)
    return d, float(magnitude.max()), float(np.sum(x.real ** 2 + x.imag ** 2))


@pytest.mark.parametrize("dim", [7, 8, 9, 16, 17, 33, 64])
def test_verdicts_of_many_branch_families_match_plain_numpy_bit_for_bit(dim):
    # The coarse-graining tests stop at 6 branches; numpy's pairwise summation
    # changes above 8 terms.  A Haar basis, a basis containing the
    # preselection (consistent up to rounding), and for dims 8-33, dim - 1
    # mixed-rank branches (from_projectors' pairwise check takes 1 s at 64).
    rng = np.random.default_rng([dim, 12])
    ctx = make_context(rng, dim)
    observables = [ObservableDecomposition.from_eigenbasis(random_basis(rng, dim)),
                   basis_containing(ctx.preselection)]
    if 8 <= dim <= 33:
        observables.append(mixed_rank_decomposition(dim, [2] + [1] * (dim - 2)))
    for obs in observables:
        family = HistoryFamily.from_context(ctx, obs)
        x = family._x
        assert x.shape == (len(obs),) and len(obs) >= 7
        undisturbed = float(abs(np.vdot(family._post, family._pre)) ** 2)
        assert decoherence_matrix(family).tobytes() == _plain_verdicts(x, "medium")[0].tobytes()
        for criterion in ("medium", "weak"):
            d, violation, disturbed = _plain_verdicts(x, criterion)
            for tol in (0.0, CONSISTENCY_TOL, violation, abs(undisturbed - disturbed)):
                report = is_consistent(family, criterion=criterion, tol=tol)
                assert report.matrix.shape == d.shape
                assert report.matrix.tobytes() == d.tobytes()
                assert repr(report.max_violation) == repr(violation)
                assert report.consistent is (violation <= tol)
                check = disturbance_check(family, tol=tol)
                assert (repr(check.undisturbed), repr(check.disturbed)) == \
                    (repr(undisturbed), repr(disturbed))
                assert check.holds is (abs(undisturbed - disturbed) <= tol)


@st.composite
def _weakly_consistent_families(draw):
    """Dims 1-8: a fine observable of at most ``MAX_ENUMERATED_BRANCHES``
    branches (a Haar or, from dim 2, a near-degenerate basis grouped by
    labels) and a context whose family is
    weakly consistent by construction, then nudged by 0, 1e-9 or 1e-6:
    the preselection or the postselection lies in one branch, or exactly two
    branches carry amplitudes a quarter turn apart, which is weakly but not
    medium consistent."""
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng([draw(st.integers(0, 2 ** 32 - 1)), 18])
    near_degenerate = dim > 1 and draw(st.booleans())
    kets = (near_degenerate_basis if near_degenerate else random_basis)(rng, dim)
    labels = draw(st.lists(st.integers(0, MAX_ENUMERATED_BRANCHES - 1),
                           min_size=dim, max_size=dim))
    fine = ObservableDecomposition.from_projectors(
        [projector_from_kets([kets[i] for i in range(dim) if labels[i] == label])
         for label in sorted(set(labels))])
    n = len(fine)

    def gaussian():
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    k = draw(st.integers(0, n - 1))
    pre, post = random_ket(rng, dim).amplitudes, random_ket(rng, dim).amplitudes
    kind = draw(st.sampled_from(["pre in a branch", "post in a branch", "quadrature"]))
    if kind == "pre in a branch":
        pre = fine.stack[k] @ gaussian()
    elif kind == "post in a branch" or n == 1:
        post = fine.stack[k] @ gaussian()
    else:
        j = (k + draw(st.integers(1, n - 1))) % n
        u, v = fine.stack[k] @ pre, fine.stack[j] @ pre
        theta = draw(st.floats(0.1, 1.47))
        post = np.cos(theta) * u / np.linalg.norm(u) + 1j * np.sin(theta) * v / np.linalg.norm(v)
    nudge = draw(st.sampled_from([0.0, 1e-9, 1e-6]))
    ctx = PrePostContext(Ket.normalized(pre), Ket.normalized(post + nudge * gaussian()))
    return fine, ctx


@settings(max_examples=200, deadline=None)
@given(case=_weakly_consistent_families())
def test_abl_is_additive_over_the_coarse_grainings_of_a_consistent_family(case):
    # With x_i = <b|P_i|a>, |sum_{i in B} x_i|^2 - sum_{i in B} |x_i|^2 =
    # 2 sum_{i<j in B} Re x_i conj(x_j).  So for a family weakly consistent
    # at tol, a block's coarse joint is within |B|(|B|-1) tol of the sum of
    # its fine joints, the coarse denominator D_c within n(n-1) tol of the
    # fine one, and |ABL(B) - sum_{i in B} ABL(i)| <=
    # (|B|(|B|-1) + n(n-1)) tol / D_c.
    fine, ctx = case
    n = len(fine)
    tol = is_consistent(HistoryFamily.from_context(ctx, fine), criterion="weak",
                        tol=0.0).max_violation
    assert tol <= 1e-5
    fine_joints = np.abs((fine.stack @ ctx.preselection.amplitudes)
                         @ ctx.postselection.amplitudes.conj()) ** 2
    assume(fine_joints.sum() > 1e-6)
    fine_abl = abl_distribution(ctx, fine).probabilities
    for blocks, coarse in zip(_set_partitions(n), enumerate_coarse_grainings(fine)):
        dist = abl_distribution(ctx, coarse)
        for b, block in enumerate(blocks):
            gap = abs(dist.probabilities[b] - fine_abl[list(block)].sum())
            scale = len(block) * (len(block) - 1) + n * (n - 1)
            # Rounding moved gap * D_c by under 1e-16 over 600 examples.
            assert gap <= (scale * tol + 1e-14) / dist.denominator


def test_abl_is_not_additive_without_consistency():
    # Three-box C is not weakly consistent: its amplitudes are (1, 1, -1)/3,
    # so Re x_i conj(x_j) = +-1/9.  Grouping boxes 2 and 3 (Cprime) makes box
    # 1 certain, against C's 1/3: a gap of 2/3.  The bound above allows it
    # only at the family's own violation, never at CONSISTENCY_TOL.
    fine = SCENARIO.observables["C"]
    weak = is_consistent(HistoryFamily.from_context(CTX, fine), criterion="weak",
                         tol=CONSISTENCY_TOL)
    assert not weak.consistent
    assert weak.max_violation == pytest.approx(1 / 9)
    blocks = [(0,), (1, 2)]
    coarse = enumerate_coarse_grainings(fine)[_set_partitions(3).index(blocks)]
    dist = abl_distribution(CTX, coarse)
    assert dist.probabilities.tobytes() == \
        abl_distribution(CTX, SCENARIO.observables["Cprime"]).probabilities.tobytes()
    gap = dist.probabilities[0] - abl_distribution(CTX, fine).probabilities[0]
    assert gap == pytest.approx(2 / 3)
    scale = 3 * 2  # |B|(|B|-1) = 0 for B = {box 1}, and n(n-1) = 6
    assert gap > (scale * CONSISTENCY_TOL + 1e-14) / dist.denominator
    assert gap <= scale * weak.max_violation / dist.denominator


def _contrary_context(rng, dim, t):
    """Kent's contrary inferences (PRL 78, 2874, 1997): a Haar basis ``e`` and
    a context whose amplitudes x_i = <b|e_i><e_i|a> are proportional to
    s = (k, k, -k, t) for a random unit phase k.  Returns ``e`` and the
    context."""
    e = random_basis(rng, dim)
    a = random_ket(rng, dim)
    kets = np.array([k.amplitudes for k in e])
    kappa = np.exp(2j * np.pi * rng.random())
    s = np.concatenate([[kappa, kappa, -kappa], t])
    b = Ket.normalized(np.conj(s / (kets.conj() @ a.amplitudes)) @ kets)
    return e, PrePostContext(a, b)


def _two_outcome_abl(ctx, projector):
    # ABL of ``projector`` in the family {P, I - P}, and that family's verdict
    observable = ObservableDecomposition.from_projectors([projector, projector.complement()])
    report = is_consistent(HistoryFamily.from_context(ctx, observable))
    return float(abl_distribution(ctx, observable).probabilities[0]), report.consistent


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(3, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_consistent_families_make_contrary_inferences(dim, seed):
    # With sum(t) = 0, the amplitudes of I - E1, I - E2 and E1 + E3 sum to 0:
    # two consistent families each make one of the orthogonal E1, E2
    # certain, and a third makes E1 + E3, which contains E1, impossible.
    # Only the fine family, which is inconsistent, ranks them as Born-like
    # odds: |k|^2 / (3 |k|^2 + |t|^2) <= 1/3 each.
    rng = np.random.default_rng([seed, 21])
    t = rng.standard_normal(dim - 3) + 1j * rng.standard_normal(dim - 3)
    e, ctx = _contrary_context(rng, dim, t - t.mean() if dim > 3 else t)
    e1, e2 = e[0].projector(), e[1].projector()
    assert np.abs(e1.matrix @ e2.matrix).max() <= 1e-14
    for certain in (e1, e2):
        abl, consistent = _two_outcome_abl(ctx, certain)
        assert consistent and abs(abl - 1.0) <= 1e-12
    impossible, consistent = _two_outcome_abl(ctx, projector_from_kets([e[0], e[2]]))
    assert consistent and impossible <= 1e-12
    fine = ObservableDecomposition.from_eigenbasis(e)
    assert not is_consistent(HistoryFamily.from_context(ctx, fine)).consistent
    probabilities = abl_distribution(ctx, fine).probabilities
    assert max(probabilities[0], probabilities[1]) <= 1 / 3 + 1e-12


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(4, 8), seed=st.integers(0, 2 ** 32 - 1),
       offset=st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0))
def test_contrary_inferences_need_the_amplitudes_of_i_minus_e1_to_cancel(dim, seed, offset):
    # Negative control: with sum(t) = offset the amplitude of I - E1 is
    # offset times that of E1, so ABL(E1) = 1 / (1 + |offset|^2) and E1 is
    # no longer certain.
    rng = np.random.default_rng([seed, 21])
    t = rng.standard_normal(dim - 3) + 1j * rng.standard_normal(dim - 3)
    e, ctx = _contrary_context(rng, dim, t - t.mean() + offset / (dim - 3))
    abl, _ = _two_outcome_abl(ctx, e[0].projector())
    expected = 1.0 / (1.0 + abs(offset) ** 2)
    assert abl == pytest.approx(expected, rel=1e-9)
    assert abl < 1.0 - 1e-7
