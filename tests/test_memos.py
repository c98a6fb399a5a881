"""A ket's projector is built once and kept, read-only, on the immutable
ket, and it keeps the ket as the state that spans it: two families on one
context share both.  These tests check that the kept values are the ones a
fresh build gives, that nobody can write them, and that a copy is read-only
too and rebuilds what it kept.  A history family's states and amplitudes are
read-only as well, on the family and on its copies."""

import copy
import pickle

import numpy as np
import pytest

from ablkit.abl import PrePostContext
from ablkit.histories import HistoryFamily, coarse_graining_table, disturbance_check, is_consistent
from ablkit.linalg import Ket, ObservableDecomposition, Projector, basis_containing
from ablkit.sampling import random_basis, random_ket, substream
from ablkit.scenarios import builtin


def _scenario(i: int):
    rng = substream(34, i)
    dim = 2 + i % 5
    a, b = random_ket(rng, dim), random_ket(rng, dim)
    return a, b, ObservableDecomposition.from_eigenbasis(random_basis(rng, dim))


def _family_bits(family: HistoryFamily) -> list[bytes]:
    consistency, disturbance = is_consistent(family), disturbance_check(family)
    return [np.asarray(v).tobytes() for v in (
        family.initial.matrix, family.final.matrix, family._pre, family._post, family._x,
        family._undisturbed, consistency.matrix, consistency.max_violation,
        disturbance.disturbed, *coarse_graining_table(family)[1:3])]


def test_a_ket_builds_its_projector_once():
    k = random_ket(substream(1, 2), 4)
    assert k.projector() is k.projector()
    ctx = PrePostContext(k, k)
    assert ctx.initial_projector is k.projector().matrix


@pytest.mark.parametrize("make", [Ket, Ket.normalized, lambda v: random_ket(substream(3, 0), 3)],
                         ids=["init", "normalized", "draw"])
def test_the_kept_projector_and_state_are_read_only(make):
    k = make(np.array([0.6, 0.8j, 0.0]))
    p = k.projector()
    state = p._state()
    assert state is k.amplitudes
    for array in (p.matrix, state):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_families_on_a_used_context_equal_families_on_fresh_kets():
    for i in range(40):
        a, b, observable = _scenario(i)
        ctx = PrePostContext(a, b)
        around = basis_containing(a)
        used = [HistoryFamily.from_context(ctx, o) for o in (observable, around)]
        # The first family built both projectors; the second reused them and the kets.
        assert used[0].initial is used[1].initial and used[0]._pre is used[1]._pre
        for family, o in zip(used, (observable, around)):
            fresh = HistoryFamily.from_context(
                PrePostContext(Ket(a.amplitudes), Ket(b.amplitudes)), o)
            assert _family_bits(family) == _family_bits(fresh)


_CLONES = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("clone", _CLONES.values(), ids=_CLONES.keys())
def test_a_ket_with_a_built_projector_survives_a_copy(clone):
    k = random_ket(substream(5, 1), 5)
    built = k.projector().matrix.tobytes()
    c = clone(k)
    assert c.amplitudes.tobytes() == k.amplitudes.tobytes()
    assert "_projector" not in c.__dict__
    assert c.projector().matrix.tobytes() == built
    assert c.projector().matrix.tobytes() == Ket(k.amplitudes).projector().matrix.tobytes()


def _families(k: Ket, observable: ObservableDecomposition) -> list[HistoryFamily]:
    # One family on kets' projectors and one on projectors built from matrices,
    # whose states are read from their columns.
    b = random_ket(substream(5, 3), k.dim)
    return [HistoryFamily.from_context(PrePostContext(k, b), observable),
            HistoryFamily(Projector(k.projector().matrix), observable,
                          Projector(b.projector().matrix))]


def test_a_family_is_read_only():
    k = random_ket(substream(5, 2), 4)
    for family in _families(k, ObservableDecomposition.from_eigenbasis(
            random_basis(substream(5, 4), 4))):
        for array in (family._x, family._pre, family._post):
            with pytest.raises(ValueError):
                array[0] = 1.0


@pytest.mark.parametrize("clone", _CLONES.values(), ids=_CLONES.keys())
def test_copies_are_read_only(clone):
    k = random_ket(substream(5, 2), 4)
    observable = basis_containing(k)
    # A ket's projector is copied as that ket's projector, so it keeps the ket
    # as its state; a projector built from a matrix keeps only the matrix.
    for original, arrays in ((k, lambda c: [c.amplitudes]),
                             (k.projector(), lambda c: [c.matrix, c._state()]),
                             (observable.projector(1), lambda c: [c.matrix]),
                             (observable, lambda c: [c.stack]),
                             *((family, lambda c: [c._x, c._pre, c._post])
                               for family in _families(k, observable))):
        copied = clone(original)
        assert type(copied) is type(original)
        assert [a.tobytes() for a in arrays(copied)] == [a.tobytes() for a in arrays(original)]
        assert not any(a.flags.writeable for a in arrays(copied))
    scenario = builtin("three-box")
    scenario.observable("C")  # built before the copy, so the copy holds a copy of it
    copied = clone(scenario)
    arrays = [copied.context.preselection.amplitudes, copied.context.postselection.amplitudes,
              copied.observable("C").stack]
    assert not any(a.flags.writeable for a in arrays)
