"""A ket's projector and a rank-1 projector's state are built once and kept,
read-only, on the immutable object: two families on one context share them.
These tests check that the kept values are the ones a fresh build gives and
that nobody can write them."""

import copy
import pickle

import numpy as np
import pytest

from ablkit.abl import PrePostContext
from ablkit.histories import (HistoryFamily, _state_of, coarse_graining_table, disturbance_check,
                              is_consistent)
from ablkit.linalg import Ket, ObservableDecomposition, basis_containing
from ablkit.sampling import random_basis, random_ket, substream


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
    state = _state_of(p)
    assert state is _state_of(p)
    for array in (p.matrix, state):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_families_on_a_used_context_equal_families_on_fresh_kets():
    for i in range(40):
        a, b, observable = _scenario(i)
        ctx = PrePostContext(a, b)
        around = basis_containing(a)
        used = [HistoryFamily.from_context(ctx, o) for o in (observable, around)]
        # The first family built both projectors and their states; the second reused them.
        assert used[0].initial is used[1].initial and used[0]._pre is used[1]._pre
        for family, o in zip(used, (observable, around)):
            fresh = HistoryFamily.from_context(
                PrePostContext(Ket(a.amplitudes), Ket(b.amplitudes)), o)
            assert _family_bits(family) == _family_bits(fresh)


@pytest.mark.parametrize("clone", [lambda k: pickle.loads(pickle.dumps(k)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_ket_with_a_built_projector_survives_a_copy(clone):
    k = random_ket(substream(5, 1), 5)
    built = k.projector().matrix.tobytes()
    c = clone(k)
    assert c.amplitudes.tobytes() == k.amplitudes.tobytes()
    assert c.projector().matrix.tobytes() == built
    assert c.projector().matrix.tobytes() == Ket(k.amplitudes).projector().matrix.tobytes()
