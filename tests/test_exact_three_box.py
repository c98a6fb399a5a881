"""The three-box amplitudes against exact rational arithmetic.

The three-box kets are (1, 1, 1)/sqrt(3) and (1, 1, -1)/sqrt(3), and each of
its observables ``C``, ``Cprime`` and ``Cdprime``, like every coarse-graining
of ``C``, groups the canonical basis into blocks.  So every block amplitude
x_I = <b|P_I|a> = sum_{i in I} conj(b_i) a_i / (|a| |b|) is rational, and so
is everything built from it.  This module computes those values with
``fractions.Fraction`` and checks ablkit's floats against them: an exact
zero must come out 0.0, and every other value within ``C_EPS`` of the exact
one.

The bound, with u = eps/2 the unit roundoff: each ket entry is
``1/fl(sqrt(3))`` rounded, within 2u of its exact value, so each product
``conj(b_i) a_i`` is within 5u of +-1/3.  A 0/1 block projector applied to
``a`` is exact, and the inner product then sums at most three terms, which
adds at most gamma_3 |x| (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 3); two equal products that cancel give exactly 0.  So
|x - exact| <= 8u = 4 eps, times |x| <= 1.  A product of two such values, a
square, a sum of three squares and one quotient of them (decoherence
entries, joints, the ABL probabilities) at most quadruple that relative
error, and every value checked is at most 1, so ``C_EPS = 16 eps`` covers
them all.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ablkit.abl import abl_distribution
from ablkit.histories import (HistoryFamily, coarse_graining_table, enumerate_coarse_grainings,
                              is_consistent)
from ablkit.scenarios import builtin

EPS = float(np.finfo(np.float64).eps)
C_EPS = 16 * EPS

#: The Gaussian-integer kets before normalization, as (real, imaginary) pairs.
PRE = [(1, 0), (1, 0), (1, 0)]
POST = [(1, 0), (1, 0), (-1, 0)]
#: Each observable as its blocks of canonical basis indices, in branch order.
BLOCKS = {
    "C": [(0,), (1,), (2,)],
    "Cprime": [(0,), (1, 2)],
    "Cdprime": [(0, 2), (1,)],
}
#: The coarse-graining k of C, in enumerate_coarse_grainings' order.
C_COARSE = [[(0, 1, 2)], [(0, 1), (2,)], [(0, 2), (1,)], [(0,), (1, 2)], [(0,), (1,), (2,)]]

SCENARIO = builtin("three-box")


# --- the exact reference ----------------------------------------------------

def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _conj(x):
    return (x[0], -x[1])


def _abs_sq(x):
    return x[0] * x[0] + x[1] * x[1]


def _rational_sqrt(q: Fraction) -> Fraction:
    root = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    assert root * root == q, f"{q} is not the square of a rational"
    return root


def exact_amplitudes(blocks) -> list[tuple[Fraction, Fraction]]:
    """x_I = <b|P_I|a> for each block I of canonical basis indices."""
    scale = _rational_sqrt(Fraction(sum(map(_abs_sq, PRE)) * sum(map(_abs_sq, POST))))
    xs = []
    for block in blocks:
        re = im = Fraction(0)
        for i in block:
            term = _mul(_conj(POST[i]), PRE[i])
            re, im = re + term[0], im + term[1]
        xs.append((re / scale, im / scale))
    return xs


def exact_decoherence(xs) -> list[list[tuple[Fraction, Fraction]]]:
    """D(I, J) = x_I conj(x_J)."""
    return [[_mul(xi, _conj(xj)) for xj in xs] for xi in xs]


def exact_abl(xs) -> list[Fraction]:
    joints = [_abs_sq(x) for x in xs]
    return [j / sum(joints) for j in joints]


def exact_violation_sq(xs) -> Fraction:
    """The square of max |D(I, J)| over I != J."""
    d = exact_decoherence(xs)
    n = len(xs)
    return max((_abs_sq(d[i][j]) for i in range(n) for j in range(n) if i != j),
               default=Fraction(0))


# --- the checks ---------------------------------------------------------------

def _assert_close(got, exact, label):
    # got is a float or complex; exact a Fraction or a (real, imaginary) pair.
    pairs = ([(complex(got).real, exact[0]), (complex(got).imag, exact[1])]
             if isinstance(exact, tuple) else [(float(got), exact)])
    for value, want in pairs:
        if want == 0:
            assert value == 0.0, f"{label}: {value!r} for the exact 0"
        else:
            assert abs(value - float(want)) <= C_EPS, f"{label}: {value!r} vs {want}"


def _assert_family(family, blocks, label):
    stack = family.intermediate.stack
    projectors = np.zeros_like(stack)
    for j, block in enumerate(blocks):
        projectors[j, block, block] = 1.0
    assert np.array_equal(stack, projectors), f"{label}: not the blocks {blocks}"
    xs = exact_amplitudes(blocks)
    for j, (got, want) in enumerate(zip(family._x, xs)):
        _assert_close(got, want, f"{label} x[{j}]")
    d = exact_decoherence(xs)
    report = is_consistent(family, tol=0.0)
    for (i, j), got in np.ndenumerate(report.matrix):
        _assert_close(got, d[i][j], f"{label} D[{i}, {j}]")
    violation_sq = exact_violation_sq(xs)
    if violation_sq == 0:
        assert report.max_violation == 0.0 and report.consistent, label
    else:
        assert abs(report.max_violation - math.sqrt(violation_sq)) <= C_EPS, label
    for j, (got, want) in enumerate(zip(abl_distribution(SCENARIO.context, family.intermediate)
                                        .probabilities, exact_abl(xs))):
        _assert_close(got, want, f"{label} ABL[{j}]")


@pytest.mark.parametrize("name", BLOCKS)
def test_observable_amplitudes_match_the_exact_values(name):
    family = HistoryFamily.from_context(SCENARIO.context, SCENARIO.observables[name])
    _assert_family(family, BLOCKS[name], name)


def test_every_coarse_graining_of_c_matches_the_exact_values():
    base = SCENARIO.observables["C"]
    for k, (blocks, grained) in enumerate(zip(C_COARSE, enumerate_coarse_grainings(base))):
        _assert_family(HistoryFamily.from_context(SCENARIO.context, grained), blocks,
                       f"coarse-graining {k}")
    # The table reads the same block amplitudes.
    family = HistoryFamily.from_context(SCENARIO.context, base)
    _, matrices, _, consistent, _, _ = coarse_graining_table(family, tol=0.0)
    for k, blocks in enumerate(C_COARSE):
        xs = exact_amplitudes(blocks)
        d = exact_decoherence(xs)
        n = len(blocks)
        for (i, j), got in np.ndenumerate(matrices[k][:n, :n]):
            _assert_close(got, d[i][j], f"table {k} D[{i}, {j}]")
        assert consistent[k] == (exact_violation_sq(xs) == 0)


def test_the_closed_forms():
    # Opening box 1 finds the ball with probability 1/3; grouped as {1}{2,3}
    # (or {1,3}{2}) box 1 (or box 2) is certain; C's violation is 1/9.
    ctx, observables = SCENARIO.context, SCENARIO.observables
    for name, branch, want in (("C", 0, Fraction(1, 3)), ("Cprime", 0, Fraction(1)),
                               ("Cdprime", 1, Fraction(1))):
        assert exact_abl(exact_amplitudes(BLOCKS[name]))[branch] == want
        got = abl_distribution(ctx, observables[name]).probabilities[branch]
        assert abs(got - float(want)) <= C_EPS, name
    assert exact_violation_sq(exact_amplitudes(BLOCKS["C"])) == Fraction(1, 81)
    report = is_consistent(HistoryFamily.from_context(ctx, observables["C"]))
    assert abs(report.max_violation - 1 / 9) <= C_EPS
    for name in ("Cprime", "Cdprime"):
        report = is_consistent(HistoryFamily.from_context(ctx, observables[name]), tol=0.0)
        assert report.consistent and report.max_violation == 0.0, name
