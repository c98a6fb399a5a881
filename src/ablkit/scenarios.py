"""Built-in scenarios.

A scenario bundles a pre/postselection context with a named set of
observables to ask about.  The compiled-in ones:

``three-box``
    The three-box example in dimension 3: preselect (1,1,1)/sqrt(3),
    postselect (1,1,-1)/sqrt(3).  Observables: ``C`` (which of the three
    boxes), ``Cprime`` (box 1 versus the rest), ``Cdprime`` (box 2 versus
    the rest, grouped as {1,3} and {2}), ``A`` and ``B`` (bases containing
    the pre- and postselection).  Opening box 1 alone finds the ball with
    ABL probability 1/3; merging boxes 2 and 3 first makes it 1.

``spin-pi3`` / ``spin:<theta>``
    A spin-1/2 prepared and postselected along +z, asked about the spin
    component along the axis tilted by ``theta`` from z in the x-z plane.

``preselect-only``
    Pre- and postselection both +z, so the postselection is guaranteed and
    filters nothing out.  For the default observable Sz (and for Sx) the ABL
    distribution coincides with the Born one; the tilted Sn still shows the
    conditioning at work.

``identity-A`` / ``identity-B``
    A two-dimensional context with distinct, non-orthogonal selections and
    the two identity-check observables: measuring the basis containing the
    preselection (``A``) or the postselection (``B``) yields that state with
    certainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .abl import PrePostContext
from .errors import ValidationError
from .linalg import Ket, ObservableDecomposition, basis_containing, projector_from_kets

BUILTIN_NAMES = ("three-box", "spin-pi3", "preselect-only", "identity-A", "identity-B")


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    description: str
    context: PrePostContext
    observables: Mapping[str, ObservableDecomposition]
    default_observable: str

    def __post_init__(self):
        if self.default_observable not in self.observables:
            raise ValueError(
                f"default observable {self.default_observable!r} not among "
                f"{sorted(self.observables)}")
        for name, obs in self.observables.items():
            if obs.dim != self.context.dim:
                raise ValueError(f"observable {name!r} has dim {obs.dim}, context has {self.context.dim}")

    @property
    def dim(self) -> int:
        return self.context.dim

    def observable(self, name: str | None = None) -> ObservableDecomposition:
        key = self.default_observable if name is None else name
        if key not in self.observables:
            raise KeyError(
                f"unknown observable {key!r}; choose from {sorted(self.observables)}")
        return self.observables[key]


def _unit(dim: int, k: int) -> Ket:
    v = np.zeros(dim, dtype=np.complex128)
    v[k] = 1.0
    return Ket(v)


def three_box() -> Scenario:
    u1, u2, u3 = (_unit(3, k) for k in range(3))
    a = Ket.normalized([1, 1, 1])
    b = Ket.normalized([1, 1, -1])
    boxes = ObservableDecomposition.from_eigenbasis([u1, u2, u3], eigenvalues=[1, 2, 3])
    box1_vs_rest = ObservableDecomposition.from_projectors(
        [u1.projector(), projector_from_kets([u2, u3])], eigenvalues=[1, 2])
    box2_vs_rest = ObservableDecomposition.from_projectors(
        [projector_from_kets([u1, u3]), u2.projector()], eigenvalues=[1, 2])
    return Scenario(
        name="three-box",
        description="ball in three boxes, found in box 1 or in box 2 depending on the grouping",
        context=PrePostContext(a, b),
        observables={
            "C": boxes,
            "Cprime": box1_vs_rest,
            "Cdprime": box2_vs_rest,
            "A": basis_containing(a),
            "B": basis_containing(b),
        },
        default_observable="C",
    )


def spin(theta: float) -> Scenario:
    plus_n = Ket([math.cos(theta / 2.0), math.sin(theta / 2.0)])
    minus_n = Ket([-math.sin(theta / 2.0), math.cos(theta / 2.0)])
    up, down = _unit(2, 0), _unit(2, 1)
    plus_x = Ket.normalized([1, 1])
    minus_x = Ket.normalized([1, -1])
    return Scenario(
        name="spin-pi3" if theta == math.pi / 3.0 else f"spin:{theta:g}",
        description=f"spin-1/2 selected along +z, asked about the axis at {theta:g} rad from z",
        context=PrePostContext(up, up),
        observables={
            "Sn": ObservableDecomposition.from_eigenbasis([plus_n, minus_n], eigenvalues=[1, -1]),
            "Sz": ObservableDecomposition.from_eigenbasis([up, down], eigenvalues=[1, -1]),
            "Sx": ObservableDecomposition.from_eigenbasis([plus_x, minus_x], eigenvalues=[1, -1]),
        },
        default_observable="Sn",
    )


def preselect_only() -> Scenario:
    base = spin(math.pi / 3.0)
    return Scenario(
        name="preselect-only",
        description="identical pre- and postselection; the postselection never filters",
        context=base.context,
        observables=dict(base.observables),
        default_observable="Sz",
    )


def _identity_pair() -> tuple[PrePostContext, dict[str, ObservableDecomposition]]:
    a = _unit(2, 0)
    b = Ket.normalized([1, 1])
    return PrePostContext(a, b), {"A": basis_containing(a), "B": basis_containing(b)}


def identity_a() -> Scenario:
    ctx, observables = _identity_pair()
    return Scenario(
        name="identity-A",
        description="measuring a basis containing the preselection finds it with certainty",
        context=ctx,
        observables=observables,
        default_observable="A",
    )


def identity_b() -> Scenario:
    ctx, observables = _identity_pair()
    return Scenario(
        name="identity-B",
        description="measuring a basis containing the postselection finds it with certainty",
        context=ctx,
        observables=observables,
        default_observable="B",
    )


def builtin(name: str) -> Scenario:
    """Look up a compiled-in scenario by name.

    ``spin:<theta>`` parses ``theta`` (radians) on the fly; the other names
    are fixed.  Raises :class:`ValidationError` (a ``ValueError``) for
    anything unknown.
    """
    if name == "three-box":
        return three_box()
    if name == "spin-pi3":
        return spin(math.pi / 3.0)
    if name == "preselect-only":
        return preselect_only()
    if name == "identity-A":
        return identity_a()
    if name == "identity-B":
        return identity_b()
    if name.startswith("spin:"):
        try:
            theta = float(name.partition(":")[2])
        except ValueError:
            raise ValidationError(f"bad spin angle in {name!r}") from None
        if not math.isfinite(theta):
            raise ValidationError(f"spin angle must be finite, got {name!r}")
        return spin(theta)
    raise ValidationError(f"unknown builtin scenario {name!r}; "
                          f"choose from {', '.join(BUILTIN_NAMES)} or spin:<theta>")
