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

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .abl import PrePostContext
from .errors import ValidationError
from .linalg import Ket, ObservableDecomposition, basis_containing
# projector_from_kets is unused here; bench/workloads.py's tracer rebinds this name.
from .linalg import projector_from_kets  # noqa: F401

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


def _groups(dim: int, labels: Sequence[float],
            *groups: tuple[int, ...]) -> ObservableDecomposition:
    # 0/1 projectors onto groups that partition the canonical basis: valid by construction.
    stack = np.array([np.diag([float(k in g) for k in range(dim)]) for g in groups], np.complex128)
    return ObservableDecomposition._validated(
        stack, [float(e) for e in labels], [len(g) for g in groups])


def three_box() -> Scenario:
    a = Ket.normalized([1, 1, 1])
    b = Ket.normalized([1, 1, -1])
    return Scenario(
        name="three-box",
        description="ball in three boxes, found in box 1 or in box 2 depending on the grouping",
        context=PrePostContext(a, b),
        observables={
            "C": _groups(3, [1, 2, 3], (0,), (1,), (2,)),
            "Cprime": _groups(3, [1, 2], (0,), (1, 2)),
            "Cdprime": _groups(3, [1, 2], (0, 2), (1,)),
            "A": basis_containing(a),
            "B": basis_containing(b),
        },
        default_observable="C",
    )


def spin(theta: float) -> Scenario:
    plus_n = Ket([math.cos(theta / 2.0), math.sin(theta / 2.0)])
    minus_n = Ket([-math.sin(theta / 2.0), math.cos(theta / 2.0)])
    up = Ket([1, 0])
    plus_x = Ket.normalized([1, 1])
    minus_x = Ket.normalized([1, -1])
    return Scenario(
        name="spin-pi3" if theta == math.pi / 3.0 else f"spin:{theta:g}",
        description=f"spin-1/2 selected along +z, asked about the axis at {theta:g} rad from z",
        context=PrePostContext(up, up),
        observables={
            "Sn": ObservableDecomposition.from_eigenbasis([plus_n, minus_n], eigenvalues=[1, -1]),
            "Sz": _groups(2, [1, -1], (0,), (1,)),
            "Sx": ObservableDecomposition.from_eigenbasis([plus_x, minus_x], eigenvalues=[1, -1]),
        },
        default_observable="Sn",
    )


def _identity(default: str) -> Scenario:
    a = Ket([1, 0])
    b = Ket.normalized([1, 1])
    selection = {"A": "preselection", "B": "postselection"}[default]
    return Scenario(
        name=f"identity-{default}",
        description=f"measuring a basis containing the {selection} finds it with certainty",
        context=PrePostContext(a, b),
        observables={"A": basis_containing(a), "B": basis_containing(b)},
        default_observable=default,
    )


_BUILTINS = {
    "three-box": three_box,
    "spin-pi3": lambda: spin(math.pi / 3.0),
    "preselect-only": lambda: dataclasses.replace(
        spin(math.pi / 3.0), name="preselect-only",
        description="identical pre- and postselection; the postselection never filters",
        default_observable="Sz"),
    "identity-A": lambda: _identity("A"),
    "identity-B": lambda: _identity("B"),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> Scenario:
    """Look up a compiled-in scenario by name.

    ``spin:<theta>`` parses ``theta`` (radians) on the fly; the other names
    are fixed.  Raises :class:`ValidationError` (a ``ValueError``) for
    anything unknown.
    """
    if name in _BUILTINS:
        return _BUILTINS[name]()
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
