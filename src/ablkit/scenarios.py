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

A builtin builds each observable once, on its first lookup; ``in``,
iteration and ``len`` build nothing.  Builtins pickle and deep-copy, built
or not, and may be shared between threads: two racing first lookups may
both build, but both return the one stored first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence

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

    @classmethod
    def _validated(cls, name: str, description: str, context: PrePostContext,
                   factories: dict, default_observable: str) -> "Scenario":
        # Mirrors Ket._validated, for a builtin: __post_init__ would build
        # every observable to check its dim.
        scenario = object.__new__(cls)
        scenario.__dict__.update(name=name, description=description, context=context,
                                 observables=_LazyObservables(factories),
                                 default_observable=default_observable)
        return scenario

    @property
    def dim(self) -> int:
        return self.context.dim

    def observable(self, name: str | None = None) -> ObservableDecomposition:
        key = self.default_observable if name is None else name
        if key not in self.observables:
            raise KeyError(
                f"unknown observable {key!r}; choose from {sorted(self.observables)}")
        return self.observables[key]


class _LazyObservables(Mapping[str, ObservableDecomposition]):
    # One factory per name, run on its first lookup (setdefault keeps the
    # first of two racing builds): partials made per builtin() call, as
    # lambdas do not pickle and partials made at import miss rebound names.
    def __init__(self, factories: dict):
        self._factories = factories
        self._built: dict[str, ObservableDecomposition] = {}

    def __getitem__(self, name: str) -> ObservableDecomposition:
        if name not in self._built:
            self._built.setdefault(name, self._factories[name]())
        return self._built[name]

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)


def _groups(dim: int, labels: Sequence[float],
            *groups: tuple[int, ...]) -> ObservableDecomposition:
    # 0/1 projectors onto groups that partition the canonical basis: valid by construction.
    # Entry (k, k) of projector i is flat entry i*dim*dim + k*(dim + 1) of the stack.
    stack = np.zeros((len(groups), dim, dim), np.complex128)
    ones = [i * dim * dim + k * (dim + 1) for i, g in enumerate(groups) for k in g]
    stack.reshape(-1)[ones] = 1.0
    return ObservableDecomposition._validated(
        stack, [float(e) for e in labels], [len(g) for g in groups])


def _spin_axis(ket: Callable, plus: Sequence[float], minus: Sequence[float]):
    return ObservableDecomposition.from_eigenbasis([ket(plus), ket(minus)], eigenvalues=[1, -1])


def three_box() -> Scenario:
    a, b = Ket.normalized([1, 1, 1]), Ket.normalized([1, 1, -1])
    return Scenario._validated(
        "three-box", "ball in three boxes, found in box 1 or in box 2 depending on the grouping",
        PrePostContext(a, b), {
            "C": partial(_groups, 3, [1, 2, 3], (0,), (1,), (2,)),
            "Cprime": partial(_groups, 3, [1, 2], (0,), (1, 2)),
            "Cdprime": partial(_groups, 3, [1, 2], (0, 2), (1,)),
            "A": partial(basis_containing, a),
            "B": partial(basis_containing, b),
        }, "C")


def _spin(theta: float, name: str, description: str, default: str) -> Scenario:
    cos, sin = math.cos(theta / 2.0), math.sin(theta / 2.0)
    up = Ket([1, 0])
    return Scenario._validated(name, description, PrePostContext(up, up), {
        "Sn": partial(_spin_axis, Ket, [cos, sin], [-sin, cos]),
        "Sz": partial(_groups, 2, [1, -1], (0,), (1,)),
        "Sx": partial(_spin_axis, Ket.normalized, [1, 1], [1, -1]),
    }, default)


def spin(theta: float) -> Scenario:
    return _spin(theta, "spin-pi3" if theta == math.pi / 3.0 else f"spin:{theta:g}",
                 f"spin-1/2 selected along +z, asked about the axis at {theta:g} rad from z", "Sn")


def _identity(default: str) -> Scenario:
    a, b = Ket([1, 0]), Ket.normalized([1, 1])
    selection = {"A": "preselection", "B": "postselection"}[default]
    return Scenario._validated(
        f"identity-{default}",
        f"measuring a basis containing the {selection} finds it with certainty",
        PrePostContext(a, b),
        {"A": partial(basis_containing, a), "B": partial(basis_containing, b)}, default)


_BUILTINS = {
    "three-box": three_box,
    "spin-pi3": lambda: spin(math.pi / 3.0),
    "preselect-only": lambda: _spin(
        math.pi / 3.0, "preselect-only",
        "identical pre- and postselection; the postselection never filters", "Sz"),
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
