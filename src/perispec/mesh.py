"""Uniform 1-D meshes of the interval Omega = (a, b).

A mesh is Omega's partition only: functions of the constrained space vanish off Omega,
so their interaction with the complement is a weighted L^p term over Omega that the
energy module integrates analytically.  The horizon belongs to the kernel; ``Mesh.snap``
rounds a requested horizon below |Omega| to an integer multiple r h of the cell size, so
the interaction cutoff aligns with element boundaries, and the kernel is built at it.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np


class HorizonUnderresolvedError(ValueError):
    """Requested horizon is smaller than one mesh cell; refine the mesh."""


class InvalidFunctionError(ValueError):
    """Sampled function produced a non-finite nodal value."""


@dataclass(frozen=True)
class Mesh:
    """Immutable uniform partition of Omega = (a, b) into n_interior elements, fixed by its
    numbers: separately built copies compare and hash equal and share one memoized tableau
    per horizon.  The nodes are built on first use, read-only."""

    a: float
    b: float
    n_interior: int

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if not 2 <= self.n_interior <= sys.float_info.max:  # h = |Omega| / n is a float
            raise ValueError(f"need 2 <= n_interior <= {sys.float_info.max:g}, "
                             f"got {self.n_interior}")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def h(self) -> float:
        return self.length / self.n_interior

    @property
    def fingerprint(self) -> tuple:
        return (self.a, self.b, self.h, self.n_interior + 1)

    @property
    def interior(self) -> slice:
        """The interior nodes, all but the two ends of the nodal vector."""
        return slice(1, self.n_interior)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(self.a, self.b, self.n_interior + 1)
        nodes.setflags(write=False)
        return nodes

    def snap(self, delta: float) -> float:
        """The horizon a kernel on this mesh takes for delta: below |Omega|, round(delta/h) h;
        at or above it, delta as given."""
        if delta >= self.length:
            return delta
        if delta < self.h * (1.0 - 1e-12):
            raise HorizonUnderresolvedError(
                f"horizon {delta} is below one cell h={self.h}; refine the mesh")
        return round(delta / self.h) * self.h


@dataclass(frozen=True, eq=False)
class DiscreteFunction:
    """Nodal values of a piecewise-linear function on a mesh.

    Membership in the constrained space requires zeros at both ends; ``interpolate``
    enforces this, direct construction is checked by the energy module.
    """

    values: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != self.mesh.nodes.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match mesh with {len(self.mesh.nodes)} nodes"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def interpolate(f, mesh: Mesh) -> DiscreteFunction:
    """Sample f at the nodes, forcing the end values to zero."""
    vals = np.array([float(f(x)) for x in mesh.nodes], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = mesh.nodes[~np.isfinite(vals)][0]
        raise InvalidFunctionError(f"non-finite sample at x={bad}")
    vals[[0, -1]] = 0.0
    return DiscreteFunction(vals, mesh)
