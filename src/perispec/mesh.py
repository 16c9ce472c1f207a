"""Uniform 1-D meshes of the interval Omega = (a, b) and the constrained space on them.

A mesh is Omega's partition only.  A ``DiscreteFunction`` vanishes off Omega (both its end
values are zero), so its interaction with the complement is a weighted L^p term over Omega
that the energy module integrates analytically.  The horizon belongs to the kernel: one
that spans Omega (``Mesh.spans``, delta >= |Omega| to rounding) is taken as given, and
``Mesh.snap`` rounds one below to r h, so the cutoff aligns with element boundaries.
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


class ConstraintViolationError(ValueError):
    """Function is nonzero at an end of the domain, where the constrained space vanishes."""


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

    def spans(self, delta: float) -> bool:
        """Whether delta >= |Omega| to rounding: the kernel reaches across Omega."""
        return delta >= self.length * (1.0 - 1e-12)

    def snap(self, delta: float) -> float:
        """The horizon a kernel on this mesh takes for delta: delta as given if it spans
        Omega, else round(delta/h) h."""
        if self.spans(delta):
            return delta
        if delta < self.h * (1.0 - 1e-12):
            raise HorizonUnderresolvedError(
                f"horizon {delta} is below one cell h={self.h}; refine the mesh")
        return round(delta / self.h) * self.h


@dataclass(frozen=True, eq=False)
class DiscreteFunction:
    """Nodal values of a piecewise-linear function of the constrained space on a mesh:
    both end values are zero, or construction raises ConstraintViolationError."""

    values: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != self.mesh.nodes.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match mesh with {len(self.mesh.nodes)} nodes"
            )
        if vals[0] != 0.0 or vals[-1] != 0.0:
            raise ConstraintViolationError("function is nonzero at an end of the domain")
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
