"""Uniform 1-D meshes of the interval Omega = (a, b).

A mesh holds Omega's nodes only: functions of the constrained space vanish off Omega,
so their interaction with the complement is a weighted L^p term over Omega that the
energy module integrates analytically.  A requested horizon below |Omega| is snapped to
an integer multiple r h of the cell size so the interaction cutoff aligns with element
boundaries; the snapped value is recorded and used downstream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class HorizonUnderresolvedError(ValueError):
    """Requested horizon is smaller than one mesh cell; refine the mesh."""


class InvalidFunctionError(ValueError):
    """Sampled function produced a non-finite nodal value."""


@dataclass(frozen=True)
class DomainSpec:
    """Open interval (a, b) plus the horizon of the kernel on it."""

    a: float
    b: float
    delta: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if not self.delta > 0.0:
            raise ValueError(f"horizon must be positive or INFINITE, got {self.delta}")

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Mesh:
    """Immutable uniform partition of Omega into n_interior elements, fixed by its numbers.

    ``domain`` holds the horizon, snapped to r h below |Omega|.  The two fields are the
    identity: separately built copies compare and hash equal and share one memoized
    tableau.  The nodes are built on first use, read-only.
    """

    domain: DomainSpec
    n_interior: int

    @property
    def h(self) -> float:
        return self.domain.length / self.n_interior

    @property
    def delta_effective(self) -> float:
        return self.domain.delta

    @property
    def fingerprint(self) -> tuple:
        return (self.domain.a, self.domain.b, self.h, self.n_interior + 1, self.domain.delta)

    @property
    def interior(self) -> slice:
        """The interior nodes, all but the two ends of the nodal vector."""
        return slice(1, self.n_interior)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(self.domain.a, self.domain.b, self.n_interior + 1)
        nodes.setflags(write=False)
        return nodes


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


def build_mesh(domain: DomainSpec, n_interior: int) -> Mesh:
    """Uniform mesh of Omega with h = (b-a)/n_interior; a horizon below |Omega| is
    snapped to round(delta/h) h."""
    if n_interior < 2:
        raise ValueError(f"need at least 2 interior elements, got {n_interior}")
    h = domain.length / n_interior
    if domain.delta >= domain.length:
        return Mesh(domain, n_interior)
    if domain.delta < h * (1.0 - 1e-12):
        raise HorizonUnderresolvedError(
            f"horizon {domain.delta} is below one cell h={h}; refine the mesh"
        )
    return Mesh(DomainSpec(domain.a, domain.b, round(domain.delta / h) * h), n_interior)


def interpolate(f, mesh: Mesh) -> DiscreteFunction:
    """Sample f at the nodes, forcing the end values to zero."""
    vals = np.array([float(f(x)) for x in mesh.nodes], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = mesh.nodes[~np.isfinite(vals)][0]
        raise InvalidFunctionError(f"non-finite sample at x={bad}")
    vals[[0, -1]] = 0.0
    return DiscreteFunction(vals, mesh)
