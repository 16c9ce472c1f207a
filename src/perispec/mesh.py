"""Uniform 1-D meshes of the horizon-completed interval with collar classification.

A mesh covers (a - delta, b + delta) for finite horizons; the collar (the part
outside the open interval (a, b)) carries homogeneous volume-constraint data.
The requested horizon is snapped to an integer multiple of the cell size so the
interaction cutoff aligns with element boundaries; the snapped value is
recorded and used downstream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class HorizonUnderresolvedError(ValueError):
    """Requested horizon is smaller than one mesh cell; refine the mesh."""


class InvalidFunctionError(ValueError):
    """Sampled function produced a non-finite nodal value."""


@dataclass(frozen=True)
class DomainSpec:
    """Open interval (a, b) plus the horizon used to complete it."""

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
    """Immutable uniform partition of the completed interval, fixed by its numbers.

    ``domain`` holds the snapped horizon collar_cells * h, or INFINITE without a
    collar; ``collar_cells`` elements sit outside (a, b) on each side.  Without a
    collar, tail interactions are handled analytically by the energy module.  The
    three fields are the identity: separately built copies compare and hash equal and
    share one memoized tableau.  The nodes and the interior mask are built on first
    use, read-only.
    """

    domain: DomainSpec
    n_interior: int
    collar_cells: int

    @property
    def h(self) -> float:
        return self.domain.length / self.n_interior

    @property
    def delta_effective(self) -> float:
        return self.domain.delta

    @property
    def element_count(self) -> int:
        return self.n_interior + 2 * self.collar_cells

    @property
    def has_collar(self) -> bool:
        return self.collar_cells > 0

    @property
    def fingerprint(self) -> tuple:
        return (self.domain.a, self.domain.b, self.h, self.element_count + 1, self.collar_cells)

    @property
    def interior(self) -> slice:
        """The interior nodes, a contiguous range of the nodal vector."""
        return slice(self.collar_cells + 1, -self.collar_cells - 1)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        c, h = self.collar_cells, self.h
        nodes = np.linspace(self.domain.a - c * h, self.domain.b + c * h, self.element_count + 1)
        nodes.setflags(write=False)
        return nodes

    @functools.cached_property
    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.element_count + 1, dtype=bool)
        mask[self.interior] = True
        mask.setflags(write=False)
        return mask


@dataclass(frozen=True, eq=False)
class DiscreteFunction:
    """Nodal values of a piecewise-linear function on a mesh.

    Membership in the constrained space requires zeros at every collar node;
    ``interpolate`` enforces this, direct construction is checked by the energy
    module. ``truncated`` flags interpolands that were nonzero on the collar.
    """

    values: np.ndarray
    mesh: Mesh
    truncated: bool = False

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != self.mesh.nodes.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match mesh with {len(self.mesh.nodes)} nodes"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def collar_is_zero(self) -> bool:
        return bool(np.all(self.values[~self.mesh.interior_mask] == 0.0))


def build_mesh(domain: DomainSpec, n_interior: int) -> Mesh:
    """Uniform mesh with h = (b-a)/n_interior and round(delta/h) collar cells per side."""
    if n_interior < 2:
        raise ValueError(f"need at least 2 interior elements, got {n_interior}")
    h = domain.length / n_interior
    if math.isinf(domain.delta):
        return Mesh(domain, n_interior, 0)
    if domain.delta < h * (1.0 - 1e-12):
        raise HorizonUnderresolvedError(
            f"horizon {domain.delta} is below one cell h={h}; refine the mesh"
        )
    collar = int(round(domain.delta / h))
    return Mesh(DomainSpec(domain.a, domain.b, collar * h), n_interior, collar)


def interpolate(f, mesh: Mesh) -> DiscreteFunction:
    """Sample f at the nodes, forcing collar values to zero."""
    vals = np.array([float(f(x)) for x in mesh.nodes], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = mesh.nodes[~np.isfinite(vals)][0]
        raise InvalidFunctionError(f"non-finite sample at x={bad}")
    collar = ~mesh.interior_mask
    scale = float(np.max(np.abs(vals))) or 1.0
    truncated = bool(np.any(np.abs(vals[collar]) > 1e-14 * scale))
    vals[collar] = 0.0
    return DiscreteFunction(vals, mesh, truncated=truncated)
