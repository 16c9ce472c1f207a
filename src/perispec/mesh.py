"""Uniform 1-D meshes of the horizon-completed interval with collar classification.

A mesh covers (a - delta, b + delta) for finite horizons; the collar (the part
outside the open interval (a, b)) carries homogeneous volume-constraint data.
The requested horizon is snapped to an integer multiple of the cell size so the
interaction cutoff aligns with element boundaries; the snapped value is
recorded and used downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernelmath import INFINITE


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


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable uniform partition of the completed interval.

    ``collar_cells`` elements sit outside (a, b) on each side; for an infinite
    horizon there is no collar and tail interactions are handled analytically
    by the energy module.  Meshes with equal fingerprints compare and hash
    equal, so separately built copies share one memoized tableau.
    """

    domain: DomainSpec
    nodes: np.ndarray
    h: float
    interior_mask: np.ndarray
    delta_effective: float
    collar_cells: int
    _fingerprint: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.interior_mask.setflags(write=False)
        # a uniform mesh is fixed by these; delta_effective follows from h and the collar
        fingerprint = (self.domain.a, self.domain.b, self.h, len(self.nodes), self.collar_cells)
        object.__setattr__(self, "_fingerprint", fingerprint)

    @property
    def element_count(self) -> int:
        return len(self.nodes) - 1

    @property
    def n_interior_elements(self) -> int:
        return self.element_count - 2 * self.collar_cells

    @property
    def has_collar(self) -> bool:
        return self.collar_cells > 0

    @property
    def fingerprint(self) -> tuple:
        return self._fingerprint

    def __eq__(self, other):
        return isinstance(other, Mesh) and self._fingerprint == other._fingerprint

    def __hash__(self):
        return hash(self._fingerprint)

    @property
    def interior(self) -> slice:
        """The interior nodes, a contiguous range of the nodal vector."""
        return slice(self.collar_cells + 1, -self.collar_cells - 1)


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
        nodes = np.linspace(domain.a, domain.b, n_interior + 1)
        collar = 0
        delta_eff = INFINITE
    else:
        if domain.delta < h * (1.0 - 1e-12):
            raise HorizonUnderresolvedError(
                f"horizon {domain.delta} is below one cell h={h}; refine the mesh"
            )
        collar = int(round(domain.delta / h))
        delta_eff = collar * h
        nodes = np.linspace(domain.a - collar * h, domain.b + collar * h,
                            n_interior + 2 * collar + 1)
    mask = np.zeros(len(nodes), dtype=bool)
    mask[collar + 1:collar + n_interior] = True
    return Mesh(
        domain=domain,
        nodes=nodes,
        h=h,
        interior_mask=mask,
        delta_effective=delta_eff,
        collar_cells=collar,
    )


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
