"""Spectral limits of the horizon-truncated fractional p-Laplacian on intervals."""

__version__ = "0.1.0"

from .kernelmath import (
    INFINITE,
    KernelParams,
    embedding_constant,
    gamma_constant,
    k_constant,
    local_p_laplacian_lambda1,
    scaling_factor,
)
from .mesh import DiscreteFunction, DomainSpec, Mesh, build_mesh, interpolate
from .energy import (
    EnergyBreakdown,
    energy_and_gradient,
    lp_mass,
    nonlocal_energy,
)
from .eigensolver import (
    EigenPair,
    assemble_p2_matrices,
    solve_eigenpairs,
)
