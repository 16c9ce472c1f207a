"""Spectral limits of the horizon-truncated fractional p-Laplacian on intervals."""

import os
import sys

__version__ = "0.1.0"

if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # numpy's OpenBLAS then starts no spinning thread
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .kernelmath import (
    INFINITE,
    KernelParams,
    embedding_constant,
    gamma_constant,
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
