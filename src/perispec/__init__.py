"""Spectral limits of the horizon-truncated fractional p-Laplacian on intervals.

Importing the package makes the process-wide settings once (``_process_settings``)."""

import ctypes
import glob
import os
import sys

__version__ = "0.1.0"


def _process_settings() -> None:
    """numpy's OpenBLAS runs on one thread: at a few hundred unknowns worker threads cost
    more than they save and, when another process holds a core, stall a single
    factorization for up to a second.  Unless numpy is loaded or the user names a count,
    numpy loads here with OPENBLAS_NUM_THREADS=1 for that load only, and starts no spinning
    thread; then OpenBLAS's own setter makes it one (a second call still saves 0.3 MB RSS).
    glibc's trim and mmap thresholds go up (a no-op without glibc): an energy call allocates
    and frees a few hundred KB of numpy temporaries; at the default 128 KB both go back to
    the system, and every call faults its pages in again."""
    if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
    import numpy
    for path in sorted(glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
                set_threads(1)
                break
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pass
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
        mallopt(-3, 16 << 20)   # M_MMAP_THRESHOLD


_process_settings()

from .kernelmath import (
    INFINITE,
    KernelParams,
    embedding_constant,
    gamma_constant,
    local_p_laplacian_lambda1,
    scaling_factor,
)
from .mesh import DiscreteFunction, DomainSpec, Mesh, build_mesh, interpolate
from .energy import EnergyBreakdown, energy_derivatives, lp_mass, nonlocal_energy
from .eigensolver import EigenPair, solve_eigenpairs
