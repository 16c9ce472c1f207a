"""Eigenpairs of the discrete truncated fractional p-Laplacian.

``solve_eigenpairs`` is the entry point.  For p=2 the problem is a dense
symmetric-definite generalized eigenproblem (stiffness and P1 mass matrix from
the same quadrature the energy and the L^p mass use).  For general p the first
eigenpair is computed by a nonlinear inverse power method: each outer step
minimizes the convex functional E(v)/p - <|u|^(p-2) u, v> and renormalizes in
L^p.  The local reference eigenvalue of the delta -> 0 limit comes from the
closed form of the 1-D p-Laplacian (``local_reference_lambda``).

For p >= 2 the inner minimization takes damped Newton steps on the exact Hessian
(``energy.energy_hessian``), and their count does not grow with the mesh; below
p = 2, where the Hessian weight |d|^(p-2) blows up, it stays L-BFGS.

Every solve runs OpenBLAS on one thread: importing ``energy`` sets it for the
process (``energy._process_settings``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh
from scipy.optimize import minimize

from . import energy as en
from .kernelmath import KernelParams, local_p_laplacian_lambda1
from .mesh import DiscreteFunction, Mesh, interpolate


class WrongExponentError(ValueError):
    """Matrix path requested with p != 2."""


class SpectrumRequestError(ValueError):
    """More or other eigenpairs requested than the problem gives."""


# inverse power method controls
_TOL_LAMBDA = 1e-10         # relative change of the Rayleigh quotient
_TOL_U = 1e-8               # L^p step between normalized iterates
_MAX_OUTER = 200
_MAX_INNER = 20000
_INNER_TOL = 1e-10          # inner gradient target, relative to 1 + lambda
_ARMIJO = 1e-4              # sufficient-decrease constant of the Newton line search
_MIN_STEP = 1e-12           # Newton step length below which the line search has stalled
_F_ROUNDING = 1e-15         # Newton decrease, relative to |obj|, below its rounding level


@dataclass(frozen=True)
class EigenPair:
    lam: float
    eigenfunction: DiscreteFunction
    index_k: int
    residual: float
    iterations: int
    converged: bool = True
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "k": self.index_k,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "values": self.eigenfunction.values.tolist(),
        }


def assemble_p2_matrices(mesh: Mesh, params: KernelParams):
    """(stiffness, mass) over interior nodes: the polarizations of the energy
    and of the L^2 mass, under the quadrature their evaluators use."""
    if abs(params.p - 2.0) > 1e-12:
        raise WrongExponentError(f"matrix assembly requires p=2, got p={params.p}")
    A, M = en._p2_matrices(mesh, params)
    ii = mesh.interior_indices()
    return A[np.ix_(ii, ii)], M[np.ix_(ii, ii)]


def _embed(mesh: Mesh, x: np.ndarray) -> DiscreteFunction:
    vals = np.zeros(len(mesh.nodes))
    vals[mesh.interior_indices()] = x
    return DiscreteFunction(vals, mesh)


def solve_p2_spectrum(mesh: Mesh, params: KernelParams, k_max: int):
    """The k_max smallest eigenpairs at p=2, eigenfunctions normalized in L^2(Omega).
    A mass matrix that is not positive definite raises eigh's LinAlgError."""
    A, M = assemble_p2_matrices(mesh, params)
    vals, vecs = eigh(A, M, subset_by_index=[0, k_max - 1])
    pairs = []
    for k in range(k_max):
        x = vecs[:, k] / en.lp_mass(_embed(mesh, vecs[:, k]), 2.0) ** 0.5
        # deterministic sign: first eigenfunction positive, others positive at
        # the first interior node
        if (np.sum(x) if k == 0 else x[0]) < 0:
            x = -x
        res = A @ x - vals[k] * (M @ x)
        residual = float(np.linalg.norm(res) / max(np.linalg.norm(M @ x), 1e-300))
        pairs.append(EigenPair(lam=float(vals[k]), eigenfunction=_embed(mesh, x), index_k=k + 1,
                               residual=residual, iterations=0))
    return pairs


def _minimize_inner(obj, grad, x0, gtol, max_iter):
    """Gradient-only quasi-Newton descent (L-BFGS with line search).

    The inner solver for 1 < p < 2, where the gradient is merely Hölder at
    vanishing differences and the Hessian unbounded, and the finish of a
    Newton solve whose Hessian fails to factor.  It stops at the gradient
    target or when the line search can make no further double-precision
    progress; the outer inverse-power loop absorbs the residual inexactness.
    """
    n = len(x0)
    res = minimize(
        obj, x0, jac=grad, method="L-BFGS-B",
        options={
            "maxiter": max_iter,
            # L-BFGS-B tests max|g|; our target is the 2-norm.
            "gtol": gtol / math.sqrt(n),
            "ftol": 1e-18,
            "maxls": 40,
        },
    )
    return res.x, int(res.nit), float(np.linalg.norm(res.jac))


def _newton_inner(obj, grad, hess, x0, gtol, max_iter):
    """Damped Newton descent: Cholesky steps on the exact Hessian, Armijo backtracking.

    A step is taken only if it strictly lowers obj.  The solve stops at the
    gradient target, when the predicted decrease -g.step is below the rounding
    level of obj, or when halving the step length below _MIN_STEP finds no
    decrease (like the line search stall of _minimize_inner).  A Hessian that
    fails to factor hands the rest of the solve to _minimize_inner."""
    x, f, g, its = x0, obj(x0), grad(x0), 0
    while its < max_iter and np.linalg.norm(g) > gtol:
        try:
            step = cho_solve(cho_factor(hess(x)), -g)
        except LinAlgError:
            x, more, gnorm = _minimize_inner(obj, grad, x, gtol, max_iter - its)
            return x, its + more, gnorm
        slope = float(g @ step)
        if -slope <= _F_ROUNDING * abs(f):
            break
        t = 1.0
        while t >= _MIN_STEP:
            x_t = x + t * step
            f_t = obj(x_t)
            if f_t < f and f_t <= f + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break
        x, f, g = x_t, f_t, grad(x_t)
        its += 1
    return x, its, float(np.linalg.norm(g))


def solve_first_eigenpair(mesh: Mesh, params: KernelParams,
                          initial: DiscreteFunction | None = None) -> EigenPair:
    """First eigenpair for general p by the inverse power scheme."""
    p = params.p
    ii = mesh.interior_indices()
    a, b = mesh.domain.a, mesh.domain.b

    def E(x):
        return en.energy_total(_embed(mesh, x), params)

    def gradE(x):
        return en.energy_gradient(_embed(mesh, x), params)[ii]

    def hess(x):
        return en.energy_hessian(_embed(mesh, x), params)[np.ix_(ii, ii)] / p

    if initial is not None:
        u = initial.values[ii].copy()
    else:
        u = interpolate(lambda x: math.sin(math.pi * (x - a) / (b - a)), mesh).values[ii]
    u = u / en.lp_mass(_embed(mesh, u), p) ** (1.0 / p)
    lam = E(u)
    history = [lam]
    total_inner = 0
    recoveries = 0
    converged = False
    outer = 0
    for outer in range(1, _MAX_OUTER + 1):
        bvec = en.lp_mass_gradient(_embed(mesh, u), p)[ii] / p

        def obj(x):
            return E(x) / p - float(bvec @ x)

        def grad(x):
            return gradE(x) / p - bvec

        warm = u / lam ** (1.0 / (p - 1.0))
        gtol = _INNER_TOL * (1.0 + abs(lam))
        if p >= 2.0:
            v, inner_its, _ = _newton_inner(obj, grad, hess, warm, gtol, _MAX_INNER)
        else:
            v, inner_its, _ = _minimize_inner(obj, grad, warm, gtol, _MAX_INNER)
        total_inner += inner_its
        nrm = en.lp_mass(_embed(mesh, v), p) ** (1.0 / p)
        if nrm <= 0:
            break
        u_new = v / nrm
        if np.sum(u_new) < 0:
            u_new = -u_new
        if np.min(u_new) < -1e-10 * np.max(np.abs(u_new)):
            # sign-changing iterate: taking |u| cannot increase the energy
            u_new = np.abs(u_new)
            u_new = u_new / en.lp_mass(_embed(mesh, u_new), p) ** (1.0 / p)
            recoveries += 1
        lam_new = E(u_new)
        step_p = en.lp_mass(_embed(mesh, u_new - u), p) ** (1.0 / p)
        dl = abs(lam_new - lam)
        history.append(lam_new)
        u, lam = u_new, lam_new
        if dl <= _TOL_LAMBDA * max(1.0, abs(lam)) and step_p <= _TOL_U:
            converged = True
            break

    uf = _embed(mesh, u)
    resvec = gradE(u) - lam * en.lp_mass_gradient(uf, p)[ii]
    residual = float(np.linalg.norm(resvec))
    return EigenPair(
        lam=float(lam),
        eigenfunction=uf,
        index_k=1,
        residual=residual,
        iterations=outer,
        converged=converged,
        diagnostics={
            "inner_iterations": total_inner,
            "recoveries": recoveries,
            "rayleigh_history": history,
        },
    )


def available_pairs(p: float, n_nodes: int) -> int:
    """How many eigenpairs solve_eigenpairs gives at exponent p on a mesh
    with n_nodes interior nodes: all of them at p=2, the first otherwise."""
    return n_nodes if abs(p - 2.0) < 1e-12 else 1


def solve_eigenpairs(mesh: Mesh, params: KernelParams, k_max: int = 1,
                     initial: DiscreteFunction | None = None):
    """The k_max smallest eigenpairs: the dense spectrum at p=2, otherwise the
    first pair by the inverse power method, started from ``initial`` if given.

    A k_max outside [1, available_pairs] raises SpectrumRequestError before
    any compute."""
    n = int(np.count_nonzero(mesh.interior_mask))
    limit = available_pairs(params.p, n)
    if not 1 <= k_max <= limit:
        raise SpectrumRequestError(
            f"k_max={k_max} must lie in [1, {limit}] at p={params.p} with {n} interior nodes")
    if abs(params.p - 2.0) < 1e-12:
        return solve_p2_spectrum(mesh, params, k_max)
    return [solve_first_eigenpair(mesh, params, initial=initial)]


def local_reference_lambda(p: float, length: float, k: int = 1) -> float:
    """Reference local eigenvalue: exact for p=2, the closed form of the first
    eigenvalue otherwise."""
    if abs(p - 2.0) < 1e-12:
        return (k * math.pi / length) ** 2
    if k != 1:
        raise ValueError("local reference beyond k=1 is only available at p=2")
    return local_p_laplacian_lambda1(p, length)
