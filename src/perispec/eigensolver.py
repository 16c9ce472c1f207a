"""Eigenpairs of the discrete truncated fractional p-Laplacian.

``solve_eigenpairs`` is the entry point.  For p=2 the problem is a dense
symmetric-definite generalized eigenproblem (stiffness and P1 mass matrix from the
same quadrature the energy and the L^p mass use), which the reflection symmetry of
the mesh splits into an even and an odd half.  The stiffness is the tableau's
(``energy._Tableau.stiffness``): on a collarless mesh one shared Gram plus the tail
Gram of the horizon.  For general p the first eigenpair comes from one loop over
iterates u with M(u) = 1 and lam = E(u), E the energy and M the L^p mass; at M = 1,
res = grad E - lam grad M is the gradient of the Rayleigh quotient R = E/M.  For
p >= 2 a step is a Newton step on (res, M - 1): one bordered symmetric solve with the
exact Hessians (``energy.energy_hessian``, ``energy.lp_mass_hessian``), kept only if
the normalized iterate strictly lowers R and keeps its sign.  Otherwise it is one
Armijo step of descent on R (Knyazev 2001), one fused ``energy.energy_and_gradient``
call per trial point, along -H_E(u)^-1 res with the energy Hessian the bordered step
built, or along the L-BFGS direction preconditioned by the unweighted Gram G of the
row's tableau (``energy._Tableau.stiffness``) below p = 2, where the Hessian weight
|d|^(p-2) blows up, and when H_E(u) does not factor.  A trial point that changes sign is
replaced by its absolute value.  For p >= 2 the solve ends before any Hessian once
|res| <= _RES_TOL p lam (1 + lam), so a warm-started row costs one fused call.
A descent step ends the solve, converged, once R can only move at rounding level.
The local reference eigenvalue of the delta -> 0 limit comes from the closed form of
the 1-D p-Laplacian (``local_reference_lambda``).

The linear algebra is numpy.linalg, on the one OpenBLAS thread that importing
``energy`` sets (``energy._process_settings``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, cholesky, eigh, inv, solve

from . import energy as en
from .kernelmath import KernelParams, local_p_laplacian_lambda1
from .mesh import DiscreteFunction, Mesh, interpolate


class WrongExponentError(ValueError):
    """Matrix path requested with p != 2."""


class SpectrumRequestError(ValueError):
    """More or other eigenpairs requested than the problem gives."""


# eigen-loop controls
_TOL_LAMBDA = 1e-10         # relative change of the Rayleigh quotient after a Newton step
_TOL_U = 1e-8               # L^p step between normalized iterates after a Newton step
_MAX_ITER = 10000           # Newton and descent steps together
_RES_TOL = 1e-10            # residual stop for p >= 2, relative to p lambda (1 + lambda)
_ARMIJO = 1e-4              # sufficient-decrease constant of the line search
_MIN_STEP = 1e-12           # step length below which the line search has stalled
_F_ROUNDING = 1e-15         # relative change of the Rayleigh quotient at its rounding level
_LBFGS_MEMORY = 10          # (s, y) pairs of the L-BFGS direction


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
    ii = mesh.interior
    return en._table(mesh, params).stiffness(params.delta)[ii, ii], _mass_factors(mesh)[0]


def _fold(X: np.ndarray, sign: float) -> np.ndarray:
    """X[:m, :m] + sign X[:m, J cols], J the reversal of the nodes: for an X that commutes
    with J, its even block (sign 1, with the middle node of odd n) or its odd block."""
    m = (len(X) + (sign > 0)) // 2
    return X[:m, :m] + sign * X[:m, ::-1][:, :m]


@functools.lru_cache(maxsize=24)
def _mass_factors(mesh: Mesh) -> tuple:
    """(M, W, U for sign 1, W, U for sign -1), built once per mesh, read-only: the
    interior mass matrix M, the inverse Cholesky factor W of _fold(M, sign) and the
    unfold U = B W^T, B = E + sign JE with E = eye(n, m), so _fold(X) = B^T X B / 2."""
    ii = mesh.interior
    factors = [en._gram(en._mass_rules(mesh), len(mesh.nodes))[ii, ii]]
    for sign in (1.0, -1.0):
        W = inv(cholesky(_fold(factors[0], sign)))  # LinAlgError if M is indefinite
        EW = np.pad(W.T, ((0, len(factors[0]) - len(W)), (0, 0)))  # E W^T
        factors += [W, EW + sign * EW[::-1]]
    for f in factors:
        f.setflags(write=False)
    return tuple(factors)


def _embed(mesh: Mesh, x: np.ndarray) -> DiscreteFunction:
    vals = np.zeros(len(mesh.nodes))
    vals[mesh.interior] = x
    return DiscreteFunction(vals, mesh)


def solve_p2_spectrum(mesh: Mesh, params: KernelParams, k_max: int):
    """The k_max smallest eigenpairs at p=2, eigenfunctions normalized in L^2(Omega).
    The reflection x -> a+b-x commutes with A and M, so the pencil splits into an even
    and an odd _fold block, each solved by eigh of C = W A W^T (_mass_factors), the odd
    one only if it holds some of the k_max smallest.  An indefinite M raises LinAlgError."""
    A, M = assemble_p2_matrices(mesh, params)
    factors, found = _mass_factors(mesh), []
    for sign, W, U in zip((1.0, -1.0), factors[1::2], factors[2::2]):
        C = W @ _fold(A, sign) @ W.T
        if len(found) == k_max:  # Sylvester's law of inertia: the odd block holds none of
            try:                 # the k_max smallest if C - mu I, mu the largest kept, factors
                cholesky(C - found[-1][0] * np.eye(len(C)))
                continue
            except LinAlgError:
                pass
        lam, y = eigh(C)
        found += zip(lam[:k_max], (U @ y[:, :k_max]).T)
    pairs = []
    for k, (_, v) in enumerate(sorted(found, key=lambda pair: pair[0])[:k_max]):
        x = v / en.lp_mass(_embed(mesh, v), 2.0) ** 0.5
        # deterministic sign: the first eigenfunction positive, the others at x[0]
        if (np.sum(x) if k == 0 else x[0]) < 0:
            x = -x
        # eigh's value has a relative error of ~eps ||A|| / lam, the quotient of ~eps
        Ax, Mx = A @ x, M @ x
        lam = float(x @ Ax) / float(x @ Mx)
        residual = float(np.linalg.norm(Ax - lam * Mx) / max(np.linalg.norm(Mx), 1e-300))
        pairs.append(EigenPair(lam=lam, eigenfunction=_embed(mesh, x), index_k=k + 1,
                               residual=residual, iterations=0))
    return pairs


def solve_first_eigenpair(mesh: Mesh, params: KernelParams,
                          initial: DiscreteFunction | None = None) -> EigenPair:
    """First eigenpair for general p, by one loop over iterates u with M(u) = 1: the
    safeguarded eigen-Newton step for p >= 2, else one Armijo step of descent on the
    Rayleigh quotient R = E/M, whose gradient at M = 1 is res = grad E - lam grad M."""
    p = params.p
    newton = p >= 2.0
    ii = mesh.interior
    a, b = mesh.domain.a, mesh.domain.b

    def mass_norm(v):
        return en.lp_mass(_embed(mesh, v), p) ** (1.0 / p)

    def normalized(v):  # unit L^p mass and a positive sum; None for v = 0
        nrm = mass_norm(v)
        if nrm <= 0:
            return None
        v = v / nrm
        return -v if np.sum(v) < 0 else v

    def sign_changing(v):
        return np.min(v) < -1e-10 * np.max(np.abs(v))

    def state(x):  # E(x), grad M(x) and the residual grad E(x) - E(x) grad M(x)
        energy, grad = en.energy_and_gradient(_embed(mesh, x), params)
        grad_m = en.lp_mass_gradient(_embed(mesh, x), p)[ii]
        return energy, grad_m, grad[ii] - energy * grad_m

    if initial is not None:
        u = initial.values[ii].copy()
    else:
        u = interpolate(lambda x: math.sin(math.pi * (x - a) / (b - a)), mesh).values[ii]
    u = u / mass_norm(u)
    lam, grad_m, res = state(u)
    history = [lam]
    descent_steps = newton_steps = recoveries = 0
    pairs, g_inv = [], None  # L-BFGS pairs (s, y) of R, and G^-1 once needed
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        if newton and np.linalg.norm(res) <= _RES_TOL * p * lam * (1.0 + lam):
            converged = True
            break
        new = d = None
        if newton:
            uf = _embed(mesh, u)
            hess_u = en.energy_hessian(uf, params)[ii, ii]
            jac = hess_u - lam * en.lp_mass_hessian(uf, p)[ii, ii]
            bordered = np.block([[jac, -grad_m[:, None]], [-grad_m[None, :], np.zeros((1, 1))]])
            try:
                v = normalized(u + solve(bordered, np.append(-res, 0.0))[:-1])
            except LinAlgError:
                v = None
            if v is not None and not sign_changing(v):
                new = state(v)
                if new[0] < lam:
                    newton_steps += 1
                    pairs = []
                    done = (abs(new[0] - lam) <= _TOL_LAMBDA * max(1.0, abs(lam))
                            and mass_norm(v - u) <= _TOL_U)
                else:
                    new = None
            if new is None:
                try:
                    cholesky(hess_u)  # raises unless H_E(u) is positive definite
                    d = solve(hess_u, -res)
                except LinAlgError:
                    pass
        if new is None:
            if d is None:  # L-BFGS two-loop direction, H0 = gamma G^-1 (N&W alg. 7.4)
                if g_inv is None:
                    g_inv = inv(en._table(mesh, params).stiffness(params.delta)[ii, ii])
                d, alphas = -res, []
                for s, y in reversed(pairs):
                    alphas.append(float(s @ d) / float(y @ s))
                    d = d - alphas[-1] * y
                if pairs:
                    s, y = pairs[-1]
                    d = float(s @ y) / float(y @ g_inv @ y) * d
                d = g_inv @ d
                for (s, y), alpha in zip(pairs, reversed(alphas)):
                    d = d + (alpha - float(y @ d) / float(y @ s)) * s
            slope = float(res @ d)
            if -slope <= _F_ROUNDING * lam:  # predicted decrease at rounding level
                converged = True
                break
            t = 1.0
            while t >= _MIN_STEP:
                c = mass_norm(w := u + t * d)
                v = w / c
                recovered = sign_changing(v)
                if recovered:  # taking |v| cannot increase the energy
                    v = np.abs(v) / mass_norm(np.abs(v))
                new = state(v)
                if new[0] < lam and new[0] <= lam + _ARMIJO * t * slope:
                    break
                t *= 0.5
            else:  # no step lowers R
                converged = True
                break
            descent_steps += 1
            if recovered:
                recoveries += 1
                pairs = []
            else:  # R is 0-homogeneous: grad R(u + t d) = grad R(v) / c
                s, y = t * d, new[2] / c - res
                if float(s @ y) > 0:
                    pairs = (pairs + [(s, y)])[-_LBFGS_MEMORY:]
            done = abs(new[0] - lam) <= _F_ROUNDING * lam
        u, (lam, grad_m, res) = v, new
        history.append(lam)
        if done:
            converged = True
            break

    return EigenPair(lam=float(lam), eigenfunction=_embed(mesh, u), index_k=1,
                     residual=float(np.linalg.norm(res)), iterations=it, converged=converged,
                     diagnostics={"inner_iterations": descent_steps, "newton_steps": newton_steps,
                                  "recoveries": recoveries, "rayleigh_history": history})


def available_pairs(p: float, n_nodes: int) -> int:
    """How many eigenpairs solve_eigenpairs gives at exponent p on a mesh
    with n_nodes interior nodes: all of them at p=2, the first otherwise."""
    return n_nodes if abs(p - 2.0) < 1e-12 else 1


def solve_eigenpairs(mesh: Mesh, params: KernelParams, k_max: int = 1,
                     initial: DiscreteFunction | None = None):
    """The k_max smallest eigenpairs: the dense spectrum at p=2, otherwise the
    first pair by ``solve_first_eigenpair``, started from ``initial`` if given.

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
