"""Eigenpairs of the discrete truncated fractional p-Laplacian; ``solve_eigenpairs``
is the entry point.

At p=2 they are those of the pencil (A, M), the tableau's stiffness and the P1 mass
matrix under the quadrature of the energy and of the L^p mass.  The reflection of the
mesh splits it into an even and an odd block, and shift-and-invert subspace iteration
(Parlett, The Symmetric Eigenvalue Problem, ch. 4) finds the smallest pairs of each from
a few sine modes; Sylvester's law of inertia certifies that no smaller
eigenvalue was missed.  For general p the first pair comes from one loop over iterates
u with unit L^p mass: a Newton step on the eigen-equation at p >= 2 where it lowers the
Rayleigh quotient, else an Armijo step of descent on it (Knyazev 2001) along the Newton
direction of the energy; below p = 2 that is the Newton direction of the quadratic that
majorizes the energy at u (relaxed Kačanov: Diening, Fornasier, Tomasi, Wank 2020; Hein &
Bühler 2010), and the Hessian weights are floored.  The first eigenfunction is even
(lambda_1 is simple), so that loop runs on the even half of the unknowns
(``solve_first_eigenpair``).  The linear algebra is numpy.linalg, on the one OpenBLAS
thread that importing ``perispec`` sets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, cholesky, eigh, inv, qr, solve

from . import energy as en
from .kernelmath import KernelParams, local_p_laplacian_lambda1
from .mesh import DiscreteFunction, Mesh, interpolate


class SpectrumRequestError(ValueError):
    """More or other eigenpairs requested than the problem gives."""


# eigen-loop controls
_MAX_ITER = 10000           # Newton and descent steps together
_RES_TOL = 1e-10            # the one Newton stop (p >= 2): residual over p lambda (1 + lambda)
_ARMIJO = 1e-4              # sufficient-decrease constant of the line search
_MIN_STEP = 1e-12           # step length below which the line search has stalled
_F_ROUNDING = 1e-15         # relative change of the Rayleigh quotient at its rounding level
_P2_RES_TOL = 1e-11         # relative residual of every Ritz pair of a p = 2 block, above rounding
_P2_MAX_SWEEPS = 50         # shift-and-invert sweeps per p = 2 block and basis


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


def _fold(X: np.ndarray, sign: float) -> np.ndarray:
    """X[:m, :m] + sign X[:m, J cols], J the reversal of the nodes: for an X that commutes
    with J, its even block (sign 1, with the middle node of odd n) or its odd block."""
    m = (len(X) + (sign > 0)) // 2
    return X[:m, :m] + sign * X[:m, ::-1][:, :m]


def _embed(mesh: Mesh, x: np.ndarray) -> DiscreteFunction:
    vals = np.zeros(len(mesh.nodes))
    vals[mesh.interior] = x
    return DiscreteFunction(vals, mesh)


def _ritz_iteration(A: np.ndarray, M: np.ndarray, X: np.ndarray) -> tuple:
    """Shift-and-invert subspace iteration on the pencil (A, M) from the columns of X:
    (Ritz values, M-orthonormal Ritz vectors, M times them, converged, sweeps).  A sweep maps
    the unconverged Ritz vectors by (A - sigma M)^-1 M, sigma just below the least of them."""
    # >= 10x the rounding of A x; 0 on an empty block (the odd one of one interior node)
    floor = 1e-14 * np.linalg.norm(A, 1) / np.linalg.norm(M, 1) if len(A) else 0.0
    for sweep in range(_P2_MAX_SWEEPS + 1):
        Q = qr(X)[0]
        AQ, MQ = A @ Q, M @ Q
        W = inv(cholesky(Q.T @ MQ))  # LinAlgError if M is indefinite
        theta, z = eigh(W @ (Q.T @ AQ) @ W.T)
        Z = W.T @ z
        X, MX = Q @ Z, MQ @ Z
        res = np.linalg.norm(AQ @ Z - MX * theta, axis=0) / (theta * np.linalg.norm(MX, axis=0))
        done = res <= _P2_RES_TOL + floor / theta
        if done.all() or sweep == _P2_MAX_SWEEPS:
            return theta, X, MX, bool(done.all()), sweep
        j = np.argmin(done)  # 1e-8: A - sigma M stays regular once theta[j] is exact
        X = np.where(done, X, solve(A - theta[j] / (1.0 + res[j] ** 2 + 1e-8) * M, MX))


def solve_p2_spectrum(mesh: Mesh, params: KernelParams, k_max: int):
    """The k_max smallest eigenpairs at p=2, eigenfunctions normalized in L^2(Omega), by
    _ritz_iteration on the even and the odd _fold block from sine modes of their parity.
    A block takes one more mode until A - mu M + mu (M V)(M V)^T factors, V its Ritz
    vectors and mu the k_max-th smallest value found: by Sylvester's law of inertia, no
    eigenvalue outside span V lies below mu then.  An indefinite M raises LinAlgError."""
    ii = mesh.interior
    A = en._stiffness(mesh, params)[ii, ii]
    M = en._gram(en._lp_rules(mesh, params.p), len(mesh.nodes))[ii, ii]
    n = len(A)
    t = (mesh.nodes[ii] - mesh.a) * (math.pi / mesh.length)
    folds = [(_fold(A, sign), _fold(M, sign)) for sign in (1.0, -1.0)]

    def modes(i, first, count=1):  # folded sine modes of odd k (block 0) or even k (block 1)
        return np.sin(np.outer(t[:len(folds[i][0])], 2 * np.arange(first, first + count) + 1 + i))
    X = [modes(0, 0, (k_max + 1) // 2), modes(1, 0, k_max // 2)]
    results, todo, sweeps = [None, None], [0, 1], 0
    while todo:
        for i in todo:  # at full size Q spans the block and Rayleigh-Ritz is exact
            results[i] = _ritz_iteration(*folds[i], X[i])
            sweeps += results[i][4]
        mu = np.sort(np.concatenate([r[0] for r in results]))[k_max - 1]
        todo = []
        for i, ((A_f, M_f), (_, V, MV, _, _)) in enumerate(zip(folds, results)):
            try:  # at full size M V V^T M = M, so this is A
                cholesky(A_f - mu * M_f + mu * (MV @ MV.T))
            except LinAlgError:  # the next sine mode
                X[i] = np.column_stack([V, modes(i, V.shape[1])])
                todo.append(i)
    pairs = []
    found = sorted((lam, i, j) for i, r in enumerate(results) for j, lam in enumerate(r[0]))
    for k, (_, i, j) in enumerate(found[:k_max]):
        v = np.pad(results[i][1][:, j], (0, n - len(X[i])))
        v = v + (1.0 - 2 * i) * v[::-1]
        x = v / en.lp_mass(_embed(mesh, v), 2.0) ** 0.5
        # deterministic sign: the first eigenfunction positive, the others at x[0]
        if (np.sum(x) if k == 0 else x[0]) < 0:
            x = -x
        # the Ritz value has a relative error of ~eps ||A|| / lam, the quotient of ~eps
        Ax, Mx = A @ x, M @ x
        lam = float(x @ Ax) / float(x @ Mx)
        residual = float(np.linalg.norm(Ax - lam * Mx) / max(np.linalg.norm(Mx), 1e-300))
        pairs.append(EigenPair(lam=lam, eigenfunction=_embed(mesh, x), index_k=k + 1,
                               residual=residual, iterations=0, converged=results[i][3],
                               diagnostics={"sweeps": sweeps}))
    return pairs


def solve_first_eigenpair(mesh: Mesh, params: KernelParams) -> EigenPair:
    """First eigenpair for general p, by one loop over iterates u with M(u) = 1 from the
    sine: the safeguarded eigen-Newton step for p >= 2, else one Armijo step of descent on
    the Rayleigh quotient R = E/M, whose gradient at M = 1 is res = grad E - lam grad M,
    along -H_E(u)^-1 res, times p - 1 below p = 2, or along -G^-1 res, G the p = 2
    stiffness, where H_E(u) does not factor.  Two rules end the loop: at p >= 2, |res| at
    most _RES_TOL p lam (1 + lam), tested before each step; and a descent step that can
    move R only at rounding level (predicted or taken decrease, or a stalled search).
    The first eigenfunction is even: u holds the interior values of the first (N + 1) // 2
    of the N nodes, unfolded once at the end, and a trial point w costs one
    energy.folded_derivatives sweep, Hessians included (gradients U^T g, Hessians U^T H U,
    U the unfold map).  By p-homogeneity u = w / c, c = M(w)^(1/p), has lam = E(w)/M(w),
    and the derivatives at w over c^(p-1) and c^(p-2) (the floor of a p < 2 Hessian scales
    with max|w|).  |res| is the full vector's: res_i^2 / m_i summed, m_i = 2, or 1 for the
    middle node of odd N."""
    p = params.p
    newton = p >= 2.0
    unfold = np.minimum(np.arange(len(mesh.nodes)), np.arange(len(mesh.nodes))[::-1])
    root_m = np.sqrt(np.bincount(unfold)[1:])  # per unknown, the nodes it stands for

    def sign_changing(v):
        return np.min(v) < -1e-10 * np.max(np.abs(v))

    def sweep(w):  # u = w / c, lam, grad M, res and [H_E, H_M at p >= 2] at u
        (energy, grad_e, hess_e), (mass, grad_m, hess_m) = en.folded_derivatives(
            np.append(0.0, w), mesh, params, newton)
        c = mass ** (1.0 / p)
        lam, scale = energy / mass, c ** (p - 1.0)
        hess = [h[1:, 1:] / c ** (p - 2.0) for h in (hess_e, hess_m) if h is not None]
        return w / c, lam, grad_m[1:] / scale, (grad_e[1:] - lam * grad_m[1:]) / scale, hess

    sine = interpolate(lambda x: math.sin(math.pi * (x - mesh.a) / mesh.length), mesh)
    u, lam, grad_m, res, hess = sweep(sine.values[1:len(root_m) + 1])
    history = [lam]
    bordered = np.zeros((len(u) + 1, len(u) + 1))
    descent_steps = newton_steps = recoveries = 0
    converged, it = False, 0
    for it in range(1, _MAX_ITER + 1):
        if newton and np.linalg.norm(res / root_m) <= _RES_TOL * p * lam * (1.0 + lam):
            converged = True
            break
        hess_u, new, done = hess[0], None, False
        if newton:
            np.subtract(hess_u, lam * hess[1], out=bordered[:-1, :-1])
            bordered[-1, :-1] = bordered[:-1, -1] = -grad_m
            try:  # the bordered row keeps grad M(u) . w = p, so w != 0
                w = u + solve(bordered, np.append(-res, 0.0))[:-1]
            except LinAlgError:
                w = None
            if w is not None and not sign_changing(w):
                new = sweep(w)
                if new[1] < lam:
                    newton_steps += 1
                else:
                    new = None
        if new is None:
            try:
                cholesky(hess_u)  # raises unless H_E(u) is positive definite
            except LinAlgError:  # only at p > 2, where weights vanish: the unweighted G
                hess_u = en._stiffness(mesh, params, folded=True)[1:, 1:]
            # below p = 2, hess_u / (p - 1) is the Hessian of the majorizer
            d = solve(hess_u, -res) * min(1.0, p - 1.0)
            slope = float(res @ d)
            if -slope <= _F_ROUNDING * lam:  # predicted decrease at rounding level
                converged = True
                break
            t = 1.0
            while t >= _MIN_STEP:
                w = u + t * d
                recovered = sign_changing(w)
                if recovered:  # taking |w| cannot increase the energy
                    w = np.abs(w)
                new = sweep(w)
                if new[1] < lam and new[1] <= lam + _ARMIJO * t * slope:
                    break
                t *= 0.5
            else:  # no step lowers R
                converged = True
                break
            descent_steps += 1
            recoveries += int(recovered)
            done = abs(new[1] - lam) <= _F_ROUNDING * lam
        u, lam, grad_m, res, hess = new
        history.append(lam)
        if done:
            converged = True
            break

    eigenfunction = DiscreteFunction(np.append(0.0, u)[unfold], mesh)
    return EigenPair(lam=float(lam), eigenfunction=eigenfunction, index_k=1,
                     residual=float(np.linalg.norm(res / root_m)), iterations=it,
                     converged=converged,
                     diagnostics={"inner_iterations": descent_steps, "newton_steps": newton_steps,
                                  "recoveries": recoveries, "rayleigh_history": history})


def available_pairs(p: float, n_nodes: int) -> int:
    """How many eigenpairs solve_eigenpairs gives at exponent p on a mesh
    with n_nodes interior nodes: all of them at p=2, the first otherwise."""
    return n_nodes if abs(p - 2.0) < 1e-12 else 1


def solve_eigenpairs(mesh: Mesh, params: KernelParams, k_max: int = 1):
    """The k_max smallest eigenpairs: the dense spectrum at p=2, otherwise the
    first pair by ``solve_first_eigenpair``.

    A k_max outside [1, available_pairs] raises SpectrumRequestError before
    any compute."""
    n = mesh.n_interior - 1
    limit = available_pairs(params.p, n)
    if not 1 <= k_max <= limit:
        raise SpectrumRequestError(
            f"k_max={k_max} must lie in [1, {limit}] at p={params.p} with {n} interior nodes")
    if abs(params.p - 2.0) < 1e-12:
        return solve_p2_spectrum(mesh, params, k_max)
    return [solve_first_eigenpair(mesh, params)]


def local_reference_lambda(p: float, length: float, k: int = 1) -> float:
    """Reference local eigenvalue: exact for p=2, the closed form of the first
    eigenvalue otherwise."""
    if abs(p - 2.0) < 1e-12:
        return (k * math.pi / length) ** 2
    if k != 1:
        raise ValueError("local reference beyond k=1 is only available at p=2")
    return local_p_laplacian_lambda1(p, length)
