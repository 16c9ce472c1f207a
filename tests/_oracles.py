"""Independent reference computations used by the test suite.

Everything here deliberately avoids the element-pair tableau used by the
production energy assembly: the brute-force energy reduces the double
integral to an exact inner integral in the offset variable plus 1-D adaptive
quadrature, and the sphere moment is evaluated by direct quadrature over the
sphere.  The local p-Laplacian eigenvalue is found by shooting on its ODE,
independently of the closed form the library uses, and the untruncated p = 2,
s = 1/2 eigenvalue is the Cauchy process's, from the literature.  Agreement between these
routes and the library is what the oracle tests assert.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp

from perispec.mesh import DiscreteFunction


class OracleFailureError(RuntimeError):
    """Shooting oracle could not bracket the eigenvalue."""


def sphere_moment_quadrature(N: int, p: float) -> float:
    """Direct quadrature of the sphere moment integral of |e.z|^p over S^(N-1)."""
    if N == 1:
        return 2.0  # S^0 = {-1, +1}, counting measure
    if N == 2:
        val, _ = quad(lambda th: abs(math.cos(th)) ** p, 0.0, 2.0 * math.pi,
                      points=[0.5 * math.pi, math.pi, 1.5 * math.pi], limit=200)
        return val
    if N == 3:
        val, _ = quad(lambda th: abs(math.cos(th)) ** p * 2.0 * math.pi * math.sin(th),
                      0.0, math.pi, points=[0.5 * math.pi], limit=200)
        return val
    raise ValueError(f"unsupported dimension {N}")


def k_constant_beta(N: int, p: float) -> float:
    """The paper's K_{N,p} = (1/p) * integral of |e.z|^p over S^(N-1), by the Beta function.

    Slicing the sphere along e gives |S^(N-2)| * B((p+1)/2, (N-1)/2) for the
    moment when N >= 2, and the counting measure of S^0 gives 2 when N = 1; the
    library's closed form for gamma goes through neither route.
    """
    if N == 1:
        moment = 2.0
    elif N in (2, 3):
        a, b = (p + 1.0) / 2.0, (N - 1) / 2.0
        beta = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
        moment = 2.0 * math.pi ** b / math.gamma(b) * beta
    else:
        raise ValueError(f"unsupported dimension {N}")
    return moment / p


def _antideriv(z: float, p: float) -> float:
    """Antiderivative of |z|^p along z: |z|^p * z / (p + 1)."""
    return abs(z) ** p * z / (p + 1.0)


def _segment_power_integral(w0: float, w1: float, length: float, p: float) -> float:
    """Integral of |w|^p over a segment where w varies linearly from w0 to w1.

    The closed form divides by the slope, which is cancellative when
    w0 ~ w1; in that regime w has constant sign on the segment and Simpson's
    rule on the smooth integrand is accurate to O((w1-w0)^4)."""
    scale = max(abs(w0), abs(w1))
    if abs(w1 - w0) <= 1e-6 * scale:
        mid = 0.5 * (w0 + w1)
        return length * (abs(w0) ** p + 4.0 * abs(mid) ** p + abs(w1) ** p) / 6.0
    return length * (_antideriv(w1, p) - _antideriv(w0, p)) / (w1 - w0)


def _piecewise_linear(nodes: np.ndarray, vals: np.ndarray):
    """Evaluator for the piecewise-linear interpolant, zero outside the mesh."""
    def u(x: float) -> float:
        if x <= nodes[0] or x >= nodes[-1]:
            return 0.0
        return float(np.interp(x, nodes, vals))
    return u


def exact_lp_norm_p(u: DiscreteFunction, p: float) -> float:
    """Integral of |u|^p over the whole mesh, exact for piecewise-linear u."""
    nodes, vals = u.mesh.nodes, u.values
    total = 0.0
    for v0, v1, x0, x1 in zip(vals, vals[1:], nodes, nodes[1:]):
        total += _segment_power_integral(v0, v1, x1 - x0, p)
    return total


def brute_force_energy(u: DiscreteFunction, s: float, p: float, delta: float) -> float:
    """Seminorm^p by offset decomposition: 2 * int_0^delta t^(-1-ps) g(t) dt.

    g(t) = int |u(x+t) - u(x)|^p dx is computed exactly for piecewise-linear
    u (breakpoints at the mesh nodes shifted by 0 and -t); the outer integral
    uses adaptive quadrature with breakpoints at node multiples.  For
    horizons beyond the support width the remaining offsets contribute the
    closed-form tail (4/(ps)) * ||u||_p^p * (W^(-ps) - delta^(-ps)).
    """
    mesh = u.mesh
    nodes, vals = mesh.nodes, u.values
    uat = _piecewise_linear(nodes, vals)
    a, b = mesh.a, mesh.b
    ps = p * s
    width = b - a  # u vanishes on the collar, so this is the support width

    def g(t: float) -> float:
        if t <= 0.0:
            return 0.0
        xs = np.unique(np.concatenate([nodes, nodes - t, [a - t, b]]))
        xs = xs[(xs >= a - t - 1e-15) & (xs <= b + 1e-15)]
        total = 0.0
        for x0, x1 in zip(xs, xs[1:]):
            w0 = uat(x0 + t) - uat(x0)
            w1 = uat(x1 + t) - uat(x1)
            total += _segment_power_integral(w0, w1, x1 - x0, p)
        return total

    t_max = min(delta, width)
    h = mesh.h
    # Near t=0 the integrand behaves like t^(p(1-s)-1) times the smooth factor
    # g(t)/t^p, so integrate the first cell with an algebraic weight.
    first = min(h, t_max)
    alpha = p * (1.0 - s)
    phi0 = float(np.sum(np.abs(np.diff(vals)) ** p)) * mesh.h ** (1.0 - p)

    def smooth_factor(t: float) -> float:
        # g(t)/t^p tends to the broken gradient energy as t -> 0
        return phi0 if t == 0.0 else g(t) / t ** p

    head, _ = quad(smooth_factor, 0.0, first,
                   weight="alg", wvar=(alpha - 1.0, 0.0), limit=400, epsrel=1e-8)
    inner = head
    if t_max > first:
        breakpoints = [k * h for k in range(2, int(t_max / h) + 1)
                       if k * h < t_max * (1.0 - 1e-12)]
        rest, _ = quad(lambda t: t ** (-1.0 - ps) * g(t), first, t_max,
                       points=breakpoints or None, limit=400, epsabs=0.0, epsrel=1e-9)
        inner += rest
    total = 2.0 * inner
    if delta > width:
        norm_p = exact_lp_norm_p(u, p)
        shift = 0.0 if math.isinf(delta) else delta ** (-ps)
        total += (4.0 / ps) * norm_p * (width ** (-ps) - shift)
    return total


def tail_energy(u: DiscreteFunction, s: float, p: float, delta: float) -> float:
    """2 int_Omega |u|^p k_delta, the interaction of u with the complement of Omega within
    delta, by adaptive quadrature one element at a time; the killing kernel is
    k_delta(x) = (1/(ps)) [((x-a)^-ps - delta^-ps)_+ + ((b-x)^-ps - delta^-ps)_+]."""
    mesh = u.mesh
    a, b = mesh.a, mesh.b
    ps = p * s
    cut = delta ** -ps

    def kernel(x: float) -> float:
        return (max((x - a) ** -ps - cut, 0.0) + max((b - x) ** -ps - cut, 0.0)) / ps

    total = 0.0
    for v0, v1, x0, x1 in zip(u.values, u.values[1:], mesh.nodes, mesh.nodes[1:]):
        def integrand(x, v0=v0, v1=v1, x0=x0, x1=x1):
            return abs(v0 + (v1 - v0) * (x - x0) / (x1 - x0)) ** p * kernel(x)

        value, _ = quad(integrand, x0, x1, limit=200, epsabs=0.0, epsrel=1e-13)
        total += value
    return 2.0 * total


def fd_gradient(fun, values: np.ndarray, indices, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite differences of fun at the given nodal indices."""
    base = np.asarray(values, dtype=float)
    scale = max(1.0, float(np.max(np.abs(base))))
    out = np.zeros(len(indices))
    for j, i in enumerate(indices):
        step = rel_step * scale
        up = base.copy(); up[i] += step
        dn = base.copy(); dn[i] -= step
        out[j] = (fun(up) - fun(dn)) / (2.0 * step)
    return out


def _first_zero(p: float, lam: float, t_max: float):
    """Location of the first zero of the p-Laplacian shooting solution, or None."""
    pm1 = p - 1.0

    def rhs(_t, z):
        u, w = z
        du = np.sign(w) * np.abs(w) ** (1.0 / pm1)
        dw = -lam * np.sign(u) * np.abs(u) ** pm1
        return (du, dw)

    def hit_zero(t, z):
        return z[0] if t > 1e-12 else 1.0

    hit_zero.terminal = True
    hit_zero.direction = -1
    sol = solve_ivp(rhs, (0.0, t_max), (0.0, 1.0), method="DOP853",
                    rtol=1e-12, atol=1e-14, events=hit_zero, dense_output=False)
    if sol.t_events[0].size:
        return float(sol.t_events[0][0])
    return None


def shooting_oracle_lambda1(p: float, length: float) -> float:
    """First local p-Laplacian eigenvalue by shooting + bisection on lambda."""
    if not p > 1.0:
        raise ValueError(f"exponent p must exceed 1, got {p}")
    t_max = 8.0 * length

    def zero_pos(lam):
        z = _first_zero(p, lam, t_max)
        return z if z is not None else math.inf

    lo, hi = 1.0, 1.0
    for _ in range(80):
        if zero_pos(lo) > length:
            break
        lo /= 2.0
    else:
        raise OracleFailureError("could not bracket the eigenvalue from below")
    for _ in range(80):
        if zero_pos(hi) < length:
            break
        hi *= 2.0
    else:
        raise OracleFailureError("could not bracket the eigenvalue from above")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        z = zero_pos(mid)
        if abs(z - length) <= 1e-10:
            return mid
        if z > length:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


#: First Dirichlet eigenvalue of (-Delta)^(1/2), the generator of the Cauchy process, on
#: (-1, 1) (Kulczycki, Kwasnicki, Malecki & Stos, Proc. LMS 2010; Kwasnicki, J. Funct.
#: Anal. 2012).
CAUCHY_LAMBDA1 = 1.1577738836977


def cauchy_lambda1_unit_interval() -> float:
    """The first eigenvalue at delta = infinity, p = 2, s = 1/2 on (0, 1), in the scaling of
    the library's energy: it carries no C_{1,s} (C_{1,1/2} = 1/pi) and counts both (x, y)
    and (y, x), so lambda = (2 / C_{1,s}) 2^(2s) CAUCHY_LAMBDA1 = 4 pi CAUCHY_LAMBDA1, the
    2^(2s) from halving (-1, 1)."""
    s = 0.5
    return 2.0 * math.pi * 2.0 ** (2.0 * s) * CAUCHY_LAMBDA1
