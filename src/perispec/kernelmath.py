"""Closed-form constants and scalings for the horizon-truncated fractional p-energy.

Everything here is a pure function of scalar inputs: the sphere moment
``gamma_constant``, the horizon scaling factor used in the small-horizon limit,
the shift ``horizon_shift`` of the large-horizon limit, the explicit norm-equivalence
constant ``embedding_constant`` (by that shift), and the 1-D p-Laplacian first eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Distinguished horizon value: interactions extend over the whole line.
INFINITE = math.inf


class UnsupportedDimensionError(ValueError):
    """Raised when a constant is requested for a spatial dimension we do not support."""


class InfiniteHorizonError(ValueError):
    """Raised when a finite-horizon quantity is requested at infinite horizon."""


@dataclass(frozen=True)
class KernelParams:
    """Kernel exponents (s, p) and horizon delta (positive real or INFINITE)."""

    s: float
    p: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"fractional order s must lie in (0, 1), got {self.s}")
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise ValueError(f"exponent p must lie in (1, inf), got {self.p}")
        if not (self.delta > 0.0):
            raise ValueError(f"horizon delta must be positive or INFINITE, got {self.delta}")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.delta)

    @property
    def ps(self) -> float:
        """Singular kernel exponent minus N: the kernel is |x-y|^-(N+ps)."""
        return self.p * self.s


def gamma_constant(N: int, p: float) -> float:
    """Moment of |e.z|^p over the unit sphere S^(N-1), independent of e.

    Evaluated in closed form via Gamma functions:
    2 * pi^((N-1)/2) * Gamma((p+1)/2) / Gamma((N+p)/2), the ratio as exp of a difference
    of lgamma so that it does not overflow at large p (and is 1 exactly at N = 1).
    """
    if N not in (1, 2, 3):
        raise UnsupportedDimensionError(f"sphere moment supported for N in {{1,2,3}}, got {N}")
    if not (p > 1.0 and math.isfinite(p)):
        raise ValueError(f"exponent p must lie in (1, inf), got {p}")
    ratio = math.exp(math.lgamma((p + 1) / 2.0) - math.lgamma((N + p) / 2.0))
    return 2.0 * math.pi ** ((N - 1) / 2.0) * ratio


def scaling_factor(params: KernelParams) -> float:
    """Small-horizon scaling p(1-s)/delta^(p(1-s)) applied to energies and eigenvalues."""
    if params.is_infinite:
        raise InfiniteHorizonError("scaling factor is undefined at infinite horizon")
    a = params.p * (1.0 - params.s)
    return a / params.delta ** a


def horizon_shift(params: KernelParams) -> float:
    """kappa = (4/(ps)) delta^-ps, 0 at INFINITE: on an interval, a horizon delta >= |Omega|
    changes only the kernel of the interaction with the complement, by a constant, so the
    energy at delta is that at INFINITE less kappa times the integral of |u|^p."""
    return 0.0 if params.is_infinite else 4.0 / (params.ps * params.delta ** params.ps)


def embedding_constant(params: KernelParams, lambda1_delta: float) -> float:
    """C(delta) = (1 + 2^(p-1) kappa / lambda1_delta)^(1/p), kappa = horizon_shift(params),
    with [.]_delta <= [.]_inf <= C(delta)[.]_delta (N=1), lambda1_delta the first eigenvalue
    at delta.  For u vanishing off Omega, [u]_inf^p - [u]_delta^p integrates |u(x)-u(y)|^p
    |x-y|^-(1+ps) over |x-y| > delta (kappa int|u|^p exactly at delta >= |Omega|), which
    |a-b|^p <= 2^(p-1)(|a|^p + |b|^p) bounds by 2^(p-1) kappa int|u|^p, at most
    2^(p-1) kappa [u]_delta^p / lambda1_delta.  So C holds at every horizon, C(INFINITE) = 1,
    and by min-max lambda_k(inf) <= C^p lambda_k(delta) for every k at p = 2."""
    if not lambda1_delta > 0.0:
        raise ValueError(f"lambda1_delta must be positive, got {lambda1_delta}")
    return (1.0 + 2.0 ** (params.p - 1.0) * horizon_shift(params) / lambda1_delta) ** (
        1.0 / params.p)


def p_pi(p: float) -> float:
    """Half-period of the generalized sine: 2*pi / (p * sin(pi/p))."""
    return 2.0 * math.pi / (p * math.sin(math.pi / p))


def local_p_laplacian_lambda1(p: float, length: float) -> float:
    """First Dirichlet eigenvalue of the 1-D p-Laplacian on an interval of given length."""
    if not p > 1.0:
        raise ValueError(f"exponent p must exceed 1, got {p}")
    if not length > 0.0:
        raise ValueError(f"length must be positive, got {length}")
    return (p - 1.0) * (p_pi(p) / length) ** p
