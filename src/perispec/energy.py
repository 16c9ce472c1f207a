"""Discrete nonlocal p-energies on piecewise-linear functions.

The seminorm is assembled element-pair by element-pair:

* same-element pairs have a closed form (the integrand reduces to
  |slope|^p |x-y|^(p(1-s)-1));
* vertex-sharing pairs are reduced to a 1-D integral in the direction
  transverse to the diagonal (the radial integral is elementary because the
  integrand is homogeneous there), leaving a smooth profile integrated by
  composite Gauss panels;
* separated pairs use tensor Gauss quadrature, with the cutoff-truncated pair
  at distance exactly delta handled on its triangular subregion.

For meshes without a collar (horizon at least the domain length, or infinite)
the collar/complement interaction is integrated analytically in the y
variable, leaving a weighted L^p term with kernel
k(x) = (1/(ps)) ((x-a)^-ps + (b-x)^-ps) [- (2/(ps)) delta^-ps].  The bracket
does not depend on x, so a finite horizon lowers each tail weight by a
constant times its mass weight and leaves every other rule unchanged.

On a uniform mesh the quadrature of a pair depends only on its gap g, so each
point set (adjacent-pair profile, separated tensor rule, cutoff triangle) is
stored once as the weights of the element end values at its points, and a
gap stores only its contiguous element range and its weight vector.  The
per-element tail and the L^p mass use the same layout with one element per
row.  The tableau of these templates is memoized per (mesh, s, p, delta), with
delta = infinity for every horizon of a collarless mesh, and equal meshes
built separately share it.  ``nonlocal_energy`` is the energy at every horizon,
split principal/interaction; ``energy_and_gradient`` computes |d|^(p-1) once per
point for its total and exact gradient.  The nodal Gram matrix ``_gram``
takes each block's entries from one product of its weights with the rule's
stored basis products; it is the p=2 stiffness (the polarization identity
holds to rounding error) and, weighted by |u(x)-u(y)|^(p-2), the Hessian
``energy_hessian``.  A collarless tableau builds the Gram of its shared rules once,
and each horizon adds its tail Gram (``_Tableau.stiffness``).

Importing the module makes the process-wide settings once for every caller
(``_process_settings``): larger glibc heap thresholds, and one thread for the
OpenBLAS that numpy bundles (``_one_blas_thread``; the p < 2 solver sets scipy's).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kernelmath import KernelParams
from .mesh import DiscreteFunction, Mesh


class InconsistentHorizonError(ValueError):
    """Kernel horizon does not match the horizon the mesh represents."""


class ConstraintViolationError(ValueError):
    """Function is nonzero on the collar / outside the domain."""


def _process_settings() -> None:
    """Run once, at import, for every caller.

    glibc's trim and mmap thresholds go up (a no-op without glibc): an energy
    call allocates and frees a few hundred KB of numpy temporaries; at the
    default 128 KB both go back to the system, and every call faults its pages
    in again.  numpy's OpenBLAS runs on one thread."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pass
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
        mallopt(-3, 16 << 20)   # M_MMAP_THRESHOLD
    _one_blas_thread(np)


def _one_blas_thread(pkg) -> None:
    """Set the OpenBLAS of pkg's wheel (numpy, scipy) to one thread: at a few hundred
    unknowns worker threads cost more than they save and, when another process
    holds a core, stall a single factorization for up to a second."""
    for path in sorted(glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads"):
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
                set_threads(1)
                break


_process_settings()


# quadrature controls
_PAIR_ORDER_SMOOTH = 6      # tensor order when |.|^p is polynomial (even integer p)
_PAIR_ORDER_KINK = 10       # tensor order for p >= 2 (|.|^p ridge is C^(p-1)-smooth)
_PAIR_ORDER_HOLDER = 20     # tensor order for 1 < p < 2 (|.|^p ridge is barely C^1)
_ADJ_PANELS = 4             # composite panels per half for the vertex-pair profile
_ADJ_ORDER = 10
_TAIL_ORDER = 16            # per-element order for the analytic-tail weight
_TAIL_ORDER_HOLDER = 32
_TAIL_LEVELS = 6            # graded levels toward the domain endpoints
_TAIL_RATIO = 0.15


@functools.lru_cache(maxsize=None)
def _gauss01(order: int):
    """Gauss-Legendre nodes and weights on [0, 1], built once per order, read-only."""
    x, w = leggauss(order)
    x, w = (x + 1.0) / 2.0, w / 2.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class EnergyBreakdown:
    """Nonlocal energy split into the domain-domain part and the complement interaction."""

    principal: float
    interaction: float
    total: float


def _basis(t: np.ndarray) -> np.ndarray:
    """2 x len(t): weights of an element's two end values at local points t."""
    return np.stack([1.0 - t, t])


class _Rule:
    """One point template shared by blocks of elements or element pairs.

    ``basis`` holds, per point, the weights of the nodal values the point
    reads: rows 0-1 for the two ends of element e and, in a pair rule, rows
    2-3 for the two ends of element e + g with a minus sign, so the value at
    a point is u(x) - u(y).  A block (lo, hi, g, w, main) applies the template
    to every e in [lo, hi) with weights w, one vector for all rows or one row
    per element; rows main[0]:main[1] (relative to lo) are principal energy,
    the others interaction.
    """

    def __init__(self, basis: np.ndarray, blocks=()):
        self.basis = basis
        self.blocks = list(blocks)
        # per point, the Gram entries (a, b), a <= b: basis[a] basis[b], one column
        # per pair, halved on the diagonal because _gram adds the transpose
        self.pairs = [(a, b) for a in range(len(basis)) for b in range(a, len(basis))]
        self.products = np.stack([basis[a] * basis[b] * (0.5 if a == b else 1.0)
                                  for a, b in self.pairs], axis=1)

    def offsets(self, g: int):
        return (0, 1) if len(self.basis) == 2 else (0, 1, g, g + 1)


def _pair_rule(xt: np.ndarray, yt: np.ndarray) -> _Rule:
    return _Rule(np.vstack([_basis(xt), -_basis(yt)]))


class _Tableau:
    """Per-gap quadrature templates for one (mesh, s, p), truncated at delta on a
    collar mesh; ``tail`` holds each tail rule, its mass weights and kernel."""

    def __init__(self, mesh: Mesh, s: float, p: float, delta: float):
        h = mesh.h
        self.ps = ps = p * s
        alpha = p * (1.0 - s)
        near_even = abs(p - round(p)) < 1e-12 and int(round(p)) % 2 == 0
        if near_even:
            q = _PAIR_ORDER_SMOOTH
        elif p >= 2.0:
            q = _PAIR_ORDER_KINK
        else:
            q = _PAIR_ORDER_HOLDER
        tail_order = _TAIL_ORDER if p >= 2.0 else _TAIL_ORDER_HOLDER

        collar = mesh.collar_cells
        nin = mesh.n_interior_elements
        omega_lo, omega_hi = collar, collar + nin  # Omega elements are [omega_lo, omega_hi)

        if mesh.has_collar and not math.isinf(delta):
            # truncated regime on the collar mesh
            if not math.isclose(delta, mesh.delta_effective, rel_tol=1e-9, abs_tol=1e-12):
                raise InconsistentHorizonError(
                    f"kernel horizon {delta} does not match mesh "
                    f"delta_effective {mesh.delta_effective}"
                )
            truncated_gap = int(round(delta / h))
            gaps = range(1, truncated_gap + 1)
            elem_lo, elem_hi = 0, mesh.element_count
        else:
            # untruncated: full pair set over Omega elements plus the analytic
            # complement/collar tail
            gaps = range(1, nin)
            truncated_gap = -1
            elem_lo, elem_hi = omega_lo, omega_hi

        # same-element closed form over Omega elements: the point value is the
        # nodal difference across the element
        same = _Rule(np.array([[-1.0], [1.0]]))
        same.blocks.append((omega_lo, omega_hi, 0,
                            np.array([2.0 * h ** (1.0 - ps) / (alpha * (alpha + 1.0))]),
                            (0, nin)))
        self.rules = [same]

        # adjacent (vertex-sharing) template: 1-D profile in tau
        tn, tw = [], []
        ax, aw = _gauss01(_ADJ_ORDER)
        for lo, hi in ((0.0, 0.5), (0.5, 1.0)):
            width = (hi - lo) / _ADJ_PANELS
            for k in range(_ADJ_PANELS):
                tn.append(lo + width * (k + ax))
                tw.append(width * aw)
        tau = np.concatenate(tn)
        wtau = np.concatenate(tw)
        that = np.ones_like(tau) if truncated_gap == 1 else 1.0 / np.maximum(tau, 1.0 - tau)
        adjacent = _pair_rule(1.0 - that * (1.0 - tau), that * tau)
        w_adjacent = 2.0 * wtau * (h * that) ** (1.0 - ps) / (alpha + 1.0)

        gx, gw = _gauss01(q)
        xi = np.repeat(gx, q)
        eta = np.tile(gx, q)
        ww = np.repeat(gw, q) * np.tile(gw, q) * h ** (1.0 - ps)
        separated = _pair_rule(xi, eta)
        # triangular subregion eta < xi of the cutoff pair; the rule is
        # symmetrized with its mirror image so reflecting the function
        # reproduces the energy to rounding error
        eta_t = xi * eta
        triangle = _pair_rule(np.concatenate([xi, 1.0 - eta_t]),
                              np.concatenate([eta_t, 1.0 - xi]))

        for g in gaps:
            # elements e with e or e + g in Omega; on a collar mesh with g
            # above the Omega element count the range also holds pairs with
            # both elements in the collar, which contribute nothing
            lo = max(elem_lo, omega_lo - g)
            hi = min(elem_hi - g, omega_hi)
            if hi <= lo:
                continue
            main = (max(lo, omega_lo) - lo, max(lo, omega_lo, omega_hi - g) - lo)
            if g == 1:
                adjacent.blocks.append((lo, hi, g, w_adjacent, main))
            elif g == truncated_gap:
                half = ww * xi * (g + eta_t - xi) ** (-(1.0 + ps))
                triangle.blocks.append((lo, hi, g, np.concatenate([half, half]), main))
            else:
                separated.blocks.append((lo, hi, g, 2.0 * ww * (g + eta - xi) ** (-(1.0 + ps)),
                                         main))
        self.rules += [r for r in (adjacent, separated, triangle) if r.blocks]

        # analytic tail: weighted L^p term over Omega, graded toward the endpoints
        self.tail, self._at, self._shared, self.nn = [], {}, None, len(mesh.nodes)
        if truncated_gap < 0:
            a, b = mesh.domain.a, mesh.domain.b
            tx, twt = _gauss01(tail_order)
            grade = np.concatenate(([0.0], _TAIL_RATIO ** np.arange(_TAIL_LEVELS, -1, -1.0)))
            for lo, hi, cuts in ((omega_lo, omega_lo + 1, grade),
                                 (omega_lo + 1, omega_hi - 1, np.array([0.0, 1.0])),
                                 (omega_hi - 1, omega_hi, 1.0 - grade[::-1])):
                if hi <= lo:
                    continue
                widths = np.diff(cuts)
                loc = np.concatenate([c + wd * tx for c, wd in zip(cuts[:-1], widths)])
                wloc = np.concatenate([wd * twt for wd in widths])
                x = mesh.nodes[lo:hi, None] + h * loc
                mass = 2.0 * h * wloc
                kernel = (np.power(x - a, -ps) + np.power(b - x, -ps)) / ps
                rule = _Rule(_basis(loc), [(lo, hi, 0, mass * kernel, (0, 0))])
                self.tail.append((rule, mass, kernel))
            self.rules += [rule for rule, _, _ in self.tail]

    def rules_at(self, delta: float) -> list:
        """The rules at horizon delta, built once: the tail kernel lowered by
        c = (2/(ps)) delta^-ps.  A weight is mass * (kernel - c), not weight - c * mass:
        the two differ in the last bit, and the inner solver's iteration count is
        chaotic in that."""
        if math.isinf(delta) or not self.tail:
            return self.rules
        if delta not in self._at:
            c = 2.0 / (self.ps * delta ** self.ps)
            self._at[delta] = self.rules[:-len(self.tail)] + [
                _Rule(rule.basis, [(lo, hi, g, mass * (kernel - c), main)])
                for rule, mass, kernel in self.tail for lo, hi, g, _, main in rule.blocks]
        return self._at[delta]

    def stiffness(self, delta: float) -> np.ndarray:
        """_gram(rules_at(delta)) bit for bit: a tail's blocks (diagonals 0, +-1) add to the
        upper half of the Gram of the rules all horizons share, built once, read-only."""
        if not self.tail:
            return _gram(self.rules, self.nn)
        if self._shared is None:
            full = _gram(self.rules[:-len(self.tail)], self.nn)
            self._shared = np.triu(full) - np.diag(np.diag(full)) / 2.0  # exact
            self._shared.setflags(write=False)
        return _gram(self.rules_at(delta)[-len(self.tail):], self.nn, upper=self._shared)


@functools.lru_cache(maxsize=24)
def _built(mesh: Mesh, s: float, p: float, delta: float) -> _Tableau:
    """The tableau of one key, built once; equal meshes (Mesh.__eq__) share it."""
    return _Tableau(mesh, s, p, delta)


def _table(mesh: Mesh, params: KernelParams) -> _Tableau:
    """The memoized tableau of params on mesh, built at delta = infinity if collarless."""
    length = mesh.domain.length
    if not mesh.has_collar and params.delta < length * (1.0 - 1e-12):
        raise InconsistentHorizonError(
            f"collarless assembly needs delta >= |Omega|={length}, got {params.delta}")
    return _built(mesh, params.s, params.p, params.delta if mesh.has_collar else math.inf)


def _tableau(mesh: Mesh, params: KernelParams) -> list:
    """The quadrature rules of the energy at params, read from the memoized tableau."""
    return _table(mesh, params).rules_at(params.delta)


def _check_constrained(u: DiscreteFunction):
    if not u.collar_is_zero():
        raise ConstraintViolationError("function is nonzero on the collar / boundary nodes")


def _block_values(rules, vals: np.ndarray):
    """(rule, block, values at the block's points, one row per element) per block.

    The element end values are mapped to a rule's points once, for all
    elements, and each block reads its rows as slices."""
    ends = np.stack([vals[:-1], vals[1:]], axis=1)
    for rule in rules:
        at_x = ends @ rule.basis[:2]
        at_y = ends @ rule.basis[2:] if len(rule.basis) == 4 else None
        for block in rule.blocks:
            lo, hi, g = block[:3]
            d = at_x[lo:hi]
            if at_y is not None:
                d = d + at_y[lo + g:hi + g]
            yield rule, block, d


def _power_parts(rules, vals: np.ndarray, p: float, gradient: bool = False):
    """(principal, interaction, grad): the weighted sums of |value|^p over the points
    and, given gradient, the exact nodal gradient of their total (else None).
    Per block f = |d|^(p-1) sign(d), a square at p = 3, is computed once: the
    value reads f d = |d|^p, the gradient f w."""
    principal, interaction = [], []
    grad = np.zeros(len(vals)) if gradient else None
    for rule, (lo, hi, g, w, (a, b)), d in _block_values(rules, vals):
        f = d * np.abs(d) if p == 3.0 else np.copysign(np.abs(d) ** (p - 1.0), d)
        powered = f * d
        rows = powered @ w if w.ndim == 1 else np.einsum("ij,ij->i", powered, w)
        principal.append(rows[a:b])
        interaction += [rows[:a], rows[b:]]
        if gradient:
            f *= w
            per_node = f @ rule.basis.T
            for k, off in enumerate(rule.offsets(g)):
                grad[lo + off:hi + off] += per_node[:, k]
    return (float(np.sum(np.concatenate(principal))),
            float(np.sum(np.concatenate(interaction))),
            p * grad if gradient else None)


def _gram(rules, nn: int, vals=None, p: float = 2.0, upper=None) -> np.ndarray:
    """Symmetric nodal matrix G with u.G.u = the total of _power_parts(rules, u, 2).

    Each block's 4x4 (2x2 for one-element rules) matrix basis diag(w) basis^T
    goes along the node diagonals at offsets 0, 1, g, g+1.  Its upper half,
    diagonal halved, is w @ rule.products (one matrix product per block); G
    is the sum of those halves plus its transpose.  Given vals, each point's
    weight is scaled by |d|^(p-2), d the point's value of vals, and p(p-1) G
    is the Hessian of _power_parts' total there; at p = 2 the scale is 1 and
    vals is not read, so G is the unweighted matrix bit for bit.  Given upper, the
    halves of earlier rules, the blocks add to a copy of it."""
    G = np.zeros((nn, nn)) if upper is None else upper.copy()
    flat = G.reshape(-1)
    blocks = (((rule, block, None) for rule in rules for block in rule.blocks)
              if vals is None or p == 2.0 else _block_values(rules, vals))
    for rule, (lo, hi, g, w, _), d in blocks:
        if d is not None:
            w = w * (np.abs(d) if p == 3.0 else np.abs(d) ** (p - 2.0))
        local = w @ rule.products
        span = (hi - lo) * (nn + 1)
        offsets = rule.offsets(g)
        for col, (i, j) in enumerate(rule.pairs):
            start = (lo + offsets[i]) * nn + lo + offsets[j]
            flat[start:start + span:nn + 1] += local[..., col]
    return G + G.T


def nonlocal_energy(u: DiscreteFunction, params: KernelParams) -> EnergyBreakdown:
    """Truncated seminorm of u to the p-th power at any horizon, split principal/interaction."""
    _check_constrained(u)
    principal, interaction, _ = _power_parts(_tableau(u.mesh, params), u.values, params.p)
    return EnergyBreakdown(principal, interaction, principal + interaction)


def energy_and_gradient(u: DiscreteFunction, params: KernelParams):
    """(nonlocal_energy total, its exact nodal gradient) at u from one pass over the points."""
    _check_constrained(u)
    principal, interaction, grad = _power_parts(_tableau(u.mesh, params), u.values,
                                                params.p, gradient=True)
    return principal + interaction, grad


def energy_hessian(u: DiscreteFunction, params: KernelParams) -> np.ndarray:
    """Exact nodal Hessian of the nonlocal energy at u for p >= 2 (collar entries included);
    at p = 2 twice the stiffness, bit for bit."""
    _check_constrained(u)
    p = params.p
    return p * (p - 1.0) * _gram(_tableau(u.mesh, params), len(u.values), u.values, p)


@functools.lru_cache(maxsize=24)
def _mass_rules(mesh: Mesh):
    """The per-element Gauss rule of lp_mass, built once per mesh."""
    gx, gw = _gauss01(_TAIL_ORDER)
    lo, nin = mesh.collar_cells, mesh.n_interior_elements
    return [_Rule(_basis(gx), [(lo, lo + nin, 0, gw * mesh.h, (0, nin))])]


def lp_mass(u: DiscreteFunction, p: float) -> float:
    """Integral of |u|^p over Omega by per-element Gauss quadrature."""
    return _power_parts(_mass_rules(u.mesh), u.values, p)[0]


def lp_mass_gradient(u: DiscreteFunction, p: float) -> np.ndarray:
    """Exact nodal gradient of lp_mass under the same quadrature."""
    return _power_parts(_mass_rules(u.mesh), u.values, p, gradient=True)[2]


def lp_mass_hessian(u: DiscreteFunction, p: float) -> np.ndarray:
    """Exact nodal Hessian of lp_mass at u for p >= 2, under the same quadrature;
    at p = 2 twice the mass matrix, bit for bit."""
    return p * (p - 1.0) * _gram(_mass_rules(u.mesh), len(u.values), u.values, p)
