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
does not depend on x, so a finite horizon takes ``horizon_shift`` times the L^p mass off
the energy at infinity: one sweep of the tableau at infinity, less that multiple of a
sweep of lp_mass's rule, so E_delta = E_inf - horizon_shift lp_mass holds to rounding at
every p.  That rule (``_lp_rules``) is per-element Gauss over Omega at the tail's order
for p (``_tail_order``: finer below p = 2, where |u|^p is barely C^1 at a sign change).

On a uniform mesh the quadrature of a pair depends only on its gap g: each point set
(adjacent-pair profile, separated tensor rule, cutoff triangle, tail, L^p mass) is one
``_Rule``, a block per gap, whose row layout (int32 node ids, in chunks) is built once.
The tableau of rules is memoized per (mesh, s, p, delta), delta = infinity on a collarless
mesh.  One pass, ``_sweep``, gives the value, the gradient and the Hessian (the Gram
weighted by |u(x)-u(y)|^(p-2)) for ``energy_derivatives`` and ``lp_mass_derivatives``.
Unweighted, the Gram is the p=2 stiffness, and over lp_mass's rule the mass matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kernelmath import KernelParams, horizon_shift
from .mesh import DiscreteFunction, Mesh


class InconsistentHorizonError(ValueError):
    """Kernel horizon does not match the horizon the mesh represents."""


class ConstraintViolationError(ValueError):
    """Function is nonzero on the collar / outside the domain."""


# quadrature controls
_PAIR_ORDER_SMOOTH = 6      # tensor order when |.|^p is polynomial (even integer p)
_PAIR_ORDER_KINK = 10       # tensor order for p >= 2 (|.|^p ridge is C^(p-1)-smooth)
_PAIR_ORDER_HOLDER = 20     # tensor order for 1 < p < 2 (|.|^p ridge is barely C^1)
_ADJ_PANELS = 4             # composite panels per half for the vertex-pair profile
_ADJ_ORDER = 10
_CHUNK = 1 << 15            # point values (at least one row) per chunk of a pass over a rule
_PAIRS = {n: (a, b, np.where(a == b, 0.5, 1.0)) for n in (2, 4) for a, b in [np.triu_indices(n)]}
_TAIL_ORDER = 16            # per-element order for the analytic tail and the L^p mass
_TAIL_ORDER_HOLDER = 32     # the same below p = 2
_TAIL_LEVELS = 6            # graded levels toward the domain endpoints
_TAIL_RATIO = 0.15
_GRAM_FLOOR = 1e-12         # |u(x)-u(y)| floor of a p < 2 Hessian, relative to max|u|


@functools.lru_cache(maxsize=None)
def _gauss01(order: int):
    """Gauss-Legendre nodes and weights on [0, 1], built once per order, read-only."""
    x, w = leggauss(order)
    x, w = (x + 1.0) / 2.0, w / 2.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _tail_order(p: float) -> int:
    """The per-element Gauss order of the analytic tail and of the L^p mass at p."""
    return _TAIL_ORDER if p >= 2.0 else _TAIL_ORDER_HOLDER


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

    ``basis`` holds, per point, the weights of the nodal values the point reads: rows
    0-1 for the two ends of element e and, in a pair rule, rows 2-3 for the two ends of
    element e + g with a minus sign, so the value at a point is u(x) - u(y).  A block
    (lo, hi, g, w, main) applies the template to every e in [lo, hi) with weights w,
    one vector for all rows or one row per element; rows main[0]:main[1] (relative to
    lo) are principal energy, the others interaction.  The layout built here holds, per
    row, the nodes the row reads (``nodes``, int32: e, e + 1 and e + g, e + g + 1) and
    its vector in ``weights`` (``widx``), the principal rows first; ``chunks`` cuts it
    into (principal row count, weight ids, node ids) of at most _CHUNK points."""

    def __init__(self, basis: np.ndarray, blocks):
        self.basis = basis
        # row segments [first, last) of e, each with g, per-row w?, widx - e * per-row w?
        principal, interaction, starts = [], [], [0]
        for lo, hi, g, w, (a, b) in blocks:
            seg = (g, w.ndim == 2, starts[-1] - lo * (w.ndim == 2))
            principal.append((lo + a, lo + b, *seg))
            interaction += [(lo, lo + a, *seg), (lo + b, hi, *seg)]
            starts.append(starts[-1] + (len(w) if w.ndim == 2 else 1))
        first, last, gap, per_row, base = np.array(principal + interaction, dtype=np.int32).T
        count = last - first
        e = np.repeat(first - np.cumsum(count, dtype=np.int32) + count, count)
        e += np.arange(len(e), dtype=np.int32)
        self.nodes = np.repeat(e[:, None], len(basis), axis=1)  # e, e + 1, e + g, e + g + 1
        self.nodes[:, 1::2] += 1
        self.nodes[:, 2:] += np.repeat(gap, count)[:, None]
        self.widx = np.repeat(base, count) + e * np.repeat(per_row, count)
        split, step = int(count[:len(principal)].sum()), max(1, _CHUNK // basis.shape[1])
        self.chunks = [(max(0, split - i), self.widx[i:i + step], self.nodes[i:i + step])
                       for i in range(0, len(e), step)]
        self._ids = None  # gram_ids, once built
        self.weights = np.concatenate([w.reshape(-1, basis.shape[1]) for _, _, _, w, _ in blocks])
        self.blocks = [(lo, hi, g, self.weights[k:k + len(w)] if w.ndim == 2 else self.weights[k],
                        main) for (lo, hi, g, w, main), k in zip(blocks, starts)]
        # per point, the Gram entries (a, b), a <= b: basis[a] basis[b], one column
        # per pair, halved on the diagonal because _sweep adds the transpose
        a, b, half = _PAIRS[len(basis)]
        self.products = np.ascontiguousarray((basis[a] * basis[b]).T * half)

    def gram_ids(self, nn: int) -> list:
        """Per chunk, the _gram_ids of its rows, built when a weighted Hessian first asks."""
        if self._ids is None:
            self._ids = [_gram_ids(nodes, nn) for _, _, nodes in self.chunks]
        return self._ids


def _gram_ids(nodes: np.ndarray, nn: int) -> np.ndarray:
    """The flat indices a * nn + b of the Gram entries (a, b), a <= b, of rows of node ids."""
    a, b, _ = _PAIRS[nodes.shape[1]]
    return nodes[:, a].astype(np.int32 if nn * nn < 2 ** 31 else np.intp) * nn + nodes[:, b]


class _Tableau:
    """Per-gap quadrature templates for one (mesh, s, p), truncated at delta on a collar
    mesh, with the analytic tail at delta = infinity without a collar."""

    def __init__(self, mesh: Mesh, s: float, p: float, delta: float):
        h = mesh.h
        ps = p * s
        alpha = p * (1.0 - s)
        near_even = abs(p - round(p)) < 1e-12 and int(round(p)) % 2 == 0
        if near_even:
            q = _PAIR_ORDER_SMOOTH
        elif p >= 2.0:
            q = _PAIR_ORDER_KINK
        else:
            q = _PAIR_ORDER_HOLDER

        collar = mesh.collar_cells
        nin = mesh.n_interior
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
        self.rules = [_Rule(np.array([[-1.0], [1.0]]), [(
            omega_lo, omega_hi, 0, np.array([2.0 * h ** (1.0 - ps) / (alpha * (alpha + 1.0))]),
            (0, nin))])]

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
        w_adjacent = 2.0 * wtau * (h * that) ** (1.0 - ps) / (alpha + 1.0)

        gx, gw = _gauss01(q)
        xi = np.repeat(gx, q)
        eta = np.tile(gx, q)
        ww = np.repeat(gw, q) * np.tile(gw, q) * h ** (1.0 - ps)
        # triangular subregion eta < xi of the cutoff pair; the rule is
        # symmetrized with its mirror image so reflecting the function
        # reproduces the energy to rounding error
        eta_t = xi * eta

        adjacent, separated, triangle = [], [], []
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
                adjacent.append((lo, hi, g, w_adjacent, main))
            elif g == truncated_gap:
                half = ww * xi * (g + eta_t - xi) ** (-(1.0 + ps))
                triangle.append((lo, hi, g, np.concatenate([half, half]), main))
            else:
                separated.append((lo, hi, g, 2.0 * ww * (g + eta - xi) ** (-(1.0 + ps)), main))
        self.rules += [_Rule(np.vstack([_basis(xt), -_basis(yt)]), blocks) for xt, yt, blocks in (
            (1.0 - that * (1.0 - tau), that * tau, adjacent), (xi, eta, separated),
            (np.concatenate([xi, 1.0 - eta_t]), np.concatenate([eta_t, 1.0 - xi]), triangle))
            if blocks]

        # analytic tail: weighted L^p term over Omega, graded toward the endpoints
        self.nn = len(mesh.nodes)
        if truncated_gap < 0:
            a, b = mesh.domain.a, mesh.domain.b
            tx, twt = _gauss01(_tail_order(p))
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
                self.rules.append(_Rule(_basis(loc), [(lo, hi, 0, mass * kernel, (0, 0))]))


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


def _check_constrained(u: DiscreteFunction):
    if not u.collar_is_zero():
        raise ConstraintViolationError("function is nonzero on the collar / boundary nodes")


def _sweep(rules, nn: int, vals=None, p: float = 2.0, gradient: bool = False,
           hessian: bool = False):
    """(principal, interaction, gradient, G) from one pass over the points of rules, a
    point's value being d = u(x) - u(y) of vals: the weighted sums of |d|^p, split as the
    rows are; given gradient, the nodal gradient of their total; given hessian, the nodal
    matrix G = sum of w basis basis^T over the points: each row's upper half (diagonal
    halved, w @ rule.products) goes in by one np.add.at per chunk, and G is the halves plus
    their transpose.  Away from p = 2 each w is scaled by |d|^(p-2), |d| floored at
    _GRAM_FLOOR max|vals| below p = 2 (the pole at d = 0), and p(p-1) G is the Hessian; at
    p = 2, G needs no vals (the stiffness, the mass matrix).  Per chunk d and |d| are
    computed once."""
    principal, interaction = [], []
    grad = np.zeros(nn) if gradient else None
    G = np.zeros((nn, nn)) if hessian else None
    weighted = hessian and p != 2.0
    floor = _GRAM_FLOOR * np.max(np.abs(vals)) if weighted and p < 2.0 else 0.0
    for rule in rules:
        local = rule.weights @ rule.products if hessian and not weighted else None
        ids = rule.gram_ids(nn) if weighted else None
        for i, (main, k, nodes) in enumerate(rule.chunks):
            if vals is not None:
                d = vals[nodes] @ rule.basis
                a, w = np.abs(d), rule.weights[k]
                f = d * a if p == 3.0 else np.copysign(a ** (p - 1.0), d)
                f *= w
                sums = np.einsum("ij,ij->i", f, d)
                principal.append(sums[:main])
                interaction.append(sums[main:])
                if gradient:
                    grad += np.bincount(nodes.ravel(), (f @ rule.basis.T).ravel(), nn)
            if hessian:
                if weighted:  # in place: |d| becomes the point weights of the Hessian
                    if p != 3.0:
                        np.power(np.maximum(a, floor, out=a), p - 2.0, out=a)
                    a *= w
                    rows, idx = a @ rule.products, ids[i]
                else:
                    rows, idx = local[k], _gram_ids(nodes, nn)
                np.add.at(G.reshape(-1), idx.ravel(), rows.ravel())
            d = a = w = f = None  # this chunk's temporaries go before the next chunk's come
    return (*[float(np.sum(np.concatenate(x))) if x else 0.0 for x in (principal, interaction)],
            p * grad if gradient else None, G + G.T if hessian else None)


def _gram(rules, nn: int) -> np.ndarray:
    """The unweighted Gram of rules (_sweep at p = 2 without values)."""
    return _sweep(rules, nn, hessian=True)[3]


def _energy_sweep(mesh: Mesh, params: KernelParams, vals=None, gradient: bool = False,
                  hessian: bool = False):
    """_sweep of the tableau at params; without a collar at a finite horizon, less
    horizon_shift times the sweep of lp_mass's rule at params.p in the interaction, the
    gradient and G alike.  Without vals, G is the p = 2 stiffness at params (_sweep)."""
    table = _table(mesh, params)
    p = params.p if vals is not None else 2.0  # without vals, the unweighted Gram
    parts = _sweep(table.rules, table.nn, vals, p, gradient, hessian)
    kappa = 0.0 if mesh.has_collar else horizon_shift(params)
    if not kappa:
        return parts
    mass = _sweep(_lp_rules(mesh, params.p), table.nn, vals, p, gradient, hessian)
    return (parts[0], parts[1] - kappa * mass[0],
            *[None if x is None else x - kappa * y for x, y in zip(parts[2:], mass[2:])])


def _stiffness(mesh: Mesh, params: KernelParams) -> np.ndarray:
    """The p = 2 stiffness at params, the Gram the energy's p = 2 Hessian is twice."""
    return _energy_sweep(mesh, params, hessian=True)[3]


def nonlocal_energy(u: DiscreteFunction, params: KernelParams) -> EnergyBreakdown:
    """Truncated seminorm of u to the p-th power at any horizon, split principal/interaction."""
    _check_constrained(u)
    principal, interaction, _, _ = _energy_sweep(u.mesh, params, u.values)
    return EnergyBreakdown(principal, interaction, principal + interaction)


def energy_derivatives(u: DiscreteFunction, params: KernelParams, hessian: bool = False):
    """(nonlocal_energy total, its nodal gradient, its Hessian or None) at u from one pass.
    The Hessian (collar entries included) is exact for p >= 2, twice the stiffness bit for
    bit at p = 2, and below p = 2 (p-1) times that of the majorizing quadratic (_sweep)."""
    _check_constrained(u)
    p = params.p
    principal, interaction, grad, G = _energy_sweep(u.mesh, params, u.values, True, hessian)
    return principal + interaction, grad, None if G is None else p * (p - 1.0) * G


@functools.lru_cache(maxsize=24)
def _mass_rules(mesh: Mesh, order: int):
    """The per-element Gauss rule of the given order over Omega, built once per (mesh,
    order)."""
    gx, gw = _gauss01(order)
    lo, nin = mesh.collar_cells, mesh.n_interior
    return [_Rule(_basis(gx), [(lo, lo + nin, 0, gw * mesh.h, (0, nin))])]


def _lp_rules(mesh: Mesh, p: float) -> list:
    """lp_mass's rule at p: _mass_rules at the tail's order for p."""
    return _mass_rules(mesh, _tail_order(p))


def lp_mass(u: DiscreteFunction, p: float) -> float:
    """Integral of |u|^p over Omega by per-element Gauss quadrature at the tail's order."""
    return _sweep(_lp_rules(u.mesh, p), len(u.values), u.values, p)[0]


def lp_mass_derivatives(u: DiscreteFunction, p: float, hessian: bool = False):
    """(lp_mass, its exact nodal gradient, its Hessian if asked, else None) at u from one
    pass, under the same quadrature; the Hessian is twice the mass matrix bit for bit at
    p = 2 and floored below p = 2, as in energy_derivatives."""
    mass, _, grad, G = _sweep(_lp_rules(u.mesh, p), len(u.values), u.values, p, True, hessian)
    return mass, grad, None if G is None else p * (p - 1.0) * G
