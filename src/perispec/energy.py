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

On a uniform mesh the quadrature of a pair depends only on its gap g: each point set
(adjacent-pair profile, separated tensor rule, cutoff triangle, tail, L^p mass) is one
``_Rule``, a block per gap, which every pass reads in a few chunks of rows.  The tableau
of rules is memoized per (mesh, s, p, delta), delta = infinity on a collarless mesh.
``nonlocal_energy`` splits the energy principal/interaction; ``energy_and_gradient``
computes |d|^(p-1) once per point.  ``_gram`` is the p=2 stiffness and, weighted by
|u(x)-u(y)|^(p-2), the Hessian ``energy_hessian``; a collarless tableau builds the Gram
of its shared rules once, and each horizon adds its tail Gram (``_Tableau.stiffness``).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kernelmath import KernelParams
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
_TAIL_ORDER = 16            # per-element order for the analytic-tail weight
_TAIL_ORDER_HOLDER = 32
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
    lo) are principal energy, the others interaction.  Per row, the layout built here
    holds the first node of each element (``ends``: e, and e + g in a pair rule) and
    its vector in ``weights`` (``widx``), the ``split`` principal rows first."""

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
        self.ends = np.column_stack([e, e + np.repeat(gap, count)][:len(basis) // 2])
        self.widx = np.repeat(base, count) + e * np.repeat(per_row, count)
        self.split = int(count[:len(principal)].sum())
        self.weights = np.concatenate([w.reshape(-1, basis.shape[1]) for _, _, _, w, _ in blocks])
        self.blocks = [(lo, hi, g, self.weights[k:k + len(w)] if w.ndim == 2 else self.weights[k],
                        main) for (lo, hi, g, w, main), k in zip(blocks, starts)]
        # per point, the Gram entries (a, b), a <= b: basis[a] basis[b], one column
        # per pair, halved on the diagonal because _gram adds the transpose
        a, b, half = _PAIRS[len(basis)]
        self.products = np.ascontiguousarray((basis[a] * basis[b]).T * half)

    def reweighted(self, w):
        """This one-block rule, its rows unchanged, with the weights w (one row per element)."""
        rule = copy.copy(self)
        rule.weights, rule.blocks = w, [self.blocks[0][:3] + (w, self.blocks[0][4])]
        return rule

    def chunks(self, vals=None):
        """(principal row count, weight ids, node ids, point values of vals or None) per chunk."""
        step = max(1, _CHUNK // self.basis.shape[1])
        for start in range(0, len(self.widx), step):
            ends = self.ends[start:start + step]
            nodes = np.empty((len(ends), 2 * ends.shape[1]), dtype=np.intp)
            nodes[:, 0::2] = ends
            np.add(ends, 1, out=nodes[:, 1::2])
            yield (max(0, self.split - start), self.widx[start:start + step], nodes,
                   None if vals is None else vals[nodes] @ self.basis)


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
                rule.reweighted(mass * (kernel - c)) for rule, mass, kernel in self.tail]
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


def _power_parts(rules, vals: np.ndarray, p: float, gradient: bool = False):
    """(principal, interaction, grad): the weighted sums of |value|^p over the points
    and, given gradient, the exact nodal gradient of their total (else None).
    Per chunk f = |d|^(p-1) sign(d), a square at p = 3, is computed once and
    weighted: the value reads f w d = w |d|^p, the gradient f w."""
    principal, interaction = [], []
    grad = np.zeros(len(vals)) if gradient else None
    for rule in rules:
        for main, k, nodes, d in rule.chunks(vals):
            f = d * np.abs(d) if p == 3.0 else np.copysign(np.abs(d) ** (p - 1.0), d)
            f *= rule.weights[k]
            sums = np.einsum("ij,ij->i", f, d)
            principal.append(sums[:main])
            interaction.append(sums[main:])
            if gradient:
                grad += np.bincount(nodes.ravel(), (f @ rule.basis.T).ravel(), len(vals))
    return (float(np.sum(np.concatenate(principal))),
            float(np.sum(np.concatenate(interaction))),
            p * grad if gradient else None)


@functools.lru_cache(maxsize=8)
def _scatter(size: int, nn: int) -> np.ndarray:
    """nodes @ _scatter: the flat indices a * nn + b of a row's Gram entries, exactly."""
    a, b, _ = _PAIRS[size]
    return nn * (np.arange(size)[:, None] == a) + (np.arange(size)[:, None] == b) * 1.0


def _gram(rules, nn: int, vals=None, p: float = 2.0, upper=None) -> np.ndarray:
    """Symmetric nodal matrix G with u.G.u = the total of _power_parts(rules, u, 2).

    A row's 4x4 (2x2 for one-element rules) matrix basis diag(w) basis^T goes to its
    nodes e, e+1, e+g, e+g+1.  Its upper half, diagonal halved, is w @ rule.products; a
    chunk adds its rows' halves with one np.add.at, and G is the halves plus their
    transpose.  Given vals, each point's weight is scaled by |d|^(p-2), d the point's
    value of vals, and p(p-1) G is the Hessian of _power_parts' total there; below p = 2,
    |d| is floored at _GRAM_FLOOR max|vals| first, where |d|^(p-2) has a pole at d = 0.
    At p = 2 the scale is 1 and vals is not read, so G is the unweighted matrix bit for
    bit.  Given upper, the halves of earlier rules, the rules add to a copy of it."""
    G = np.zeros((nn, nn)) if upper is None else upper.copy()
    weighted = vals is not None and p != 2.0
    floor = _GRAM_FLOOR * np.max(np.abs(vals)) if weighted and p < 2.0 else 0.0
    for rule in rules:
        local = None if weighted else rule.weights @ rule.products
        for _, k, nodes, d in rule.chunks(vals if weighted else None):
            if weighted:
                d = (np.abs(d, out=d) if p == 3.0
                     else np.maximum(np.abs(d), floor) ** (p - 2.0)) * rule.weights[k]
            idx = (nodes @ _scatter(len(rule.basis), nn)).astype(np.intp).ravel()
            np.add.at(G.reshape(-1), idx, (d @ rule.products if weighted else local[k]).ravel())
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
    at p = 2 twice the stiffness, bit for bit.  Below p = 2 it is (p-1) times the Hessian
    of the quadratic that majorizes the energy at u, with |u(x)-u(y)| floored (``_gram``)."""
    _check_constrained(u)
    p = params.p
    return p * (p - 1.0) * _gram(_tableau(u.mesh, params), len(u.values), u.values, p)


@functools.lru_cache(maxsize=24)
def _mass_rules(mesh: Mesh):
    """The per-element Gauss rule of lp_mass, built once per mesh."""
    gx, gw = _gauss01(_TAIL_ORDER)
    lo, nin = mesh.collar_cells, mesh.n_interior
    return [_Rule(_basis(gx), [(lo, lo + nin, 0, gw * mesh.h, (0, nin))])]


def lp_mass(u: DiscreteFunction, p: float) -> float:
    """Integral of |u|^p over Omega by per-element Gauss quadrature."""
    return _power_parts(_mass_rules(u.mesh), u.values, p)[0]


def lp_mass_gradient(u: DiscreteFunction, p: float) -> np.ndarray:
    """Exact nodal gradient of lp_mass under the same quadrature."""
    return _power_parts(_mass_rules(u.mesh), u.values, p, gradient=True)[2]


def lp_mass_hessian(u: DiscreteFunction, p: float) -> np.ndarray:
    """Exact nodal Hessian of lp_mass at u for p >= 2, under the same quadrature;
    at p = 2 twice the mass matrix, bit for bit; floored below p = 2 (``_gram``)."""
    return p * (p - 1.0) * _gram(_mass_rules(u.mesh), len(u.values), u.values, p)
