"""Discrete nonlocal p-energies on piecewise-linear functions.

A function of the constrained space vanishes off Omega, so its energy is the seminorm
over Omega x Omega (the principal part) plus its interaction with the complement within
the horizon.  The principal part is assembled element-pair by element-pair:

* same-element pairs have a closed form (the integrand reduces to
  |slope|^p |x-y|^(p(1-s)-1));
* vertex-sharing pairs are reduced to a 1-D integral in the direction
  transverse to the diagonal (the radial integral is elementary because the
  integrand is homogeneous there), leaving a smooth profile integrated by
  composite Gauss panels;
* separated pairs use tensor Gauss quadrature, with the cutoff-truncated pair
  at distance exactly delta handled on its triangular subregion.

The interaction is integrated analytically in the y variable, leaving a weighted L^p
term 2 int_Omega |u|^p k_delta with the killing kernel
k_delta(x) = (1/(ps)) [((x-a)^-ps - delta^-ps)_+ + ((b-x)^-ps - delta^-ps)_+]
(Bogdan, Burdzy & Chen, PTRF 2003).  Its rule, the tail, covers the elements within
delta of an end with one per-element template graded toward both ends of the element.
For delta >= |Omega| the bracket is k_inf less (2/(ps)) delta^-ps on all of Omega, so
the energy at delta is the energy at infinity less ``horizon_shift`` times the L^p mass:
one sweep of the tableau at infinity, less that multiple of a sweep of lp_mass's rule, so
the identity holds to rounding at every p.  That rule (``_lp_rules``) is per-element Gauss
over Omega at the tail's order for p (``_tail_order``: finer below p = 2, where |u|^p is
barely C^1 at a sign change).

On a uniform mesh the quadrature of a pair depends only on its gap g: each point set
(adjacent-pair profile, separated tensor rule, cutoff triangle, tail, L^p mass) is one
``_Rule`` over the pairs (e, e + g) of its gaps (``_rows``) or over elements, one weight
vector per gap or per element, whose row layout (int32 node ids, in chunks) is built once.
The tableau of rules is memoized per (mesh, s, p, delta), delta = infinity for a horizon
of at least |Omega|.  One pass, ``_sweep``, gives the value (the pair rules and the
tail apart), the gradient and the Hessian (the Gram weighted by |u(x)-u(y)|^(p-2)) for
``energy_derivatives`` and ``lp_mass_derivatives``.  Unweighted, the Gram is the p=2
stiffness, and over lp_mass's rule the mass matrix.
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
    """Function is nonzero at an end of the domain, where the constrained space vanishes."""


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
_TAIL_LEVELS = 6            # graded levels toward each end of a tail element
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
    """One point template over rows of elements or element pairs.

    ``basis`` holds, per point, the weights of the nodal values the point reads: rows
    0-1 for the two ends of element e and, in a pair rule, rows 2-3 for the two ends of
    element e + g with a minus sign, so the value at a point is u(x) - u(y).  Row i reads
    element e[i] (paired with e[i] + g[i]) and weight vector ``weights[widx[i]]``: one
    vector per gap, or one per row.  The layout built here holds, per row, the nodes the
    row reads (``nodes``, int32: e, e + 1 and e + g, e + g + 1); ``chunks`` cuts it into
    (weight ids, node ids) of at most _CHUNK points."""

    def __init__(self, basis: np.ndarray, weights: np.ndarray, e: np.ndarray, g: np.ndarray,
                 widx: np.ndarray):
        self.basis, self.weights, self.widx = basis, weights, widx
        self.nodes = np.repeat(e[:, None], len(basis), axis=1)  # e, e + 1, e + g, e + g + 1
        self.nodes[:, 1::2] += 1
        self.nodes[:, 2:] += g[:, None]
        step = max(1, _CHUNK // basis.shape[1])
        self.chunks = [(widx[i:i + step], self.nodes[i:i + step])
                       for i in range(0, len(e), step)]
        self._ids = None  # gram_ids, once built
        # per point, the Gram entries (a, b), a <= b: basis[a] basis[b], one column
        # per pair, halved on the diagonal because _sweep adds the transpose
        a, b, half = _PAIRS[len(basis)]
        self.products = np.ascontiguousarray((basis[a] * basis[b]).T * half)

    def gram_ids(self, nn: int) -> list:
        """Per chunk, the _gram_ids of its rows, built when a weighted Hessian first asks."""
        if self._ids is None:
            self._ids = [_gram_ids(nodes, nn) for _, nodes in self.chunks]
        return self._ids


def _gram_ids(nodes: np.ndarray, nn: int) -> np.ndarray:
    """The flat indices a * nn + b of the Gram entries (a, b), a <= b, of rows of node ids."""
    a, b, _ = _PAIRS[nodes.shape[1]]
    return nodes[:, a].astype(np.int32 if nn * nn < 2 ** 31 else np.intp) * nn + nodes[:, b]


def _rows(n: int, gaps) -> tuple:
    """(e, g, k) of the pairs (e, e + g) of n elements, e < n - g, gap by gap, k the index
    of g in gaps: int32 arrays.  Gap 0 lists the n elements themselves."""
    gaps = np.asarray(gaps, dtype=np.int32)
    count = n - gaps
    k = np.repeat(np.arange(len(gaps), dtype=np.int32), count)
    first = np.cumsum(count, dtype=np.int32) - count  # the first row of each gap
    return np.arange(len(k), dtype=np.int32) - first[k], gaps[k], k


@functools.lru_cache(maxsize=None)
def _tail_template(order: int):
    """Per-element points and weights of the tail on [0, 1], built once per order: Gauss
    panels graded toward both ends (cuts at _TAIL_RATIO^k and 1 - _TAIL_RATIO^k), so one
    template serves the kernel's pole at either end of Omega."""
    gx, gw = _gauss01(order)
    grade = _TAIL_RATIO ** np.arange(_TAIL_LEVELS, 0, -1.0)
    cuts = np.concatenate(([0.0], grade, 1.0 - grade[::-1], [1.0]))
    widths = np.diff(cuts)
    return (cuts[:-1, None] + widths[:, None] * gx).ravel(), (widths[:, None] * gw).ravel()


class _Tableau:
    """Per-gap quadrature templates for one (mesh, s, p), truncated at delta = r h < |Omega|
    or at delta = infinity: the pair rules over Omega x Omega up to gap min(r, n - 1), the
    principal part, then the tail rule with kernel k_delta, the interaction."""

    def __init__(self, mesh: Mesh, s: float, p: float, delta: float):
        h, n = mesh.h, mesh.n_interior
        ps = p * s
        alpha = p * (1.0 - s)
        near_even = abs(p - round(p)) < 1e-12 and int(round(p)) % 2 == 0
        if near_even:
            q = _PAIR_ORDER_SMOOTH
        elif p >= 2.0:
            q = _PAIR_ORDER_KINK
        else:
            q = _PAIR_ORDER_HOLDER
        r = n if math.isinf(delta) else int(round(delta / h))  # r < n for a finite delta

        # same-element closed form: the point value is the nodal difference across the element
        self.rules = [_Rule(np.array([[-1.0], [1.0]]),
                            np.array([[2.0 * h ** (1.0 - ps) / (alpha * (alpha + 1.0))]]),
                            *_rows(n, [0]))]

        # adjacent (vertex-sharing) template: 1-D profile in tau, Gauss panels on each half
        ax, aw = _gauss01(_ADJ_ORDER)
        side, k = np.divmod(np.arange(2 * _ADJ_PANELS), _ADJ_PANELS)
        width = 0.5 / _ADJ_PANELS
        tau = (0.5 * side[:, None] + width * (k[:, None] + ax)).ravel()
        wtau = np.tile(width * aw, 2 * _ADJ_PANELS)
        that = np.ones_like(tau) if r == 1 else 1.0 / np.maximum(tau, 1.0 - tau)
        w_adjacent = 2.0 * wtau * (h * that) ** (1.0 - ps) / (alpha + 1.0)

        gx, gw = _gauss01(q)
        xi = np.repeat(gx, q)
        eta = np.tile(gx, q)
        ww = np.repeat(gw, q) * np.tile(gw, q) * h ** (1.0 - ps)
        # triangular subregion eta < xi of the cutoff pair; the rule is
        # symmetrized with its mirror image so reflecting the function
        # reproduces the energy to rounding error
        eta_t = xi * eta

        # the pairs (e, e + g) of Omega's elements up to gap min(r, n - 1): adjacent at
        # g = 1, separated, and the cutoff triangle at g = r > 1
        adjacent, separated, triangle = np.split(np.arange(1, min(r, n - 1) + 1),
                                                 [1, max(r - 1, 1)])
        half = ww * xi * (triangle[:, None] + eta_t - xi) ** (-(1.0 + ps))
        for xt, yt, gaps, w in (
                (1.0 - that * (1.0 - tau), that * tau, adjacent, w_adjacent[None]),
                (xi, eta, separated, 2.0 * ww * (separated[:, None] + eta - xi) ** (-(1.0 + ps))),
                (np.concatenate([xi, 1.0 - eta_t]), np.concatenate([eta_t, 1.0 - xi]), triangle,
                 np.concatenate([half, half], axis=1))):
            if len(gaps):
                self.rules.append(_Rule(np.vstack([_basis(xt), -_basis(yt)]), w, *_rows(n, gaps)))

        # the tail: 2 |u|^p k_delta over the elements within delta of an end
        a, b, cut = mesh.domain.a, mesh.domain.b, delta ** -ps
        loc, wloc = _tail_template(_tail_order(p))
        e = np.arange(n, dtype=np.int32)
        e = e[np.minimum(e, n - 1 - e) < r]
        x = mesh.nodes[e, None] + h * loc
        kernel = (np.maximum(np.power(x - a, -ps) - cut, 0.0)
                  + np.maximum(np.power(b - x, -ps) - cut, 0.0)) / ps
        self.rules.append(_Rule(_basis(loc), 2.0 * h * wloc * kernel, e, 0 * e,
                                np.arange(len(e), dtype=np.int32)))
        self.nn = n + 1


@functools.lru_cache(maxsize=24)
def _built(mesh: Mesh, s: float, p: float, delta: float) -> _Tableau:
    """The tableau of one key, built once; equal meshes (Mesh.__eq__) share it."""
    return _Tableau(mesh, s, p, delta)


def _tail_horizon(mesh: Mesh, delta: float) -> float:
    """The horizon the tableau of delta is built at: delta below |Omega|, else infinity."""
    return delta if delta < mesh.domain.length * (1.0 - 1e-12) else math.inf


def _table(mesh: Mesh, params: KernelParams) -> _Tableau:
    """The memoized tableau of params on mesh; a horizon below |Omega| must be the mesh's."""
    delta, snapped = params.delta, mesh.delta_effective
    if (min(_tail_horizon(mesh, delta), _tail_horizon(mesh, snapped)) < math.inf
            and not math.isclose(delta, snapped, rel_tol=1e-9, abs_tol=1e-12)):
        raise InconsistentHorizonError(
            f"kernel horizon {delta} does not match mesh delta_effective {snapped} "
            f"(they may differ only at or above |Omega|={mesh.domain.length})")
    return _built(mesh, params.s, params.p, _tail_horizon(mesh, delta))


def _check_constrained(u: DiscreteFunction):
    if u.values[0] != 0.0 or u.values[-1] != 0.0:
        raise ConstraintViolationError("function is nonzero at an end of the domain")


def _sweep(rules, nn: int, vals=None, p: float = 2.0, gradient: bool = False,
           hessian: bool = False):
    """(head, last, gradient, G) from one pass over the points of rules, a point's value
    being d = u(x) - u(y) of vals: the weighted sums of |d|^p over rules[:-1] and over
    rules[-1] (a tableau's principal part and its tail); given gradient, the nodal
    gradient of their total; given hessian, the nodal matrix G = sum of w basis basis^T
    over the points: each row's upper half (diagonal halved, w @ rule.products) goes in by
    one np.add.at per chunk, and G is the halves plus their transpose.  Away from p = 2
    each w is scaled by |d|^(p-2), |d| floored at _GRAM_FLOOR max|vals| below p = 2 (the
    pole at d = 0), and p(p-1) G is the Hessian; at p = 2, G needs no vals (the stiffness,
    the mass matrix).  Per chunk d and |d| are computed once."""
    head, last = [], []
    grad = np.zeros(nn) if gradient else None
    G = np.zeros((nn, nn)) if hessian else None
    weighted = hessian and p != 2.0
    floor = _GRAM_FLOOR * np.max(np.abs(vals)) if weighted and p < 2.0 else 0.0
    for rule in rules:
        local = rule.weights @ rule.products if hessian and not weighted else None
        ids = rule.gram_ids(nn) if weighted else None
        sums = last if rule is rules[-1] else head
        for i, (k, nodes) in enumerate(rule.chunks):
            if vals is not None:
                d = vals[nodes] @ rule.basis
                a, w = np.abs(d), rule.weights[k]
                f = d * a if p == 3.0 else np.copysign(a ** (p - 1.0), d)
                f *= w
                sums.append(np.einsum("ij,ij->i", f, d))
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
    return (*[float(np.sum(np.concatenate(x))) if x else 0.0 for x in (head, last)],
            p * grad if gradient else None, G + G.T if hessian else None)


def _gram(rules, nn: int) -> np.ndarray:
    """The unweighted Gram of rules (_sweep at p = 2 without values)."""
    return _sweep(rules, nn, hessian=True)[3]


def _energy_sweep(mesh: Mesh, params: KernelParams, vals=None, gradient: bool = False,
                  hessian: bool = False):
    """(principal, interaction, gradient, G): _sweep of the tableau at params, the pair
    rules giving the principal part and the tail the interaction; at a finite horizon
    delta >= |Omega|, less horizon_shift times the sweep of lp_mass's rule at params.p in
    the interaction, the gradient and G alike.  Without vals, G is the p = 2 stiffness at
    params (_sweep)."""
    table = _table(mesh, params)
    p = params.p if vals is not None else 2.0  # without vals, the unweighted Gram
    parts = _sweep(table.rules, table.nn, vals, p, gradient, hessian)
    kappa = horizon_shift(params) if math.isinf(_tail_horizon(mesh, params.delta)) else 0.0
    if not kappa:
        return parts
    mass = _sweep(_lp_rules(mesh, params.p), table.nn, vals, p, gradient, hessian)
    return (parts[0], parts[1] - kappa * mass[1],
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
    The Hessian (end entries included) is exact for p >= 2, twice the stiffness bit for
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
    return [_Rule(_basis(gx), (gw * mesh.h)[None], *_rows(mesh.n_interior, [0]))]


def _lp_rules(mesh: Mesh, p: float) -> list:
    """lp_mass's rule at p: _mass_rules at the tail's order for p."""
    return _mass_rules(mesh, _tail_order(p))


def lp_mass(u: DiscreteFunction, p: float) -> float:
    """Integral of |u|^p over Omega by per-element Gauss quadrature at the tail's order."""
    return _sweep(_lp_rules(u.mesh, p), len(u.values), u.values, p)[1]


def lp_mass_derivatives(u: DiscreteFunction, p: float, hessian: bool = False):
    """(lp_mass, its exact nodal gradient, its Hessian if asked, else None) at u from one
    pass, under the same quadrature; the Hessian is twice the mass matrix bit for bit at
    p = 2 and floored below p = 2, as in energy_derivatives."""
    _, mass, grad, G = _sweep(_lp_rules(u.mesh, p), len(u.values), u.values, p, True, hessian)
    return mass, grad, None if G is None else p * (p - 1.0) * G
