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
one pass over the tableau at infinity and lp_mass's rule, less that multiple of the mass,
so the identity holds to rounding at every p.  That rule (``_lp_rules``) is per-element
Gauss over Omega at the tail's order for p (``_tail_order``: finer below p = 2, where
|u|^p is barely C^1 at a sign change).

On a uniform mesh the quadrature of a pair depends only on its gap g: each point set
(adjacent-pair profile, separated tensor rule, cutoff triangle, tail, L^p mass) is one
``_Rule``, one weight vector per gap or element on one template per kind and order, over
a row layout (``_Layout``, int32 node ids in chunks) that ``_layout`` builds once per mesh
geometry.  The tableau of rules, memoized per (mesh, s, p, delta), delta = infinity for a
horizon of at least |Omega|, computes only weights.  One pass, ``_sweep``, gives values,
gradients and Hessians (the Gram weighted by |u(x)-u(y)|^(p-2)) of the energy and of the
mass, kept apart; unweighted, the Gram is the p=2 stiffness or the mass matrix.  The
tableau is reflection-symmetric, so on the even functions, where the first eigenfunction
lies, ``folded_derivatives`` sweeps its folded rules: half the points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kernelmath import KernelParams, horizon_shift
from .mesh import DiscreteFunction, Mesh


class InconsistentHorizonError(ValueError):
    """Kernel horizon below |Omega| is not a whole number of the mesh's cells."""


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
_LAYOUTS = 128              # row layouts kept, at most 12 per tableau geometry


def _readonly(*arrays) -> tuple:
    for x in arrays:
        x.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _gauss01(order: int):
    """Gauss-Legendre nodes and weights on [0, 1], built once per order, read-only."""
    x, w = leggauss(order)
    return _readonly((x + 1.0) / 2.0, w / 2.0)


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


def _frozen(basis: np.ndarray) -> tuple:
    """(basis, products), read-only: per point, the Gram entries (a, b), a <= b, basis[a]
    basis[b], halved on the diagonal because _sweep adds the transpose."""
    a, b, half = _PAIRS[len(basis)]
    return _readonly(basis, np.ascontiguousarray((basis[a] * basis[b]).T * half))


def _chunks(e, g, widx, points: int, fold: int = 0) -> tuple:
    """(weight ids, int32 node ids) of rows (e, g), e, e + 1 and, at g > 0, e + g, e + g + 1,
    node i read as min(i, fold - 1 - i) if folded, in chunks of at most _CHUNK points."""
    nodes = np.repeat(e[:, None], 4 if g[0] else 2, axis=1)  # not any(): less numpy code resident
    nodes[:, 1::2] += 1
    nodes[:, 2:] += g[:, None]
    nodes, widx = _readonly(np.minimum(nodes, fold - 1 - nodes) if fold else nodes, widx)
    step = max(1, _CHUNK // points)
    return tuple((widx[i:i + step], nodes[i:i + step]) for i in range(0, len(widx), step))


class _Layout:
    """The rows of a `points`-point rule over one mesh geometry: the pairs (e, e + g) of n
    elements, gap by gap, g in gaps (0: the elements), or given ends, the tail's elements
    within ends cells of an end; given even, their fold.  It keeps no rows (``rows`` makes
    them), only what a sweep reads, built on first use, read-only and alike from any thread."""

    def __init__(self, n: int, gaps: range, points: int, ends: int = 0, even: bool = False):
        self.n, self.gaps, self.points, self.ends, self.even = n, gaps, points, ends, even
        self.nn = (n + 2) // 2 if even else n + 1

    def rows(self) -> tuple:
        """(e, g, widx, fold), int32, widx the weight vector: one per gap, or per tail element.
        Given even, of a row and its mirror (n - 1 - e - g, g) only the one of lesser e, and
        fold = (src, twice): it reads w[src] * twice, 2 w if the mirror is another row."""
        n, gaps = self.n, np.asarray(self.gaps, dtype=np.int32)
        count = n - gaps
        widx = np.repeat(np.arange(len(gaps), dtype=np.int32), count)
        first = np.cumsum(count, dtype=np.int32) - count  # the first row of each gap
        e, g = np.arange(len(widx), dtype=np.int32) - first[widx], gaps[widx]
        if self.ends:
            e = e[np.minimum(e, n - 1 - e) < self.ends]
            g, widx = 0 * e, np.arange(len(e), dtype=np.int32)
        if not self.even:
            return e, g, widx, None
        mirror = n - 1 - e - g
        keep = mirror >= e
        m = int(widx.max()) + 1  # the weight vectors: each widx from 0 to m - 1
        used, widx = np.unique(widx[keep] + m * (mirror[keep] > e[keep]), return_inverse=True)
        return e[keep], g[keep], widx.astype(np.int32), _readonly(used % m, 1.0 + (used >= m))

    @functools.cached_property
    def chunks(self) -> tuple:
        return _chunks(*self.rows()[:3], self.points, self.even and self.n + 1)

    @functools.cached_property
    def gram_ids(self) -> tuple:  # built when a weighted Hessian first asks
        return _readonly(*[_gram_ids(nodes, self.nn) for _, nodes in self.chunks])

    @functools.cached_property
    def folded(self) -> tuple:  # its even layout, and that layout's (src, twice)
        even = _layout(self.n, self.gaps, self.points, self.ends, True)
        return (even, *even.rows()[3])


_layout = functools.lru_cache(maxsize=_LAYOUTS)(_Layout)  # one layout per geometry


class _Rule(NamedTuple):
    """A point template on a layout, with its weight vectors.  ``basis`` holds, per point,
    the weights of the nodal values it reads: rows 0-1 for element e and, in a pair rule,
    rows 2-3, negated, for e + g, so a point reads u(x) - u(y); ``products`` are _frozen's."""

    basis: np.ndarray
    products: np.ndarray
    weights: np.ndarray
    layout: _Layout
    part: int  # what _sweep sums it into: 0 the principal part, 1 the tail, 2 the L^p mass


def _gram_ids(nodes: np.ndarray, nn: int) -> np.ndarray:
    """The flat indices a * nn + b of the Gram entries (a, b), a <= b, of rows of node ids."""
    a, b, _ = _PAIRS[nodes.shape[1]]
    return nodes[:, a].astype(np.int32 if nn * nn < 2 ** 31 else np.intp) * nn + nodes[:, b]


@functools.lru_cache(maxsize=None)
def _tail_template(order: int):
    """(points t, 1 - t, weights, _frozen basis) of the tail on [0, 1], built once per order,
    read-only: Gauss panels graded toward both ends (cuts at _TAIL_RATIO^k and
    1 - _TAIL_RATIO^k), so one template serves the kernel's pole at either end of Omega.
    The right half mirrors the left exactly: 1 - t rounded from t would blur the pole at 1."""
    gx, gw = _gauss01(order)
    grade = _TAIL_RATIO ** np.arange(_TAIL_LEVELS, 0, -1.0)
    cuts = np.concatenate(([0.0], grade, 1.0 - grade[::-1], [1.0]))
    widths = np.diff(cuts)
    loc, wloc = (cuts[:-1, None] + widths[:, None] * gx).ravel(), (widths[:, None] * gw).ravel()
    m = len(loc) // 2  # the right half mirrors the left, so 1 - t is t read backward
    loc[-m:], wloc[-m:] = 1.0 - loc[m - 1::-1], wloc[m - 1::-1]
    return (*_readonly(loc, loc[::-1], wloc), _frozen(np.stack([loc[::-1], loc])))


@functools.lru_cache(maxsize=None)
def _pair_templates(q: int, unit: bool):
    """The _frozen bases of the same-element, adjacent, separated and cutoff triangle rules on
    a unit element pair, then the h-, s- and p-free factors of their weights, read-only and
    built once per tensor order q and per whether the adjacent pair is the cutoff pair
    (unit).  The adjacent template is a 1-D profile in tau, Gauss panels on each half."""
    ax, aw = _gauss01(_ADJ_ORDER)
    side, k = np.divmod(np.arange(2 * _ADJ_PANELS), _ADJ_PANELS)
    width = 0.5 / _ADJ_PANELS
    tau = (0.5 * side[:, None] + width * (k[:, None] + ax)).ravel()
    wtau = np.tile(width * aw, 2 * _ADJ_PANELS)
    that = np.ones_like(tau) if unit else 1.0 / np.maximum(tau, 1.0 - tau)
    gx, gw = _gauss01(q)
    xi, eta, ww = np.repeat(gx, q), np.tile(gx, q), np.repeat(gw, q) * np.tile(gw, q)
    # triangular subregion eta < xi of the cutoff pair; the rule is symmetrized with its
    # mirror image so reflecting the function reproduces the energy to rounding error
    eta_t = xi * eta
    # same element: the point value is the nodal difference across the element
    return (_frozen(np.array([[-1.0], [1.0]])),
            *[_frozen(np.vstack([_basis(xt), -_basis(yt)])) for xt, yt in (
                (1.0 - that * (1.0 - tau), that * tau), (xi, eta),
                (np.concatenate([xi, 1.0 - eta_t]), np.concatenate([eta_t, 1.0 - xi])))],
            _readonly(wtau, that, xi, eta, ww))


class _Tableau:
    """Per-gap quadrature weights for one (mesh, s, p), truncated at delta = r h < |Omega| or
    at delta = infinity: the pair rules up to gap min(r, n - 1), the principal part, then
    the tail rule with kernel k_delta, the interaction, each on its _layout.  At p = 2 their
    full layouts are built at once (the p = 2 path reads no other); ``folded`` serves p != 2."""

    def __init__(self, mesh: Mesh, s: float, p: float, delta: float):
        h, n = mesh.h, mesh.n_interior
        ps, alpha = p * s, p * (1.0 - s)
        even = abs(p - round(p)) < 1e-12 and round(p) % 2 == 0
        q = _PAIR_ORDER_SMOOTH if even else _PAIR_ORDER_KINK if p >= 2.0 else _PAIR_ORDER_HOLDER
        r = n if math.isinf(delta) else int(round(delta / h))  # r < n for a finite delta
        *shapes, (wtau, that, xi, eta, ww) = _pair_templates(q, r == 1)
        ww = ww * h ** (1.0 - ps)
        # the pairs (e, e + g) of Omega's elements up to gap min(r, n - 1): same element
        # (closed form), adjacent at g = 1, separated, and the cutoff triangle at g = r > 1
        gaps, last = np.arange(1, min(r, n - 1) + 1), max(r - 1, 1)  # last separated gap
        adjacent, separated, triangle = gaps[:1], gaps[1:last], gaps[last:]
        half = ww * xi * (triangle[:, None] + xi * eta - xi) ** (-(1.0 + ps))
        weights = (np.array([[2.0 * h ** (1.0 - ps) / (alpha * (alpha + 1.0))]]),
                   (2.0 * wtau * (h * that) ** (1.0 - ps) / (alpha + 1.0))[None],
                   2.0 * ww * (separated[:, None] + eta - xi) ** (-(1.0 + ps)),
                   np.concatenate([half, half], axis=1))
        self.rules = [_Rule(*shape, w, _layout(n, range(g[0], g[0] + len(g)), w.shape[1]), 0)
                      for shape, g, w in zip(shapes, ([0], adjacent, separated, triangle),
                                             weights) if len(g)]

        # the tail: 2 |u|^p k_delta over the elements within delta of an end
        cut, (loc, co, wloc, shape) = delta ** -ps, _tail_template(_tail_order(p))
        e = (tail := _layout(n, range(1), len(loc), r)).rows()[0]
        # the distances to a and to b, mirror-exact: at element n - 1 - e they swap
        kernel = np.power(h * (e[:, None] + loc), -ps)
        right = np.power(h * ((n - 1 - e)[:, None] + co), -ps)
        for side in (kernel, right):  # in place: fewer temporaries the size of the weights
            np.maximum(np.subtract(side, cut, out=side), 0.0, out=side)
        kernel += right
        kernel /= ps
        self.rules.append(_Rule(*shape, 2.0 * h * wloc * kernel, tail, 1))
        self.mesh, self.p, self.delta = mesh, p, delta
        if abs(p - 2.0) < 1e-12:  # the p = 2 path reads the full layouts: built now
            for rule in self.rules:
                rule.layout.chunks

    @functools.cached_property
    def folded(self) -> list:
        """Its rules, then lp_mass's at p, over the even functions (_Layout.folded)."""
        return [rule._replace(layout=even, weights=rule.weights[src] * twice[:, None])
                for rule in self.rules + _lp_rules(self.mesh, self.p)
                for even, src, twice in [rule.layout.folded]]


@functools.lru_cache(maxsize=24)
def _built(mesh: Mesh, s: float, p: float, delta: float) -> _Tableau:
    """The tableau of one key, built once; equal meshes (Mesh.__eq__) share it."""
    return _Tableau(mesh, s, p, delta)


def _table(mesh: Mesh, params: KernelParams) -> _Tableau:
    """The memoized tableau of params on mesh, at infinity for a delta that spans Omega; one
    below must be a whole number of cells, mesh.snap(delta) (HorizonUnderresolvedError)."""
    delta = params.delta
    if not math.isclose(delta, mesh.snap(delta), rel_tol=1e-9, abs_tol=1e-12):
        raise InconsistentHorizonError(
            f"kernel horizon {delta} is not a whole number of cells h={mesh.h}")
    return _built(mesh, params.s, params.p, math.inf if mesh.spans(delta) else delta)


def _sweep(rules, vals=None, p: float = 2.0, gradient: bool = False, hessian=(False, False)):
    """(sums, grads, grams) from one pass over the points of rules, d = u(x) - u(y) of vals
    at a point: sums[k], the weighted sum of |d|^p over the rules of part k (_Rule.part),
    one np.vdot per chunk; per group j, the energy (parts 0, 1) then the mass (part 2), None
    without rules, given gradient the nodal gradient of its total and given hessian[j] G,
    the sum of w basis basis^T over its points (each row's upper half w @ rule.products
    added by one np.add.at per chunk, plus its transpose).  Away from p = 2 each w is scaled
    by |d|^(p-2), |d| floored at _GRAM_FLOOR max|vals| below p = 2 (the pole at d = 0), and
    p(p-1) G is the Hessian; at p = 2, G needs no vals.  Per chunk d and |d| are computed
    once; a group's results are those of a pass over it alone, each rule in its order."""
    nn, groups, sums = rules[0].layout.nn, {rule.part // 2 for rule in rules}, [0.0] * 3
    grads = [np.zeros(nn) if gradient and j in groups else None for j in (0, 1)]
    grams = [np.zeros((nn, nn)) if hessian[j] and j in groups else None for j in (0, 1)]
    weighted = p != 2.0 and any(hessian)
    floor = _GRAM_FLOOR * np.max(np.abs(vals)) if weighted and p < 2.0 else 0.0
    for rule in rules:
        grad, G, layout = grads[rule.part // 2], grams[rule.part // 2], rule.layout
        if G is not None:
            flat, local = G.reshape(-1), None if weighted else rule.weights @ rule.products
        for i, (k, nodes) in enumerate(layout.chunks):
            if vals is not None:
                d = vals.take(nodes) @ rule.basis
                a, w = np.abs(d), rule.weights.take(k, 0)
                f = d * a if p == 3.0 else np.copysign(a ** (p - 1.0), d)
                f *= w
                sums[rule.part] += np.vdot(f, d)
                if gradient:
                    grad += np.bincount(nodes.ravel(), (f @ rule.basis.T).ravel(), nn)
            if G is not None:
                if weighted:  # in place: |d| becomes the point weights of the Hessian
                    if p != 3.0:
                        np.power(np.maximum(a, floor, out=a), p - 2.0, out=a)
                    a *= w
                    rows, idx = a @ rule.products, layout.gram_ids[i]
                else:
                    rows, idx = local[k], _gram_ids(nodes, nn)
                np.add.at(flat, idx.ravel(), rows.ravel())
            d = a = w = f = None  # this chunk's temporaries go before the next chunk's come
    return ([float(x) for x in sums], [None if x is None else p * x for x in grads],
            [None if G is None else G + G.T for G in grams])


def _gram(rules) -> np.ndarray:
    """The unweighted Gram of rules of one group (_sweep at p = 2 without values)."""
    return _sweep(rules, hessian=(True, True))[2][rules[0].part // 2]


def _energy_sweep(mesh: Mesh, params: KernelParams, vals=None, gradient: bool = False,
                  hessian: bool = False, folded: bool = False, mass_hessian: bool = False):
    """((principal, interaction, gradient, G), (mass, gradient, G_M)) from one _sweep of the
    tableau at params (given folded, its folded rules) and lp_mass's rule, G_M given
    mass_hessian.  At delta >= |Omega| the energy's interaction, gradient and G are less
    horizon_shift times the mass's (unfolded, the mass is swept only there).  Without vals,
    G is the p = 2 stiffness at params (_sweep)."""
    table = _table(mesh, params)
    kappa = horizon_shift(params) if math.isinf(table.delta) else 0.0
    rules = table.folded if folded else table.rules + (_lp_rules(mesh, params.p) if kappa else [])
    p = params.p if vals is not None else 2.0  # without vals, the unweighted Gram
    (principal, interaction, mass), (grad, grad_m), (G, G_m) = _sweep(
        rules, vals, p, gradient, (hessian, mass_hessian or hessian and kappa != 0.0))
    if kappa:
        interaction -= kappa * mass
        grad = None if grad is None else grad - kappa * grad_m
        G = None if G is None else G - kappa * G_m
    return (principal, interaction, grad, G), (mass, grad_m, G_m)


def _stiffness(mesh: Mesh, params: KernelParams, folded: bool = False) -> np.ndarray:
    """The p = 2 stiffness A at params (the energy's p = 2 Hessian over 2); folded, U^T A U."""
    return _energy_sweep(mesh, params, hessian=True, folded=folded)[0][3]


def nonlocal_energy(u: DiscreteFunction, params: KernelParams) -> EnergyBreakdown:
    """Truncated seminorm of u to the p-th power at any horizon, split principal/interaction."""
    principal, interaction, _, _ = _energy_sweep(u.mesh, params, u.values)[0]
    return EnergyBreakdown(principal, interaction, principal + interaction)


def energy_derivatives(u: DiscreteFunction, params: KernelParams, hessian: bool = False):
    """(nonlocal_energy total, its nodal gradient, its Hessian or None) at u from one pass.
    The Hessian (end entries included) is exact for p >= 2, twice the stiffness bit for
    bit at p = 2, and below p = 2 (p-1) times that of the majorizing quadratic (_sweep)."""
    p = params.p
    principal, interaction, grad, G = _energy_sweep(u.mesh, params, u.values, True, hessian)[0]
    return principal + interaction, grad, None if G is None else p * (p - 1.0) * G


@functools.lru_cache(maxsize=24)
def _mass_rules(mesh: Mesh, order: int):
    """The per-element Gauss rule of an order over Omega, built once per (mesh, order)."""
    gx, gw = _gauss01(order)
    return [_Rule(*_frozen(_basis(gx)), (gw * mesh.h)[None],
                  _layout(mesh.n_interior, range(1), order), 2)]


def _lp_rules(mesh: Mesh, p: float) -> list:
    """lp_mass's rule at p: _mass_rules at the tail's order for p."""
    return _mass_rules(mesh, _tail_order(p))


def lp_mass(u: DiscreteFunction, p: float) -> float:
    """Integral of |u|^p over Omega by per-element Gauss quadrature at the tail's order."""
    return _sweep(_lp_rules(u.mesh, p), u.values, p)[0][2]


def lp_mass_derivatives(u: DiscreteFunction, p: float, hessian: bool = False):
    """(lp_mass, its exact nodal gradient, its Hessian if asked, else None) at u from one
    pass; the Hessian is twice the mass matrix at p = 2, floored below, as energy's."""
    sums, (_, grad), (_, G) = _sweep(_lp_rules(u.mesh, p), u.values, p, True, (False, hessian))
    return sums[2], grad, None if G is None else p * (p - 1.0) * G


def folded_derivatives(half: np.ndarray, mesh: Mesh, params: KernelParams,
                       mass_hessian: bool = False):
    """(energy_derivatives with its Hessian, lp_mass_derivatives at params.p, its Hessian
    if mass_hessian) of the even u = U half, half its first (N + 1) // 2 nodal values
    (half[0] = 0, u_i = u_(N-1-i)): E(u), M(u), U^T their gradients and U^T H U their
    Hessians to rounding, from one tableau lookup and one pass (_Tableau.folded)."""
    p, nn = params.p, len(mesh.nodes)
    if np.shape(half) != ((nn + 1) // 2,) or half[0] != 0.0:
        raise ValueError(f"need the first {(nn + 1) // 2} nodal values, the first one 0")
    (principal, interaction, grad, G), (mass, grad_m, G_m) = _energy_sweep(
        mesh, params, half, True, True, True, mass_hessian)
    return ((principal + interaction, grad, p * (p - 1.0) * G),
            (mass, grad_m, p * (p - 1.0) * G_m if mass_hessian else None))
