import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from perispec.kernelmath import INFINITE, KernelParams
from perispec.mesh import (
    ConstraintViolationError,
    DiscreteFunction,
    HorizonUnderresolvedError,
    Mesh,
    interpolate,
)
from perispec import energy as en
from perispec.energy import (
    InconsistentHorizonError,
    energy_derivatives,
    lp_mass,
    lp_mass_derivatives,
    nonlocal_energy,
)

from _oracles import brute_force_energy, exact_lp_norm_p, fd_gradient, tail_energy


def random_function(mesh, rng):
    vals = np.zeros(len(mesh.nodes))
    vals[mesh.interior] = rng.standard_normal(mesh.n_interior - 1)
    return DiscreteFunction(vals, mesh)


def random_instance(rng, trial):
    n = int(rng.integers(4, 17))
    s = float(rng.uniform(0.2, 0.8))
    p = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
    kind = trial % 3
    if kind == 0:
        delta = float(rng.choice([1, 2, 3])) / n
        mesh = Mesh(0.0, 1.0, n)
        params = KernelParams(s, p, mesh.snap(delta))
    elif kind == 1:
        mesh = Mesh(0.0, 1.0, n)
        params = KernelParams(s, p, INFINITE)
    else:
        mesh = Mesh(0.0, 1.0, n)
        params = KernelParams(s, p, float(rng.uniform(1.0, 5.0)))
    return random_function(mesh, rng), params


# the kernel at kernel_delta, else at mesh.snap(mesh_delta): below |Omega|, INF, and a
# finite horizon above |Omega|
HORIZONS = [(0.25, None), (INFINITE, INFINITE), (INFINITE, 2.0)]


def horizon_instance(mesh_delta, kernel_delta, p, seed):
    mesh = Mesh(0.0, 1.0, 12)
    params = KernelParams(0.5, p, kernel_delta or mesh.snap(mesh_delta))
    return random_function(mesh, np.random.default_rng(seed)), params


def einsum_gram(rules, nn, vals=None, p=2.0):
    """Reference Gram matrix: each row's local matrix by the einsum basis diag(w) basis^T,
    added entry by entry at the row's nodes (e, e+1 and, for pairs, e+g, e+g+1).
    Below p = 2 the point values are floored at 1e-12 max|vals|, as in ``_sweep``."""
    G = np.zeros((nn, nn))
    for rule in rules:
        w = rule.weights[rule.widx]  # one weight vector per row
        if vals is not None:
            # the point values u(x) - u(y), or u(x) for one-element rules
            d = np.einsum("ra,at->rt", vals[rule.nodes], rule.basis)
            floor = 1e-12 * np.max(np.abs(vals)) if p < 2.0 else 0.0
            w = w * np.maximum(np.abs(d), floor) ** (p - 2.0)
        local = np.einsum("at,rt,bt->rab", rule.basis, w, rule.basis)
        for i in range(len(rule.basis)):
            for j in range(len(rule.basis)):
                np.add.at(G, (rule.nodes[:, i], rule.nodes[:, j]), local[:, i, j])
    return G


class TestBruteForceOracle:
    def test_assembly_matches_double_quadrature(self):
        rng = np.random.default_rng(0)
        instances = [random_instance(rng, trial) for trial in range(10)]
        # the cutoff triangle (g = r > 1), which the seeded trials above never draw
        for p in (1.5, 2.0, 2.5, 3.0):
            for n, r in ((10, 2), (10, 3), (8, 7)):
                mesh = Mesh(0.0, 1.0, n)
                s = float(rng.uniform(0.2, 0.8))
                instances.append((random_function(mesh, rng),
                                  KernelParams(s, p, mesh.snap(r / n))))
        for u, params in instances:
            lib = nonlocal_energy(u, params).total
            oracle = brute_force_energy(u, params.s, params.p, params.delta)
            assert abs(lib - oracle) / abs(oracle) <= 1e-5


class TestTailOracle:
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n, r", [(16, 4), (16, 8), (160, 8)])
    def test_interaction_matches_quadrature_of_the_killing_term(self, n, r, p):
        # the interaction of u with the complement within delta = r h is 2 int |u|^p k_delta
        mesh = Mesh(0.0, 1.0, n)
        u = interpolate(lambda x: math.sin(math.pi * x), mesh)
        for s in (0.1, 0.5, 0.9):
            params = KernelParams(s, p, mesh.snap(r / n))
            oracle = tail_energy(u, s, p, params.delta)
            assert abs(nonlocal_energy(u, params).interaction - oracle) <= 1e-10 * oracle


class TestGradients:
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_energy_gradient_matches_finite_differences(self, p):
        rng = np.random.default_rng(17)
        for trial in range(10):
            n = int(rng.integers(6, 17))
            s = float(rng.uniform(0.2, 0.8))
            if trial % 2 == 0:
                delta = float(rng.choice([1, 2])) / n
                mesh = Mesh(0.0, 1.0, n)
                params = KernelParams(s, p, mesh.snap(delta))
            else:
                mesh = Mesh(0.0, 1.0, n)
                params = KernelParams(s, p, INFINITE)
            u = random_function(mesh, rng)
            ii = np.arange(1, mesh.n_interior)

            def f(vals):
                return nonlocal_energy(DiscreteFunction(vals, mesh), params).total

            analytic = energy_derivatives(u, params)[1][ii]
            numeric = fd_gradient(f, u.values, ii)
            assert np.linalg.norm(analytic - numeric) <= 1e-5 * max(
                1.0, np.linalg.norm(analytic))

    @pytest.mark.parametrize("mesh_delta, kernel_delta", HORIZONS, ids=["0.25", "inf", "inf-2.0"])
    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
    def test_fused_evaluator_matches_separate_calls(self, p, mesh_delta, kernel_delta):
        u, params = horizon_instance(mesh_delta, kernel_delta, p, 29)
        value, grad, none = energy_derivatives(u, params)
        assert value == nonlocal_energy(u, params).total and none is None
        # asking for the Hessian too leaves the value and the gradient as they are
        with_hessian = energy_derivatives(u, params, hessian=True)
        assert with_hessian[0] == value and np.array_equal(grad, with_hessian[1])

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_lp_mass_gradient_matches_finite_differences(self, p):
        rng = np.random.default_rng(23)
        mesh = Mesh(0.0, 1.0, 12)
        ii = np.arange(1, mesh.n_interior)
        for _ in range(5):
            u = random_function(mesh, rng)

            def f(vals):
                return lp_mass(DiscreteFunction(vals, mesh), p)

            analytic = lp_mass_derivatives(u, p)[1][ii]
            numeric = fd_gradient(f, u.values, ii)
            assert np.linalg.norm(analytic - numeric) <= 1e-5 * max(
                1.0, np.linalg.norm(analytic))


class TestHessian:
    @pytest.mark.parametrize("mesh_delta, kernel_delta", HORIZONS, ids=["0.25", "inf", "inf-2.0"])
    @pytest.mark.parametrize("p", [2.5, 3.0])
    def test_matches_finite_differences_of_gradient(self, p, mesh_delta, kernel_delta):
        u, params = horizon_instance(mesh_delta, kernel_delta, p, 31)
        mesh, ii = u.mesh, np.arange(1, u.mesh.n_interior)
        analytic = energy_derivatives(u, params, hessian=True)[2][np.ix_(ii, ii)]
        numeric = np.array([fd_gradient(
            lambda vals: energy_derivatives(DiscreteFunction(vals, mesh), params)[1][i],
            u.values, ii) for i in ii])
        assert np.linalg.norm(analytic - numeric) <= 1e-7 * np.linalg.norm(analytic)

    @pytest.mark.parametrize("p", [2.5, 3.0])
    def test_lp_mass_hessian_matches_finite_differences_of_gradient(self, p):
        u, _ = horizon_instance(0.25, None, p, 43)
        mesh, ii = u.mesh, np.arange(1, u.mesh.n_interior)
        analytic = lp_mass_derivatives(u, p, hessian=True)[2][np.ix_(ii, ii)]
        numeric = np.array([fd_gradient(
            lambda vals: lp_mass_derivatives(DiscreteFunction(vals, mesh), p)[1][i], u.values, ii)
            for i in ii])
        assert np.linalg.norm(analytic - numeric) <= 1e-7 * np.linalg.norm(analytic)

    @pytest.mark.parametrize("mesh_delta, kernel_delta", HORIZONS, ids=["0.25", "inf", "inf-2.0"])
    @pytest.mark.parametrize("weighted, p", [(False, 3.0), (True, 3.0), (True, 1.5)],
                             ids=["stiffness", "p3-weighted", "p1.5-weighted"])
    def test_gram_matches_einsum_reference(self, weighted, p, mesh_delta, kernel_delta):
        u, params = horizon_instance(mesh_delta, kernel_delta, p, 41)
        rules, nn = en._table(u.mesh, params).rules, len(u.values)
        vals = u.values if weighted else None
        reference = einsum_gram(rules, nn, vals, p)
        gram = en._sweep(rules, nn, vals, p, hessian=True)[3] if weighted else en._gram(rules, nn)
        assert np.array_equal(gram, gram.T)
        assert np.linalg.norm(gram - reference) <= 1e-14 * np.linalg.norm(reference)

    def test_gram_below_p2_floors_a_plateau(self):
        # on a plateau the same-element point reads d = 0, where |d|^(p-2) is infinite
        u, params = horizon_instance(0.25, None, 1.5, 43)
        rules, nn = en._table(u.mesh, params).rules, len(u.values)
        vals = u.values.copy()
        k = u.mesh.interior.start + 4
        vals[k + 1] = vals[k]
        gram = en._sweep(rules, nn, vals, 1.5, hessian=True)[3]
        assert np.all(np.isfinite(gram))
        reference = einsum_gram(rules, nn, vals, 1.5)
        assert np.linalg.norm(gram - reference) <= 1e-14 * np.linalg.norm(reference)

    def test_p2_hessian_is_twice_the_stiffness(self):
        for mesh_delta, kernel_delta in HORIZONS:
            mesh = Mesh(0.0, 1.0, 12)
            params = KernelParams(0.5, 2.0, kernel_delta or mesh.snap(mesh_delta))
            u = random_function(mesh, np.random.default_rng(37))
            stiffness = en._stiffness(mesh, params)
            mass = en._gram(en._mass_rules(mesh, en._TAIL_ORDER), len(mesh.nodes))
            assert np.array_equal(energy_derivatives(u, params, hessian=True)[2], 2 * stiffness)
            assert np.array_equal(lp_mass_derivatives(u, 2.0, hessian=True)[2], 2 * mass)


class TestStructuralInvariants:
    def setup_method(self):
        self.mesh = Mesh(0.0, 1.0, 16)
        self.params = KernelParams(0.5, 2.5, self.mesh.snap(0.25))
        rng = np.random.default_rng(5)
        self.u = random_function(self.mesh, rng)

    def test_decomposition_identity(self):
        br = nonlocal_energy(self.u, self.params)
        assert abs(br.total - (br.principal + br.interaction)) <= 1e-12 * abs(br.total)
        fast = energy_derivatives(self.u, self.params)[0]
        assert abs(br.total - fast) <= 1e-12 * abs(br.total)

    def test_interaction_vanishes_away_from_collar(self):
        # support two cells clear of the elements within delta of an end: no tail terms
        vals = np.zeros(len(self.mesh.nodes))
        mid = len(vals) // 2
        vals[mid] = 1.0
        br = nonlocal_energy(DiscreteFunction(vals, self.mesh), self.params)
        assert br.interaction == 0.0
        assert br.principal > 0.0

    @pytest.mark.parametrize("c", [2.0, -3.5, 0.1])
    def test_homogeneity(self, c):
        base = nonlocal_energy(self.u, self.params).total
        scaled = nonlocal_energy(DiscreteFunction(c * self.u.values, self.mesh), self.params).total
        assert abs(scaled - abs(c) ** self.params.p * base) <= 1e-12 * abs(scaled)

    def test_reflection_symmetry(self):
        base = nonlocal_energy(self.u, self.params).total
        reflected = nonlocal_energy(DiscreteFunction(self.u.values[::-1], self.mesh),
                                    self.params).total
        assert abs(base - reflected) <= 1e-12 * abs(base)

    def test_sign_symmetry(self):
        flipped = DiscreteFunction(-self.u.values, self.mesh)
        assert nonlocal_energy(flipped, self.params) == nonlocal_energy(self.u, self.params)

    def test_monotone_in_horizon_bounded_by_fractional(self):
        mesh = Mesh(0.0, 1.0, 12)
        u = random_function(mesh, np.random.default_rng(9))
        s, p = 0.5, 2.5
        values = [nonlocal_energy(u, KernelParams(s, p, d)).total for d in (1.0, 2.0, 4.0, 8.0)]
        full = nonlocal_energy(u, KernelParams(s, p, INFINITE)).total
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < full for v in values)

    def test_horizon_mismatch_rejected(self):
        # below |Omega| the cutoff must fall on element boundaries: 0.23 is 3.68 cells
        with pytest.raises(InconsistentHorizonError):
            nonlocal_energy(self.u, KernelParams(0.5, 2.5, 0.23))

    def test_collarless_requires_horizon_at_least_domain(self):
        # a horizon of no whole number of cells is taken as given only from |Omega| on
        mesh = Mesh(0.0, 1.0, 8)
        u = random_function(mesh, np.random.default_rng(1))
        assert nonlocal_energy(u, KernelParams(0.5, 2.0, 1.03)).total > 0.0
        with pytest.raises(InconsistentHorizonError):
            nonlocal_energy(u, KernelParams(0.5, 2.0, 0.23))

    def test_horizon_below_one_cell_rejected(self):
        with pytest.raises(HorizonUnderresolvedError):
            nonlocal_energy(self.u, KernelParams(0.5, 2.5, 0.05))  # h = 0.0625

    def test_nonzero_collar_rejected(self):
        # the constrained space is DiscreteFunction's: no energy sees a nonzero end
        with pytest.raises(ConstraintViolationError):
            DiscreteFunction(np.ones(len(self.mesh.nodes)), self.mesh)

    @pytest.mark.parametrize("end", [0, -1])
    def test_one_nonzero_end_rejected(self, end):
        # at ps >= 1 the tail integral of |u|^p k_delta diverges at a nonzero end value,
        # and the quadrature would return a finite wrong number
        vals = random_function(self.mesh, np.random.default_rng(3)).values.copy()
        vals[end] = 1e-3
        with pytest.raises(ConstraintViolationError):
            DiscreteFunction(vals, self.mesh)

    def test_collarless_breakdown_at_finite_and_infinite_horizon(self):
        # Without a collar the interaction is the analytic tail, at every horizon:
        # a finite delta >= |Omega| lowers it by (4/(ps)) delta^(-ps) ||u||_p^p and
        # leaves the pair rules, the principal part, as they are.
        mesh = Mesh(0.0, 1.0, 8)
        u = random_function(mesh, np.random.default_rng(2))
        s, delta = 0.5, 2.0
        at_inf = nonlocal_energy(u, KernelParams(s, 2.0, INFINITE))
        at_delta = nonlocal_energy(u, KernelParams(s, 2.0, delta))
        assert at_delta.principal == at_inf.principal
        assert at_inf.interaction > 0.0
        shift = 4.0 / (2.0 * s) * delta ** (-2.0 * s) * lp_mass(u, 2.0)
        assert abs(at_inf.interaction - at_delta.interaction - shift) <= 1e-12 * shift

    def test_gradient_dispatchers(self):
        # On a collarless mesh a finite horizon delta >= |Omega| shifts the
        # INF energy by -(4/(ps)) delta^(-ps) ||u||_p^p; at p=2 both tail
        # quadratures are exact, so the gradients differ by exactly that.
        mesh = Mesh(0.0, 1.0, 8)
        u = random_function(mesh, np.random.default_rng(2))
        s, delta = 0.5, 2.0
        g_inf = energy_derivatives(u, KernelParams(s, 2.0, INFINITE))[1]
        g_delta = energy_derivatives(u, KernelParams(s, 2.0, delta))[1]
        shift = 4.0 / (2.0 * s) * delta ** (-2.0 * s)
        expected = g_inf - shift * lp_mass_derivatives(u, 2.0)[1]
        assert np.linalg.norm(g_delta - expected) <= 1e-12 * np.linalg.norm(g_inf)


class TestHorizonShift:
    @pytest.mark.parametrize("delta", [1.0, 8.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_energy_is_the_inf_energy_less_the_shifted_mass(self, p, delta):
        # without a collar, a horizon delta >= |Omega| lowers the value, the gradient and
        # the Hessian by kappa = (4/(ps)) delta^-ps times those of lp_mass, at every p and
        # on sign-changing u too: the shift sweeps lp_mass's own rule
        mesh = Mesh(0.0, 1.0, 64)
        u = random_function(mesh, np.random.default_rng(61))
        kappa = 4.0 / (0.5 * p) * delta ** (-0.5 * p)
        at_delta = energy_derivatives(u, KernelParams(0.5, p, delta), hessian=True)
        at_inf = energy_derivatives(u, KernelParams(0.5, p, INFINITE), hessian=True)
        for a, b, m in zip(at_delta, at_inf, lp_mass_derivatives(u, p, hessian=True)):
            assert np.linalg.norm(a - (b - kappa * m)) <= 1e-12 * np.linalg.norm(a)


class TestMassAndLocalEnergy:
    def test_lp_mass_matches_exact_norm(self):
        mesh = Mesh(0.0, 1.0, 16)
        u = interpolate(lambda x: math.sin(math.pi * x), mesh)
        # the per-element Gauss rule (16 points at p >= 2, 32 below) is exact for
        # polynomial powers of a sign-constant linear function, and accurate (not
        # exact) for fractional powers
        for p, tol in ((1.5, 1e-8), (2.0, 1e-14), (3.0, 1e-14)):
            assert lp_mass(u, p) == pytest.approx(exact_lp_norm_p(u, p), rel=tol)

    def test_lp_mass_converges_to_sine_moment(self):
        # int_0^1 sin(pi x)^3 dx = 4 / (3 pi)
        mesh = Mesh(0.0, 1.0, 512)
        u = interpolate(lambda x: math.sin(math.pi * x), mesh)
        assert lp_mass(u, 3.0) == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-4)

    def test_gauss_rule_is_built_once(self, monkeypatch):
        calls = []

        def counting(order):
            calls.append(order)
            return leggauss(order)

        monkeypatch.setattr(en, "leggauss", counting)
        en._gauss01.cache_clear()
        try:
            u = random_function(Mesh(0.0, 1.0, 16), np.random.default_rng(8))
            for _ in range(10):
                lp_mass(u, 3.0)
            x, w = en._gauss01(en._TAIL_ORDER)
        finally:
            en._gauss01.cache_clear()
        assert calls == [en._TAIL_ORDER]
        assert not x.flags.writeable and not w.flags.writeable

    def test_mass_rule_is_built_once(self, monkeypatch):
        rules = []

        class Counting(en._Rule):
            def __init__(self, basis, *rows):
                rules.append(basis.shape[1])
                super().__init__(basis, *rows)

        monkeypatch.setattr(en, "_Rule", Counting)
        en._mass_rules.cache_clear()
        try:
            u = random_function(Mesh(0.0, 1.0, 16), np.random.default_rng(8))
            for _ in range(10):
                for p in (3.0, 2.0, 1.5):  # one rule per order: p >= 2 share theirs
                    lp_mass(u, p)
        finally:
            en._mass_rules.cache_clear()
        assert rules == [en._TAIL_ORDER, en._TAIL_ORDER_HOLDER]

    def test_one_partition_shares_one_mass_rule_across_horizons(self):
        # a mesh is Omega's partition only: the meshes built per horizon compare equal,
        # and every horizon, below |Omega| or not, reads one L^p mass rule
        en._mass_rules.cache_clear()
        try:
            for delta in (0.125, 0.25, 0.5, 2.0):
                mesh = Mesh(0.0, 1.0, 16)
                assert mesh == Mesh(0.0, 1.0, 16) and hash(mesh) == hash(Mesh(0.0, 1.0, 16))
                u = random_function(mesh, np.random.default_rng(8))
                energy_derivatives(u, KernelParams(0.5, 3.0, mesh.snap(delta)), hessian=True)
                lp_mass_derivatives(u, 3.0, hessian=True)
            info = en._mass_rules.cache_info()
        finally:
            en._mass_rules.cache_clear()
        assert (info.misses, info.hits) == (1, 4)


@pytest.fixture
def built(monkeypatch):
    """(s, p, delta) of every tableau built during the test, from an empty memo."""
    keys = []

    class Counting(en._Tableau):
        def __init__(self, mesh, s, p, delta):
            keys.append((s, p, delta))
            super().__init__(mesh, s, p, delta)

    monkeypatch.setattr(en, "_Tableau", Counting)
    en._built.cache_clear()
    yield keys
    en._built.cache_clear()


def truncated_tail(mesh, params):
    """The tableau's rules, at delta >= |Omega| each tail weight mass * k(x) lowered to
    mass * (k(x) - c), c = (2/(ps)) delta^-ps: the tail of the kernel truncated at delta,
    assembled directly.  Below |Omega| the tableau's own tail is truncated at delta."""
    ps, (a, b) = params.p * params.s, (mesh.a, mesh.b)
    c = 2.0 / ps * params.delta ** -ps if params.delta >= b - a else 0.0
    *rules, tail = en._table(mesh, params).rules
    e, w = tail.nodes[:, 0], tail.weights[tail.widx]
    x = mesh.nodes[e, None] + mesh.h * tail.basis[1]  # interaction rows at points basis[1]
    kernel = ((x - a) ** -ps + (b - x) ** -ps) / ps
    return rules + [en._Rule(tail.basis, w / kernel * (kernel - c) if c else w, e, 0 * e,
                             np.arange(len(e)))]


class TestSplitStiffness:
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [12, 13])  # 11 and 12 interior nodes
    @pytest.mark.parametrize("mesh_delta, kernel_delta", [
        (INFINITE, 1.0), (INFINITE, 2.0), (INFINITE, 8.0), (INFINITE, INFINITE), (0.25, None),
    ], ids=["inf-1", "inf-2", "inf-8", "inf", "0.25"])
    def test_matches_the_full_gram(self, mesh_delta, kernel_delta, n, s):
        # the stiffness at a finite horizon, the INF one less the horizon shift times the
        # mass Gram, is the Gram of the tail truncated at delta: both tail rules are exact
        # on products of hat functions
        mesh = Mesh(0.0, 1.0, n)
        params = KernelParams(s, 2.0, kernel_delta or mesh.snap(mesh_delta))
        full = en._gram(truncated_tail(mesh, params), len(mesh.nodes))
        assert np.linalg.norm(en._stiffness(mesh, params) - full) <= 1e-14 * np.linalg.norm(full)


class TestChunkedPass:
    @pytest.mark.parametrize("mesh_delta, kernel_delta", HORIZONS[:2], ids=["0.25", "inf"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_one_row_chunks_match_the_default(self, monkeypatch, p, mesh_delta, kernel_delta):
        u, params = horizon_instance(mesh_delta, kernel_delta, p, 47)

        def results():
            en._built.cache_clear()
            parts = nonlocal_energy(u, params)
            _, grad, hessian = energy_derivatives(u, params, hessian=True)
            rules = en._table(u.mesh, params).rules
            # int32 node ids; flat Gram ids only where a weighted Hessian asked for them
            assert all(rule.nodes.dtype == np.int32 for rule in rules)
            assert all([ids.dtype for ids in rule._ids] == [np.int32] * len(rule.chunks)
                       if p != 2.0 else rule._ids is None for rule in rules)
            return ([parts.principal, parts.interaction], grad, hessian,
                    en._stiffness(u.mesh, params))

        default = results()
        monkeypatch.setattr(en, "_CHUNK", 1)  # every chunk is one row
        try:
            one_row = results()
        finally:
            en._built.cache_clear()
        for a, b in zip(default, one_row):
            assert np.linalg.norm(np.subtract(a, b)) <= 1e-13 * np.linalg.norm(a)
        assert all(np.abs(a - b) <= 1e-13 * np.abs(a) for a, b in zip(default[0], one_row[0]))


class TestHomogeneity:
    @pytest.mark.parametrize("mesh_delta, kernel_delta", HORIZONS[:2], ids=["0.25", "inf"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_sweep_at_a_multiple(self, p, mesh_delta, kernel_delta):
        # E and M are p-homogeneous: at c w the value, the gradient and the Hessian are
        # c^p, c^(p-1) and c^(p-2) times those at w; the floor of a p < 2 Hessian scales
        # with max|w|, and the plateau makes one point sit on it
        u, params = horizon_instance(mesh_delta, kernel_delta, p, 53)
        vals = u.values.copy()
        k = u.mesh.interior.start + 4
        vals[k + 1] = vals[k]
        c = 2.75
        at, scaled = (DiscreteFunction(x, u.mesh) for x in (vals, c * vals))
        for derivatives in (lambda v: energy_derivatives(v, params, hessian=True),
                            lambda v: lp_mass_derivatives(v, p, hessian=True)):
            for power, a, b in zip((p, p - 1.0, p - 2.0), derivatives(at), derivatives(scaled)):
                assert np.linalg.norm(b - c ** power * a) <= 1e-13 * np.linalg.norm(b)


class TestTableauMemory:
    def test_cold_tableau_is_small(self):
        # per-gap templates: O(r q^2 + n) floats, not one copy per element pair
        mesh = Mesh(0.0, 1.0, 256)
        u = random_function(mesh, np.random.default_rng(4))
        params = KernelParams(0.4375, 3.0, INFINITE)  # a key no other test builds
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nonlocal_energy(u, params)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 2 ** 16 < retained < 4 * 2 ** 20  # the lower bound shows the build was cold

    def test_cold_p2_stiffness_keeps_only_the_shared_gram(self):
        mesh = Mesh(0.0, 1.0, 256)
        params = KernelParams(0.4375, 2.0, 2.0)  # a key no other test builds
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            en._stiffness(mesh, params)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 2 ** 16 < retained < 4 * 2 ** 20 + 8 * len(mesh.nodes) ** 2

    def test_collar_p2_stiffness_keeps_no_gram(self):
        mesh = Mesh(0.0, 1.0, 256)
        params = KernelParams(0.4375, 2.0, mesh.snap(0.0625))
        en._table(mesh, params)  # built before the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            en._stiffness(mesh, params)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 8 * len(mesh.nodes)  # less than one row of the matrix

    def test_chunked_passes_bound_their_temporaries(self):
        # a cold collarless p = 3 Hessian and a cold p = 2 stiffness, tableau build included
        mesh = Mesh(0.0, 1.0, 256)
        u = random_function(mesh, np.random.default_rng(10))
        for params, call in ((KernelParams(0.3125, 3.0, INFINITE),
                               lambda p: energy_derivatives(u, p, hessian=True)),
                             (KernelParams(0.3125, 2.0, 4.0),
                              lambda p: en._stiffness(mesh, p))):
            tracemalloc.start()
            try:
                call(params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2 ** 20 + 8 * len(mesh.nodes) ** 2

    def test_one_tail_rule_per_tableau(self):
        # the pair rules (same element, adjacent, separated and, below |Omega|, the cutoff
        # triangle), then one tail rule over the elements within delta of an end; at r = 1
        # the adjacent rule is the cutoff pair, and there is no triangle
        for n, r, rows in ((12, None, [12, 11, 55, 12]), (12, 3, [12, 11, 10, 9, 6]),
                           (8, 1, [8, 7, 2]), (8, 7, [8, 7, 20, 1, 8])):
            mesh = Mesh(0.0, 1.0, n)
            params = KernelParams(0.5, 3.0, mesh.snap(r / n if r else INFINITE))
            rules = en._table(mesh, params).rules
            assert [len(rule.nodes) for rule in rules] == rows
            assert all(rule.nodes.dtype == np.int32 for rule in rules)
            # the pair rows list each (e, e + g), 1 <= g <= min(r, n - 1), once, gap by gap
            pairs = np.concatenate([rule.nodes[:, [0, 2]] for rule in rules[1:-1]])
            assert pairs.tolist() == [[e, e + g] for g in range(1, min(r or n, n - 1) + 1)
                                      for e in range(n - g)]

    def test_pair_weights_match_the_per_gap_loop(self):
        # one expression gives the separated weights of every gap, bit for bit the per-gap
        # one, and each row reads the vector of its gap
        n, r, s, p = 8, 7, 0.5, 3.0
        mesh = Mesh(0.0, 1.0, n)
        separated, triangle = en._table(mesh, KernelParams(s, p, mesh.snap(r / n))).rules[2:4]
        q, ps = en._PAIR_ORDER_KINK, p * s
        gx, gw = en._gauss01(q)
        xi, eta = np.repeat(gx, q), np.tile(gx, q)
        ww = np.repeat(gw, q) * np.tile(gw, q) * mesh.h ** (1.0 - ps)
        for g in range(2, r):
            assert np.array_equal(separated.weights[g - 2],
                                  2.0 * ww * (g + eta - xi) ** (-(1.0 + ps)))
        assert np.array_equal(separated.widx, separated.nodes[:, 2] - separated.nodes[:, 0] - 2)
        half = ww * xi * (r + xi * eta - xi) ** (-(1.0 + ps))
        assert np.array_equal(triangle.weights, [np.concatenate([half, half])])

    def test_collarless_horizons_share_one_tableau(self, built):
        # a finite delta >= |Omega| only lowers the tail weights of the INF tableau
        mesh = Mesh(0.0, 1.0, 12)
        u = random_function(mesh, np.random.default_rng(6))
        for delta in (1.0, 2.0, 4.0, 8.0, INFINITE):
            nonlocal_energy(u, KernelParams(0.5, 3.0, delta))
            energy_derivatives(u, KernelParams(0.5, 3.0, delta))
        assert built == [(0.5, 3.0, INFINITE)]

    def test_finite_horizon_rules_are_built_once(self):
        # a finite delta reads the rules of the INF tableau: none are built per horizon
        mesh = Mesh(0.0, 1.0, 12)
        first, again, other, inf = (en._table(mesh, KernelParams(0.5, 3.0, delta)).rules
                                    for delta in (2.0, 2.0, 4.0, INFINITE))
        assert first is again is other is inf

    def test_equal_meshes_share_one_tableau(self, built):
        # the zero-p2 and bbm studies build equal meshes separately
        params = KernelParams(0.5, 2.0, 0.125)
        first, second = Mesh(0.0, 1.0, 32), Mesh(0.0, 1.0, 32)
        assert first is not second and first == second
        rng = np.random.default_rng(9)
        for mesh in (first, second):
            nonlocal_energy(random_function(mesh, rng), params)
        assert len(built) == 1
        nonlocal_energy(random_function(Mesh(0.0, 1.0, 16), rng), params)
        assert len(built) == 2
