import ctypes
import glob
import math
import os

import numpy as np
import pytest
import scipy.linalg
from numpy.linalg import LinAlgError

from perispec.kernelmath import (
    INFINITE,
    KernelParams,
    local_p_laplacian_lambda1,
    p_pi,
)
from perispec.mesh import DiscreteFunction, Mesh
from perispec.energy import energy_derivatives, lp_mass, lp_mass_derivatives, nonlocal_energy
from perispec import eigensolver
from perispec import energy as en
from perispec.harness import SweepConfig, run_study
from perispec.eigensolver import (
    local_reference_lambda,
    solve_eigenpairs,
    solve_first_eigenpair,
    solve_p2_spectrum,
)

from _oracles import cauchy_lambda1_unit_interval, shooting_oracle_lambda1


def blas_thread_getters():
    """The thread-count getter of each OpenBLAS bundled with numpy."""
    getters = []
    for path in sorted(glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = (), ctypes.c_int
                getters.append(get)
                break
    return getters


def p2_matrices(mesh, params):
    """(stiffness, mass) over interior nodes: the pencil solve_p2_spectrum reads."""
    ii = mesh.interior
    mass = en._gram(en._mass_rules(mesh, en._TAIL_ORDER), len(mesh.nodes))
    return en._stiffness(mesh, params)[ii, ii], mass[ii, ii]


def embed(mesh, x):
    vals = np.zeros(len(mesh.nodes))
    vals[mesh.interior] = x
    return DiscreteFunction(vals, mesh)


class TestP2Assembly:
    # the kernel at kernel_delta, else at mesh.snap(mesh_delta): below |Omega|, INF, and a
    # finite horizon above |Omega|, the INF stiffness less the horizon shift times the mass
    @pytest.mark.parametrize("mesh_delta, kernel_delta", [
        (0.25, None), (INFINITE, INFINITE), (INFINITE, 2.0),
    ], ids=["0.25", "inf", "inf-2.0"])
    def test_quadratic_form_matches_energy(self, mesh_delta, kernel_delta):
        mesh = Mesh(0.0, 1.0, 12)
        params = KernelParams(0.5, 2.0, kernel_delta or mesh.snap(mesh_delta))
        A, _ = p2_matrices(mesh, params)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(A.shape[0])
            quad_form = float(x @ A @ x)
            via_energy = nonlocal_energy(embed(mesh, x), params).total
            assert abs(quad_form - via_energy) <= 1e-10 * abs(via_energy)

    def test_stiffness_symmetric(self):
        mesh = Mesh(0.0, 1.0, 12)
        A, _ = p2_matrices(mesh, KernelParams(0.5, 2.0, mesh.snap(0.25)))
        assert np.max(np.abs(A - A.T)) == 0.0

    def test_mass_row_sums(self):
        mesh = Mesh(0.0, 1.0, 12)
        _, M = p2_matrices(mesh, KernelParams(0.5, 2.0, mesh.snap(0.25)))
        sums = M.sum(axis=1)
        # interior rows see the full hat: h*(1/6 + 4/6 + 1/6) = h
        assert np.allclose(sums[1:-1], mesh.h, rtol=1e-14)
        assert M.T is not M and np.max(np.abs(M - M.T)) == 0.0


class TestP2Spectrum:
    def test_ordering_and_first_gap(self):
        mesh = Mesh(0.0, 1.0, 16)
        pairs = solve_p2_spectrum(mesh, KernelParams(0.5, 2.0, 0.25), 4)
        lams = [ep.lam for ep in pairs]
        assert lams[0] < lams[1] - 1e-8  # simplicity of the first eigenvalue
        assert all(a <= b + 1e-12 for a, b in zip(lams, lams[1:]))
        assert all(ep.residual <= 1e-8 for ep in pairs)

    def test_eigenfunctions_normalized(self):
        mesh = Mesh(0.0, 1.0, 16)
        pairs = solve_p2_spectrum(mesh, KernelParams(0.5, 2.0, 0.25), 3)
        for ep in pairs:
            assert lp_mass(ep.eigenfunction, 2.0) == pytest.approx(1.0, rel=1e-10)

    def test_first_eigenfunction_sign_constant_second_changes_once(self):
        mesh = Mesh(0.0, 1.0, 32)
        pairs = solve_p2_spectrum(mesh, KernelParams(0.5, 2.0, 0.25), 2)
        first = pairs[0].eigenfunction.values[mesh.interior]
        if first.sum() < 0:
            first = -first
        assert np.all(first > -1e-12 * np.max(np.abs(first)))
        second = pairs[1].eigenfunction.values[mesh.interior]
        signs = np.sign(second[np.abs(second) > 1e-10 * np.max(np.abs(second))])
        changes = int(np.sum(signs[:-1] != signs[1:]))
        assert changes == 1

    def test_indefinite_mass_raises(self, monkeypatch):
        mesh = Mesh(0.0, 1.0, 8)
        params = KernelParams(0.5, 2.0, mesh.snap(0.25))
        (rule,) = en._mass_rules(mesh, en._TAIL_ORDER)
        e = rule.nodes[:, 0]
        negated = [en._Rule(rule.basis, -rule.weights, e, 0 * e, rule.widx)]
        monkeypatch.setattr(en, "_mass_rules", lambda mesh, order: negated)
        with pytest.raises(LinAlgError, match="not positive definite"):
            solve_p2_spectrum(mesh, params, 1)

    def test_fine_mesh_converges_at_the_rounding_floor(self):
        # at s = 0.99 on 640 cells, rounding in A x alone leaves a relative residual of
        # ~2e-11, above the 1e-11 target: the stop allows for it instead of hitting the cap
        mesh = Mesh(0.0, 1.0, 640)
        params = KernelParams(0.99, 2.0, mesh.snap(0.0125))
        pairs = solve_p2_spectrum(mesh, params, 2)
        A, M = p2_matrices(mesh, params)
        for ep, v in zip(pairs, scipy.linalg.eigh(A, M, subset_by_index=[0, 1])[1].T):
            lam = (v @ A @ v) / (v @ M @ v)  # the quotient itself rounds at ~1e-11 here
            assert ep.converged and abs(ep.lam - lam) <= 1e-10 * lam
        assert pairs[0].diagnostics["sweeps"] <= 10

    def test_eigenvalues_monotone_in_horizon(self):
        params_small = KernelParams(0.5, 2.0, 0.25)
        params_large = KernelParams(0.5, 2.0, 0.5)
        mesh = Mesh(0.0, 1.0, 16)  # 4 and 8 cells
        small = [ep.lam for ep in solve_p2_spectrum(mesh, params_small, 5)]
        large = [ep.lam for ep in solve_p2_spectrum(mesh, params_large, 5)]
        assert all(a <= b + 1e-12 for a, b in zip(small, large))

    def test_h_refinement_extrapolation_self_consistent(self):
        params = KernelParams(0.5, 2.0, INFINITE)
        lams = []
        for n in (32, 64, 128):
            mesh = Mesh(0.0, 1.0, n)
            lams.append(solve_p2_spectrum(mesh, params, 1)[0].lam)
        v1, v2, v3 = lams
        r = (v3 - v2) / (v2 - v1)
        assert 0.0 < r < 1.0
        l23 = v3 + (v3 - v2) * r / (1.0 - r)
        l12 = v2 + (v2 - v1) * r / (1.0 - r)
        assert abs(l23 - l12) / abs(l23) <= 0.005


# horizons below |Omega| and at INF, with 11 (12 elements) and 12 (13 elements) interior
# nodes; a finite horizon above |Omega| shifts the INF stiffness by a multiple of the mass
FOLD_MESHES = [(mesh_delta, kernel_delta, n) for mesh_delta, kernel_delta in
               [(0.25, None), (INFINITE, INFINITE), (INFINITE, 2.0)] for n in (12, 13)]


def fold_instance(mesh_delta, kernel_delta, n, s):
    mesh = Mesh(0.0, 1.0, n)
    return mesh, KernelParams(s, 2.0, kernel_delta or mesh.snap(mesh_delta))


class TestP2Fold:
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("mesh_delta, kernel_delta, n", FOLD_MESHES)
    def test_reflection_commutes_with_the_pencil(self, mesh_delta, kernel_delta, n, s):
        A, M = p2_matrices(*fold_instance(mesh_delta, kernel_delta, n, s))
        assert np.max(np.abs(A[::-1, ::-1] - A)) <= 1e-14 * np.max(np.abs(A))
        assert np.array_equal(M[::-1, ::-1], M)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("mesh_delta, kernel_delta, n",
                             FOLD_MESHES + [(0.05, None, 40), (INFINITE, INFINITE, 41),
                                            (INFINITE, INFINITE, 2), (0.5, None, 2)])
    def test_matches_unfolded_generalized_eigh(self, mesh_delta, kernel_delta, n, s):
        mesh, params = fold_instance(mesh_delta, kernel_delta, n, s)
        A, M = p2_matrices(mesh, params)
        lams, vecs = scipy.linalg.eigh(A, M)  # unit M-norm: normalized in L^2(Omega)
        # k_max = 1 solves only the even block; at 2 the odd block holds lambda_2; one
        # interior node leaves the odd block empty
        for k_max in (1, 2, len(A))[:len(A)]:
            pairs = solve_p2_spectrum(mesh, params, k_max)
            assert len(pairs) == k_max
            for ep, lam, v in zip(pairs, lams, vecs.T):
                assert abs(ep.lam - lam) <= 1e-12 * lam
                x = ep.eigenfunction.values[mesh.interior]
                assert min(np.max(np.abs(x - v)), np.max(np.abs(x + v))) <= 1e-10
            first = pairs[0].eigenfunction.values[mesh.interior]
            assert np.max(np.abs(first - first[::-1])) <= 1e-15 * np.max(first)
            assert np.all(first > 0)

    @pytest.mark.parametrize("mesh_delta, kernel_delta, n", FOLD_MESHES)
    def test_second_even_mode_start_grows_to_the_first(self, monkeypatch, mesh_delta,
                                                         kernel_delta, n):
        # an even block started from an exact eigenvector that is not the first converges
        # to it, fails the inertia certificate and takes a sine mode
        mesh, params = fold_instance(mesh_delta, kernel_delta, n, 0.5)
        A, M = p2_matrices(mesh, params)
        lams, vecs = scipy.linalg.eigh(A, M)
        second_even = vecs[:, 2]
        assert np.allclose(second_even, second_even[::-1], atol=1e-12)
        # folded: the unfold doubles the middle node of an odd count
        start = second_even[:(len(A) + 1) // 2].copy()
        start[-1] /= 1 + len(A) % 2
        widths, values = [], []

        def recording(A_f, M_f, X):
            if not widths:  # the even block's first start: the second even pair
                X = start[:, None]
            widths.append(X.shape[1])
            values.append(ritz(A_f, M_f, X))
            return values[-1]

        ritz = eigensolver._ritz_iteration
        monkeypatch.setattr(eigensolver, "_ritz_iteration", recording)
        (ep,) = solve_p2_spectrum(mesh, params, 1)
        assert abs(values[0][0][0] - lams[2]) <= 1e-12 * lams[2]
        # even, odd, then both with one more mode: mu = lambda_3 is above lambda_1 (even)
        # and lambda_2 (odd); then the even block alone, one more sine mode each time, until
        # its span holds the first pair: the added modes are nearly orthogonal to it
        assert widths == [1, 0, 2, 1] + list(range(3, len(widths) - 1))
        assert abs(ep.lam - lams[0]) <= 1e-12 * lams[0] and ep.converged
        x = ep.eigenfunction.values[mesh.interior]
        assert min(np.max(np.abs(x - vecs[:, 0])), np.max(np.abs(x + vecs[:, 0]))) <= 1e-10

    def test_sweep_cap_flags_the_pairs_unconverged(self, monkeypatch):
        mesh, params = fold_instance(0.25, None, 13, 0.5)
        assert all(ep.converged for ep in solve_p2_spectrum(mesh, params, 2))
        monkeypatch.setattr(eigensolver, "_P2_MAX_SWEEPS", 0)  # the sine modes alone
        pairs = solve_p2_spectrum(mesh, params, 2)
        assert not any(ep.converged for ep in pairs)
        assert [ep.diagnostics["sweeps"] for ep in pairs] == [0, 0]

    @pytest.mark.parametrize("mesh_delta, n", [(0.05, 40), (0.05, 41), (INFINITE, 40),
                                               (INFINITE, 41), (INFINITE, 256)])
    def test_wanted_pairs_take_no_full_size_decomposition(self, monkeypatch, mesh_delta, n):
        # for k_max <= 2 every block holds at most one column: eigh and inv see at most 1 x 1
        sizes = []

        def watch(fn):
            def recorded(a, *args, **kwargs):
                sizes.append(a.shape)
                return fn(a, *args, **kwargs)
            return recorded

        for name in ("eigh", "inv"):
            monkeypatch.setattr(eigensolver, name, watch(getattr(eigensolver, name)))
        mesh = Mesh(0.0, 1.0, n)
        for k_max in (1, 2):
            solve_p2_spectrum(mesh, KernelParams(0.5, 2.0, mesh.snap(mesh_delta)), k_max)
        assert sizes and max(max(shape) for shape in sizes) <= 1


class TestInfRows:
    @pytest.mark.parametrize("p, k_max, n", [(2.0, 1, 32), (2.0, 1, 33), (2.0, 1, 256),
                                             (2.0, 2, 32), (2.0, 2, 33), (2.0, 2, 256),
                                             (3.0, 1, 32), (3.0, 1, 33),
                                             (1.5, 1, 32), (1.5, 1, 33)])
    def test_finite_rows_match_cold_solves(self, p, k_max, n):
        # an inf study solves only INF and shifts it to every finite horizon; a cold solve
        # at that horizon, from the sine modes, finds the same eigenvalues
        cfg = SweepConfig.from_dict({
            "schema_version": 1, "study": "inf", "p": p, "s": 0.5,
            "delta_list": [1.0, 2.0, 4.0, 8.0, "INF"], "n_interior": n,
            "k_list": list(range(1, k_max + 1)), "thresholds": [0.5] * k_max}, name="rows")
        rows = run_study(cfg).rows
        mesh = Mesh(0.0, 1.0, n)
        tol = 1e-10 if p == 3.0 else 1e-12
        for delta in cfg.delta_list[:-1]:
            cold = solve_eigenpairs(mesh, KernelParams(0.5, p, delta), k_max)
            at = [r for r in rows if r.delta_requested == delta]
            assert [r.k for r in at] == [ep.index_k for ep in cold]
            for r, ep in zip(at, cold):
                assert r.converged and ep.converged
                assert abs(r.lambda_raw - ep.lam) <= tol * ep.lam


class TestInversePower:
    def test_p2_agrees_with_matrix_path(self):
        mesh = Mesh(0.0, 1.0, 16)
        params = KernelParams(0.5, 2.0, mesh.snap(0.25))
        lam_matrix = solve_p2_spectrum(mesh, params, 1)[0].lam
        ep = solve_first_eigenpair(mesh, params)
        assert ep.converged
        assert abs(ep.lam - lam_matrix) / lam_matrix <= 1e-8

    def test_rayleigh_quotient_nonincreasing(self):
        mesh = Mesh(0.0, 1.0, 16)
        params = KernelParams(0.5, 3.0, mesh.snap(0.25))
        ep = solve_first_eigenpair(mesh, params)
        history = ep.diagnostics["rayleigh_history"]
        for before, after in zip(history, history[1:]):
            assert after <= before * (1.0 + 1e-10)

    def test_rayleigh_probe_lower_bound(self):
        mesh = Mesh(0.0, 1.0, 16)
        params = KernelParams(0.5, 3.0, mesh.snap(0.25))
        ep = solve_first_eigenpair(mesh, params)
        assert ep.converged
        # lambda equals the quotient of its own eigenfunction
        u = ep.eigenfunction
        quotient = nonlocal_energy(u, params).total / lp_mass(u, 3.0)
        assert quotient == pytest.approx(ep.lam, rel=1e-10)
        rng = np.random.default_rng(0)
        n = mesh.n_interior - 1
        for _ in range(100):
            v = embed(mesh, rng.standard_normal(n))
            probe = nonlocal_energy(v, params).total / lp_mass(v, 3.0)
            assert probe >= ep.lam * (1.0 - 1e-8)

    def test_first_eigenfunction_nonnegative_general_p(self):
        mesh = Mesh(0.0, 1.0, 16)
        params = KernelParams(0.5, 3.0, mesh.snap(0.25))
        ep = solve_first_eigenpair(mesh, params)
        vals = ep.eigenfunction.values
        assert np.all(vals >= -1e-10 * np.max(np.abs(vals)))

    def test_serialization(self):
        mesh = Mesh(0.0, 1.0, 8)
        params = KernelParams(0.5, 2.0, mesh.snap(0.25))
        d = solve_first_eigenpair(mesh, params).to_json_dict()
        assert {"lambda", "k", "residual", "iterations", "converged"} <= set(d)


class TestInnerSolvers:
    @pytest.mark.parametrize("f_rounding", [None, 0.0], ids=["default", "no-floor"])
    def test_newton_returns_at_zero_inner_tolerance(self, monkeypatch, f_rounding):
        # the residual stop, the only one a Newton step has, is unreachable: the solve
        # must end after a rejected Newton step, at the rounding floor of the Rayleigh
        # quotient or a line search stall, instead of at the cap
        monkeypatch.setattr(eigensolver, "_RES_TOL", 0.0)
        if f_rounding is not None:
            monkeypatch.setattr(eigensolver, "_F_ROUNDING", f_rounding)
        mesh = Mesh(0.0, 1.0, 16)
        ep = solve_first_eigenpair(mesh, KernelParams(0.5, 3.0, mesh.snap(0.25)))
        assert ep.converged
        assert ep.diagnostics["inner_iterations"] <= 10 * ep.iterations

    def test_unfactorable_hessian_falls_back_to_the_stiffness(self, monkeypatch):
        mesh = Mesh(0.0, 1.0, 16)
        params = KernelParams(0.5, 3.0, mesh.snap(0.25))
        base = solve_first_eigenpair(mesh, params)
        n = mesh.n_interior - 1

        def unfactorable(*args, **kwargs):
            raise eigensolver.LinAlgError("not positive definite")

        def unbordered(a, b):
            if len(a) == n + 1:
                raise eigensolver.LinAlgError("singular")
            return solve(a, b)

        # neither the bordered Newton step nor the step along H_E(u)^-1 can run: every
        # step solves with the unweighted stiffness
        solve = eigensolver.solve
        monkeypatch.setattr(eigensolver, "solve", unbordered)
        monkeypatch.setattr(eigensolver, "cholesky", unfactorable)
        ep = solve_first_eigenpair(mesh, params)
        assert ep.converged
        assert ep.diagnostics["newton_steps"] == 0 and ep.diagnostics["inner_iterations"] > 0
        assert abs(ep.lam - base.lam) <= 1e-10 * base.lam

    def test_newton_steps_do_not_grow_with_the_mesh(self, monkeypatch):
        # the zero-p3 rows at 4 cells per horizon: n = 20, 40, 80, 160; one energy and
        # one L^p mass sweep per trial point (a |w| recovery sweeps |w| instead of w), and
        # every trial point but a rejected last one is accepted
        inner, outer, calls = [], [], []

        def counted(f):
            def call(*args):
                calls.append(f)
                return f(*args)
            return call

        mass, fused = en.lp_mass_derivatives, en.energy_derivatives
        monkeypatch.setattr(en, "lp_mass_derivatives", counted(mass))
        monkeypatch.setattr(en, "energy_derivatives", counted(fused))
        for delta in (0.2, 0.1, 0.05, 0.025):
            calls.clear()
            mesh = Mesh(0.0, 1.0, round(4 / delta))
            ep = solve_eigenpairs(mesh, KernelParams(0.5, 3.0, mesh.snap(delta)))[0]
            assert ep.converged
            assert ep.diagnostics["inner_iterations"] <= 4 * ep.iterations
            assert calls.count(mass) == calls.count(fused)
            assert 0 <= calls.count(fused) - len(ep.diagnostics["rayleigh_history"]) <= 1
            inner.append(ep.diagnostics["inner_iterations"])
            outer.append(ep.iterations)
        assert max(inner) - min(inner) <= 3
        assert max(outer) <= 8 and max(outer) - min(outer) <= 2

    def test_descent_steps_grow_slowly_with_the_mesh(self):
        # p = 1.5 zero rows at 4 cells per horizon: n = 20, 40, 80; steps along the
        # majorizer's Newton direction do not grow with the mesh
        steps = []
        for delta in (0.2, 0.1, 0.05):
            mesh = Mesh(0.0, 1.0, round(4 / delta))
            ep = solve_eigenpairs(mesh, KernelParams(0.5, 1.5, mesh.snap(delta)))[0]
            assert ep.converged
            steps.append(ep.diagnostics["inner_iterations"])
        assert max(steps) - min(steps) <= 3

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("s", [0.1, 0.9])
    @pytest.mark.parametrize("mesh_delta, kernel_delta", [(0.25, None), (INFINITE, 1.0)],
                             ids=["collar", "collarless"])
    def test_eigen_newton_matches_inverse_power(self, monkeypatch, p, s, mesh_delta,
                                                kernel_delta):
        # without the safeguard the Newton steps at s = 0.9, p = 4 and 6 end at
        # a wrong eigenvalue or run to the iteration cap; without the bordered
        # solve every step is descent along -H_E(u)^-1 res on the Rayleigh quotient
        mesh = Mesh(0.0, 1.0, 16)
        params = KernelParams(s, p, kernel_delta or mesh.snap(mesh_delta))
        newton = solve_first_eigenpair(mesh, params)
        n = mesh.n_interior - 1

        def unbordered(a, b):
            if len(a) == n + 1:
                raise eigensolver.LinAlgError("singular")
            return solve(a, b)

        solve = eigensolver.solve
        monkeypatch.setattr(eigensolver, "solve", unbordered)
        descent = solve_first_eigenpair(mesh, params)
        assert newton.converged and descent.converged
        assert newton.diagnostics["newton_steps"] > 0 and descent.diagnostics["newton_steps"] == 0
        assert abs(newton.lam - descent.lam) <= 1e-9 * descent.lam

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_inf_study_sweeps_only_at_inf(self, monkeypatch, p):
        # every energy sweep of an inf study, the p = 2 stiffness included, is at INF
        deltas = []

        def recorded(mesh, params, *args, **kwargs):
            deltas.append(params.delta)
            return sweep(mesh, params, *args, **kwargs)

        sweep = en._energy_sweep
        monkeypatch.setattr(en, "_energy_sweep", recorded)
        cfg = SweepConfig.from_dict({
            "schema_version": 1, "study": "inf", "p": p, "s": 0.5,
            "delta_list": [1.0, 2.0, 4.0, "INF"], "n_interior": 24, "k_list": [1],
            "thresholds": [0.5]}, name="one-solve")
        report = run_study(cfg)
        assert all(r.converged for r in report.rows)
        assert deltas and set(deltas) == {INFINITE}

    def test_fallback_reuses_the_bordered_hessian(self, monkeypatch):
        # the canonical zero-p3 row at delta = 0.2: its last Newton step is rejected,
        # and the descent step along -H_E(u)^-1 res, H_E(u) the Hessian the bordered
        # step built, predicts a decrease at rounding level, so u is returned
        hessians, masses, solved = [], [], []

        def sweep(u, params, hessian=False):
            result = energy_derivatives(u, params, hessian)
            hessians.append(result[2])
            return result

        def mass_sweep(u, p, hessian=False):
            result = lp_mass_derivatives(u, p, hessian)
            masses.append(result[0])
            return result

        def watched_solve(a, b):
            solved.append(a)
            return solve(a, b)

        solve = eigensolver.solve
        monkeypatch.setattr(en, "energy_derivatives", sweep)
        monkeypatch.setattr(en, "lp_mass_derivatives", mass_sweep)
        monkeypatch.setattr(eigensolver, "solve", watched_solve)
        mesh = Mesh(0.0, 1.0, 40)
        params = KernelParams(0.5, 3.0, mesh.snap(0.2))
        ep = solve_eigenpairs(mesh, params)[0]
        assert ep.diagnostics["newton_steps"] == 5 and ep.diagnostics["inner_iterations"] == 0
        # one sweep, Hessian included, at the cold start, per Newton step and at the
        # rejected step, and one mass sweep with each
        assert len(hessians) == len(masses) == 7
        assert all(h is not None for h in hessians)
        assert abs(ep.lam - 2.8148237761991957) <= 1e-13 * ep.lam
        # H_E at u is the Hessian of the sweep at the unnormalized w over c^(p-2),
        # c = M(w)^(1/p); the last sweep was the rejected trial point
        ii, c = mesh.interior, masses[-2] ** (1.0 / params.p)
        assert np.array_equal(solved[-1], hessians[-2][ii, ii] / c ** (params.p - 2.0))

    def test_descent_below_p2(self):
        # delta below and above |Omega|, lambda pinned from this solve with lp_mass's 32-point
        # rule; tail and mass rules of order 128 move the second by 2.3e-10 relative.  With
        # every order raised (pairs 40, adjacent 8 x 20, tail and mass 128 at 12 levels) the
        # first reads 4.6058254559, 2.0e-9 from its pin (the collar pair rules missed by 5.4e-9)
        for mesh_delta, kernel_delta, lam in ((0.25, None, 4.605825446702171),
                                              (INFINITE, 1.0, 9.933379884298978)):
            mesh = Mesh(0.0, 1.0, 16)
            params = KernelParams(0.5, 1.5, kernel_delta or mesh.snap(mesh_delta))
            ep = solve_first_eigenpair(mesh, params)
            assert ep.converged
            assert abs(ep.lam - lam) <= 1e-10 * lam
            history = ep.diagnostics["rayleigh_history"]
            for before, after in zip(history, history[1:]):
                assert after <= before * (1.0 + 1e-10)
            vals = ep.eigenfunction.values
            assert np.all(vals >= -1e-10 * np.max(np.abs(vals)))
            assert ep.residual <= 1e-5

    @pytest.mark.parametrize("p", [1.1, 1.2])
    def test_descent_near_p1(self, p):
        # the zero row at delta = 0.2, n = 40: toward p = 1 the weights |d|^(p-2) spread
        # over many orders of magnitude, and the step count must stay bounded
        mesh = Mesh(0.0, 1.0, 40)
        ep = solve_first_eigenpair(mesh, KernelParams(0.5, p, mesh.snap(0.2)))
        assert ep.converged and ep.diagnostics["inner_iterations"] <= 150
        history = ep.diagnostics["rayleigh_history"]
        for before, after in zip(history, history[1:]):
            assert after <= before * (1.0 + 1e-10)
        if p == 1.2:  # pinned as in test_descent_below_p2; all orders raised move it 2.0e-10
            assert abs(ep.lam - 4.042193963830259) <= 1e-9 * ep.lam


class TestSolveEigenpairs:
    def test_dispatch_and_k_max(self):
        mesh = Mesh(0.0, 1.0, 8)
        p3 = KernelParams(0.5, 3.0, mesh.snap(0.25))
        p2 = KernelParams(0.5, 2.0, mesh.snap(0.25))
        with pytest.raises(ValueError):
            solve_eigenpairs(mesh, p3, 2)
        for k_max in (0, 8):  # 7 interior nodes
            with pytest.raises(ValueError):
                solve_eigenpairs(mesh, p2, k_max)
        pairs = solve_eigenpairs(mesh, p2, 3)
        direct = solve_p2_spectrum(mesh, p2, 3)
        assert [ep.lam for ep in pairs] == [ep.lam for ep in direct]
        for ep, ref in zip(pairs, direct):
            assert np.array_equal(ep.eigenfunction.values, ref.eigenfunction.values)

    def test_direct_solves_run_on_one_blas_thread(self, monkeypatch):
        # every direct solve runs on numpy's OpenBLAS
        getters = blas_thread_getters()
        if not getters:
            pytest.skip("no bundled OpenBLAS")
        inside = []

        def watch(fn):
            def counted(*args, **kwargs):
                inside.append([get() for get in getters])
                return fn(*args, **kwargs)
            return counted

        # every numpy.linalg function the module imports
        names = [name for name, obj in vars(eigensolver).items() if not name.startswith("_")
                 and not isinstance(obj, type) and getattr(np.linalg, name, None) is obj]
        assert {"cholesky", "eigh", "inv", "qr", "solve"} <= set(names)
        for name in names:
            monkeypatch.setattr(eigensolver, name, watch(getattr(eigensolver, name)))
        mesh = Mesh(0.0, 1.0, 8)
        solve_first_eigenpair(mesh, KernelParams(0.5, 3.0, mesh.snap(0.25)))
        solve_first_eigenpair(mesh, KernelParams(0.5, 1.5, mesh.snap(0.25)))
        solve_p2_spectrum(mesh, KernelParams(0.5, 2.0, mesh.snap(0.25)), 1)
        assert len(inside) > 1
        assert inside == [[1] * len(getters)] * len(inside)


class TestCauchyOracle:
    def test_richardson_limit_matches_the_cauchy_eigenvalue(self):
        # lambda(INF) at p = 2, s = 1/2 converges at rate 0.99 in h (relative error 8.9e-4
        # at n = 256, 4.5e-4 at 512), so 2 lambda(512) - lambda(256) cancels the leading
        # term; it lands 4.6e-6 from 4 pi 1.1577738836977 = 14.549015710171272, the Cauchy
        # eigenvalue rescaled by 2 / C_{1,1/2} 2^(2s)
        ref = cauchy_lambda1_unit_interval()
        assert abs(ref - 14.549015710171272) <= 1e-15 * ref
        errors, lams = [], []
        for n in (256, 512):
            mesh = Mesh(0.0, 1.0, n)
            (ep,) = solve_eigenpairs(mesh, KernelParams(0.5, 2.0, INFINITE))
            assert ep.converged
            lams.append(ep.lam)
            errors.append(abs(ep.lam - ref) / ref)
        assert 0.9 <= math.log2(errors[0] / errors[1]) <= 1.1
        assert abs(2.0 * lams[1] - lams[0] - ref) <= 2e-5 * ref


class TestShootingOracle:
    def test_p2_recovers_pi_squared(self):
        assert abs(shooting_oracle_lambda1(2.0, 1.0) - math.pi ** 2) <= 1e-8 * math.pi ** 2

    def test_p3_matches_closed_form(self):
        closed = 2.0 * p_pi(3.0) ** 3
        assert abs(shooting_oracle_lambda1(3.0, 1.0) - closed) / closed <= 1e-6

    @pytest.mark.parametrize("p", [1.5, 2.5])
    def test_length_two_scaling(self, p):
        v1 = shooting_oracle_lambda1(p, 1.0)
        v2 = shooting_oracle_lambda1(p, 2.0)
        assert v2 == pytest.approx(v1 / 2.0 ** p, rel=1e-7)

    def test_local_reference_dispatch(self):
        assert local_reference_lambda(2.0, 1.0, 3) == pytest.approx(9 * math.pi ** 2,
                                                                    rel=1e-14)
        assert local_reference_lambda(3.0, 1.0, 1) == pytest.approx(
            local_p_laplacian_lambda1(3.0, 1.0), rel=1e-8)
