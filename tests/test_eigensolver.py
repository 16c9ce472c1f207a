import ctypes
import glob
import importlib
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
from perispec.mesh import DiscreteFunction, DomainSpec, build_mesh, interpolate
from perispec.energy import energy_hessian, lp_mass, nonlocal_energy
from perispec import eigensolver
from perispec import energy as en
from perispec.harness import SweepConfig, run_study
from perispec.eigensolver import (
    WrongExponentError,
    assemble_p2_matrices,
    local_reference_lambda,
    solve_eigenpairs,
    solve_first_eigenpair,
    solve_p2_spectrum,
)

from _oracles import shooting_oracle_lambda1


def _openblas_functions(kind, packages):
    """The get_num_threads (kind "get") or set_num_threads (kind "set") function of
    each OpenBLAS bundled with the named packages."""
    found = []
    for pkg in map(importlib.import_module, packages):
        for path in sorted(glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for name in (f"scipy_openblas_{kind}_num_threads64_",
                         f"scipy_openblas_{kind}_num_threads", f"openblas_{kind}_num_threads"):
                if hasattr(lib, name):
                    fn = getattr(lib, name)
                    if kind == "get":
                        fn.argtypes, fn.restype = (), ctypes.c_int
                    else:
                        fn.argtypes, fn.restype = (ctypes.c_int,), None
                    found.append(fn)
                    break
    return found


def blas_thread_getters(packages=("numpy", "scipy")):
    """The thread-count getter of each OpenBLAS bundled with the named packages."""
    return _openblas_functions("get", packages)


def embed(mesh, x):
    vals = np.zeros(len(mesh.nodes))
    vals[mesh.interior] = x
    return DiscreteFunction(vals, mesh)


class TestP2Assembly:
    # (mesh horizon, kernel horizon): collar mesh, collarless INF, and the
    # collarless finite horizon whose tail carries the -2 delta^-ps shift
    @pytest.mark.parametrize("mesh_delta, kernel_delta", [
        (0.25, None), (INFINITE, INFINITE), (INFINITE, 2.0),
    ], ids=["0.25", "inf", "inf-2.0"])
    def test_quadratic_form_matches_energy(self, mesh_delta, kernel_delta):
        mesh = build_mesh(DomainSpec(0.0, 1.0, mesh_delta), 12)
        params = KernelParams(0.5, 2.0, kernel_delta or mesh.delta_effective)
        A, _ = assemble_p2_matrices(mesh, params)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(A.shape[0])
            quad_form = float(x @ A @ x)
            via_energy = nonlocal_energy(embed(mesh, x), params).total
            assert abs(quad_form - via_energy) <= 1e-10 * abs(via_energy)

    def test_stiffness_symmetric(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 12)
        A, _ = assemble_p2_matrices(mesh, KernelParams(0.5, 2.0, mesh.delta_effective))
        assert np.max(np.abs(A - A.T)) == 0.0

    def test_mass_row_sums(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 12)
        _, M = assemble_p2_matrices(mesh, KernelParams(0.5, 2.0, mesh.delta_effective))
        sums = M.sum(axis=1)
        # interior rows see the full hat: h*(1/6 + 4/6 + 1/6) = h
        assert np.allclose(sums[1:-1], mesh.h, rtol=1e-14)
        assert M.T is not M and np.max(np.abs(M - M.T)) == 0.0

    def test_shared_stiffness_is_built_once(self, monkeypatch):
        # the five horizons of an inf study on one collarless mesh: one Gram of the
        # shared rules, then one tail Gram per horizon
        grams = []

        def counting(rules, nn, *args, **kwargs):
            grams.append(rules)
            return gram(rules, nn, *args, **kwargs)

        gram = en._gram
        monkeypatch.setattr(en, "_gram", counting)
        mesh = build_mesh(DomainSpec(0.0, 1.0, INFINITE), 16)
        en._built.cache_clear()
        try:
            for delta in (1.0, 2.0, 4.0, 8.0, INFINITE):
                assemble_p2_matrices(mesh, KernelParams(0.5, 2.0, delta))
            table = en._table(mesh, KernelParams(0.5, 2.0, INFINITE))
        finally:
            en._built.cache_clear()
        shared = [rules for rules in grams if rules[0] is table.rules[0]]
        assert len(shared) == 1 and len(shared[0]) == len(table.rules) - len(table.tail)
        assert sum(rules[0].basis is table.tail[0][0].basis for rules in grams) == 5
        assert not table._shared.flags.writeable

    def test_wrong_exponent(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 12)
        with pytest.raises(WrongExponentError):
            assemble_p2_matrices(mesh, KernelParams(0.5, 3.0, mesh.delta_effective))


class TestP2Spectrum:
    def test_ordering_and_first_gap(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        pairs = solve_p2_spectrum(mesh, KernelParams(0.5, 2.0, 0.25), 4)
        lams = [ep.lam for ep in pairs]
        assert lams[0] < lams[1] - 1e-8  # simplicity of the first eigenvalue
        assert all(a <= b + 1e-12 for a, b in zip(lams, lams[1:]))
        assert all(ep.residual <= 1e-8 for ep in pairs)

    def test_eigenfunctions_normalized(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        pairs = solve_p2_spectrum(mesh, KernelParams(0.5, 2.0, 0.25), 3)
        for ep in pairs:
            assert lp_mass(ep.eigenfunction, 2.0) == pytest.approx(1.0, rel=1e-10)

    def test_first_eigenfunction_sign_constant_second_changes_once(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 32)
        pairs = solve_p2_spectrum(mesh, KernelParams(0.5, 2.0, 0.25), 2)
        first = pairs[0].eigenfunction.values[mesh.interior_mask]
        if first.sum() < 0:
            first = -first
        assert np.all(first > -1e-12 * np.max(np.abs(first)))
        second = pairs[1].eigenfunction.values[mesh.interior_mask]
        signs = np.sign(second[np.abs(second) > 1e-10 * np.max(np.abs(second))])
        changes = int(np.sum(signs[:-1] != signs[1:]))
        assert changes == 1

    def test_indefinite_mass_raises(self, monkeypatch):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 8)
        params = KernelParams(0.5, 2.0, mesh.delta_effective)
        (rule,) = en._mass_rules(mesh)
        negated = [en._Rule(rule.basis, [(lo, hi, g, -w, main)
                                         for lo, hi, g, w, main in rule.blocks])]
        monkeypatch.setattr(en, "_mass_rules", lambda _: negated)
        eigensolver._mass_factors.cache_clear()
        try:
            with pytest.raises(LinAlgError, match="not positive definite"):
                solve_p2_spectrum(mesh, params, 1)
        finally:
            eigensolver._mass_factors.cache_clear()

    def test_eigenvalues_monotone_in_horizon(self):
        params_small = KernelParams(0.5, 2.0, 0.25)
        params_large = KernelParams(0.5, 2.0, 0.5)
        mesh_small = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        mesh_large = build_mesh(DomainSpec(0.0, 1.0, 0.5), 16)
        small = [ep.lam for ep in solve_p2_spectrum(mesh_small, params_small, 5)]
        large = [ep.lam for ep in solve_p2_spectrum(mesh_large, params_large, 5)]
        assert all(a <= b + 1e-12 for a, b in zip(small, large))

    def test_h_refinement_extrapolation_self_consistent(self):
        params = KernelParams(0.5, 2.0, INFINITE)
        lams = []
        for n in (32, 64, 128):
            mesh = build_mesh(DomainSpec(0.0, 1.0, INFINITE), n)
            lams.append(solve_p2_spectrum(mesh, params, 1)[0].lam)
        v1, v2, v3 = lams
        r = (v3 - v2) / (v2 - v1)
        assert 0.0 < r < 1.0
        l23 = v3 + (v3 - v2) * r / (1.0 - r)
        l12 = v2 + (v2 - v1) * r / (1.0 - r)
        assert abs(l23 - l12) / abs(l23) <= 0.005


# collar and collarless meshes with 11 (12 elements) and 12 (13 elements) interior
# nodes; the collarless finite horizon lowers the tail weights of the INF tableau
FOLD_MESHES = [(mesh_delta, kernel_delta, n) for mesh_delta, kernel_delta in
               [(0.25, None), (INFINITE, INFINITE), (INFINITE, 2.0)] for n in (12, 13)]


def fold_instance(mesh_delta, kernel_delta, n, s):
    mesh = build_mesh(DomainSpec(0.0, 1.0, mesh_delta), n)
    return mesh, KernelParams(s, 2.0, kernel_delta or mesh.delta_effective)


class TestP2Fold:
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("mesh_delta, kernel_delta, n", FOLD_MESHES)
    def test_reflection_commutes_with_the_pencil(self, mesh_delta, kernel_delta, n, s):
        A, M = assemble_p2_matrices(*fold_instance(mesh_delta, kernel_delta, n, s))
        assert np.max(np.abs(A[::-1, ::-1] - A)) <= 1e-14 * np.max(np.abs(A))
        assert np.array_equal(M[::-1, ::-1], M)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("mesh_delta, kernel_delta, n",
                             FOLD_MESHES + [(0.05, None, 40), (INFINITE, INFINITE, 41)])
    def test_matches_unfolded_generalized_eigh(self, mesh_delta, kernel_delta, n, s):
        mesh, params = fold_instance(mesh_delta, kernel_delta, n, s)
        A, M = assemble_p2_matrices(mesh, params)
        lams, vecs = scipy.linalg.eigh(A, M)  # unit M-norm: normalized in L^2(Omega)
        # k_max = 1 solves only the even block; at 2 the odd block holds lambda_2
        for k_max in (1, 2, len(A)):
            pairs = solve_p2_spectrum(mesh, params, k_max)
            assert len(pairs) == k_max
            for ep, lam, v in zip(pairs, lams, vecs.T):
                assert abs(ep.lam - lam) <= 1e-12 * lam
                x = ep.eigenfunction.values[mesh.interior_mask]
                assert min(np.max(np.abs(x - v)), np.max(np.abs(x + v))) <= 1e-10
            first = pairs[0].eigenfunction.values[mesh.interior_mask]
            assert np.max(np.abs(first - first[::-1])) <= 1e-15 * np.max(first)
            assert np.all(first > 0)

    def test_mass_factors_are_built_once(self, monkeypatch):
        inverted = []

        def counting(factor):
            inverted.append(len(factor))
            return np.linalg.inv(factor)

        monkeypatch.setattr(eigensolver, "inv", counting)
        eigensolver._mass_factors.cache_clear()
        try:
            for s in (0.3, 0.7):
                for delta in (1.0, 2.0, INFINITE):  # the rows of an inf study
                    mesh = build_mesh(DomainSpec(0.0, 1.0, INFINITE), 16)
                    solve_p2_spectrum(mesh, KernelParams(s, 2.0, delta), 2)
            factors = eigensolver._mass_factors(mesh)
        finally:
            eigensolver._mass_factors.cache_clear()
        assert inverted == [8, 7]  # the even and the odd block of 15 interior nodes
        assert len(factors) == 5 and not any(f.flags.writeable for f in factors)


class TestInversePower:
    def test_p2_agrees_with_matrix_path(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        params = KernelParams(0.5, 2.0, mesh.delta_effective)
        lam_matrix = solve_p2_spectrum(mesh, params, 1)[0].lam
        ep = solve_first_eigenpair(mesh, params)
        assert ep.converged
        assert abs(ep.lam - lam_matrix) / lam_matrix <= 1e-8

    def test_initializer_scale_invariance(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        params = KernelParams(0.5, 2.5, mesh.delta_effective)
        base = solve_first_eigenpair(mesh, params)
        doubled = interpolate(lambda x: 2.0 * math.sin(math.pi * x), mesh)
        again = solve_first_eigenpair(mesh, params, initial=doubled)
        assert abs(base.lam - again.lam) <= 1e-10 * base.lam

    def test_rayleigh_quotient_nonincreasing(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        params = KernelParams(0.5, 3.0, mesh.delta_effective)
        ep = solve_first_eigenpair(mesh, params)
        history = ep.diagnostics["rayleigh_history"]
        for before, after in zip(history, history[1:]):
            assert after <= before * (1.0 + 1e-10)

    def test_rayleigh_probe_lower_bound(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        params = KernelParams(0.5, 3.0, mesh.delta_effective)
        ep = solve_first_eigenpair(mesh, params)
        assert ep.converged
        # lambda equals the quotient of its own eigenfunction
        u = ep.eigenfunction
        quotient = nonlocal_energy(u, params).total / lp_mass(u, 3.0)
        assert quotient == pytest.approx(ep.lam, rel=1e-10)
        rng = np.random.default_rng(0)
        n = int(mesh.interior_mask.sum())
        for _ in range(100):
            v = embed(mesh, rng.standard_normal(n))
            probe = nonlocal_energy(v, params).total / lp_mass(v, 3.0)
            assert probe >= ep.lam * (1.0 - 1e-8)

    def test_first_eigenfunction_nonnegative_general_p(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        params = KernelParams(0.5, 3.0, mesh.delta_effective)
        ep = solve_first_eigenpair(mesh, params)
        vals = ep.eigenfunction.values
        assert np.all(vals >= -1e-10 * np.max(np.abs(vals)))

    def test_serialization(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 8)
        params = KernelParams(0.5, 2.0, mesh.delta_effective)
        d = solve_first_eigenpair(mesh, params).to_json_dict()
        assert {"lambda", "k", "residual", "iterations", "converged"} <= set(d)


class TestInnerSolvers:
    @pytest.mark.parametrize("f_rounding", [None, 0.0], ids=["default", "no-floor"])
    def test_newton_returns_at_zero_inner_tolerance(self, monkeypatch, f_rounding):
        # the gradient target and the residual stop of the outer loop are
        # unreachable: every inner solve must end at the rounding floor of the
        # objective or, without it, at a line search stall instead of running
        # to the iteration cap, and the lambda/step exit must end the solve
        monkeypatch.setattr(eigensolver, "_INNER_TOL", 0.0)
        if f_rounding is not None:
            monkeypatch.setattr(eigensolver, "_F_ROUNDING", f_rounding)
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        ep = solve_first_eigenpair(mesh, KernelParams(0.5, 3.0, mesh.delta_effective))
        assert ep.converged
        assert ep.diagnostics["inner_iterations"] <= 10 * ep.iterations

    def test_unfactorable_hessian_falls_back_to_lbfgs(self, monkeypatch):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        params = KernelParams(0.5, 3.0, mesh.delta_effective)
        base = solve_first_eigenpair(mesh, params)

        def unfactorable(*args, **kwargs):
            raise eigensolver.LinAlgError("not positive definite")

        # neither the bordered Newton step nor an inner Newton step can run
        monkeypatch.setattr(eigensolver, "solve", unfactorable)
        monkeypatch.setattr(eigensolver, "cholesky", unfactorable)
        ep = solve_first_eigenpair(mesh, params)
        assert ep.converged
        assert ep.diagnostics["newton_steps"] == 0 and ep.diagnostics["inner_iterations"] > 0
        assert abs(ep.lam - base.lam) <= 1e-10 * base.lam

    def test_newton_steps_do_not_grow_with_the_mesh(self):
        # the zero-p3 rows at 4 cells per horizon: n = 20, 40, 80, 160
        inner, outer = [], []
        for delta in (0.2, 0.1, 0.05, 0.025):
            mesh = build_mesh(DomainSpec(0.0, 1.0, delta), round(4 / delta))
            ep = solve_eigenpairs(mesh, KernelParams(0.5, 3.0, mesh.delta_effective))[0]
            assert ep.converged
            assert ep.diagnostics["inner_iterations"] <= 4 * ep.iterations
            inner.append(ep.diagnostics["inner_iterations"])
            outer.append(ep.iterations)
        assert max(inner) - min(inner) <= 3
        assert max(outer) <= 8 and max(outer) - min(outer) <= 2

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("s", [0.1, 0.9])
    @pytest.mark.parametrize("mesh_delta, kernel_delta", [(0.25, None), (INFINITE, 1.0)],
                             ids=["collar", "collarless"])
    def test_eigen_newton_matches_inverse_power(self, monkeypatch, p, s, mesh_delta,
                                                kernel_delta):
        # without the safeguard the Newton steps at s = 0.9, p = 4 and 6 end at
        # a wrong eigenvalue or run to the iteration cap
        mesh = build_mesh(DomainSpec(0.0, 1.0, mesh_delta), 16)
        params = KernelParams(s, p, kernel_delta or mesh.delta_effective)
        newton = solve_first_eigenpair(mesh, params)

        def unsolvable(*args, **kwargs):
            raise eigensolver.LinAlgError("singular")

        monkeypatch.setattr(eigensolver, "solve", unsolvable)
        power = solve_first_eigenpair(mesh, params)
        assert newton.converged and power.converged
        assert newton.diagnostics["newton_steps"] > 0 and power.diagnostics["newton_steps"] == 0
        assert abs(newton.lam - power.lam) <= 1e-9 * power.lam

    def test_warm_inf_rows_build_no_hessian(self, monkeypatch):
        deltas = []

        def hessian(u, params):
            deltas.append(params.delta)
            return energy_hessian(u, params)

        monkeypatch.setattr(en, "energy_hessian", hessian)
        cfg = SweepConfig.from_dict({
            "schema_version": 1, "study": "inf", "p": 3.0, "s": 0.5,
            "delta_list": [1.0, 2.0, 4.0, "INF"], "n_interior": 24, "k_list": [1],
            "thresholds": [0.5]}, name="warm")
        report = run_study(cfg)
        assert all(r.converged for r in report.rows)
        assert deltas and set(deltas) == {1.0}

    def test_fallback_reuses_the_bordered_hessian(self, monkeypatch):
        # the canonical zero-p3 row at delta = 0.2: its last Newton step is rejected
        # and the inverse power fallback takes no inner step; the energy is
        # p-homogeneous, so it scales the Hessian the bordered step built at u
        count, starts = [], []

        def hessian(u, params):
            count.append(params.delta)
            return energy_hessian(u, params)

        def newton_inner(fun, hess, x0, gtol, max_iter, H):
            starts.append((x0, H))
            return newton(fun, hess, x0, gtol, max_iter, H)

        newton = eigensolver._newton_inner
        monkeypatch.setattr(en, "energy_hessian", hessian)
        monkeypatch.setattr(eigensolver, "_newton_inner", newton_inner)
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.2), 40)
        params = KernelParams(0.5, 3.0, mesh.delta_effective)
        ep = solve_eigenpairs(mesh, params)[0]
        assert ep.diagnostics["newton_steps"] == 5 and ep.diagnostics["inner_iterations"] == 0
        assert len(count) == 6  # one per Newton step and one for the rejected step
        assert abs(ep.lam - 2.8148237761991957) <= 1e-13 * ep.lam
        ((x0, H),) = starts
        direct = energy_hessian(embed(mesh, x0), params)[mesh.interior, mesh.interior] / 3.0
        assert np.max(np.abs(H - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_lbfgs_below_p2(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        ep = solve_first_eigenpair(mesh, KernelParams(0.5, 1.5, mesh.delta_effective))
        assert ep.converged
        history = ep.diagnostics["rayleigh_history"]
        for before, after in zip(history, history[1:]):
            assert after <= before * (1.0 + 1e-10)
        vals = ep.eigenfunction.values
        assert np.all(vals >= -1e-10 * np.max(np.abs(vals)))
        assert ep.residual <= 1e-5


class TestSolveEigenpairs:
    def test_dispatch_and_k_max(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 8)
        p3 = KernelParams(0.5, 3.0, mesh.delta_effective)
        p2 = KernelParams(0.5, 2.0, mesh.delta_effective)
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
        getters = blas_thread_getters(("numpy",))
        if not getters:
            pytest.skip("no bundled OpenBLAS")
        inside = []

        def watch(fn):
            def counted(*args, **kwargs):
                inside.append([get() for get in getters])
                return fn(*args, **kwargs)
            return counted

        for name in ("cholesky", "eigh", "solve"):
            monkeypatch.setattr(eigensolver, name, watch(getattr(eigensolver, name)))
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 8)
        solve_first_eigenpair(mesh, KernelParams(0.5, 3.0, mesh.delta_effective))
        solve_p2_spectrum(mesh, KernelParams(0.5, 2.0, mesh.delta_effective), 1)
        assert len(inside) > 1
        assert inside == [[1] * len(getters)] * len(inside)

    def test_scipy_blas_set_to_one_thread_below_p2(self):
        # the 1 < p < 2 path loads scipy.optimize, and with it scipy's OpenBLAS, at
        # its first solve; start that OpenBLAS at two threads, as if just loaded
        getters = blas_thread_getters()
        if not getters:
            pytest.skip("no bundled OpenBLAS")
        for set_threads in _openblas_functions("set", ("scipy",)):
            set_threads(2)
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 8)
        assert solve_first_eigenpair(mesh, KernelParams(0.5, 1.5, mesh.delta_effective)).converged
        assert [get() for get in getters] == [1] * len(getters)


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
