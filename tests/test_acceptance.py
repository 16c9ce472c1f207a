"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

Criteria 2-5 and 9 consume the reports of the canonical study configs under
configs/, which a session fixture runs once with --threads 1 (and once more
with --threads 4 for the determinism criterion, which compares the CSVs, and
for the test that compares the JSON reports).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from perispec.kernelmath import (
    INFINITE,
    KernelParams,
    gamma_constant,
    local_p_laplacian_lambda1,
    p_pi,
)
from perispec.mesh import DiscreteFunction, DomainSpec, build_mesh
from perispec.energy import energy_derivatives, nonlocal_energy
from perispec.eigensolver import solve_first_eigenpair, solve_p2_spectrum
from perispec.harness import run_all

from _oracles import (
    brute_force_energy,
    fd_gradient,
    shooting_oracle_lambda1,
    sphere_moment_quadrature,
)
from test_eigensolver import p2_matrices
from test_energy import random_function, random_instance

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(out_dir, name):
    return json.loads((out_dir / "reports" / f"{name}.json").read_text())


@pytest.fixture(scope="session")
def suite_serial(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite-serial")
    rc = run_all(CONFIG_DIR, out_dir=out / "reports", threads=1)
    return out, rc


@pytest.fixture(scope="session")
def suite_threaded(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite-threaded")
    rc = run_all(CONFIG_DIR, out_dir=out / "reports", threads=4)
    return out, rc


def verdict_line(number, ok, description):
    print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} - {description}")


def test_criterion_1_constant_fidelity():
    ok = True
    for p in (1.5, 2.0, 2.5, 3.0, 4.0):
        for N in (1, 2, 3):
            closed = gamma_constant(N, p)
            quadrature = sphere_moment_quadrature(N, p)
            ok = ok and abs(closed - quadrature) / quadrature <= 1e-10
    verdict_line(1, ok, "gamma closed form vs sphere quadrature <= 1e-10")
    assert ok


def test_criterion_2_horizon_to_zero_p2(suite_serial):
    out, _ = suite_serial
    rep = report(out, "zero-p2")
    rel1 = rep["rel_errors"]["1"]
    rel2 = rep["rel_errors"]["2"]
    ok = (rel1 <= 0.02 and rel2 <= 0.03
          and rep["verdicts"]["1"] and rep["verdicts"]["2"]
          and abs(rep["references"]["1"] - 2.0 * math.pi ** 2) <= 1e-10
          and abs(rep["references"]["2"] - 8.0 * math.pi ** 2) <= 1e-10)
    verdict_line(2, ok, f"scaled limits at p=2: k=1 rel {rel1:.2e} (<=2%), "
                        f"k=2 rel {rel2:.2e} (<=3%)")
    assert ok


def test_criterion_3_horizon_to_zero_p3(suite_serial):
    out, _ = suite_serial
    rep = report(out, "zero-p3")
    rel = rep["rel_errors"]["1"]
    oracle = shooting_oracle_lambda1(3.0, 1.0)
    closed = (3.0 - 1.0) * p_pi(3.0) ** 3
    oracle_ok = abs(oracle - closed) / closed <= 1e-6
    ok = rel <= 0.05 and rep["verdicts"]["1"] and oracle_ok
    verdict_line(3, ok, f"scaled limit at p=3 rel {rel:.2e} (<=5%); "
                        f"shooting oracle vs closed form {abs(oracle-closed)/closed:.1e}")
    assert ok


def test_criterion_4_horizon_to_infinity(suite_serial):
    out, _ = suite_serial
    rep2 = report(out, "inf-p2")
    rep3 = report(out, "inf-p3")
    gap2 = rep2["rel_errors"]["1"]
    gap3 = rep3["rel_errors"]["1"]
    structural = (rep2["checks"]["monotonicity"] and rep2["checks"]["sandwich"]
                  and rep3["checks"]["monotonicity"] and rep3["checks"]["sandwich"])
    ok = structural and gap2 <= 0.01 and gap3 <= 0.02
    verdict_line(4, ok, f"monotone+sandwich {'ok' if structural else 'VIOLATED'}; "
                        f"gap at delta=8: p=2 {gap2:.2e} (<=1%), p=3 {gap3:.2e} (<=2%)")
    assert ok


def test_criterion_5_bbm_localization(suite_serial):
    out, _ = suite_serial
    rel05 = report(out, "bbm-s05")["rel_errors"]["1"]
    rel09 = report(out, "bbm-s09")["rel_errors"]["1"]
    ref05 = report(out, "bbm-s05")["references"]["1"]
    ok = (rel05 <= 0.02 and rel09 <= 0.02
          and abs(ref05 - math.pi ** 2) <= 1e-8)
    verdict_line(5, ok, f"scaled sine energy -> pi^2: s=0.5 rel {rel05:.2e}, "
                        f"s=0.9 rel {rel09:.2e} (both <=2%)")
    assert ok


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(10):
        u, params = random_instance(rng, trial)
        lib = nonlocal_energy(u, params).total
        oracle = brute_force_energy(u, params.s, params.p, params.delta)
        worst = max(worst, abs(lib - oracle) / abs(oracle))
    quad_ok = True
    mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 12)
    params = KernelParams(0.5, 2.0, mesh.delta_effective)
    A, _ = p2_matrices(mesh, params)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(A.shape[0])
        vals = np.zeros(len(mesh.nodes))
        vals[mesh.interior] = x
        form = float(x @ A @ x)
        via_energy = nonlocal_energy(DiscreteFunction(vals, mesh), params).total
        quad_ok = quad_ok and abs(form - via_energy) <= 1e-10 * abs(via_energy)
    ok = worst <= 1e-5 and quad_ok
    verdict_line(6, ok, f"assembly vs brute-force quadrature worst rel {worst:.2e} "
                        f"(<=1e-5); p=2 quadratic-form identity <=1e-10: {quad_ok}")
    assert ok


def test_criterion_7_gradient_checks():
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        rng = np.random.default_rng(int(p * 100))
        for trial in range(10):
            n = int(rng.integers(6, 17))
            s = float(rng.uniform(0.2, 0.8))
            if trial % 2 == 0:
                delta = float(rng.choice([1, 2])) / n
                mesh = build_mesh(DomainSpec(0.0, 1.0, delta), n)
                params = KernelParams(s, p, mesh.delta_effective)
            else:
                mesh = build_mesh(DomainSpec(0.0, 1.0, INFINITE), n)
                params = KernelParams(s, p, INFINITE)
            u = random_function(mesh, rng)
            ii = np.flatnonzero(mesh.interior_mask)

            def f(vals):
                return nonlocal_energy(DiscreteFunction(vals, mesh), params).total

            analytic = energy_derivatives(u, params)[1][ii]
            numeric = fd_gradient(f, u.values, ii)
            err = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(analytic))
            worst = max(worst, err)
    ok = worst <= 1e-5
    verdict_line(7, ok, f"analytic vs central-difference gradients worst rel "
                        f"{worst:.2e} (<=1e-5, p in {{1.5,2,3}})")
    assert ok


def test_criterion_8_structural_invariants():
    mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
    params = KernelParams(0.5, 2.5, mesh.delta_effective)
    u = random_function(mesh, np.random.default_rng(5))

    br = nonlocal_energy(u, params)
    decomposition = abs(br.total - (br.principal + br.interaction)) <= 1e-12 * abs(br.total)
    c = -2.5
    homogeneity = abs(
        nonlocal_energy(DiscreteFunction(c * u.values, mesh), params).total
        - abs(c) ** params.p * br.total) <= 1e-12 * abs(c) ** params.p * br.total
    reflection = abs(nonlocal_energy(DiscreteFunction(u.values[::-1], mesh), params).total
                     - br.total) <= 1e-12 * abs(br.total)
    sign = nonlocal_energy(DiscreteFunction(-u.values, mesh), params).total == br.total

    p2 = KernelParams(0.5, 2.0, mesh.delta_effective)
    pairs = solve_p2_spectrum(mesh, p2, 2)
    first = pairs[0].eigenfunction.values[mesh.interior_mask]
    if first.sum() < 0:
        first = -first
    sign_constant = bool(np.all(first > -1e-12 * np.max(np.abs(first))))
    simplicity = pairs[1].lam - pairs[0].lam > 1e-6 * pairs[0].lam

    p3 = KernelParams(0.5, 3.0, mesh.delta_effective)
    history = solve_first_eigenpair(mesh, p3).diagnostics["rayleigh_history"]
    monotone = all(b <= a * (1.0 + 1e-10) for a, b in zip(history, history[1:]))

    ok = (decomposition and homogeneity and reflection and sign
          and sign_constant and simplicity and monotone)
    verdict_line(8, ok, "decomposition/homogeneity/reflection/sign <=1e-12; "
                        "first eigenfunction sign-constant; p=2 simplicity gap; "
                        "Rayleigh nonincreasing per outer iteration")
    assert ok


def test_criterion_9_determinism(suite_serial, suite_threaded):
    out1, rc1 = suite_serial
    out4, rc4 = suite_threaded
    names = sorted(f.stem for f in (out1 / "reports").glob("*.csv"))
    identical = bool(names) and rc1 == rc4
    for name in names:
        b1 = (out1 / "reports" / f"{name}.csv").read_bytes()
        b4 = (out4 / "reports" / f"{name}.csv").read_bytes()
        identical = identical and b1 == b4
    verdict_line(9, identical, f"--threads 1 vs --threads 4: {len(names)} CSV reports "
                               "byte-identical")
    assert identical


def test_json_reports_identical_across_threads(suite_serial, suite_threaded):
    def reports(out):
        return {f.name: f.read_bytes() for f in (out / "reports").glob("*.json")
                if not f.name.endswith(".meta.json")}

    serial = reports(suite_serial[0])
    assert serial and serial == reports(suite_threaded[0])
