import math

import numpy as np
import pytest

from perispec import energy as en
from perispec.eigensolver import solve_eigenpairs
from perispec.kernelmath import INFINITE, KernelParams
from perispec.mesh import (
    DiscreteFunction,
    HorizonUnderresolvedError,
    InvalidFunctionError,
    Mesh,
    interpolate,
)

from test_energy import swept_rows


class TestBuildMesh:
    def test_uniform_spacing(self):
        mesh = Mesh(0.0, 1.0, 16)
        gaps = np.diff(mesh.nodes)
        assert np.all(np.abs(gaps - mesh.h) <= 1e-12 * mesh.h)
        assert np.all(np.diff(mesh.nodes) > 0)

    def test_exact_horizon_multiple(self):
        mesh = Mesh(0.0, 1.0, 16)
        assert round(mesh.snap(0.25) / mesh.h) == 4
        assert mesh.snap(0.25) == pytest.approx(0.25, abs=1e-15)

    def test_snapping(self):
        mesh = Mesh(0.0, 1.0, 10)
        assert round(mesh.snap(0.23) / mesh.h) == 2
        assert mesh.snap(0.23) == pytest.approx(0.2, abs=1e-15)

    def test_collar_width_within_one_cell(self):
        mesh = Mesh(0.0, 1.0, 20)
        for delta in (0.11, 0.26, 0.49):
            assert abs(mesh.snap(delta) - delta) <= mesh.h / 2 + 1e-15

    def test_infinite_horizon_has_no_collar(self):
        mesh = Mesh(0.0, 1.0, 8)
        assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
        assert math.isinf(mesh.snap(INFINITE))
        assert len(mesh.nodes) == 9

    @pytest.mark.parametrize("delta", [0.25, 2.0, INFINITE])
    def test_nodes_cover_omega_only(self, delta):
        # one mesh serves every horizon, and its tableau at each reads Omega's nodes only
        mesh = Mesh(0.0, 1.0, 16)
        assert len(mesh.nodes) == 17
        assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
        rules = en._table(mesh, KernelParams(0.5, 3.0, mesh.snap(delta))).rules
        nodes = [swept_rows(rule.layout)[0] for rule in rules]
        assert all(x.min() >= 0 and x.max() <= 16 for x in nodes)

    def test_horizon_snapped_only_below_the_domain_length(self):
        # round(0.99 / h) = 24 cells: snapped to |Omega|; 1.3 and INF >= |Omega| are kept
        assert Mesh(0.0, 1.0, 24).snap(0.99) == 24 * (1.0 / 24)
        assert Mesh(0.0, 1.0, 10).snap(1.3) == 1.3

    def test_horizon_spanning_omega_to_rounding_kept(self):
        # |Omega| (1 - 1e-12) is where a horizon spans Omega, in snap and in the energy alike
        mesh = Mesh(0.0, 1.0, 10)
        assert mesh.snap(1.0 - 5e-13) == 1.0 - 5e-13
        assert mesh.spans(1.0 - 5e-13) and not mesh.spans(1.0 - 2e-12)
        assert math.isinf(en._table(mesh, KernelParams(0.5, 3.0, 1.0 - 5e-13)).delta)
        assert Mesh(0.0, 1.0, 10).snap(INFINITE) == INFINITE

    def test_interior_mask(self):
        mesh = Mesh(0.0, 1.0, 16)
        inside = (mesh.nodes > 0.0) & (mesh.nodes < 1.0)
        assert np.array_equal(mesh.nodes[mesh.interior], mesh.nodes[inside])
        assert len(mesh.nodes[mesh.interior]) == 15  # endpoints are pinned

    @pytest.mark.parametrize("delta", [0.25, INFINITE])
    def test_interior_slice_matches_mask(self, delta):
        mesh = Mesh(0.0, 1.0, 16)
        nodes = np.arange(len(mesh.nodes))
        inside = (mesh.nodes > 0.0) & (mesh.nodes < 1.0)
        assert np.array_equal(nodes[mesh.interior], np.flatnonzero(inside))
        # at every horizon the slice holds the unknowns: the first eigenfunction's support
        (pair,) = solve_eigenpairs(mesh, KernelParams(0.5, 2.0, mesh.snap(delta)))
        assert np.array_equal(np.flatnonzero(pair.eigenfunction.values), nodes[mesh.interior])

    def test_underresolved_horizon(self):
        mesh = Mesh(0.0, 1.0, 10)
        with pytest.raises(HorizonUnderresolvedError):
            mesh.snap(0.01)
        assert mesh.snap(0.1 * (1.0 - 1e-13)) == mesh.h  # one cell, to rounding

    def test_domain_validation(self):
        # a cell width of inf (|Omega| overflows) or 0 (it underflows) too
        for a, b, n in ((1.0, 0.0, 8), (0.0, 1.0, 1), (0.0, 1.0, 10 ** 400),
                        (-1e308, 1e308, 8), (0.0, 5e-324, 2)):
            with pytest.raises(ValueError):
                Mesh(a, b, n)

    def test_fingerprint_deterministic(self):
        m1 = Mesh(0.0, 1.0, 16)
        m2 = Mesh(0.0, 1.0, 16)
        m3 = Mesh(0.0, 1.0, 8)
        assert m1.fingerprint == m2.fingerprint
        assert m1.fingerprint != m3.fingerprint


class TestDiscreteFunction:
    def test_interpolate_zeroes_collar(self):
        # the ends of Omega border the collar: sin(pi) ~ 1.2e-16 is cut to zero there
        mesh = Mesh(0.0, 1.0, 16)
        u = interpolate(lambda x: math.sin(math.pi * x), mesh)
        assert math.sin(math.pi * mesh.nodes[-1]) != 0.0
        assert u.values[0] == u.values[-1] == 0.0
        assert np.all(u.values[mesh.interior] > 0.0)

    def test_interpolate_zero_extension_not_truncated(self):
        # inside Omega the samples are kept as they are
        mesh = Mesh(0.0, 1.0, 16)

        def bump(x):
            return max(0.0, math.sin(math.pi * x)) if 0.0 <= x <= 1.0 else 0.0

        u = interpolate(bump, mesh)
        samples = [bump(x) for x in mesh.nodes[mesh.interior]]
        assert np.array_equal(u.values[mesh.interior], samples)

    def test_non_finite_sample_rejected(self):
        mesh = Mesh(0.0, 1.0, 16)
        with pytest.raises(InvalidFunctionError):
            interpolate(lambda x: 1.0 / (x - 0.5) if x != 0.5 else math.nan, mesh)

    def test_shape_mismatch_rejected(self):
        mesh = Mesh(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            DiscreteFunction(np.zeros(3), mesh)

    def test_values_read_only(self):
        mesh = Mesh(0.0, 1.0, 16)
        u = interpolate(lambda x: x, mesh)
        with pytest.raises(ValueError):
            u.values[0] = 1.0
