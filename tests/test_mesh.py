import math

import numpy as np
import pytest

from perispec.kernelmath import INFINITE
from perispec.mesh import (
    DiscreteFunction,
    DomainSpec,
    HorizonUnderresolvedError,
    InvalidFunctionError,
    build_mesh,
    interpolate,
)


class TestBuildMesh:
    def test_uniform_spacing(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        gaps = np.diff(mesh.nodes)
        assert np.all(np.abs(gaps - mesh.h) <= 1e-12 * mesh.h)
        assert np.all(np.diff(mesh.nodes) > 0)

    def test_exact_horizon_multiple(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        assert round(mesh.delta_effective / mesh.h) == 4
        assert mesh.delta_effective == pytest.approx(0.25, abs=1e-15)

    def test_snapping(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.23), 10)
        assert round(mesh.delta_effective / mesh.h) == 2
        assert mesh.delta_effective == pytest.approx(0.2, abs=1e-15)

    def test_collar_width_within_one_cell(self):
        for delta in (0.11, 0.26, 0.49):
            mesh = build_mesh(DomainSpec(0.0, 1.0, delta), 20)
            assert abs(mesh.delta_effective - delta) <= mesh.h / 2 + 1e-15

    def test_infinite_horizon_has_no_collar(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, INFINITE), 8)
        assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
        assert math.isinf(mesh.delta_effective)
        assert len(mesh.nodes) == 9

    @pytest.mark.parametrize("delta", [0.25, 2.0, INFINITE])
    def test_nodes_cover_omega_only(self, delta):
        mesh = build_mesh(DomainSpec(0.0, 1.0, delta), 16)
        assert len(mesh.nodes) == 17
        assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0

    def test_horizon_snapped_only_below_the_domain_length(self):
        # round(0.99 / h) = 24 cells: snapped to |Omega|; 1.3 >= |Omega| is kept as given
        assert build_mesh(DomainSpec(0.0, 1.0, 0.99), 24).delta_effective == 24 * (1.0 / 24)
        assert build_mesh(DomainSpec(0.0, 1.0, 1.3), 10).delta_effective == 1.3

    def test_interior_mask(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        inside = (mesh.nodes > 0.0) & (mesh.nodes < 1.0)
        assert np.array_equal(mesh.nodes[mesh.interior], mesh.nodes[inside])
        assert len(mesh.nodes[mesh.interior]) == 15  # endpoints are pinned

    @pytest.mark.parametrize("delta", [0.25, INFINITE])
    def test_interior_slice_matches_mask(self, delta):
        mesh = build_mesh(DomainSpec(0.0, 1.0, delta), 16)
        nodes = np.arange(len(mesh.nodes))
        inside = (mesh.nodes > 0.0) & (mesh.nodes < 1.0)
        assert np.array_equal(nodes[mesh.interior], np.flatnonzero(inside))

    def test_underresolved_horizon(self):
        with pytest.raises(HorizonUnderresolvedError):
            build_mesh(DomainSpec(0.0, 1.0, 0.01), 10)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            DomainSpec(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            DomainSpec(0.0, 1.0, -1.0)

    def test_fingerprint_deterministic(self):
        m1 = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        m2 = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        m3 = build_mesh(DomainSpec(0.0, 1.0, 0.5), 16)
        assert m1.fingerprint == m2.fingerprint
        assert m1.fingerprint != m3.fingerprint


class TestDiscreteFunction:
    def test_interpolate_zeroes_collar(self):
        # the ends of Omega border the collar: sin(pi) ~ 1.2e-16 is cut to zero there
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        u = interpolate(lambda x: math.sin(math.pi * x), mesh)
        assert math.sin(math.pi * mesh.nodes[-1]) != 0.0
        assert u.values[0] == u.values[-1] == 0.0
        assert np.all(u.values[mesh.interior] > 0.0)

    def test_interpolate_zero_extension_not_truncated(self):
        # inside Omega the samples are kept as they are
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)

        def bump(x):
            return max(0.0, math.sin(math.pi * x)) if 0.0 <= x <= 1.0 else 0.0

        u = interpolate(bump, mesh)
        samples = [bump(x) for x in mesh.nodes[mesh.interior]]
        assert np.array_equal(u.values[mesh.interior], samples)

    def test_non_finite_sample_rejected(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        with pytest.raises(InvalidFunctionError):
            interpolate(lambda x: 1.0 / (x - 0.5) if x != 0.5 else math.nan, mesh)

    def test_shape_mismatch_rejected(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        with pytest.raises(ValueError):
            DiscreteFunction(np.zeros(3), mesh)

    def test_values_read_only(self):
        mesh = build_mesh(DomainSpec(0.0, 1.0, 0.25), 16)
        u = interpolate(lambda x: x, mesh)
        with pytest.raises(ValueError):
            u.values[0] = 1.0
