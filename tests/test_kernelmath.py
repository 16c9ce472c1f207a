import math

import pytest

from perispec.kernelmath import (
    INFINITE,
    InfiniteHorizonError,
    KernelParams,
    UnsupportedDimensionError,
    embedding_constant,
    gamma_constant,
    local_p_laplacian_lambda1,
    p_pi,
    scaling_factor,
)
from perispec.mesh import Mesh

from _oracles import k_constant_beta, shooting_oracle_lambda1, sphere_moment_quadrature

P_GRID = [1.5, 2.0, 2.5, 3.0, 4.0]


class TestGammaConstant:
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_sphere_quadrature(self, N, p):
        closed = gamma_constant(N, p)
        quad = sphere_moment_quadrature(N, p)
        assert abs(closed - quad) / quad <= 1e-10

    def test_point_sphere_value(self):
        assert gamma_constant(1, 2.7) == 2.0

    def test_circle_p2(self):
        assert gamma_constant(2, 2.0) == pytest.approx(math.pi, rel=1e-14)

    def test_sphere_p2(self):
        assert gamma_constant(3, 2.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_large_p_does_not_overflow(self, N):
        # Gamma((p+1)/2) alone overflows past p ~ 342.  At even p the moments have products
        # for closed forms: 2, 2 pi prod_k (2k-1)/(2k) (Wallis), 4 pi / (p+1)
        value = gamma_constant(N, 400.0)
        if N == 1:
            assert value == 2.0
        else:
            wallis = 2.0 * math.pi * math.prod((2 * k - 1) / (2 * k) for k in range(1, 201))
            assert value == pytest.approx(wallis if N == 2 else 4.0 * math.pi / 401.0, rel=1e-12)

    def test_non_finite_p_rejected(self):
        for p in (math.inf, math.nan):
            with pytest.raises(ValueError):
                gamma_constant(1, p)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            gamma_constant(4, 2.0)

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("p", P_GRID)
    def test_gamma_is_p_times_k(self, N, p):
        assert gamma_constant(N, p) == pytest.approx(p * k_constant_beta(N, p), rel=1e-14)


class TestKernelParams:
    def test_valid(self):
        kp = KernelParams(0.5, 2.0, 0.25)
        assert kp.ps == 1.0
        assert not kp.is_infinite

    def test_infinite(self):
        kp = KernelParams(0.5, 2.0, INFINITE)
        assert kp.is_infinite

    @pytest.mark.parametrize("s,p,delta", [
        (0.0, 2.0, 1.0), (1.0, 2.0, 1.0), (0.5, 1.0, 1.0),
        (0.5, 2.0, 0.0), (0.5, 2.0, -1.0), (0.5, math.inf, 1.0),
    ])
    def test_invalid(self, s, p, delta):
        with pytest.raises(ValueError):
            KernelParams(s, p, delta)

    def test_with_delta(self):
        # the kernel takes the horizon its mesh snaps: 0.23 is 2 cells of 0.1
        kp = KernelParams(0.5, 3.0, Mesh(0.0, 1.0, 10).snap(0.23))
        assert kp.delta == pytest.approx(0.2, abs=1e-15) and kp.p == 3.0


class TestScalingFactor:
    def test_examples(self):
        assert scaling_factor(KernelParams(0.5, 2.0, 0.1)) == pytest.approx(10.0, rel=1e-14)
        assert scaling_factor(KernelParams(0.5, 2.0, 1.0)) == 1.0
        expected = 2.25 / 0.5 ** 2.25
        assert scaling_factor(KernelParams(0.25, 3.0, 0.5)) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("delta", [0.01, 0.3, 2.0])
    def test_scaling_identity(self, p, s, delta):
        kp = KernelParams(s, p, delta)
        assert scaling_factor(kp) * delta ** (p * (1.0 - s)) == pytest.approx(
            p * (1.0 - s), rel=1e-14)

    def test_infinite_horizon_rejected(self):
        with pytest.raises(InfiniteHorizonError):
            scaling_factor(KernelParams(0.5, 2.0, INFINITE))


class TestEmbeddingConstant:
    def test_example_delta4(self):
        val = embedding_constant(KernelParams(0.5, 2.0, 4.0), 1.0, 10.0)
        assert val == pytest.approx(math.sqrt(1.275), rel=1e-12)

    def test_example_delta1(self):
        val = embedding_constant(KernelParams(0.5, 2.0, 1.0), 1.0, 5.0)
        assert val == pytest.approx(math.sqrt(1.0 + 14.0 / 5.0), rel=1e-12)

    def test_decreasing_and_tends_to_one(self):
        lam_lower = 3.0
        values = [embedding_constant(KernelParams(0.5, 2.0, 2.0 ** k), 1.0, lam_lower)
                  for k in range(0, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 1.0 for v in values)
        # value - 1 <= const * delta^(-s)
        const = (values[0] - 1.0) * 2.0 ** 0.5
        for k, v in enumerate(values):
            assert v - 1.0 <= const * (2.0 ** k) ** -0.5 + 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(InfiniteHorizonError):
            embedding_constant(KernelParams(0.5, 2.0, INFINITE), 1.0, 1.0)
        with pytest.raises(ValueError):
            embedding_constant(KernelParams(0.5, 2.0, 1.0), 1.0, 0.0)
        with pytest.raises(ValueError):
            embedding_constant(KernelParams(0.5, 2.0, 1.0), -1.0, 1.0)


class TestLocalReference:
    def test_p2_is_pi_squared(self):
        assert local_p_laplacian_lambda1(2.0, 1.0) == pytest.approx(math.pi ** 2, rel=1e-14)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_shooting_oracle(self, p):
        closed = local_p_laplacian_lambda1(p, 1.0)
        shot = shooting_oracle_lambda1(p, 1.0)
        assert abs(closed - shot) / closed <= 1e-8

    def test_p_pi_reduces_to_pi(self):
        assert p_pi(2.0) == pytest.approx(math.pi, rel=1e-14)

    def test_length_scaling(self):
        v1 = local_p_laplacian_lambda1(3.0, 1.0)
        v2 = local_p_laplacian_lambda1(3.0, 2.0)
        assert v2 == pytest.approx(v1 / 2.0 ** 3, rel=1e-14)
