import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from dppstats import (DomainError, EuclideanLevel, HyperbolicLevel, asymptotic_constant,
                      f_profile, fock_kernel_sq_weighted, hyperbolic_distance,
                      hyperbolic_kernel, hyperbolic_kernel_abs_sq, jacobi_zero_beta,
                      variance_hyperbolic)

SRC = Path(__file__).resolve().parent.parent / "src"


def random_disc_points(rng, n, radius=0.9):
    pts = rng.uniform(-radius, radius, size=(2 * n, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < radius][:n]
    return pts[:, 0] + 1j * pts[:, 1]


class TestLevels:
    def test_euclidean_validation(self):
        assert EuclideanLevel(0).n == 0
        with pytest.raises(DomainError):
            EuclideanLevel(-1)

    def test_hyperbolic_validation(self):
        lvl = HyperbolicLevel(2.0, 1)
        assert lvl.beta == pytest.approx(1.0)
        assert lvl.energy == pytest.approx(4 * 1 * (4 - 1 - 1))
        with pytest.raises(DomainError):
            HyperbolicLevel(0.4, 0)       # nu must exceed 1/2
        with pytest.raises(DomainError):
            HyperbolicLevel(2.0, 2)       # m beyond floor(nu - 1/2)
        with pytest.raises(DomainError):
            HyperbolicLevel(1.5, 1)       # beta would be exactly 0
        with pytest.raises(DomainError):
            HyperbolicLevel(2.0, -1)

    def test_integral_float_level_gives_the_int_level(self):
        # an integral float n or m passed validation, then range(2, m + 1)
        # raised a bare TypeError; the planar case runs in a fresh process,
        # where no cached rule of n = 2 can hide it
        float_level, int_level = HyperbolicLevel(3.0, 2.0), HyperbolicLevel(3.0, 2)
        assert float_level == int_level and type(float_level.m) is int
        assert variance_hyperbolic(float_level, 0.6) == variance_hyperbolic(int_level, 0.6)
        assert asymptotic_constant(float_level) == asymptotic_constant(int_level)
        for rho in (0.0, 0.3, 0.9):
            assert f_profile(float_level, rho) == f_profile(int_level, rho)
        code = ("from dppstats import EuclideanLevel as E, variance_euclidean_shirai as v; "
                "assert type(E(2.0).n) is int; "
                "assert v(E(2.0), 1.0) == v(E(2), 1.0)")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("nu", [math.inf, -math.inf, math.nan])
    def test_hyperbolic_rejects_non_finite_nu(self, nu):
        # an infinite nu used to reach math.floor and raise OverflowError
        with pytest.raises(DomainError):
            HyperbolicLevel(nu, 0)

    def test_admissible_range(self):
        # nu = 5 admits m = 0..4, all with positive beta
        for m in range(5):
            assert HyperbolicLevel(5.0, m).beta > 0


class TestFockKernel:
    def test_diagonal_ground_level(self):
        z = 0.7 + 0.2j
        assert fock_kernel_sq_weighted(EuclideanLevel(0), z, z) == pytest.approx(
            1 / math.pi ** 2, rel=1e-14)

    def test_first_level_zero(self):
        # L_1(1) = 0, so any pair at squared distance 1 annihilates the weight
        val = fock_kernel_sq_weighted(EuclideanLevel(1), 1.0 + 0j, 0.0 + 0j)
        assert val == pytest.approx(0.0, abs=1e-16)

    def test_translation_invariance(self):
        rng = np.random.default_rng(21)
        level = EuclideanLevel(2)
        for _ in range(50):
            z = complex(*rng.uniform(-2, 2, 2))
            w = complex(*rng.uniform(-2, 2, 2))
            shift = complex(*rng.uniform(-3, 3, 2))
            assert fock_kernel_sq_weighted(level, z, w) == pytest.approx(
                fock_kernel_sq_weighted(level, z + shift, w + shift),
                rel=1e-12, abs=1e-300)

    def test_explicit_formula(self):
        level = EuclideanLevel(3)
        z, w = 0.5 + 0.3j, -0.2 + 0.9j
        s = abs(z - w) ** 2
        expected = math.exp(-s) * special.eval_laguerre(3, s) ** 2 / math.pi ** 2
        assert fock_kernel_sq_weighted(level, z, w) == pytest.approx(expected, rel=1e-12)


class TestHyperbolicKernel:
    def test_origin_diagonal(self):
        for nu, m in [(1.0, 0), (2.0, 1), (3.5, 2)]:
            lvl = HyperbolicLevel(nu, m)
            val = hyperbolic_kernel(lvl, 0.0, 0.0)
            assert val.imag == pytest.approx(0.0, abs=1e-15)
            assert val.real == pytest.approx(lvl.beta / math.pi, rel=1e-14)

    def test_diagonal_closed_form(self):
        for nu, m in [(1.0, 0), (2.0, 1), (3.5, 0)]:
            lvl = HyperbolicLevel(nu, m)
            for rho in [0.1, 0.5, 0.8]:
                z = rho * cmath.exp(0.7j)
                val = hyperbolic_kernel(lvl, z, z)
                expected = lvl.beta / math.pi * (1 - rho * rho) ** (-2 * nu)
                assert val.imag == pytest.approx(0.0, abs=1e-9 * abs(val))
                assert val.real == pytest.approx(expected, rel=1e-12)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(22)
        lvl = HyperbolicLevel(2.5, 1)
        zs = random_disc_points(rng, 60)
        ws = random_disc_points(rng, 60)
        for z, w in zip(zs, ws):
            a = hyperbolic_kernel(lvl, z, w)
            b = hyperbolic_kernel(lvl, w, z)
            assert a == pytest.approx(b.conjugate(), rel=1e-12, abs=1e-12)

    def test_abs_sq_helper_matches_modulus(self):
        rng = np.random.default_rng(23)
        for nu, m in [(1.0, 0), (2.0, 1), (4.2, 3)]:
            lvl = HyperbolicLevel(nu, m)
            zs = random_disc_points(rng, 40)
            ws = random_disc_points(rng, 40)
            for z, w in zip(zs, ws):
                direct = abs(hyperbolic_kernel(lvl, z, w)) ** 2
                assert hyperbolic_kernel_abs_sq(lvl, z, w) == pytest.approx(
                    direct, rel=1e-10, abs=1e-300)

    def test_diagonal_positivity(self):
        for nu, m in [(1.0, 0), (2.0, 1), (3.5, 2), (5.0, 4)]:
            lvl = HyperbolicLevel(nu, m)
            for rho in np.linspace(0.0, 0.95, 12):
                assert hyperbolic_kernel(lvl, rho, rho).real > 0.0

    def test_domain_error_outside_disc(self):
        lvl = HyperbolicLevel(1.0, 0)
        with pytest.raises(DomainError):
            hyperbolic_kernel(lvl, 1.0, 0.0)


class TestProfile:
    def test_origin_value(self):
        for nu, m in [(1.0, 0), (2.7, 2), (4.0, 1)]:
            lvl = HyperbolicLevel(nu, m)
            assert f_profile(lvl, 0.0) == pytest.approx((lvl.beta / math.pi) ** 2, rel=1e-14)

    def test_ground_level_closed_form(self):
        lvl = HyperbolicLevel(1.0, 0)
        for rho in [0.0, 0.3, 0.8]:
            assert f_profile(lvl, rho) == pytest.approx(
                (1 - rho * rho) ** 2 / math.pi ** 2, rel=1e-14)

    def test_weight_identity(self):
        # |G(z, w)|^2 (1-|z|^2)^{2 nu} (1-|w|^2)^{2 nu} == f(tanh d(z, w))
        rng = np.random.default_rng(24)
        for nu, m in [(1.0, 0), (2.0, 1), (3.5, 2)]:
            lvl = HyperbolicLevel(nu, m)
            zs = random_disc_points(rng, 60)
            ws = random_disc_points(rng, 60)
            for z, w in zip(zs, ws):
                lhs = (abs(hyperbolic_kernel(lvl, z, w)) ** 2
                       * (1 - abs(z) ** 2) ** (2 * nu) * (1 - abs(w) ** 2) ** (2 * nu))
                rho = math.tanh(hyperbolic_distance(z, w))
                assert lhs == pytest.approx(f_profile(lvl, rho), rel=1e-10, abs=1e-300)

    def test_rejects_unit_radius(self):
        with pytest.raises(DomainError):
            f_profile(HyperbolicLevel(1.0, 0), 1.0)


class TestGaussianLimit:
    def test_jacobi_approaches_laguerre(self):
        # P_m^{(0, S^2 - 2m - 1)}(1 - 2 rho^2/S^2) -> L_m(rho^2); the error is
        # O(1/S^2) with an m- and rho-dependent constant, so the threshold at
        # S = 16 is 1e-2 for m <= 1 and the measured 4e-2 for m in {2, 3}
        # (scaled sup-norm over rho <= 2)
        rho = np.linspace(0.0, 2.0, 41)
        target = {m: special.eval_laguerre(m, rho ** 2) for m in range(4)}
        for m in range(4):
            scale = max(1.0, float(np.abs(target[m]).max()))
            errs = []
            for S in [4.0, 8.0, 16.0]:
                beta = S * S - 2 * m - 1
                vals = jacobi_zero_beta(m, beta, 1 - 2 * rho ** 2 / (S * S))
                errs.append(float(np.abs(vals - target[m]).max()) / scale)
            if m > 0:
                assert errs[0] > errs[1] > errs[2]
            threshold = 1e-2 if m <= 1 else 4e-2
            assert errs[-1] < threshold
