import functools
import math

import numpy as np
import pytest
from scipy import special

from dppstats import DomainError, jacobi_zero_beta, laguerre
from dppstats.specfun import _laguerre_product, _laguerre_zeros
from oracles import (incomplete_beta, incomplete_beta_ratio, laguerre_zeros_mp,
                     scaled_laguerre_mp)


def simpson(f, a, b, n=200001):
    """Brute-force Simpson oracle (n odd)."""
    xs = np.linspace(a, b, n)
    ys = f(xs)
    h = (b - a) / (n - 1)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(0, 7.3) == 1.0

    def test_degree_one(self):
        assert laguerre(1, 2.0) == -1.0

    def test_degree_two_hand_value(self):
        # 1 - 2x + x^2/2 at x = 1
        assert laguerre(2, 1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_recurrence_consistency(self):
        rng = np.random.default_rng(7)
        for n in range(1, 21):
            for x in rng.uniform(-50.0, 50.0, size=8):
                lhs = (n + 1) * laguerre(n + 1, x)
                rhs = (2 * n + 1 - x) * laguerre(n, x) - n * laguerre(n - 1, x)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_against_scipy(self):
        for n in range(0, 12):
            for x in [0.0, 0.3, 1.0, 4.5, 17.0, 49.0]:
                assert laguerre(n, x) == pytest.approx(
                    float(special.eval_laguerre(n, x)), rel=1e-10, abs=1e-10)

    def test_vectorized(self):
        xs = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(laguerre(1, xs), 1.0 - xs)

    def test_rejects_negative_degree(self):
        with pytest.raises(DomainError):
            laguerre(-1, 0.0)


@functools.cache
def scaled_laguerre_reference(n):
    """A t-grid on (0, 4n + 60], past the largest zero, and e^{-t/2} L_n(t) there
    at 60 digits."""
    t = np.linspace(0.0, 4.0 * n + 60.0, 241)[1:]
    return t, scaled_laguerre_mp(n, t)


class TestLaguerreProduct:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 30, 100, 188])
    def test_zeros_correctly_rounded(self, n):
        # Newton's method polishes the eigenvalues until every step is below half
        # an ulp; the eigenvalues alone are up to 845 ulps off at n = 188, and one
        # Newton step on the recurrence in plain doubles leaves them 2140 ulps off
        zeros, inv = _laguerre_zeros(n)
        assert zeros.shape == inv.shape == (n, 1)
        assert np.all(np.diff(zeros[:, 0]) > 0.0)
        for x, ref in zip(zeros[:, 0].tolist(), laguerre_zeros_mp(n, zeros[:, 0])):
            assert abs(x - ref) <= np.spacing(x)

    @pytest.mark.parametrize("n, bound", [(1, 4e-15), (2, 4e-15), (3, 4e-15), (10, 4e-15),
                                          (30, 4e-15), (100, 1e-14), (188, 1e-14)])
    def test_product_against_60_digits(self, n, bound):
        # with the eigenvalues as zeros e^{-t/2} L_n(t) was 1.5e-14 off at n = 30 and
        # 2.2e-13 off at n = 188, relative to its largest value on the grid
        t, ref = scaled_laguerre_reference(n)
        value = np.exp(-0.5 * t) * _laguerre_product(n, t)
        assert np.abs(value - ref).max() <= bound * np.abs(ref).max()

    def test_product_shapes_and_level_zero(self):
        t = np.linspace(0.0, 9.0, 12).reshape(3, 4)
        assert _laguerre_product(3, t).shape == (3, 4)
        np.testing.assert_array_equal(_laguerre_product(0, t), np.ones((3, 4)))
        np.testing.assert_allclose(_laguerre_product(1, t), 1.0 - t, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 30])
    def test_recurrence_against_60_digits(self, n):
        # the public laguerre stays the forward three-term recurrence
        t, ref = scaled_laguerre_reference(n)
        value = np.exp(-0.5 * t) * laguerre(n, t)
        assert np.abs(value - ref).max() <= 4e-15 * np.abs(ref).max()


class TestJacobiZeroBeta:
    def test_degree_zero_is_one(self):
        assert jacobi_zero_beta(0, 3.0, -0.4) == 1.0

    def test_unit_argument_is_one(self):
        for m in range(0, 21):
            for beta in [0.5, 1.0, 7.0, 100.0]:
                assert jacobi_zero_beta(m, beta, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_degree_one_hand_value(self):
        # P_1^{(0, beta)}(x) = 1 + (beta + 2)(x - 1)/2
        assert jacobi_zero_beta(1, 2.0, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_against_scipy(self):
        for m in range(0, 9):
            for beta in [0.5, 2.0, 7.0, 255.0, 1021.0]:
                for x in [-1.0, -0.3, 0.2, 0.99, 1.0]:
                    ref = float(special.eval_jacobi(m, 0.0, beta, x))
                    assert jacobi_zero_beta(m, beta, x) == pytest.approx(
                        ref, rel=1e-9, abs=1e-9 * max(1.0, abs(ref)))

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            jacobi_zero_beta(2, -1.0, 0.0)
        with pytest.raises(DomainError):
            jacobi_zero_beta(-2, 1.0, 0.0)


class TestIncompleteBeta:
    def test_full_range_unit_parameters(self):
        assert incomplete_beta(1.0, 1, 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_closed_form_b_one(self):
        # antiderivative s^j / j
        for r in [0.2, 0.5, 0.9, 1.0]:
            for j in [1, 2, 5]:
                assert incomplete_beta(r, j, 1.0) == pytest.approx(
                    r ** (2 * j) / j, rel=1e-12, abs=1e-14)

    def test_simpson_oracle(self):
        val = incomplete_beta(0.5, 2, 3.0)
        oracle = simpson(lambda s: s * (1 - s) ** 2, 0.0, 0.25)
        assert val == pytest.approx(oracle, abs=1e-10)
        # same value by the hand antiderivative s^2/2 - 2 s^3/3 + s^4/4
        assert val == pytest.approx(0.25 ** 2 / 2 - 2 * 0.25 ** 3 / 3 + 0.25 ** 4 / 4,
                                    abs=1e-13)

    def test_monotone_in_radius(self):
        vals = [incomplete_beta(r, 3, 2.5) for r in np.linspace(0.0, 1.0, 21)]
        assert vals[0] == 0.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_complete_value_log_gamma_oracle(self):
        for j in [1, 2, 7]:
            for b in [0.5, 1.0, 3.25]:
                oracle = math.exp(math.lgamma(j) + math.lgamma(b) - math.lgamma(j + b))
                assert incomplete_beta(1.0, j, b) == pytest.approx(oracle, rel=1e-10)

    def test_singular_endpoint_small_b(self):
        # b < 1 and r ~ 1 exercises the s = 1 - u^2 substitution
        val = incomplete_beta(1.0, 2, 0.5)
        oracle = math.exp(math.lgamma(2) + math.lgamma(0.5) - math.lgamma(2.5))
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_ratio_form_matches_quadrature(self):
        for r in [0.3, 0.7, 0.95]:
            for j in [1, 4, 20]:
                for b in [0.5, 2.0, 5.0]:
                    full = incomplete_beta(1.0, j, b)
                    assert incomplete_beta_ratio(r, j, b) == pytest.approx(
                        incomplete_beta(r, j, b) / full, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            incomplete_beta(1.5, 1, 1.0)
        with pytest.raises(DomainError):
            incomplete_beta(0.5, 0, 1.0)
        with pytest.raises(DomainError):
            incomplete_beta(0.5, 1, 0.0)
