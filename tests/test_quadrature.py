import dataclasses
import math

import numpy as np
import pytest
from scipy import special

from dppstats import QuadratureConfig, QuadratureFailure
from dppstats import quadrature
from dppstats.quadrature import SCHEMES, integrate_interval, integrate_rows


def scalar_gauss_legendre_doubling(f, a, b, abs_tol, rel_tol, n0, n_max):
    """Reference: node-doubling Gauss-Legendre on one interval, one call per order.

    Returns (value, error_estimate, converged); the estimate is the
    difference between the last two refinements.
    """
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    x, w = special.roots_legendre(n0)
    prev = half * float(np.dot(w, f(mid + half * x)))
    n = 2 * n0
    err = math.inf
    while n <= n_max:
        x, w = special.roots_legendre(n)
        cur = half * float(np.dot(w, f(mid + half * x)))
        err = abs(cur - prev)
        if err <= max(abs_tol, rel_tol * abs(cur)):
            return cur, err, True
        prev = cur
        n *= 2
    return prev, err, False


class TestConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.scheme in SCHEMES
        assert cfg.rel_tol == 1e-9 and cfg.abs_tol == 1e-12
        assert [f.name for f in dataclasses.fields(cfg)] == ["scheme", "rel_tol", "abs_tol"]

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(scheme="simpson")
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                QuadratureConfig(rel_tol=bad)
            with pytest.raises(ValueError):
                QuadratureConfig(abs_tol=bad)

    def test_tolerance_combination(self):
        cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)
        assert cfg.tolerance(0.0) == 1e-10
        assert cfg.tolerance(1.0) == 1e-6

    def test_immutability(self):
        cfg = QuadratureConfig()
        with pytest.raises(AttributeError):
            cfg.rel_tol = 1.0


class TestIntegrateInterval:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_polynomial(self, scheme):
        cfg = QuadratureConfig(scheme=scheme, rel_tol=1e-11, abs_tol=1e-13)
        val, err = integrate_interval(lambda x: x * x, 0.0, 1.0, cfg)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert err >= 0.0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sine_with_breakpoint(self, scheme):
        cfg = QuadratureConfig(scheme=scheme, rel_tol=1e-11, abs_tol=1e-13)
        val, _ = integrate_interval(np.sin, 0.0, math.pi, cfg, breakpoints=(1.0,))
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_kinked_integrand_with_breakpoint(self):
        cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)
        val, _ = integrate_interval(lambda x: np.abs(x - 0.5), 0.0, 1.0, cfg,
                                    breakpoints=(0.5,))
        assert val == pytest.approx(0.25, rel=1e-12)

    def test_empty_interval(self):
        assert integrate_interval(np.sin, 1.0, 1.0, QuadratureConfig()) == (0.0, 0.0)

    def test_strict_failure_raises(self, small_budget):
        # integrable endpoint-interior singularity defeats plain Gauss-Legendre
        small_budget(8, 64)
        cfg = QuadratureConfig(scheme="gauss_legendre_fixed",
                               rel_tol=1e-13, abs_tol=1e-15)
        with pytest.raises(QuadratureFailure):
            integrate_interval(lambda x: 1.0 / np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, cfg)

    def test_failing_prefix_raises_although_the_total_meets_its_tolerance(self, small_budget):
        # the first piece runs out of nodes with an error far above its own
        # tolerance but below that of the large total; the prefix decides
        small_budget(8, 64)
        cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-15)

        def f(x):
            return np.where(x < 1.0, 1e-3 / np.sqrt(np.abs(x - 0.3)), 1e3)

        val, err, ok = integrate_rows(lambda x, rows: f(x), np.array([0.0, 1.0]),
                                      np.array([1.0, 2.0]), cfg)
        assert not ok[0] and ok[1]
        assert cfg.tolerance(val[0]) < err[0] and err.sum() < cfg.tolerance(val.sum())
        with pytest.raises(QuadratureFailure, match=r"exceeds tolerance .* on \[0.0, 2.0\]"):
            integrate_interval(f, 0.0, 2.0, cfg, breakpoints=(1.0,))

    def test_pieces_share_one_call_per_doubling_level(self):
        # three pieces of sqrt(x + 0.01): the first, nearest the branch point,
        # refines longest; each level is one call holding every active piece
        calls = []

        def f(x):
            calls.append(np.shape(x))
            return np.sqrt(x + 0.01)

        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
        val, _ = integrate_interval(f, 0.0, 3.0, cfg, breakpoints=(2.0, 1.0, 5.0))
        assert val == pytest.approx(2.0 / 3.0 * (3.01 ** 1.5 - 0.01 ** 1.5), rel=1e-12)
        assert calls == [(3, 32), (3, 64), (1, 128)]


class TestIntegrateRows:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rows_match_one_interval_calls(self, scheme):
        cfg = QuadratureConfig(scheme=scheme, rel_tol=1e-11, abs_tol=1e-13)
        freq = np.array([1.0, 2.0, 5.0, 9.0])
        hi = np.array([0.5, 1.0, 2.0, 3.0])
        val, err, ok = integrate_rows(lambda x, k: np.sin(freq[k] * x), 0.0, hi, cfg)
        assert ok.all() and (err >= 0.0).all()
        for k in range(freq.size):
            ref, _ = integrate_interval(lambda x: np.sin(freq[k] * x), 0.0, hi[k], cfg)
            assert val[k] == pytest.approx(ref, rel=1e-10)
            assert val[k] == pytest.approx((1 - math.cos(freq[k] * hi[k])) / freq[k],
                                           rel=1e-10)

    def test_gauss_legendre_rows_follow_the_scalar_doubling(self, small_budget):
        # same nodes, same acceptance test: value, error and flag per row agree
        # with the one-interval reference to rounding
        small_budget(32, 256)
        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
        shift = np.array([1e-4, 0.3, 1.0])
        val, err, ok = integrate_rows(lambda x, k: 1.0 / (x + shift[k]), 0.0,
                                     np.ones(shift.size), cfg)
        for k in range(shift.size):
            v, e, c = scalar_gauss_legendre_doubling(
                lambda x: 1.0 / (x + shift[k]), 0.0, 1.0, cfg.abs_tol, cfg.rel_tol,
                quadrature._GL_FIRST_NODES, quadrature._GL_MAX_NODES)
            assert val[k] == pytest.approx(v, rel=1e-14)
            assert err[k] == pytest.approx(e, rel=1e-6, abs=1e-15)
            assert ok[k] == c
        assert not ok[0] and ok[2]                 # the nearly singular row runs out

    def test_converged_row_leaves_the_active_set(self):
        # row 0 (a cubic) converges at the first comparison, 32 against 64
        # nodes; row 1 keeps doubling and must not drag row 0 along
        seen = []

        def f(x, rows):
            seen.append((x.shape[1], rows.ravel().tolist()))
            return np.where(rows == 0, x ** 3, np.sqrt(x + 1e-3))

        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
        val, _, ok = integrate_rows(f, 0.0, np.ones(2), cfg)
        assert ok[0] and val[0] == pytest.approx(0.25, rel=1e-14)
        assert {n for n, rows in seen if 0 in rows} == {32, 64}
        assert max(n for n, rows in seen if 1 in rows) > 64
        assert all(rows == [1] for n, rows in seen if n > 64)

    def test_empty_rows_are_zero_and_never_evaluated(self):
        seen = []

        def f(x, rows):
            seen.extend(np.ravel(rows).tolist())
            return np.ones_like(x)

        val, err, ok = integrate_rows(f, np.array([0.0, 1.0, 2.0]),
                                      np.array([0.0, 2.0, 2.0]), QuadratureConfig())
        assert val.tolist() == [0.0, 1.0, 0.0] and err[0] == err[2] == 0.0
        assert ok.all() and set(seen) == {1}

    def test_node_block_caps_every_call(self, monkeypatch):
        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
        scale = np.linspace(0.5, 8.0, 40)

        def run():
            sizes = []

            def f(x, rows):
                sizes.append(x.size)
                return np.exp(-scale[rows] * x * x)

            return integrate_rows(f, 0.0, np.full(scale.size, 3.0), cfg), sizes

        (val, err, ok), sizes = run()
        assert max(sizes) > 512
        monkeypatch.setattr(quadrature, "_NODE_BLOCK", 512)
        (val_c, err_c, ok_c), sizes_c = run()
        assert max(sizes_c) <= 512 and len(sizes_c) > len(sizes)
        np.testing.assert_array_equal(val_c, val)
        np.testing.assert_array_equal(err_c, err)
        np.testing.assert_array_equal(ok_c, ok)

    def test_acceptance_test_matches_max_form(self):
        for err, value in [(1e-12, 0.0), (2e-12, 1e-3), (1e-9, 1.0), (1.1e-9, 1.0),
                           (math.nan, 1.0), (1e-13, math.nan)]:
            expected = err <= max(1e-12, 1e-9 * abs(value))
            assert bool(quadrature._within_tol(err, value, 1e-12, 1e-9)) == expected
            assert quadrature._within_tol(np.array([err]), np.array([value]),
                                          1e-12, 1e-9)[0] == expected
