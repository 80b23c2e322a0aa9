import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dppstats import (DomainError, EuclideanLevel, HyperbolicLevel,
                      QuadratureConfig, VarianceResult, asymptotic_constant,
                      contraction_check, f_profile, geometry, quadrature,
                      variance,
                      variance_euclidean_geometric,
                      variance_euclidean_shirai, variance_hyperbolic,
                      variance_hyperbolic_via_transformed)
from oracles import ginibre_variance, planar_sector_variance

PLANAR_ROUTES = (variance_euclidean_shirai, variance_euclidean_geometric)


def peres_virag(r):
    return r * r / (1 - r ** 4)


class TestEuclideanRoutes:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
    def test_route_agreement(self, n, r):
        level = EuclideanLevel(n)
        a = variance_euclidean_shirai(level, r)
        b = variance_euclidean_geometric(level, r)
        assert a.route == "shirai" and b.route == "geometric"
        # one computation under two labels, so the results are identical
        assert (a.value, a.error_estimate) == (b.value, b.error_estimate)

    def test_small_disc_vanishes(self):
        level = EuclideanLevel(0)
        vals = [variance_euclidean_shirai(level, r).value for r in [1e-3, 1e-2, 0.1]]
        assert vals[0] < vals[1] < vals[2]
        assert vals[0] < 1e-5

    def test_small_disc_poissonian(self):
        # for tiny discs the count is essentially Bernoulli with mean r^2
        r = 1e-3
        v = variance_euclidean_shirai(EuclideanLevel(0), r).value
        assert v == pytest.approx(r * r, rel=1e-3)

    def test_linear_growth(self):
        for n in [0, 1]:
            level = EuclideanLevel(n)
            v20 = variance_euclidean_shirai(level, 20.0).value
            v40 = variance_euclidean_shirai(level, 40.0).value
            assert abs(v20 / 20 - v40 / 40) / (v40 / 40) < 0.02

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            variance_euclidean_shirai(EuclideanLevel(0), 0.0)
        with pytest.raises(DomainError):
            variance_euclidean_geometric(EuclideanLevel(0), -1.0)

    @pytest.mark.parametrize("r", [math.inf, math.nan, 1e300])
    def test_rejects_non_finite_radius(self, r):
        # an infinite radius used to run for seconds and return nan, and
        # r = 1e300, whose square overflows, returned an error of nan
        for route in (variance_euclidean_shirai, variance_euclidean_geometric):
            with pytest.raises(DomainError):
                route(EuclideanLevel(1), r)

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(1e-3, 3e3))
    def test_ginibre_closed_form_within_error_bars(self, r):
        ref = ginibre_variance(r)
        for route in PLANAR_ROUTES:
            res = route(EuclideanLevel(0), r)
            assert abs(res.value - ref) <= res.error_estimate + 1e-13 * ref

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("r", [0.5, 2.0, 6.0])
    def test_sector_series_within_error_bars(self, n, r):
        ref = planar_sector_variance(n, r)
        for route in PLANAR_ROUTES:
            res = route(EuclideanLevel(n), r)
            assert abs(res.value - ref) <= res.error_estimate + 1e-13 * ref

    @pytest.mark.parametrize("n, r", [(12, 1.0), (30, 2.0), (50, 0.5)])
    def test_error_within_tolerance_at_high_level(self, n, r):
        # the fixed cutoff of the lens route gave errors of 2.1e16 at
        # (12, 1) and 3.1e96 at (30, 2); at (50, 0.5) its error was 1.2e203
        # and the Laguerre route's nan
        ref = planar_sector_variance(n, r)
        for route in PLANAR_ROUTES:
            res = route(EuclideanLevel(n), r)
            assert res.error_estimate <= QuadratureConfig().tolerance(res.value)
            assert abs(res.value - ref) <= res.error_estimate + 1e-13 * ref

    @pytest.mark.parametrize("n", [0, 3, 8])
    @pytest.mark.parametrize("r", [6.0, 30.0])
    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_error_within_tolerance_when_rest_is_bounded(self, n, r, ratio):
        # here 4 r^2 lies past the cut, so the rest bound joins the error
        # after the quadrature; with rel_tol V near abs_tol both tolerances
        # bind, and the sum must stay within the larger one
        level = EuclideanLevel(n)
        v = variance_euclidean_geometric(level, r).value
        quad = QuadratureConfig(rel_tol=ratio * 1e-6 / v, abs_tol=1e-6)
        for route in PLANAR_ROUTES:
            res = route(level, r, quad)
            assert res.error_estimate <= quad.tolerance(res.value)
            assert abs(res.value - v) <= res.error_estimate + 1e-13 * v

    def test_lens_route_at_large_radius(self):
        # the fixed cutoff used to return 1.2e-14 against 5 641.9 here
        res = variance_euclidean_geometric(EuclideanLevel(0), 1e4)
        ref = ginibre_variance(1e4)
        assert abs(res.value - ref) <= res.error_estimate + 1e-13 * ref
        assert res.error_estimate <= QuadratureConfig().tolerance(res.value)


class TestHyperbolicVariance:
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8, 0.95])
    def test_peres_virag_exact_law(self, r):
        res = variance_hyperbolic(HyperbolicLevel(1.0, 0), r)
        assert res.value == pytest.approx(peres_virag(r), rel=1e-5)

    def test_hand_value_at_half(self):
        res = variance_hyperbolic(HyperbolicLevel(1.0, 0), 0.5)
        assert res.value == pytest.approx(0.26666666666666666, rel=1e-5)

    def test_hand_value_at_nine_tenths(self):
        res = variance_hyperbolic(HyperbolicLevel(1.0, 0), 0.9)
        assert res.value == pytest.approx(0.81 / (1 - 0.6561), rel=1e-5)

    def test_vanishes_for_small_disc(self):
        vals = [variance_hyperbolic(HyperbolicLevel(2.0, 1), r).value
                for r in [1e-3, 1e-2, 0.1]]
        assert vals[0] < vals[1] < vals[2]
        assert vals[0] < 1e-4

    def test_monotone_in_radius(self):
        for nu, m in [(1.0, 0), (2.0, 1)]:
            level = HyperbolicLevel(nu, m)
            v = [variance_hyperbolic(level, r).value for r in (0.2, 0.4, 0.6)]
            assert v[0] < v[1] < v[2]

    def test_route_agreement_grid(self):
        # levels from the admissible grid, both lens routes
        for nu in [1.0, 1.6, 2.0, 3.5]:
            for m in range(int(math.floor(nu - 0.5)) + 1):
                if 2 * (nu - m) - 1 <= 0:
                    continue
                level = HyperbolicLevel(nu, m)
                for r in [0.3, 0.6, 0.9]:
                    a = variance_hyperbolic(level, r)
                    b = variance_hyperbolic_via_transformed(level, r)
                    assert a.route == "int1" and b.route == "int3"
                    tol = max(a.error_estimate + b.error_estimate,
                              1e-9 * max(1.0, a.value))
                    assert abs(a.value - b.value) <= tol
                    assert a.value == pytest.approx(b.value, rel=1e-6)

    def test_scheme_cross_check(self):
        level = HyperbolicLevel(1.6, 0)
        r = 0.7
        vals = {}
        for scheme in ("gauss_legendre_fixed", "adaptive_gauss_kronrod", "tanh_sinh"):
            quad = QuadratureConfig(scheme=scheme, rel_tol=1e-9, abs_tol=1e-11)
            vals[scheme] = variance_hyperbolic(level, r, quad).value
        base = vals["gauss_legendre_fixed"]
        for scheme, v in vals.items():
            assert v == pytest.approx(base, rel=1e-8), scheme

    def test_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            variance_hyperbolic(HyperbolicLevel(1.0, 0), 1.0)


class TestAsymptoticConstant:
    def test_ground_level_constant(self):
        assert asymptotic_constant(HyperbolicLevel(1.0, 0)) == pytest.approx(0.5, abs=1e-8)

    def test_bound_never_violated(self):
        for nu in [0.75, 1.0, 2.0, 3.5, 5.0]:
            for m in range(int(math.floor(nu - 0.5)) + 1):
                if 2 * (nu - m) - 1 <= 0:
                    continue
                level = HyperbolicLevel(nu, m)
                assert asymptotic_constant(level) <= level.beta

    def test_arccos_identity(self):
        # arccos(1 - 2 x^2) == pi - 2 arccos(x) on [0, 1]
        for x in np.linspace(0.0, 1.0, 33):
            assert math.acos(max(-1.0, 1 - 2 * x * x)) == pytest.approx(
                math.pi - 2 * math.acos(x), abs=1e-12)

    def test_asymptotic_law_ground_level(self):
        level = HyperbolicLevel(1.0, 0)
        c = asymptotic_constant(level)
        errs = [abs((1 - r * r) * variance_hyperbolic(level, r).value / c - 1)
                for r in (0.9, 0.99, 0.999)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 0.02

    def test_self_consistency_at_high_radius(self):
        level = HyperbolicLevel(2.0, 0)
        c = asymptotic_constant(level)
        v = variance_hyperbolic(level, 0.999).value
        assert (1 - 0.999 ** 2) * v == pytest.approx(c, rel=0.02)


class TestContraction:
    def test_ratio_approaches_one(self):
        rows = contraction_check(0, 1.0, [4.0, 8.0])
        errs = [abs(w.ratio - 1.0) for w in rows]
        assert errs[0] > errs[1]
        assert errs[-1] < 0.05
        assert rows[0].euclidean_target == rows[1].euclidean_target

    def test_small_radius_both_sides_vanish(self):
        rows = contraction_check(0, 0.05, [4.0])
        assert rows[0].euclidean_target < 3e-3
        assert rows[0].scaled_variance < 3e-3
        assert rows[0].ratio == pytest.approx(1.0, abs=0.1)

    def test_validation(self):
        with pytest.raises(DomainError):
            contraction_check(-1, 1.0, [4.0])
        with pytest.raises(DomainError):
            contraction_check(0, 1.0, [0.5])
        with pytest.raises(DomainError):
            contraction_check(0, 5.0, [4.0])   # r/R not inside (0, 1)
        with pytest.raises(DomainError):
            contraction_check(0, math.inf, [4.0])
        for scale in (math.inf, 1e300):          # nu = R^2/2 is not finite
            with pytest.raises(DomainError):
                contraction_check(0, 1.0, [scale])


class TestVarianceResult:
    def test_route_names_validated(self):
        with pytest.raises(ValueError):
            VarianceResult(1.0, 0.0, "bogus")

    def test_fields_populated(self):
        res = variance_hyperbolic(HyperbolicLevel(1.0, 0), 0.5)
        assert res.value >= 0.0
        assert res.error_estimate >= 0.0


class TestLargeBeta:
    """Radial cutoff and tail bound stay finite past beta ~ 511 (4^beta overflows)."""

    def test_asymptotic_constant_at_large_nu(self):
        level = HyperbolicLevel(300.0, 0)
        c = asymptotic_constant(level)
        assert math.isfinite(c) and 0.0 < c <= level.beta

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_contraction_reaches_scale_32(self, m):
        rows = contraction_check(m, 1.0, [32.0])
        assert rows[0].ratio == pytest.approx(1.0, abs=0.05)

    def test_cutoff_tail_is_finite(self):
        for nu in (300.0, 2000.0):
            level = HyperbolicLevel(nu, 0)
            U, tail = variance._radial_cutoff(level, 1e6, 1e-12)
            assert 4.0 <= U <= 30.0 and 0.0 <= tail < 1e-12


class TestRadialWeight:
    def test_matches_kernel_profile(self):
        for nu, m in [(1.0, 0), (2.0, 1), (3.5, 2)]:
            level = HyperbolicLevel(nu, m)
            u = np.linspace(0.05, 3.0, 25)      # the reference loses digits in 1 - rho^2
            rho = np.tanh(u)
            ref = [x / (1 - x * x) * f_profile(level, float(x)) for x in rho]
            np.testing.assert_allclose(variance._radial_weight(level, u), ref, rtol=1e-12)


class TestBatchedOuterIntegral:
    def test_lens_integrand_calls_do_not_scale_with_outer_nodes(self, monkeypatch):
        # int1 at (1, 0, 0.9): the lens integrand runs once per outer
        # evaluation and inner doubling, on every outer node at once, instead
        # of once per outer node
        calls = []
        real = geometry.integrate_rows

        def counted(f, a, b, config):
            def g(x, rows):
                calls.append(np.shape(x))
                return f(x, rows)
            return real(g, a, b, config)

        monkeypatch.setattr(geometry, "integrate_rows", counted)
        res = variance_hyperbolic(HyperbolicLevel(1.0, 0), 0.9)
        assert res.value == pytest.approx(peres_virag(0.9), rel=1e-9)
        assert 0 < len(calls) <= 64
        assert max(shape[0] for shape in calls) >= 64   # rows are outer nodes

    def test_node_block_cap_leaves_values_unchanged(self, monkeypatch):
        # int3 near r = 1 doubles deep: a small cap splits its rows into many
        # chunks without changing a bit of the result
        level = HyperbolicLevel(2.0, 1)
        sizes = []
        real = geometry.integrate_rows

        def counted(f, a, b, config):
            def g(x, rows):
                sizes.append(np.size(x))
                return f(x, rows)
            return real(g, a, b, config)

        monkeypatch.setattr(geometry, "integrate_rows", counted)
        ref = variance_hyperbolic_via_transformed(level, 0.999)
        assert max(sizes) > 4096
        sizes.clear()
        monkeypatch.setattr(quadrature, "_NODE_BLOCK", 4096)
        capped = variance_hyperbolic_via_transformed(level, 0.999)
        assert max(sizes) <= 4096
        assert (capped.value, capped.error_estimate) == (ref.value, ref.error_estimate)

    @settings(max_examples=25, deadline=None)
    @given(nu=st.floats(0.7, 8.0), m=st.integers(0, 2), r=st.floats(0.15, 0.999))
    def test_routes_agree_within_error_bars(self, nu, m, r):
        # beta >= 0.45 and r >= 0.15 stay clear of the small-beta tail (D3)
        # and of the small-r regime, whose estimates are known to run short
        assume(2.0 * (nu - m) - 1.0 >= 0.45 and m <= math.floor(nu - 0.5))
        level = HyperbolicLevel(nu, m)
        a = variance_hyperbolic(level, r)
        b = variance_hyperbolic_via_transformed(level, r)
        slack = 1e-13 * max(a.value, b.value)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + slack

    @settings(max_examples=15, deadline=None)
    @given(r=st.floats(0.15, 0.999))
    def test_exact_ground_level_within_error_bars(self, r):
        ref = peres_virag(r)
        for route in (variance_hyperbolic, variance_hyperbolic_via_transformed):
            res = route(HyperbolicLevel(1.0, 0), r)
            assert abs(res.value - ref) <= res.error_estimate + 1e-13 * ref
