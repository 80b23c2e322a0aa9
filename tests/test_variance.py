import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from dppstats import (DomainError, EuclideanLevel, HyperbolicLevel,
                      QuadratureConfig, QuadratureFailure, TruncationFailure,
                      VarianceResult, asymptotic_constant, build_profile,
                      contraction_check, f_profile, quadrature, specfun, variance,
                      variance_euclidean_geometric,
                      variance_euclidean_shirai, variance_hyperbolic,
                      variance_hyperbolic_via_transformed)
from oracles import (_lens_direct, _lens_transformed, asymptotic_constant_cutoff,
                     disc_variance_quadrature_lens, ginibre_variance, kostlan_variance,
                     planar_sector_variance, tail_rule_golub_welsch, weight_tail_direct)

DISC_ROUTES = (variance_hyperbolic, variance_hyperbolic_via_transformed)

PLANAR_ROUTES = (variance_euclidean_shirai, variance_euclidean_geometric)

EPS = float(np.finfo(float).eps)


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

    def test_kostlan_sum_within_error_bars(self):
        # the error once left out the rounding of the quadrature sum; the
        # value missed Kostlan's sum by up to 2.4 error bars
        for r in np.linspace(0.05, 12.0, 60).tolist():
            ref = kostlan_variance(r)
            for route in PLANAR_ROUTES:
                res = route(EuclideanLevel(0), r)
                assert abs(res.value - ref) <= res.error_estimate

    @pytest.mark.parametrize("r", [0.1, 0.5])
    def test_exact_rest_rounding_within_error_bars(self, r):
        # at n = 188 one weight of the Gauss-Laguerre rule is subnormal and the exact
        # rest is good to only ~1e3 eps; the error once left that rounding out, and
        # the value missed the sector series by 357 (r = 0.1) and 83 (r = 0.5) bars
        ref = planar_sector_variance(188, r)
        res = variance_euclidean_shirai(EuclideanLevel(188), r)
        assert abs(res.value - ref) <= res.error_estimate

    def test_laguerre_products_stay_finite(self):
        # L_n is a product over its zeros; every partial product at every argument
        # the route forms (t up to the last cut plus the rule's last node) stays
        # finite and warns of nothing up to n = 188, where it peaks near 1e271
        for n in sorted({*range(1, 189, 6), 187, 188}):
            rule, _, _ = variance._laguerre_rule(n)
            t = np.linspace(0.0, variance._MAX_CUT + rule[0][-1], 2001)
            zeros, inv = specfun._laguerre_zeros(n)
            with np.errstate(all="raise"):
                partial = np.cumprod((zeros - t) * inv, axis=0)
            assert np.isfinite(partial).all()

    @pytest.mark.parametrize("n", [189, 194, 195, 400])
    def test_unresolvable_level_raises_before_overflow(self, n):
        # n = 189-194 fail the rule's norm check; from n = 195 its last weight is 0,
        # and the rule is refused before L_n at its nodes, which overflows at n = 400
        for route in PLANAR_ROUTES:
            with pytest.raises(TruncationFailure, match="Gauss-Laguerre rule"):
                route(EuclideanLevel(n), 1.0)

    @pytest.mark.parametrize("n", [195, 10_000])
    def test_large_level_refused_before_any_matrix(self, monkeypatch, n):
        # the refusal comes from n alone: a 10 001-point rule once asked for three
        # dense 10 001^2 matrices (763 MiB each) before its last weight was seen
        def forbidden(*args):
            raise AssertionError("a Gauss rule was built")

        monkeypatch.setattr(variance, "_gauss_rule", forbidden)
        monkeypatch.setattr(specfun, "_laguerre_zeros", forbidden)
        with pytest.raises(TruncationFailure, match="Gauss-Laguerre rule"):
            variance_euclidean_shirai(EuclideanLevel(n), 1.0)

    def test_ginibre_closed_form_to_rounding(self):
        # the value, not only its error bar: with scipy's Gauss-Legendre nodes the
        # median error was 2.2e-14, about n eps for the 128-node rule
        errors = [abs(variance_euclidean_shirai(EuclideanLevel(0), r).value
                      - ginibre_variance(r)) / ginibre_variance(r)
                  for r in np.linspace(0.05, 12.0, 120).tolist()]
        assert np.median(errors) <= 1e-15

    def test_unreachable_tolerance_raises(self):
        # the quadrature meets rel_tol 1e-14 here; its rounding bound does not
        quad = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300)
        for route in PLANAR_ROUTES:
            with pytest.raises(QuadratureFailure, match="planar variance"):
                route(EuclideanLevel(0), 0.5, quad)

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

    def test_peres_virag_to_rounding(self):
        # r^2 / (1 - r^4) with 1 - r exact, against the value itself; scipy's
        # Gauss-Legendre nodes left it up to 3.2e-14 off
        for r in np.linspace(0.02, 0.999, 200).tolist():
            exact = r * r / ((1.0 - r) * (1.0 + r) * (1.0 + r * r))
            value = variance_hyperbolic(HyperbolicLevel(1.0, 0), r).value
            assert abs(value - exact) <= 2e-15 * exact

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
        # the disc variance under every scheme label against the one with the
        # lens taken by quadrature
        level = HyperbolicLevel(1.6, 0)
        r = 0.7
        ref, _ = disc_variance_quadrature_lens(
            level, r, quad=QuadratureConfig(rel_tol=1e-9, abs_tol=1e-11))
        for scheme in ("gauss_legendre_fixed", "adaptive_gauss_kronrod", "tanh_sinh"):
            quad = QuadratureConfig(scheme=scheme, rel_tol=1e-9, abs_tol=1e-11)
            assert variance_hyperbolic(level, r, quad).value == pytest.approx(
                ref, rel=1e-8), scheme

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

    @pytest.mark.parametrize("nu, m, exact", [
        (1.0, 0, 1 / 2), (2.0, 0, 15 / 16), (2.0, 1, 11 / 16), (3.0, 1, 375 / 256),
        (3.5, 2, 669 / 512)])
    def test_dyadic_constants(self, nu, m, exact):
        # without the exact weight tail past the cutoff C came out 3.1e-12 short,
        # and with it the radial quadrature was up to 1.5e-14 relative off
        c = asymptotic_constant(HyperbolicLevel(nu, m))
        assert abs(c - exact) <= 8.0 * EPS * exact

    @settings(max_examples=40, deadline=None)
    @given(nu=st.floats(0.5, 50.0, exclude_min=True), m=st.integers(0, 4))
    def test_matches_radial_quadrature(self, nu, m):
        assume(m <= math.floor(nu - 0.5) and 2.0 * (nu - m) - 1.0 > 0.0)
        level = HyperbolicLevel(nu, m)
        assert asymptotic_constant(level) == pytest.approx(
            asymptotic_constant_cutoff(level), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("nu", [50.5, 50.5001, 60.0, 85.0])
    def test_prefactor_series_meets_gamma_ratio(self, nu):
        # beta on both sides of 100, where the prefactor leaves betaln for the
        # series; up to beta = 171 betaln is a ratio of gammas, good to a few eps
        level = HyperbolicLevel(nu, 0)
        exact = math.exp(-special.betaln(level.beta, 0.5))
        assert abs(asymptotic_constant(level) - exact) <= 8.0 * EPS * exact

    def test_makes_no_quadrature_call(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("asymptotic_constant called a quadrature")

        monkeypatch.setattr(quadrature, "_piece_sums", forbidden)
        monkeypatch.setattr(quadrature, "integrate_rows", forbidden)
        monkeypatch.setattr(variance, "integrate_interval", forbidden)
        assert asymptotic_constant(HyperbolicLevel(3.5, 2)) == pytest.approx(669 / 512)

    def test_unreachable_tolerance_raises(self):
        quad = QuadratureConfig(rel_tol=1e-30, abs_tol=1e-300)
        with pytest.raises(QuadratureFailure, match="rounding"):
            asymptotic_constant(HyperbolicLevel(1.0, 0), quad)

    @pytest.mark.parametrize("m, limit", [(2, 145 / 64), (3, 687 / 256)])
    @pytest.mark.parametrize("nu", [1e160, 1e300])
    def test_huge_beta_meets_its_limit(self, nu, m, limit):
        # C / sqrt(beta/pi) has reached its beta -> oo limit by nu = 1e150; past
        # 1e154 the products of two coefficients of the Jacobi recurrence would
        # pass DBL_MAX
        def scaled(nu):
            level = HyperbolicLevel(nu, m)
            return asymptotic_constant(level) / math.sqrt(level.beta / math.pi)

        reference = scaled(1e150)
        assert reference == pytest.approx(limit, abs=1e-12)
        assert scaled(nu) == pytest.approx(reference, abs=1e-12)

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

    @pytest.mark.parametrize("r", [1e-300, 1e-170, 1e-160])
    def test_variances_below_the_smallest_normal_raise(self, r):
        # at 1e-300 and 1e-170 the planar target is 0 and the ratio divided by
        # it; at 1e-160 it is subnormal and the R = 16 ratio read 1.0430
        with pytest.raises(QuadratureFailure, match="smallest normal"):
            contraction_check(0, r, [4.0, 8.0, 16.0])

    def test_tiny_normal_variances_keep_their_ratios(self):
        rows = contraction_check(0, 1e-100, [4.0, 8.0, 16.0])
        assert [row.ratio for row in rows] == [0.9375, 0.984375, 0.99609375000000011]

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

    @pytest.mark.parametrize("compute, alias, level, r", [
        (variance_hyperbolic, variance_hyperbolic_via_transformed, HyperbolicLevel(1.6, 1), 0.6),
        (variance_hyperbolic, variance_hyperbolic_via_transformed, HyperbolicLevel(60.0, 30), 0.3),
        (variance_euclidean_shirai, variance_euclidean_geometric, EuclideanLevel(188), 0.1)])
    def test_alias_relabels_the_one_computation(self, compute, alias, level, r):
        # the geometry's first route name labels its computation, the second the alias
        a, b = compute(level, r), alias(level, r)
        assert (a.route, b.route) in variance.ROUTES.values()
        assert (b.value, b.error_estimate) == (a.value, a.error_estimate)

    def test_fields_populated(self):
        res = variance_hyperbolic(HyperbolicLevel(1.0, 0), 0.5)
        assert res.value >= 0.0
        assert res.error_estimate >= 0.0


class TestLargeBeta:
    """The disc routes and C stay finite, or raise, far past beta ~ 511."""

    def test_asymptotic_constant_at_large_nu(self):
        level = HyperbolicLevel(300.0, 0)
        c = asymptotic_constant(level)
        assert math.isfinite(c) and 0.0 < c <= level.beta

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_contraction_reaches_scale_32(self, m):
        rows = contraction_check(m, 1.0, [32.0])
        assert rows[0].ratio == pytest.approx(1.0, abs=0.05)

    def test_asymptotic_constant_at_m0_matches_closed_form(self):
        # C = Gamma(beta + 1/2) / (sqrt(pi) Gamma(beta)) = 1 / B(beta, 1/2); under
        # filterwarnings = error a warning fails the test too
        for nu in (0.51, 3.0, 300.0, 1e8, 1e12, 1e100, 1e300):
            beta = 2.0 * nu - 1.0
            exact = math.exp(-special.betaln(beta, 0.5))
            c = asymptotic_constant(HyperbolicLevel(nu, 0))
            assert not math.isnan(c)
            assert c == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nu", [1e8, 1e10, 1e300])
    def test_large_nu_raises_or_scales_like_sqrt_beta(self, nu):
        # the weight lives in u <~ beta^{-1/2}, so V grows like sqrt(beta); at
        # 1e8 a quadrature that missed that peak returned 5316.89 +- 3e-7
        # (about 5319.2 is right), at 1e10 0 +- 0, at 1e300 an OverflowError
        ref_level = HyperbolicLevel(1e6, 0)
        ref = variance_hyperbolic(ref_level, 0.5).value
        level = HyperbolicLevel(nu, 0)
        try:
            value = variance_hyperbolic(level, 0.5).value
        except (DomainError, QuadratureFailure, TruncationFailure):
            return
        scaled = value * math.sqrt(ref_level.beta / level.beta)
        assert scaled == pytest.approx(ref, rel=1e-5)

    def test_contraction_rows_keep_their_values(self):
        # ratios of the quadrature-lens routes these rows replaced; at
        # (m, R) = (1, 4096) those routes raised QuadratureFailure
        before = {(0, 32.0): 1.0004015462723506, (0, 256.0): 1.000006271311938,
                  (0, 4096.0): 1.0000000255250563, (1, 32.0): 0.9986840908536424,
                  (1, 256.0): 0.9999794811732865, (2, 32.0): 0.9968306267218482,
                  (2, 256.0): 0.9999505645189135, (2, 4096.0): 0.9999998068833341}
        for m in (0, 1, 2):
            rows = contraction_check(m, 1.0, [32.0, 256.0, 4096.0])
            for row in rows:
                if (m, row.scale) in before:
                    assert row.ratio == pytest.approx(before[m, row.scale], rel=1e-8)
            # R^2 (ratio - 1) settles to a constant of the level
            slopes = [row.scale ** 2 * (row.ratio - 1.0) for row in rows[1:]]
            assert slopes[1] == pytest.approx(slopes[0], rel=1e-2)


class TestWeightEnvelope:
    def test_decision_matches_the_beta_function_form(self):
        # log max|P_m^(0, beta)| = log((beta + 1)_m / m!) as a sum of log1p against
        # scipy's betaln, on a grid that crosses the overflow threshold at every m
        def raises_by_betaln(level):
            log_pmax = (-special.betaln(level.beta + 1.0, level.m + 1.0)
                        - math.log(level.beta + level.m + 1.0))
            return 2.0 * (math.log(level.beta / math.pi) + log_pmax) > variance._LOG_HUGE

        decisions = set()
        for m in range(9):
            for nu in np.logspace(math.log10(m + 0.6), 300.0, 1500).tolist():
                level = HyperbolicLevel(nu, m)
                try:
                    variance._check_weight_envelope(level)
                    raised = False
                except QuadratureFailure:
                    raised = True
                assert raised == raises_by_betaln(level), (nu, m)
                decisions.add((m, raised))
        assert len(decisions) == 18


class TestRadialWeight:
    def test_matches_kernel_profile(self):
        for nu, m in [(1.0, 0), (2.0, 1), (3.5, 2)]:
            level = HyperbolicLevel(nu, m)
            u = np.linspace(0.05, 3.0, 25)      # the reference loses digits in 1 - rho^2
            rho = np.tanh(u)
            ref = [x / (1 - x * x) * f_profile(level, float(x)) for x in rho]
            np.testing.assert_allclose(variance._radial_weight(level, u), ref, rtol=1e-12)


class TestBatchedOuterIntegral:
    @settings(max_examples=25, deadline=None)
    @given(nu=st.floats(0.7, 8.0), m=st.integers(0, 2), r=st.floats(0.15, 0.999))
    def test_routes_agree_within_error_bars(self, nu, m, r):
        assume(2.0 * (nu - m) - 1.0 >= 0.45 and m <= math.floor(nu - 0.5))
        level = HyperbolicLevel(nu, m)
        a = variance_hyperbolic(level, r)
        b = variance_hyperbolic_via_transformed(level, r)
        # one computation under two names
        assert (a.value, a.error_estimate) == (b.value, b.error_estimate)

    @settings(max_examples=15, deadline=None)
    @given(r=st.floats(0.15, 0.999))
    def test_exact_ground_level_within_error_bars(self, r):
        ref = peres_virag(r)
        for route in DISC_ROUTES:
            res = route(HyperbolicLevel(1.0, 0), r)
            assert abs(res.value - ref) <= res.error_estimate + 1e-13 * ref


class TestDiscOracles:
    """The one disc computation against the series and the quadrature-lens oracle."""

    def test_one_quadrature_and_no_lens_quadrature(self, monkeypatch):
        # the lens is a closed form: a disc variance makes one interval
        # quadrature, and its integrand sees every piece's nodes at once
        calls, shapes = [], []
        real = variance.integrate_interval

        def counted(f, *args):
            calls.append(args)

            def g(x):
                shapes.append(np.shape(x))
                return f(x)
            return real(g, *args)

        monkeypatch.setattr(variance, "integrate_interval", counted)
        res = variance_hyperbolic(HyperbolicLevel(1.0, 0), 0.9)
        assert res.value == pytest.approx(peres_virag(0.9), rel=1e-12)
        assert len(calls) == 1 and 0 < len(shapes) <= 9

    @settings(max_examples=40, deadline=None)
    @given(nu=st.floats(0.5, 8.0, exclude_min=True), m=st.integers(0, 2),
           r=st.floats(1e-3, 0.999))
    def test_error_bounds_the_true_error(self, nu, m, r):
        # the small-beta tail past the old cutoff U (beta near 0) and small r
        # are inside this domain: both used to leave the error short
        assume(m <= math.floor(nu - 0.5) and 2.0 * (nu - m) - 1.0 > 0.0)
        level = HyperbolicLevel(nu, m)
        if m == 0:
            profile = build_profile(nu, r, 1e-20)
            p = profile.probabilities
            ref, ref_err = float(p.sum() - (p ** 2).sum()), profile.tail_bound
        else:
            ref, ref_err = disc_variance_quadrature_lens(level, r)
        for route in DISC_ROUTES:
            res = route(level, r)
            assert res.error_estimate <= QuadratureConfig().tolerance(res.value)
            assert abs(res.value - ref) <= res.error_estimate + ref_err

    @pytest.mark.parametrize("nu, m", [(2.0, 1), (3.5, 2), (1.51, 1)])
    @pytest.mark.parametrize("r", [0.02, 0.5, 0.99])
    def test_both_quadrature_lenses_agree(self, nu, m, r):
        level = HyperbolicLevel(nu, m)
        res = variance_hyperbolic(level, r)
        # the integration-by-parts lens cancels at small r, about 1e-13
        # relative at r = 0.02, and its error estimate leaves that out
        for lens in (_lens_direct, _lens_transformed) if r > 0.15 else (_lens_direct,):
            ref, ref_err = disc_variance_quadrature_lens(level, r, lens)
            assert abs(res.value - ref) <= res.error_estimate + ref_err

    @pytest.mark.parametrize("nu, m", [(1.0, 0), (0.51, 0), (2.0, 1), (1.51, 1), (3.5, 2),
                                       (40.0, 2)])
    @pytest.mark.parametrize("u0", [0.05, 0.5, 2.0])
    def test_weight_tail_matches_direct_integral(self, nu, m, u0):
        level = HyperbolicLevel(nu, m)
        log_tail, _ = variance._weight_tail(level, u0)
        # in s = sech^2 u, then s = x^(1/beta), which removes the s^(beta-1) endpoint
        beta = level.beta
        s0 = 1.0 / math.cosh(u0) ** 2
        x0 = s0 ** beta

        def integrand(x):
            s = x ** (1.0 / beta)
            return special.eval_jacobi(m, 0.0, beta, 2.0 * s - 1.0) ** 2

        body, _ = integrate.quad(integrand, 0.0, x0, epsabs=0.0, epsrel=1e-13, limit=200)
        ref = 0.5 * (beta / math.pi) ** 2 * body / beta
        assert math.exp(log_tail) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_weight_tail_stays_finite_at_large_beta(self, m):
        # the Gauss rule is formed in a beta-scaled variable; scipy's
        # roots_jacobi gave nan on the contraction rows at m = 2
        for nu in (1e3, 1e7, 1e12):
            log_tail, size = variance._weight_tail(HyperbolicLevel(nu, m), 1e-3)
            assert math.isfinite(log_tail) and size >= abs(log_tail)


class TestTailRule:
    """The Gauss rule for t^{beta - 1} (1 - t)^a in y = beta (1 - t), a in {0, -1/2}."""

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("beta", [0.6, 1.0, 2.5, 7.0, 40.0])
    def test_half_exponent_matches_roots_jacobi(self, m, beta):
        y, v = variance._tail_rule(m, beta, -0.5)
        # weight (1 - x)^{-1/2} (1 + x)^{beta - 1} on [-1, 1], with t = (1 + x)/2
        x, wx = special.roots_jacobi(m + 1, -0.5, beta - 1.0)
        np.testing.assert_allclose(y, (beta * (1.0 - x) / 2.0)[::-1], rtol=1e-13)
        np.testing.assert_allclose(v, (wx / wx.sum())[::-1], rtol=1e-13)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8, 20, 60])
    @pytest.mark.parametrize("beta", [0.02, 0.5, 1.0, 3.3, 1e3, 1e12, 2e300])
    def test_zero_exponent_matches_golub_welsch(self, m, beta):
        # the eigenvector weights of the dense solver were good to about eps
        # absolute only: 1.9e50 eps relative off at (m, beta) = (60, 1e3)
        y, w = variance._tail_rule(m, beta)
        y0, w0 = tail_rule_golub_welsch(m, beta)
        np.testing.assert_allclose(y, y0, rtol=32.0 * (m + 1) * EPS, atol=0.0)
        np.testing.assert_allclose(w, w0, rtol=32.0 * (m + 1) * EPS, atol=0.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 20, 60])
    @pytest.mark.parametrize("beta", [0.6, 1.0, 2.5, 40.0, 1e3, 1e12, 2e300])
    def test_half_exponent_matches_golub_welsch(self, m, beta):
        y, v = variance._tail_rule(m, beta, -0.5)
        y0, v0 = tail_rule_golub_welsch(m, beta, -0.5)
        np.testing.assert_allclose(y, y0, rtol=32.0 * (m + 1) * EPS, atol=0.0)
        np.testing.assert_allclose(v, v0, rtol=32.0 * (m + 1) * EPS, atol=0.0)

    @pytest.mark.parametrize("a", [0.0, -0.5])
    @pytest.mark.parametrize("beta", [1.0, 1e3, 2e300])
    @pytest.mark.parametrize("m", [200, 1000])
    def test_weights_sum_to_one_at_high_degree(self, a, beta, m):
        # the Christoffel sums are rescaled: nothing overflows, and a weight
        # below the doubles (at beta = 1e3 from m ~ 300) underflows to 0
        y, w = variance._tail_rule(m, beta, a)
        assert np.all(np.isfinite(y)) and np.all(np.diff(y) > 0.0)
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, rel=8.0 * EPS, abs=0.0)

    @pytest.mark.parametrize("a", [0.0, -0.5])
    @pytest.mark.parametrize("m", [0, 1, 3, 6])
    def test_finite_at_huge_beta(self, a, m):
        # every product of two entries overflows here; the entries are split
        y, w = variance._tail_rule(m, 2e300, a)
        assert np.all(np.isfinite(y)) and np.all(w > 0.0)
        assert w.sum() == pytest.approx(1.0, rel=8.0 * EPS, abs=0.0)


LARGE_DEGREE_LEVELS = [(60.0, 30), (60.0, 40), (100.0, 60)]


class TestLargeDegree:
    """Levels where the eigenvector weights of the tail rule, far below eps, were garbage."""

    @pytest.mark.parametrize("nu, m", LARGE_DEGREE_LEVELS)
    @pytest.mark.parametrize("u0", [0.05, 2.0 * math.atanh(0.3), 2.0])
    def test_weight_tail_matches_direct_quadrature(self, nu, m, u0):
        # the eigenvector weights left the tail at u0 = 2 atanh(0.3) 6.5e-5,
        # 5.7e-4 and 1.4e10 relative off
        level = HyperbolicLevel(nu, m)
        ref, ref_err = weight_tail_direct(level, u0)
        tail = math.exp(variance._weight_tail(level, u0)[0])
        assert abs(tail - ref) <= 1e-12 * ref + ref_err

    @pytest.mark.parametrize("nu, m", LARGE_DEGREE_LEVELS)
    def test_constant_within_its_rounding_bound(self, nu, m):
        # C came out 3.18e13 at (100, 60), past its bound beta = 79
        level = HyperbolicLevel(nu, m)
        ref = asymptotic_constant_cutoff(level, QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300))
        # a tolerance just above the rounding bound that C checks, 16 (m + 1)^2 eps
        quad = QuadratureConfig(rel_tol=17.0 * (m + 1) ** 2 * EPS, abs_tol=1e-300)
        c = asymptotic_constant(level, quad)
        assert c <= level.beta
        assert abs(c - ref) <= quad.tolerance(c) + 1e-13 * ref

    @pytest.mark.parametrize("nu, m", LARGE_DEGREE_LEVELS)
    @pytest.mark.parametrize("r", [0.3, 0.9])
    def test_disc_variance_within_error_bars(self, nu, m, r):
        level = HyperbolicLevel(nu, m)
        res = variance_hyperbolic(level, r)
        ref, ref_err = disc_variance_quadrature_lens(level, r, tail=weight_tail_direct)
        assert abs(res.value - ref) <= res.error_estimate + ref_err

    @pytest.mark.parametrize("nu, m", [(4097.6, 4097), (100001.0, 100000)])
    def test_degree_past_the_cap_refused_before_any_rule(self, monkeypatch, nu, m):
        # m = 100000 once asked for a dense 100 001^2 matrix (74.5 GiB) for C, and
        # the disc variance spent seconds on its integrand before refusing
        def forbidden(*args):
            raise AssertionError("a rule or the integrand was evaluated")

        for name in ("_gauss_rule", "_tail_rule", "_radial_weight", "integrate_interval"):
            monkeypatch.setattr(variance, name, forbidden)
        level = HyperbolicLevel(nu, m)
        with pytest.raises(TruncationFailure, match=f"m={m} exceeds 4096"):
            variance_hyperbolic(level, 0.3)
        with pytest.raises(TruncationFailure, match=f"m={m} exceeds 4096"):
            asymptotic_constant(level)

    def test_degree_at_the_cap_is_not_refused(self):
        variance._check_degree(HyperbolicLevel(4097.0, 4096))

    def test_constant_past_its_bound_raises(self, monkeypatch):
        # C <= beta is proven, so a sum past it is a failed rule, not a value
        monkeypatch.setattr(variance, "_tail_sum", lambda level, x, s: np.full(x.shape, 1e3))
        with pytest.raises(QuadratureFailure, match="bound"):
            asymptotic_constant(HyperbolicLevel(3.5, 2))
