import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from dppstats import (BernoulliProfile, DomainError, HyperbolicLevel,
                      TruncationFailure, binomial_moment, build_profile,
                      distribution, generating_function, log_pochhammer,
                      sample_counts, variance_hyperbolic, variance_series)
from dppstats import counting
from oracles import incomplete_beta, incomplete_beta_ratio


def pmf_binomial_moment(law, k):
    ns = np.arange(len(law.pmf))
    return float((special.comb(ns, k) * law.pmf).sum())


def quadrature_form(nu, r, j):
    """p_j = (2 nu - 1) (2 nu)_{j-1} / (j-1)! * B_r(j, 2 nu - 1) by quadrature."""
    b = 2.0 * nu - 1.0
    log_prefactor = math.log(b) + log_pochhammer(2.0 * nu, j - 1) - math.lgamma(j)
    return math.exp(log_prefactor) * incomplete_beta(r, j, b)


def scalar_profile(nu, r, epsilon=1e-12):
    """The documented truncation rule, one incomplete_beta_ratio call per term."""
    q = min(r * r + 0.01, 0.5 + 0.5 * r * r)
    p_stop = epsilon * (1.0 - q) / q
    probs = []
    while True:
        probs.append(incomplete_beta_ratio(r, len(probs) + 1, 2.0 * nu - 1.0))
        if len(probs) >= 8 and probs[-1] < p_stop and probs[-1] <= probs[-2] * q:
            return np.array(probs), probs[-1] * q / (1.0 - q)


class TestBuildProfile:
    def test_ground_case_probabilities_are_powers(self):
        # at nu = 1 the law collapses to p_j = r^{2j}
        profile = build_profile(1.0, 0.5)
        expected = 0.25 ** np.arange(1, profile.truncation + 1)
        np.testing.assert_allclose(profile.probabilities, expected, rtol=1e-12)

    def test_first_probability_hand_value(self):
        # B_r(1, 2) = r^2 - r^4/2 and B_1(1, 2) = 1/2
        profile = build_profile(1.5, 0.7)
        assert profile.probabilities[0] == pytest.approx(0.7399, abs=1e-10)

    def test_probabilities_vanish_for_small_radius(self):
        profile = build_profile(2.0, 1e-3)
        assert profile.probabilities[0] < 1e-5
        assert profile.probabilities.sum() < 1e-4

    def test_tail_bound_below_epsilon(self):
        for nu, r in [(1.0, 0.5), (1.5, 0.7), (3.0, 0.9)]:
            profile = build_profile(nu, r, epsilon=1e-12)
            assert profile.tail_bound < 1e-12

    def test_monotone_beyond_burn_in(self):
        profile = build_profile(3.0, 0.9)
        p = profile.probabilities
        assert np.all(np.diff(p[7:]) <= 0)

    def test_probability_forms_agree(self):
        for nu in [0.75, 1.0, 1.5, 3.0]:
            for r in [0.3, 0.7, 0.95]:
                # a small epsilon keeps j = 20 inside the profile at r = 0.3
                profile = build_profile(nu, r, epsilon=1e-30)
                assert profile.truncation >= 20
                for j in [1, 2, 5, 20]:
                    ratio = profile.probabilities[j - 1]
                    if ratio > 1e-300:
                        assert quadrature_form(nu, r, j) == pytest.approx(ratio, rel=1e-10)

    def test_probability_tends_to_one_near_unit_radius(self):
        ratio = build_profile(1.0, 0.999).probabilities[0]
        assert ratio > 0.99
        assert quadrature_form(1.0, 0.999, 1) == pytest.approx(ratio, rel=1e-10)

    def test_matches_scalar_ratio_loop_bit_for_bit(self):
        for nu, r in [(0.5001, 0.3), (1.5, 0.7), (2.0, 1e-3), (3.0, 0.9),
                      (6.0, 0.6), (1.0, 0.99), (0.75, 0.995)]:
            probs, tail = scalar_profile(nu, r)
            profile = build_profile(nu, r)
            assert profile.truncation == len(probs)
            assert np.array_equal(profile.probabilities, probs)
            assert profile.tail_bound == tail

    def test_reaches_unit_radius_at_largest_nu(self):
        # the quadrature form used to disagree by 1e-10 relative here
        profile = build_profile(6.0, 0.999)
        assert profile.truncation > 20000
        assert profile.tail_bound < 1e-12
        assert profile.probabilities[0] == pytest.approx(1.0, abs=1e-12)

    def test_form_disagreement_raises(self, monkeypatch):
        tail_sum_form = counting._tail_sum_form
        monkeypatch.setattr(counting, "_tail_sum_form",
                            lambda b, x, n: tail_sum_form(b, x, n) * (1.0 + 1e-9))
        with pytest.raises(TruncationFailure, match="forms disagree"):
            build_profile(1.5, 0.7)

    @settings(max_examples=40, deadline=None)
    @given(nu=st.floats(0.5001, 6.0), r=st.floats(0.01, 0.999))
    def test_tail_bound_dominates_next_terms(self, nu, r):
        profile = build_profile(nu, r)
        J = profile.truncation
        beyond = special.betainc(np.arange(J + 1, J + 2001), 2.0 * nu - 1.0, r * r)
        assert beyond.sum() <= profile.tail_bound

    def test_truncation_failure(self, monkeypatch):
        monkeypatch.setattr(counting, "_HARD_CAP", 5)
        with pytest.raises(TruncationFailure):
            build_profile(1.0, 0.9, epsilon=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            build_profile(0.5, 0.5)
        with pytest.raises(DomainError):
            build_profile(1.0, 1.0)
        with pytest.raises(DomainError):
            build_profile(1.0, 0.5, epsilon=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_parameters(self, bad):
        # nu = inf used to search 100000 terms and end in TruncationFailure
        with pytest.raises(DomainError):
            build_profile(bad, 0.5)
        with pytest.raises(DomainError):
            build_profile(1.0, 0.5, epsilon=bad)


class TestGeneratingFunction:
    def test_at_zero(self):
        profile = build_profile(1.5, 0.7)
        assert generating_function(profile, 0.0) == 1.0

    def test_derivative_at_zero_is_mean(self):
        profile = build_profile(1.5, 0.7)
        h = 1e-6
        deriv = (generating_function(profile, h) - generating_function(profile, -h)) / (2 * h)
        assert deriv == pytest.approx(float(profile.probabilities.sum()), abs=1e-6)

    def test_duality_with_pmf(self):
        for nu, r in [(1.0, 0.5), (1.5, 0.7), (3.0, 0.9)]:
            profile = build_profile(nu, r)
            law = distribution(profile)
            ns = np.arange(len(law.pmf))
            for s in (-0.5, 0.25, 0.9):
                lhs = generating_function(profile, s)
                rhs = float((law.pmf * (1 + s) ** ns).sum())
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_domain(self):
        profile = build_profile(1.0, 0.5)
        with pytest.raises(DomainError):
            generating_function(profile, 1.0)
        with pytest.raises(DomainError):
            generating_function(profile, -1.0)


class TestDistribution:
    def test_point_mass_for_zero_profile(self):
        profile = BernoulliProfile(nu=1.0, r=0.1, probabilities=np.zeros(5),
                                   tail_bound=0.0)
        law = distribution(profile)
        assert law.pmf[0] == 1.0
        assert law.pmf[1:].sum() == 0.0
        assert law.mean == 0.0 and law.variance == 0.0

    def test_pmf_sums_to_one(self):
        for nu, r in [(1.0, 0.5), (1.5, 0.7), (3.0, 0.9)]:
            law = distribution(build_profile(nu, r))
            assert abs(float(law.pmf.sum()) - 1.0) < 1e-12

    def test_ground_level_variance(self):
        law = distribution(build_profile(1.0, 0.5))
        assert law.variance == pytest.approx(4.0 / 15.0, abs=1e-11)

    def test_moment_fields_match_pmf(self):
        law = distribution(build_profile(1.5, 0.7))
        ns = np.arange(len(law.pmf))
        pmf_mean = float((ns * law.pmf).sum())
        pmf_var = float(((ns - pmf_mean) ** 2 * law.pmf).sum())
        assert law.mean == pytest.approx(pmf_mean, abs=1e-10)
        assert law.variance == pytest.approx(pmf_var, abs=1e-10)


class TestBinomialMoments:
    def test_first_moment_is_mean(self):
        profile = build_profile(1.5, 0.7)
        assert binomial_moment(profile, 1) == pytest.approx(
            float(profile.probabilities.sum()), rel=1e-13)

    def test_second_moment_closed_form(self):
        profile = build_profile(1.5, 0.7)
        s1 = float(profile.probabilities.sum())
        s2 = float((profile.probabilities ** 2).sum())
        assert binomial_moment(profile, 2) == pytest.approx((s1 * s1 - s2) / 2, rel=1e-13)

    def test_cycle_formula_against_pmf(self):
        for nu, r in [(1.0, 0.5), (1.5, 0.7), (3.0, 0.9)]:
            profile = build_profile(nu, r)
            law = distribution(profile)
            for k in range(1, 6):
                assert binomial_moment(profile, k) == pytest.approx(
                    pmf_binomial_moment(law, k), abs=1e-9, rel=1e-9)

    def test_third_moment_specific(self):
        profile = build_profile(1.5, 0.6)
        law = distribution(profile)
        assert binomial_moment(profile, 3) == pytest.approx(
            pmf_binomial_moment(law, 3), abs=1e-10)

    def test_cap(self):
        profile = build_profile(1.0, 0.5)
        with pytest.raises(DomainError):
            binomial_moment(profile, 9)
        with pytest.raises(DomainError):
            binomial_moment(profile, 0)


class TestVarianceSeries:
    def test_ground_level_closed_form(self):
        for r in [0.2, 0.5, 0.8]:
            assert variance_series(1.0, r) == pytest.approx(
                r * r / (1 - r ** 4), rel=1e-10)

    def test_matches_quadrature_route(self):
        val = variance_series(2.0, 0.8)
        ref = variance_hyperbolic(HyperbolicLevel(2.0, 0), 0.8).value
        assert val == pytest.approx(ref, rel=1e-5)

    def test_vanishes_at_small_radius(self):
        assert variance_series(1.7, 1e-3) < 1e-5


class TestSampling:
    def test_deterministic_given_seed(self):
        profile = build_profile(1.5, 0.7)
        h1 = sample_counts(profile, 1234, 20000)
        h2 = sample_counts(profile, 1234, 20000)
        assert np.array_equal(h1, h2)

    def test_chunk_size_does_not_change_stream(self):
        profile = build_profile(1.5, 0.7)
        h1 = sample_counts(profile, 7, 30000, chunk=30000)
        h2 = sample_counts(profile, 7, 30000, chunk=777)
        assert np.array_equal(h1, h2)

    def test_block_cap_does_not_change_stream(self, monkeypatch):
        profile = build_profile(1.0, 0.99)
        h1 = sample_counts(profile, 11, 3000)
        monkeypatch.setattr(counting, "_SAMPLE_BLOCK_UNIFORMS", 5 * profile.truncation)
        h2 = sample_counts(profile, 11, 3000)
        assert np.array_equal(h1, h2)

    def test_different_seeds_differ(self):
        profile = build_profile(1.5, 0.7)
        assert not np.array_equal(sample_counts(profile, 0, 5000),
                                  sample_counts(profile, 1, 5000))

    def test_zero_profile_all_zero_draws(self):
        profile = BernoulliProfile(nu=1.0, r=0.1, probabilities=np.zeros(4),
                                   tail_bound=0.0)
        hist = sample_counts(profile, 0, 500)
        assert hist[0] == 500 and hist[1:].sum() == 0

    def test_moments_within_statistical_bands(self):
        profile = build_profile(1.5, 0.7)
        n = 20000
        hist = sample_counts(profile, 5, n)
        ks = np.arange(len(hist))
        mean = float((ks * hist).sum()) / n
        var = float((((ks - mean) ** 2) * hist).sum()) / n
        mu = float(profile.probabilities.sum())
        sigma_sq = float((profile.probabilities * (1 - profile.probabilities)).sum())
        assert abs(mean - mu) < 4 * math.sqrt(sigma_sq / n)
        assert var == pytest.approx(sigma_sq, rel=0.08)

    def test_requires_samples(self):
        profile = build_profile(1.0, 0.5)
        with pytest.raises(DomainError):
            sample_counts(profile, 0, 0)

    def test_rejects_negative_seed(self):
        # the Philox seed sequence used to raise a bare ValueError
        with pytest.raises(DomainError):
            sample_counts(build_profile(1.0, 0.5), -1, 5)
