import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from dppstats import (BernoulliProfile, DomainError, HyperbolicLevel,
                      TruncationFailure, binomial_moment, binomial_moments,
                      build_profile, distribution, generating_function,
                      sample_counts, sample_distribution, variance_hyperbolic,
                      variance_series)
from dppstats import counting
from oracles import (incomplete_beta, incomplete_beta_pair_mp, incomplete_beta_ratio,
                     inverse_cdf_histogram, negative_binomial_heads_mp, profile_tail,
                     sequential_pmf, tail_sum_mismatch)

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


def pmf_binomial_moment(law, k):
    ns = np.arange(len(law.pmf))
    return float((special.comb(ns, k) * law.pmf).sum())


def quadrature_form(nu, r, j):
    """p_j = (2 nu - 1) (2 nu)_{j-1} / (j-1)! * B_r(j, 2 nu - 1) by quadrature.

    The prefactor is 1 / B(j, 2 nu - 1).
    """
    b = 2.0 * nu - 1.0
    return math.exp(-special.betaln(j, b)) * incomplete_beta(r, j, b)


def scalar_profile(nu, r, epsilon=1e-12):
    """The documented truncation rule, one incomplete_beta_ratio call per term."""
    x, b = r * r, 2.0 * nu - 1.0
    probs = []
    while True:
        J = len(probs) + 1
        probs.append(incomplete_beta_ratio(r, J, b))
        q = x * max(1.0, (J + b) / (J + 1.0))
        if q < 1.0:
            bound = probs[-1] * q / (1.0 - q) * (1.0 + 1e-10)
            if bound < epsilon:
                return np.array(probs), bound


# from nu just above 1/2 to 6 and r from 1e-3 to 0.999
PROFILE_GRID = [(0.5001, 0.3), (1.5, 0.7), (2.0, 1e-3), (3.0, 0.9), (6.0, 0.6),
                (1.0, 0.99), (0.75, 0.995), (1.0, 0.999), (6.0, 0.995)]


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

    def test_ground_case_tail_bound_is_the_exact_tail(self):
        # at nu = 1 every ratio p_{j+1}/p_j is r^2, so the bound is sharp
        for r in [0.3, 0.5, 0.9]:
            profile = build_profile(1.0, r)
            exact = r ** (2 * profile.truncation + 2) / (1.0 - r * r)
            assert exact <= profile.tail_bound <= exact * (1.0 + 1e-9)

    def test_monotone_beyond_burn_in(self):
        profile = build_profile(3.0, 0.9)
        p = profile.probabilities
        assert np.all(np.diff(p) <= 0)

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

    def test_matches_scalar_betainc_loop(self):
        # the same J, and p_j and the bound within 2 (J + 64) eps of scipy's
        # betainc, which has rounding errors of its own
        for nu, r in PROFILE_GRID:
            probs, tail = scalar_profile(nu, r)
            profile = build_profile(nu, r)
            J = profile.truncation
            assert J == len(probs)
            rel = 2.0 * (J + 64) * EPS
            assert np.all(np.abs(profile.probabilities - probs) <= rel * probs)
            assert abs(profile.tail_bound - tail) <= rel * tail

    @pytest.mark.parametrize("nu, r", PROFILE_GRID + [(1.0, 0.9999), (300.0, 0.65)])
    def test_pairs_match_forty_digits(self, nu, r):
        # p_j and q_j within (J + 64) eps of mpmath at both ends, on both sides
        # of the index where the smaller sum changes sides, and in the middle.
        # Without compensation the sum of log t_k misses: summed plainly it is
        # 1 736 eps off at (1, 0.99), where J + 64 = 1 633, and summed from 0 in
        # blocks of 256, whose partial sums reach 330 at (300, 0.65), 1 745 eps
        # off there, where J + 64 = 724
        profile = build_profile(nu, r)
        p, q = profile.probabilities, profile.complements
        J = profile.truncation
        split = int(np.count_nonzero(q < p))
        rel = (J + 64) * EPS
        for j in sorted({1, 2, split, split + 1, (split + J) // 2, J - 1, J} & set(range(1, J + 1))):
            p_mp, q_mp = incomplete_beta_pair_mp(j, 2.0 * nu - 1.0, r * r)
            assert abs(p[j - 1] - p_mp) <= rel * p_mp
            assert abs(q[j - 1] - q_mp) <= rel * q_mp

    def test_reaches_unit_radius_at_largest_nu(self):
        # the quadrature form used to disagree by 1e-10 relative here
        profile = build_profile(6.0, 0.999)
        assert profile.truncation > 20000
        assert profile.tail_bound < 1e-12
        assert profile.probabilities[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nu, r", PROFILE_GRID + [
        (nu, r) for nu in (0.75, 1.0, 1.5, 3.0) for r in (0.3, 0.7, 0.95)])
    def test_matches_tail_sum_oracle(self, nu, r):
        profile = build_profile(nu, r)
        assert tail_sum_mismatch(profile.probabilities, 2.0 * nu - 1.0, r * r) is None

    @settings(max_examples=40, deadline=None)
    @given(nu=st.floats(0.5001, 50.0), r=st.floats(0.01, 0.999))
    def test_tail_bound_dominates_next_terms(self, nu, r):
        # the whole tail past J, summed through the oracle
        profile = build_profile(nu, r)
        assert profile.tail_bound <= 1e-12
        tail = profile_tail(2.0 * nu - 1.0, r * r, profile.truncation)
        assert tail <= profile.tail_bound

    @pytest.mark.parametrize("nu, r, J", [(6.0, 0.6, 47), (50.0, 0.5, 94),
                                          (300.0, 0.9, 3504)])
    def test_large_nu_stops_on_a_normal_term(self, nu, r, J):
        # at large nu the ratio p_{j+1}/p_j stays near r^2 (j + 2 nu - 1)/(j + 1)
        # well past r^2: an envelope below it stops late, on rounding noise
        profile = build_profile(nu, r)
        assert profile.truncation == J
        assert profile.probabilities[-1] >= np.finfo(float).tiny
        assert profile.tail_bound <= 1e-12
        assert profile_tail(2.0 * nu - 1.0, r * r, J) <= profile.tail_bound

    def test_subnormal_threshold_raises(self):
        # stopping needs p_J < epsilon (1 - q_J)/q_J = 3e-310, a subnormal
        with pytest.raises(TruncationFailure, match="smallest normal"):
            build_profile(1.0, 0.5, epsilon=1e-310)

    def test_subnormal_first_term_is_returned(self):
        # p_1 = 3e-320 is subnormal, but the threshold it is held to is not
        profile = build_profile(2.0, 1e-160)
        assert profile.truncation == 1
        assert 0.0 < profile.probabilities[0] < np.finfo(float).tiny

    def test_terms_are_extended_not_restarted(self, monkeypatch):
        # the first estimate of the terms needed falls short here
        calls, log_terms = [], counting._log_terms

        def recording(last, start, stop, log_x, c):
            calls.append((start, stop))
            return log_terms(last, start, stop, log_x, c)

        monkeypatch.setattr(counting, "_log_terms", recording)
        profile = build_profile(20.0, 0.99, epsilon=1e-20)
        assert len(calls) > 1
        assert calls[0][0] == 0
        assert all(prev[1] == nxt[0] for prev, nxt in zip(calls, calls[1:]))
        assert calls[-1][1] > profile.truncation

    @pytest.mark.parametrize("nu", [5e5, 1e308])
    def test_law_past_the_cap_raises_before_summing(self, nu, monkeypatch):
        # rho_j >= 1 for every j up to the cap; at nu = 1e308, 2 nu - 1 is inf
        monkeypatch.setattr(counting, "_log_terms", None)
        with pytest.raises(TruncationFailure, match="not reached"):
            build_profile(nu, 0.5)

    def test_radius_whose_square_underflows(self):
        profile = build_profile(2.0, 1e-170)
        assert np.array_equal(profile.probabilities, [0.0])
        assert np.array_equal(profile.complements, [1.0])
        assert profile.tail_bound == 0.0

    def test_truncation_beyond_one_hundred_thousand(self):
        # J = 180 732 at (1, 0.9999); Var = r^2 / (1 - r^4) at nu = 1
        r = 0.9999
        profile = build_profile(1.0, r)
        J = profile.truncation
        assert 100000 < J <= 2 ** 18
        law = distribution(profile)
        ns = np.arange(J + 1)
        assert abs(float(law.pmf.sum()) - 1.0) <= J * EPS
        mean = float(ns @ law.pmf)
        var = float(((ns - mean) ** 2) @ law.pmf)
        exact = r * r / (1.0 - r ** 4)
        slack = profile.tail_bound + J * EPS * exact
        assert abs(var - exact) <= slack
        assert abs(law.variance - exact) <= slack

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

    @pytest.mark.parametrize("s", [-1.0 + 2.0 ** -30, -1.0 + 1e-6, -0.999])
    def test_near_minus_one_matches_fifty_digits(self, s):
        # log1p(s p_j) cancels as s -> -1 where p_j -> 1: 2.3e-9 off at s = -1 + 2^-30
        profile = build_profile(6.0, 0.9)
        J = profile.truncation
        with mpmath.workdps(50):
            exact = mpmath.fprod(q + (1 + mpmath.mpf(s)) * (1 - q)
                                 for q in negative_binomial_heads_mp(11.0, 0.81, J))
        assert abs(generating_function(profile, s) - exact) <= 4 * (J + 1) * EPS * exact

    def test_domain(self):
        profile = build_profile(1.0, 0.5)
        with pytest.raises(DomainError):
            generating_function(profile, 1.0)
        with pytest.raises(DomainError):
            generating_function(profile, -1.0)

    def test_overflow_raises_truncation_failure(self):
        # sum log1p(0.9 p_j) is about 1733 here; math.exp raised OverflowError
        profile = build_profile(3.0, 0.999)
        with pytest.raises(TruncationFailure, match="overflows"):
            generating_function(profile, 0.9)
        assert 1.0 < generating_function(profile, 0.1) < math.inf


def manual_profile(probs):
    probs = np.asarray(probs, dtype=float)
    return BernoulliProfile(nu=1.0, r=0.5, probabilities=probs, complements=1.0 - probs,
                            tail_bound=0.0)


def assert_matches_sequential_pmf(profile):
    """Every oracle entry at or above the smallest normal double is within
    2 J eps relative, and the pmf spans {0, ..., J}."""
    pmf = distribution(profile).pmf
    ref = sequential_pmf(profile.complements, profile.probabilities)
    J = profile.truncation
    assert pmf.shape == (J + 1,)
    assert np.all(pmf >= 0.0)
    normal = ref >= TINY
    rel = np.abs(pmf[normal] - ref[normal]) / ref[normal]
    assert rel.max(initial=0.0) <= 2.0 * max(J, 1) * EPS


class TestDistribution:
    def test_point_mass_for_zero_profile(self):
        profile = manual_profile(np.zeros(5))
        law = distribution(profile)
        assert law.pmf[0] == 1.0
        assert law.pmf[1:].sum() == 0.0
        assert law.mean == 0.0 and law.variance == 0.0
        assert np.array_equal(law.pmf, sequential_pmf(profile.complements,
                                                      profile.probabilities))

    def test_zero_profile_beyond_one_block(self):
        law = distribution(manual_profile(np.zeros(1000)))
        assert law.pmf.shape == (1001,)
        assert law.pmf[0] == 1.0 and law.pmf[1:].sum() == 0.0

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_single_factor(self, p):
        assert np.array_equal(distribution(manual_profile([p])).pmf, [1.0 - p, p])

    def test_one_block_is_the_sequential_recurrence_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for J in (2, 17, 32):
            probs = rng.random(J)
            assert np.array_equal(distribution(manual_profile(probs)).pmf,
                                  sequential_pmf(1.0 - probs, probs))

    def test_certain_factors_shift_the_law(self):
        # p_1 rounds to 1.0 while q_1 = e^-50.68: the low end underflows, and
        # the tree trims it away
        profile = build_profile(6.0, 0.995)
        assert profile.probabilities[0] == 1.0
        law = distribution(profile)
        assert np.all(law.pmf[:np.count_nonzero(profile.probabilities == 1.0)] == 0.0)
        assert_matches_sequential_pmf(profile)

    @pytest.mark.parametrize("nu, r", [(1.0, 0.5), (1.5, 0.7), (3.0, 0.9),
                                       (1.0, 0.99), (0.75, 0.995), (1.0, 0.999)])
    def test_matches_sequential_oracle(self, nu, r):
        assert_matches_sequential_pmf(build_profile(nu, r))

    def test_matches_sequential_oracle_on_mixed_factors(self):
        # factors of every size, shuffled, with exact zeros and ones among them
        rng = np.random.default_rng(9)
        probs = np.concatenate([rng.random(700), rng.random(300) ** 40,
                                np.zeros(20), np.ones(20)])
        assert_matches_sequential_pmf(manual_profile(rng.permutation(probs)))

    @settings(max_examples=25, deadline=None)
    @given(nu=st.floats(0.5001, 6.0), r=st.floats(0.01, 0.999))
    def test_matches_sequential_oracle_across_the_domain(self, nu, r):
        profile = build_profile(nu, r)
        assume(profile.truncation <= 20000)
        assert_matches_sequential_pmf(profile)

    def test_empty_law_is_the_product_of_complements(self):
        # 1 - p_j formed from a rounded p_j left pmf[0] 3.4e-9 relative off here
        profile = build_profile(6.0, 0.9)
        J = profile.truncation
        assert J == 254
        with mpmath.workdps(50):
            exact = mpmath.fprod(negative_binomial_heads_mp(11.0, 0.81, J))
        pmf0 = distribution(profile).pmf[0]
        assert abs(pmf0 - exact) <= 4 * (J + 1) * EPS * exact

    def test_log_complements_match_fifty_digits(self):
        # the sum of log1p(-p_j) is 1.6e-8 off here, for 1 - p_1 = 3.1e-9
        profile = build_profile(3.0, 0.99)
        J = profile.truncation
        with mpmath.workdps(50):
            exact = mpmath.fsum(mpmath.log(q) for q in negative_binomial_heads_mp(5.0, 0.9801, J))
        assert abs(float(np.log(profile.complements).sum()) - exact) <= (J + 1) * EPS

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
        assert binomial_moment(profile, 9) == pytest.approx(
            pmf_binomial_moment(distribution(profile), 9), rel=1e-9)
        with pytest.raises(DomainError):
            binomial_moment(profile, 0)

    def test_no_cancellation_against_exact_sum(self):
        # Newton's identities were 1.2e-4 relative off at order 4 here
        profile = build_profile(0.51, 0.1)
        e = [Fraction(1)] + [Fraction(0)] * 4
        for p in profile.probabilities.tolist():
            for order in range(4, 0, -1):
                e[order] += Fraction(p) * e[order - 1]
        moments = binomial_moments(profile, 4)
        for k in range(1, 5):
            assert binomial_moment(profile, k) == pytest.approx(float(e[k]), rel=5e-15)
            assert moments[k - 1] == pytest.approx(float(e[k]), rel=5e-15)

    def test_moments_array_ends_in_the_single_moment(self):
        profile = build_profile(1.5, 0.7)
        for k in (1, 3, 6):
            moments = binomial_moments(profile, k)
            assert moments.shape == (k,)
            assert moments[-1] == binomial_moment(profile, k)

    def test_moments_array_is_zero_past_truncation(self):
        profile = manual_profile([0.5, 0.25])
        assert np.array_equal(binomial_moments(profile, 4), [0.75, 0.125, 0.0, 0.0])
        with pytest.raises(DomainError):
            binomial_moments(profile, 0)

    def test_order_beyond_truncation_is_zero(self):
        profile = build_profile(1.0, 0.5)
        assert binomial_moment(profile, profile.truncation + 1) == 0.0


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


SAMPLER_PROFILES = [
    build_profile(1.5, 0.7),
    build_profile(6.0, 0.995),                 # p_1 == 1.0: pmf_0 == 0, so F_0 == 0
    manual_profile([0.5] * 7),                 # dyadic F_k, thresholds exact
    manual_profile([0.0, 1.0, 2.0 ** -60, 0.5, 1.0 - EPS / 2]),
]
SAMPLER_PROFILE_IDS = ["J44", "certain_first", "halves", "edges"]


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
        monkeypatch.setattr(counting, "_SAMPLE_BLOCK_WORDS", 97)
        h2 = sample_counts(profile, 11, 3000)
        assert np.array_equal(h1, h2)

    def test_different_seeds_differ(self):
        profile = build_profile(1.5, 0.7)
        assert not np.array_equal(sample_counts(profile, 0, 5000),
                                  sample_counts(profile, 1, 5000))

    def test_zero_profile_all_zero_draws(self):
        hist = sample_counts(manual_profile(np.zeros(4)), 0, 500)
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

    @pytest.mark.parametrize("profile", SAMPLER_PROFILES, ids=SAMPLER_PROFILE_IDS)
    @pytest.mark.parametrize("seed, n, chunk", [(0, 700, 20000), (12345, 700, 33),
                                                (2 ** 40 + 3, 257, 1)])
    def test_matches_uniform_comparison_oracle(self, profile, seed, n, chunk):
        expected = inverse_cdf_histogram(distribution(profile).pmf, seed, n, chunk=64)
        assert np.array_equal(sample_counts(profile, seed, n, chunk=chunk), expected)

    def test_threshold_decides_boundary_words_as_the_uniform_would(self, monkeypatch):
        # raw words whose 53-bit uniform sits just below, at and just above
        # each ceil(F_k 2^53), with low bits that random() discards set at random
        profiles = [manual_profile([0.0, 2.0 ** -1074, 2.0 ** -60, 0.25 + 2.0 ** -54, 0.3,
                                    0.5, 1.0 - EPS / 2, 1.0,
                                    build_profile(1.5, 0.7).probabilities[5]]),
                    manual_profile([0.5] * 7)]
        for profile in profiles:
            pmf = distribution(profile).pmf
            cdf = np.cumsum(pmf[:-1]) / pmf.sum()
            near = np.ceil(np.ldexp(cdf, 53)).astype(np.int64)
            k = np.clip(near + np.arange(-2, 3)[:, None], 0, 2 ** 53 - 1).astype(np.uint64)
            low = np.random.default_rng(1).integers(0, 2 ** 11, size=k.size, dtype=np.uint64)
            words = (k.ravel() << np.uint64(11)) | low

            class Replay:
                def __init__(self, seed_sequence):
                    self.next = 0

                def random_raw(self, size):
                    out = words[self.next:self.next + size]
                    self.next += size
                    return out.copy()

            monkeypatch.setattr(np.random, "Philox", Replay)
            uniforms = (words >> np.uint64(11)).astype(float) * 2.0 ** -53
            counts = cdf.size - np.count_nonzero(uniforms[:, None] < cdf, axis=1)
            expected = np.bincount(counts, minlength=pmf.size)
            hist = sample_counts(profile, 0, words.size, chunk=2)
            assert np.array_equal(hist, expected)

    @pytest.mark.parametrize("profile", SAMPLER_PROFILES + [build_profile(1.0, 0.999)],
                             ids=SAMPLER_PROFILE_IDS + ["J16914"])
    def test_thresholds_follow_the_bernoulli_law(self, profile):
        # the sampled CDF t_k 2^-53 against the sequential product of the J factors
        J = profile.truncation
        ref = np.cumsum(sequential_pmf(profile.complements, profile.probabilities))[:-1]
        implied = np.ldexp(counting._cdf_thresholds(distribution(profile).pmf).astype(float), -53)
        assert np.abs(implied - ref).max() <= (J + 2) * EPS

    @pytest.mark.parametrize("nu, r", [(1.5, 0.7), (1.0, 0.999)])
    def test_one_word_per_draw(self, nu, r, monkeypatch):
        # draw i is word i: the O(n J) stream of one word per factor must not return
        profile = build_profile(nu, r)
        n = 3001
        expected = sample_counts(profile, 3, n, chunk=1000)
        philox, sizes = np.random.Philox, []

        class Counted:
            def __init__(self, seed_sequence):
                self.bits = philox(seed_sequence)

            def random_raw(self, size):
                sizes.append(size)
                return self.bits.random_raw(size)

        monkeypatch.setattr(np.random, "Philox", Counted)
        assert np.array_equal(sample_counts(profile, 3, n, chunk=1000), expected)
        assert sum(sizes) == n and max(sizes) == 1000

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 63), n=st.integers(1, 600),
           chunk=st.integers(1, 700), oracle_chunk=st.integers(1, 700))
    def test_stream_matches_oracle_for_every_chunking(self, seed, n, chunk, oracle_chunk):
        profile = build_profile(1.0, 0.9)
        assert np.array_equal(
            sample_counts(profile, seed, n, chunk=chunk),
            inverse_cdf_histogram(distribution(profile).pmf, seed, n, chunk=oracle_chunk))

    @pytest.mark.parametrize("profile", SAMPLER_PROFILES, ids=SAMPLER_PROFILE_IDS)
    def test_built_law_gives_the_same_stream(self, profile):
        law = distribution(profile)
        for seed, n, chunk in [(0, 700, 20000), (12345, 700, 33)]:
            assert np.array_equal(sample_distribution(law, seed, n, chunk),
                                  sample_counts(profile, seed, n, chunk))
        with pytest.raises(DomainError):
            sample_distribution(law, 0, 0)
        with pytest.raises(DomainError):
            sample_distribution(law, -1, 5)

    def test_requires_samples(self):
        profile = build_profile(1.0, 0.5)
        with pytest.raises(DomainError):
            sample_counts(profile, 0, 0)

    def test_rejects_negative_seed(self):
        # the Philox seed sequence used to raise a bare ValueError
        with pytest.raises(DomainError):
            sample_counts(build_profile(1.0, 0.5), -1, 5)
