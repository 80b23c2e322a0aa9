import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from dppstats import (BernoulliProfile, DomainError, HyperbolicLevel,
                      TruncationFailure, binomial_moment, binomial_moments,
                      build_profile, distribution, generating_function,
                      sample_counts, variance_hyperbolic, variance_series)
from dppstats import counting
from oracles import (incomplete_beta, incomplete_beta_ratio, profile_tail,
                     sequential_pmf, tail_sum_mismatch, uniform_histogram)

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

    def test_matches_scalar_ratio_loop_bit_for_bit(self):
        for nu, r in PROFILE_GRID:
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

    def test_each_index_is_evaluated_once(self, monkeypatch):
        requested = []
        betainc = special.betainc

        def recording(j, b, x):
            requested.append(np.array(j))
            return betainc(j, b, x)

        monkeypatch.setattr(special, "betainc", recording)
        profile = build_profile(1.0, 0.999)
        assert len(requested) > 1              # the build doubled its block
        indices = np.concatenate(requested)
        assert np.array_equal(indices, np.arange(1, indices.size + 1))
        assert indices.size >= profile.truncation

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
    return BernoulliProfile(nu=1.0, r=0.5, probabilities=np.asarray(probs, dtype=float),
                            tail_bound=0.0)


def assert_matches_sequential_pmf(profile):
    """Every oracle entry at or above the smallest normal double is within
    2 J eps relative, and the pmf spans {0, ..., J}."""
    pmf = distribution(profile).pmf
    ref = sequential_pmf(profile.probabilities)
    J = profile.truncation
    assert pmf.shape == (J + 1,)
    assert np.all(pmf >= 0.0)
    normal = ref >= TINY
    rel = np.abs(pmf[normal] - ref[normal]) / ref[normal]
    assert rel.max(initial=0.0) <= 2.0 * max(J, 1) * EPS


class TestDistribution:
    def test_point_mass_for_zero_profile(self):
        profile = BernoulliProfile(nu=1.0, r=0.1, probabilities=np.zeros(5),
                                   tail_bound=0.0)
        law = distribution(profile)
        assert law.pmf[0] == 1.0
        assert law.pmf[1:].sum() == 0.0
        assert law.mean == 0.0 and law.variance == 0.0
        assert np.array_equal(law.pmf, sequential_pmf(profile.probabilities))

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
                                  sequential_pmf(probs))

    def test_certain_factors_shift_the_law(self):
        # p_j == 1.0 exactly zeroes the low end, which the tree trims away
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

    @pytest.mark.parametrize("profile", [
        build_profile(1.5, 0.7),
        build_profile(6.0, 0.995),             # p_1 == 1.0: threshold 2^53
        manual_profile([0.5] * 7),             # threshold exactly 2^52
        manual_profile([0.0, 1.0, 2.0 ** -60, 0.5, 1.0 - EPS / 2]),
    ], ids=["J44", "certain_first", "halves", "edges"])
    @pytest.mark.parametrize("seed, n, chunk", [(0, 700, 20000), (12345, 700, 33),
                                                (2 ** 40 + 3, 257, 1)])
    def test_matches_uniform_comparison_oracle(self, profile, seed, n, chunk):
        expected = uniform_histogram(profile.probabilities, seed, n, chunk=64)
        assert np.array_equal(sample_counts(profile, seed, n, chunk=chunk), expected)

    def test_threshold_decides_boundary_words_as_the_uniform_would(self, monkeypatch):
        # raw words whose 53-bit uniform sits just below, at and just above
        # each p_j, with low bits that random() discards set at random
        probs = np.array([0.0, 2.0 ** -1074, 2.0 ** -60, 0.25 + 2.0 ** -54, 0.3,
                          0.5, 1.0 - EPS / 2, 1.0, build_profile(1.5, 0.7).probabilities[5]])
        near = np.ceil(np.ldexp(probs, 53)).astype(np.int64)
        k = np.clip(near + np.arange(-2, 3)[:, None], 0, 2 ** 53 - 1).astype(np.uint64)
        low = np.random.default_rng(1).integers(0, 2 ** 11, size=k.shape, dtype=np.uint64)
        words = (k << np.uint64(11)) | low

        class Replay:
            def __init__(self, seed_sequence):
                self.next = 0

            def random_raw(self, size):
                out = words.ravel()[self.next:self.next + size]
                self.next += size
                return out.copy()

        monkeypatch.setattr(np.random, "Philox", Replay)
        uniforms = (words >> np.uint64(11)).astype(float) * 2.0 ** -53
        expected = np.bincount((uniforms < probs).sum(axis=1), minlength=probs.size + 1)
        hist = sample_counts(manual_profile(probs), 0, words.shape[0], chunk=2)
        assert np.array_equal(hist, expected)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 63), n=st.integers(1, 600),
           chunk=st.integers(1, 700), oracle_chunk=st.integers(1, 700))
    def test_stream_matches_oracle_for_every_chunking(self, seed, n, chunk, oracle_chunk):
        profile = build_profile(1.0, 0.9)
        assert np.array_equal(
            sample_counts(profile, seed, n, chunk=chunk),
            uniform_histogram(profile.probabilities, seed, n, chunk=oracle_chunk))

    def test_requires_samples(self):
        profile = build_profile(1.0, 0.5)
        with pytest.raises(DomainError):
            sample_counts(profile, 0, 0)

    def test_rejects_negative_seed(self):
        # the Philox seed sequence used to raise a bare ValueError
        with pytest.raises(DomainError):
            sample_counts(build_profile(1.0, 0.5), -1, 5)
