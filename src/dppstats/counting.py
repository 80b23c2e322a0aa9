"""Exact law of the particle count for the lowest disc level (m = 0).

For the weighted Bergman case the count N_r in the centred disc of radius r
is distributed as a sum of independent Bernoulli variables whose success
probabilities are ratios of incomplete to complete beta integrals,

    p_j = (2 nu - 1) (2 nu)_{j-1} / (j-1)! * B_r(j, 2 nu - 1)
        = B_r(j, 2 nu - 1) / B_1(j, 2 nu - 1),        j = 1, 2, ...

This module builds truncated probability profiles with certified geometric
tail bounds, evaluates the probability generating product, the exact
Poisson-binomial pmf, binomial moments by a prefix-sum recurrence, the
variance series, and a reproducible Monte Carlo sampler.

A profile is evaluated in vectorised calls of the regularized incomplete
beta function, p_j = I_{r^2}(j, 2 nu - 1), over blocks of indices that
double until the truncation rule stops.  The rule is a proof: p_j is the
tail sum_{k >= j} t_k of a negative-binomial law whose terms have the ratio
t_{k+1}/t_k = x (k + b)/(k + 1), with x = r^2 and b = 2 nu - 1, so every
later ratio p_{j+1}/p_j is at most q_J = x max(1, (J + b)/(J + 1)) and the
tail past J is at most p_J q_J / (1 - q_J).  Each block evaluates only the
indices it adds.  A profile build takes milliseconds even at
r = 0.999 for every nu up to 6, where J ~ 3e4, and J may reach 2^18.

The pmf is a product tree.  The J factors (1 - p_j + p_j z) are cut into
blocks of L = max(32, isqrt(2J)), or one block when J < 32; one recurrence
over L steps expands all blocks at once, and neighbouring block polynomials
are then multiplied pairwise by direct convolution, their exact zeros at
both ends trimmed.
Every term is a product and sum of non-negative numbers, so each pmf entry
that is a normal double keeps a relative error of order J eps; no FFT is
used, whose absolute error of eps times the largest entry would swamp the
small entries.  The sampler inverts the CDF of that pmf: draw i takes raw
word i of a Philox stream, in blocks of at most min(chunk, 2^18) words, and
its top 53 bits are located among the integer thresholds ceil(F_k 2^53) of
the pmf's CDF F, which decides every draw exactly as the uniform u < F_k of
``Generator.random`` would.  The sampled law is within a few J eps of the
Bernoulli model's in Kolmogorov distance.  The sampler also takes a law
already built (:func:`sample_distribution`), so a caller that reports the
pmf builds it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, TruncationFailure

__all__ = [
    "BernoulliProfile",
    "CountDistribution",
    "build_profile",
    "generating_function",
    "distribution",
    "binomial_moment",
    "binomial_moments",
    "variance_series",
    "sample_counts",
]

# relative rounding allowed for in p_J q_J / (1 - q_J); see build_profile
_ROUNDING_MARGIN = 1.0 + 1e-10
_LOG_MAX = math.log(np.finfo(float).max)   # math.exp overflows past it
_FIRST_BLOCK = 64
# the largest truncation build_profile may reach
_HARD_CAP = 2 ** 18
_TINY = np.finfo(float).tiny
# the least number of Bernoulli factors in one block of distribution()
_PMF_BLOCK = 32
# sample_counts draws at most this many raw words (8 bytes each) per block
_SAMPLE_BLOCK_WORDS = 2 ** 18


@dataclass(frozen=True, eq=False)
class BernoulliProfile:
    """Truncated success probabilities p_1..p_J with a tail bound.

    ``tail_bound`` dominates sum_{j > J} p_j: it is p_J q_J / (1 - q_J),
    inflated by 1e-10 relative for rounding, with q_J the proven bound on
    every later ratio p_{j+1}/p_j (see :func:`build_profile`).
    ``probabilities`` is index-aligned so that probabilities[j - 1] == p_j.
    Treat instances as immutable.
    """

    nu: float
    r: float
    probabilities: np.ndarray
    tail_bound: float

    @property
    def truncation(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True, eq=False)
class CountDistribution:
    """Poisson-binomial law of the count over {0, ..., J}.

    ``mean`` and ``variance`` are the series values sum p_j and
    sum p_j (1 - p_j); they agree with the pmf moments up to truncation.
    """

    pmf: np.ndarray
    mean: float
    variance: float


def build_profile(nu: float, r: float, epsilon: float = 1e-12) -> BernoulliProfile:
    """Build the truncated Bernoulli profile for parameters (nu, r).

    Truncates at the first index J with q_J < 1 whose tail bound

        p_J q_J / (1 - q_J) * (1 + 1e-10),   q_J = r^2 max(1, (J + b)/(J + 1)),

    is below epsilon, with b = 2 nu - 1, and returns that bound as
    ``tail_bound``.  For j >= J every ratio p_{j+1}/p_j is at most q_J
    (see the module docstring), so sum_{j > J} p_j <= p_J q_J / (1 - q_J);
    the factor 1 + 1e-10 covers the rounding of p_J and q_J.

    p_1..p_n come from vectorised regularized incomplete beta calls, with
    n = 64 doubled (up to ``_HARD_CAP`` = 2^18 = 262144) until the rule
    above stops; each call evaluates only the indices the doubling adds.

    Raises :class:`TruncationFailure` if ``_HARD_CAP`` indices do not
    suffice, or if the rule would stop on a subnormal p_J: when the
    threshold epsilon (1 - q_J)/q_J is below the smallest normal double, p_J
    carries too few significant bits to bound the tail relative to it.
    """
    if not 0.5 < nu < math.inf:
        raise DomainError(f"nu must be finite and exceed 1/2, got {nu}")
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    if not 0.0 < epsilon < math.inf:
        raise DomainError(f"epsilon must be finite and positive, got {epsilon}")
    import scipy.special as special   # its betainc; the disc variance runs without scipy
    x = r * r
    b = 2.0 * nu - 1.0
    blocks, start, n = [], 0, min(_FIRST_BLOCK, _HARD_CAP)
    while True:
        j = np.arange(start + 1, n + 1)
        probs = special.betainc(j, b, x)
        blocks.append(probs)
        q = x * np.maximum(1.0, (j + b) / (j + 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            bounds = probs * q / (1.0 - q) * _ROUNDING_MARGIN
        stops = np.flatnonzero((q < 1.0) & (bounds < epsilon))
        if stops.size:
            i = int(stops[0])
            break
        if n >= _HARD_CAP:
            raise TruncationFailure(
                f"tail bound {epsilon} not reached within {_HARD_CAP} terms "
                f"(nu={nu}, r={r})")
        start, n = n, min(2 * n, _HARD_CAP)
    if epsilon * (1.0 - q[i]) < _TINY * q[i]:
        raise TruncationFailure(
            f"tail bound {epsilon} needs p_J below the smallest normal double "
            f"(nu={nu}, r={r})")
    return BernoulliProfile(nu=nu, r=r,
                            probabilities=np.concatenate(blocks)[:start + i + 1],
                            tail_bound=float(bounds[i]))


def generating_function(profile: BernoulliProfile, s: float) -> float:
    """E (1+s)^{N_r} as the truncated product prod_j (1 + s p_j).

    Valid for |s| < 1 (the range for which the infinite product is
    certified); evaluated as exp(sum log1p(s p_j)) for stability.  Raises
    :class:`TruncationFailure` when the product overflows a double.
    """
    if not -1.0 < s < 1.0:
        raise DomainError(f"s must lie in (-1, 1), got {s}")
    log_value = float(np.log1p(s * profile.probabilities).sum())
    if log_value > _LOG_MAX:
        raise TruncationFailure(
            f"the generating product overflows a double at s={s}: its log is {log_value:.6g}")
    return math.exp(log_value)


def _trimmed(poly: np.ndarray, offset: int):
    """``poly`` without its exact zeros at both ends, and its new offset."""
    nz = np.flatnonzero(poly)
    return poly[nz[0]:nz[-1] + 1], offset + int(nz[0])


def distribution(profile: BernoulliProfile) -> CountDistribution:
    """Exact Poisson-binomial pmf of the count over {0, ..., J}.

    The product of the J factors (1 - p_j) + p_j z, as a product tree: the
    factors are cut into blocks of L = max(32, isqrt(2J)) (one block of L = J
    when J < 32), the last padded with p = 0 (the factor 1), and all blocks
    are expanded together by the sequential recurrence, one vector step per
    factor.  The block polynomials are then multiplied pairwise by direct
    convolution until one is left, trimming exact zeros at both ends after
    each product.
    All terms are non-negative, so every entry at or above the smallest
    normal double is within a few J eps relative of the exact product of
    the rounded p_j; trimming changes no value.  For J <= 32 this is the
    sequential recurrence itself.  The mean and variance fields carry
    sum p_j and sum p_j (1 - p_j).
    """
    p = profile.probabilities
    J = p.size
    L = min(max(J, 1), max(_PMF_BLOCK, math.isqrt(2 * J)))
    nb = max(1, -(-J // L))
    probs = np.zeros(nb * L)                   # p = 0 pads: the factor [1, 0]
    probs[:J] = p
    probs = probs.reshape(nb, L).T.copy()
    # column k holds the polynomial of block k, so each step is contiguous
    cols = np.zeros((L + 1, nb))
    cols[0] = 1.0
    for i in range(L):                         # the Bernoulli recurrence, per block
        head = cols[:i + 1]
        up = head * probs[i]
        head *= 1.0 - probs[i]
        cols[1:i + 2] += up
    polys = [_trimmed(col, 0) for col in cols.T]
    while len(polys) > 1:                      # pairwise product tree
        merged = [_trimmed(np.convolve(a, b), oa + ob)
                  for (a, oa), (b, ob) in zip(polys[0::2], polys[1::2])]
        polys = merged + polys[len(merged) * 2:]
    poly, offset = polys[0]
    pmf = np.zeros(J + 1)
    pmf[offset:offset + poly.size] = poly
    return CountDistribution(pmf=pmf, mean=float(p.sum()),
                             variance=float((p * (1.0 - p)).sum()))


def binomial_moments(profile: BernoulliProfile, k: int) -> np.ndarray:
    """Binomial moments E C(N_r, l) of the count for l = 1..k, as an array.

    For a sum of independent Bernoulli variables E C(N_r, l) is the
    elementary symmetric polynomial e_l of the p_j.  Over the prefixes of
    the profile, e_l(p_1..p_j) = e_l(p_1..p_{j-1}) + p_j e_{l-1}(p_1..p_{j-1}):
    one cumulative sum of positive terms per order, O(kJ) in all, that
    never cancels.  Orders past J are 0.
    """
    if k < 1 or k != int(k):
        raise DomainError(f"k must be a positive integer, got {k}")
    p = profile.probabilities
    moments = np.zeros(int(k))
    e = np.ones(p.size + 1)                    # e_0 over the prefixes
    for order in range(min(int(k), p.size)):
        np.cumsum(p * e[:-1], out=e[1:])
        e[0] = 0.0
        moments[order] = e[-1]
    return moments


def binomial_moment(profile: BernoulliProfile, k: int) -> float:
    """k-th binomial moment E C(N_r, k): the last entry of :func:`binomial_moments`."""
    # e_{J+1} is already 0, so no higher order needs its own pass
    return float(binomial_moments(profile, min(k, profile.truncation + 1))[-1])


def variance_series(nu: float, r: float, epsilon: float = 1e-12) -> float:
    """Var(N_r) = sum p_j - sum p_j^2 over the truncated profile.

    The neglected tail is below the profile's tail bound (each tail term
    p_j (1 - p_j) <= p_j).
    """
    profile = build_profile(nu, r, epsilon)
    p = profile.probabilities
    return float(p.sum() - (p ** 2).sum())


def _cdf_thresholds(pmf: np.ndarray) -> np.ndarray:
    """ceil(F_k 2^53) as uint64 for F_k = (pmf_0 + ... + pmf_k) / sum(pmf), k < J.

    For an integer m < 2^53, m 2^-53 < F_k exactly when m < ceil(F_k 2^53):
    F_k 2^53 is exact, and so is its ceiling.
    """
    return np.ceil(np.ldexp(np.cumsum(pmf[:-1]) / pmf.sum(), 53)).astype(np.uint64)


def sample_counts(profile: BernoulliProfile, seed: int, n_samples: int,
                  chunk: int = 20000) -> np.ndarray:
    """Histogram of ``n_samples`` independent draws of the count:
    :func:`sample_distribution` of the profile's :func:`distribution`."""
    return sample_distribution(distribution(profile), seed, n_samples, chunk)


def sample_distribution(law: CountDistribution, seed: int, n_samples: int,
                        chunk: int = 20000) -> np.ndarray:
    """Histogram of ``n_samples`` independent draws from a built count law.

    Inverse-CDF sampling of ``law.pmf``, driven by the counter-based Philox
    generator keyed by ``seed``: draw i consumes raw word i of the stream,
    so results are bit-identical across runs, chunk sizes and platforms,
    and a parallel caller can reproduce any draw by jumping the counter.
    With F_k = (pmf_0 + ... + pmf_k) / sum(pmf), the draw is the number of
    F_k at or below u = (w >> 11) 2^-53.  u is never formed: F_k <= u holds
    exactly when ceil(F_k 2^53) <= w >> 11, so the histogram equals that of
    ``Generator.random()`` compared with F.  The sampled law is within a
    few J eps of the Bernoulli model's in Kolmogorov distance.  Each block
    holds at most min(chunk, 2^18) words (2 MB).  Returns integer counts
    over {0, ..., J}.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if seed < 0 or seed != int(seed):
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    pmf = law.pmf
    thresholds = _cdf_thresholds(pmf)
    rows = max(1, min(chunk, _SAMPLE_BLOCK_WORDS))
    bits = np.random.Philox(np.random.SeedSequence(int(seed)))
    hist = np.zeros(pmf.size, dtype=np.int64)
    done = 0
    while done < n_samples:
        take = min(rows, n_samples - done)
        raw = bits.random_raw(take)
        raw >>= np.uint64(11)
        hist += np.bincount(np.searchsorted(thresholds, raw, side="right"),
                            minlength=pmf.size)
        done += take
    return hist
