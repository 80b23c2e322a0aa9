"""Exact law of the particle count for the lowest disc level (m = 0).

For the weighted Bergman case the count N_r in the centred disc of radius r
is distributed as a sum of independent Bernoulli variables whose success
probabilities are ratios of incomplete to complete beta integrals,

    p_j = (2 nu - 1) (2 nu)_{j-1} / (j-1)! * B_r(j, 2 nu - 1)
        = B_r(j, 2 nu - 1) / B_1(j, 2 nu - 1),        j = 1, 2, ...

This module builds truncated probability profiles with certified geometric
tail bounds, evaluates the probability generating product, the exact
Poisson-binomial pmf, binomial moments by a prefix-sum recurrence, the
variance series, and a reproducible Monte Carlo sampler.  It needs numpy
alone.

A profile is two sums of positive terms.  With x = r^2 and b = 2 nu - 1,
p_j = I_x(j, b) is the tail sum_{k >= j} t_k of the negative-binomial law
t_k = C(k + b - 1, k) (1 - x)^b x^k, and q_j = 1 - p_j is its head
sum_{k < j} t_k.  log t_k is b log1p(-x) plus a compensated cumulative
sum of log x + log1p((b - 1)/k); the tails come from the reversed
cumulative sum of the t_k and the heads from the forward one.  For each j
the smaller of the two is kept and the larger is 1 minus it, so q_j keeps
its relative accuracy where p_j rounds to 1, and p_j + q_j = 1 up to one
rounding, so no mass is lost from the pmf.  The truncation rule is a proof:
the terms have the ratio t_{k+1}/t_k = x (k + b)/(k + 1), so every later
ratio p_{j+1}/p_j is at most rho_J = x max(1, (J + b)/(J + 1)) and the
tail past J is at most p_J rho_J / (1 - rho_J).  The sums run past J
until the same geometric bound puts everything left out below 2^-56 p_J,
up to 4 ``_HARD_CAP`` = 2^20 terms.  A profile build takes milliseconds
even at r = 0.999 for every nu up to 6, where J ~ 3e4, and J may reach
2^18.

The pmf is a product tree.  The J factors (q_j + p_j z) are cut into
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

# relative rounding allowed for in p_J rho_J / (1 - rho_J); see build_profile
_ROUNDING_MARGIN = 1.0 + 1e-10
_LOG_MAX = math.log(np.finfo(float).max)   # math.exp overflows past it
# the largest truncation build_profile may reach; it sums at most 4 times as many terms
_HARD_CAP = 2 ** 18
# a profile build extends its terms by at least this many at a time
_MIN_MORE_TERMS = 64
# the terms build_profile leaves out past the last it sums are below this share of p_J
_OMITTED_SHARE = 2.0 ** -56
_TINY = np.finfo(float).tiny
# the least number of Bernoulli factors in one block of distribution()
_PMF_BLOCK = 32
# sample_counts draws at most this many raw words (8 bytes each) per block
_SAMPLE_BLOCK_WORDS = 2 ** 18


@dataclass(frozen=True, eq=False)
class BernoulliProfile:
    """Truncated success probabilities p_1..p_J, their complements, and a tail bound.

    ``tail_bound`` dominates sum_{j > J} p_j: it is p_J rho_J / (1 - rho_J),
    inflated by 1e-10 relative for rounding, with rho_J the proven bound on
    every later ratio p_{j+1}/p_j (see :func:`build_profile`).
    ``probabilities`` is index-aligned so that probabilities[j - 1] == p_j,
    and ``complements[j - 1]`` is q_j = 1 - p_j, computed in its own right
    where it is the smaller of the two, so that it keeps its relative
    accuracy where p_j rounds to 1.  Treat instances as immutable.
    """

    nu: float
    r: float
    probabilities: np.ndarray
    complements: np.ndarray
    tail_bound: float

    @property
    def truncation(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True, eq=False)
class CountDistribution:
    """Poisson-binomial law of the count over {0, ..., J}.

    ``mean`` and ``variance`` are the series values sum p_j and
    sum p_j q_j; they agree with the pmf moments up to truncation.
    """

    pmf: np.ndarray
    mean: float
    variance: float


def _log_terms(last: float, start: int, stop: int, log_x: float, c: float) -> np.ndarray:
    """log t_k = log t_0 + sum_{i=1}^{k} (log x + log1p(c/i)) for k in [start, stop),
    continued from ``last`` = log t_{start-1}, or from ``last`` = log t_0 itself
    when start = 0.

    A compensated cumulative sum: ``np.cumsum`` adds one step at a time, the
    exact rounding error of each addition (Knuth's TwoSum) is recovered
    from its result, and their cumulative sum is added back.  So log t_k
    carries about one rounding beyond those of its inputs, however far k
    runs and however large the partial sums grow on the way (log t_0 is
    -658 at (nu, r) = (600, 0.65)), where a plain cumulative sum loses up to
    k eps times their size.
    """
    first = max(start, 1)
    d = np.empty(stop - first + 1)
    d[0] = last
    np.log1p(c / np.arange(first, stop, dtype=float), out=d[1:])
    d[1:] += log_x
    s = np.cumsum(d)
    added = s[1:] - s[:-1]                 # the step each addition took
    # s_{k-1} + d_k - s_k, exactly
    s[1:] += np.cumsum((s[:-1] - (s[1:] - added)) + (d[1:] - added))
    return s if start == 0 else s[1:]


def build_profile(nu: float, r: float, epsilon: float = 1e-12) -> BernoulliProfile:
    """Build the truncated Bernoulli profile for parameters (nu, r).

    Truncates at the first index J with rho_J < 1 whose tail bound

        p_J rho_J / (1 - rho_J) * (1 + 1e-10),   rho_J = r^2 max(1, (J + b)/(J + 1)),

    is below epsilon, with b = 2 nu - 1, and returns that bound as
    ``tail_bound``.  For j >= J every ratio p_{j+1}/p_j is at most rho_J
    (see the module docstring), so sum_{j > J} p_j <= p_J rho_J / (1 - rho_J);
    the factor 1 + 1e-10 covers the rounding of p_J and rho_J.

    With x = r^2, p_j and q_j = 1 - p_j are the tail and head sums of the
    negative-binomial terms t_k = C(k + b - 1, k) (1 - x)^b x^k:
    p_j = sum_{k >= j} t_k and q_j = sum_{k < j} t_k.  log t_k is
    b log1p(-x) plus a compensated cumulative sum of log x + log1p((b - 1)/k)
    (:func:`_log_terms`); the tails are the reversed cumulative sum of the
    t_k and the heads the forward one.  For each j the smaller of the two
    sums is kept, and the other is 1 minus it, so that p_j + q_j = 1 up to
    one rounding.  The terms t_0..t_{K-1} run past J until the geometric
    bound t_{K-1} rho_{K-1} / (1 - rho_{K-1}) on every term left out is at
    most 2^-56 p_J.  The first K is sized from the law's mean and spread and
    the decay past them; when it falls short, the terms are extended, not
    restarted, by the number that bound predicts.  At most 4 ``_HARD_CAP``
    terms are summed: near r = 1 a J close to the cap needs about 2.3 times
    as many.

    Raises :class:`TruncationFailure` if ``_HARD_CAP`` = 2^18 indices do not
    suffice (at once when rho_j >= 1 up to the cap), if the sums need more
    than 4 ``_HARD_CAP`` terms, or if the rule would stop on a subnormal
    p_J: when the threshold epsilon (1 - rho_J)/rho_J is below the smallest
    normal double, p_J carries too few significant bits to bound the tail
    relative to it.
    """
    if not 0.5 < nu < math.inf:
        raise DomainError(f"nu must be finite and exceed 1/2, got {nu}")
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    if not 0.0 < epsilon < math.inf:
        raise DomainError(f"epsilon must be finite and positive, got {epsilon}")
    x = r * r
    b = 2.0 * nu - 1.0
    beyond_cap = f"tail bound {epsilon} not reached within {_HARD_CAP} terms (nu={nu}, r={r})"
    # rho_j does not rise with j: if rho is 1 or more at the cap, no J up to it stops the rule
    if x * max(1.0, (_HARD_CAP + b) / (_HARD_CAP + 1.0)) >= 1.0:
        raise TruncationFailure(beyond_cap)
    if x == 0.0:                    # r^2 underflows below r ~ 1.5e-162: p_1 = 0 stops the rule
        return BernoulliProfile(nu=nu, r=r, probabilities=np.zeros(1), complements=np.ones(1),
                                tail_bound=0.0)
    log_x = math.log(x)
    term_cap = 4 * _HARD_CAP
    # mean + 8 sd, then the geometric decay past it, at about x per term, to
    # p_J ~ epsilon (1 - x) and on by a factor 2^-56
    decay = (-math.log(epsilon) - math.log1p(-x) + 39.0) / (1.0 - x)
    size = (b * x + 8.0 * math.sqrt(b * x)) / (1.0 - x) + max(decay, 0.0) + 29.0
    t, last = np.empty(0), b * math.log1p(-x)         # log t_0 = b log(1 - x)
    while True:
        n = math.ceil(min(size, term_cap))
        log_terms = _log_terms(last, t.size, n, log_x, b - 1.0)
        t, last = np.concatenate((t, np.exp(log_terms))), float(log_terms[-1])
        j_max = min(n - 1, _HARD_CAP)
        tails = np.cumsum(t[::-1])[-2:-j_max - 2:-1]    # sum_{j <= k < n} t_k, j = 1..j_max
        heads = np.cumsum(t[:j_max])                    # sum_{k < j} t_k, j = 1..j_max
        # both sums are monotone, so q_j is the smaller below one index and p_j above it
        split = np.count_nonzero(tails > heads)
        probs = tails.copy()
        probs[:split] = 1.0 - heads[:split]
        # rho_j >= x, so the rule cannot stop where p_j x / (1 - x) is epsilon or more
        lo = int(np.argmax(probs * x < 2.0 * epsilon * (1.0 - x)))
        j = np.arange(lo + 1.0, j_max + 1.0)
        rho = x * np.maximum(1.0, (j + b) / (j + 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            bounds = probs[lo:] * rho / (1.0 - rho) * _ROUNDING_MARGIN
        stops = lo + np.flatnonzero((rho < 1.0) & (bounds < epsilon))
        # every term past the last, t_{k+1}/t_k = x (k + b)/(k + 1) <= rho_n for k >= n - 1
        rho_n = x * max(1.0, (n - 1.0 + b) / n)
        omitted = float(t[-1]) * rho_n / (1.0 - rho_n) if rho_n < 1.0 else math.inf
        if stops.size:
            i = int(stops[0])
            wanted = probs[i]
            if omitted <= _OMITTED_SHARE * wanted:
                break
        elif j_max >= _HARD_CAP:
            raise TruncationFailure(beyond_cap)
        else:                       # about the p_J on which the rule will stop
            wanted = epsilon * (1.0 - rho_n) / rho_n
        if n >= term_cap:
            raise TruncationFailure(
                f"the tail sums need more than {term_cap} terms (nu={nu}, r={r})")
        # each further term shrinks the omitted bound by rho_n at least
        share = _OMITTED_SHARE * wanted / omitted
        more = math.log(share) / math.log(rho_n) if 0.0 < share < 1.0 else n
        size = n + max(_MIN_MORE_TERMS, math.ceil(more))
    if epsilon * (1.0 - rho[i - lo]) < _TINY * rho[i - lo]:
        raise TruncationFailure(
            f"tail bound {epsilon} needs p_J below the smallest normal double "
            f"(nu={nu}, r={r})")
    J = i + 1
    comps = 1.0 - tails[:J]
    comps[:split] = heads[:min(split, J)]
    return BernoulliProfile(nu=nu, r=r, probabilities=probs[:J].copy(),
                            complements=comps, tail_bound=float(bounds[i - lo]))


def generating_function(profile: BernoulliProfile, s: float) -> float:
    """E (1+s)^{N_r} as the truncated product prod_j (q_j + (1 + s) p_j).

    Valid for |s| < 1 (the range for which the infinite product is
    certified); evaluated as exp(sum log1p(s p_j)) for s >= 0, and as
    exp(sum log(q_j + (1 + s) p_j)) for s < 0, a sum of positive terms that
    does not cancel as s -> -1 where p_j -> 1.  Raises
    :class:`TruncationFailure` when the product overflows a double.
    """
    if not -1.0 < s < 1.0:
        raise DomainError(f"s must lie in (-1, 1), got {s}")
    p = profile.probabilities
    factors = np.log1p(s * p) if s >= 0.0 else np.log(profile.complements + (1.0 + s) * p)
    log_value = float(factors.sum())
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

    The product of the J factors q_j + p_j z, as a product tree: the
    factors are cut into blocks of L = max(32, isqrt(2J)) (one block of L = J
    when J < 32), the last padded with (q, p) = (1, 0), and all blocks
    are expanded together by the sequential recurrence, one vector step per
    factor.  The block polynomials are then multiplied pairwise by direct
    convolution until one is left, trimming exact zeros at both ends after
    each product.
    All terms are non-negative, so every entry at or above the smallest
    normal double is within a few J eps relative of the exact product of
    the rounded (q_j, p_j); trimming changes no value.  For J <= 32 this is
    the sequential recurrence itself.  The mean and variance fields carry
    sum p_j and sum p_j q_j.
    """
    p, q = profile.probabilities, profile.complements
    J = p.size
    L = min(max(J, 1), max(_PMF_BLOCK, math.isqrt(2 * J)))
    nb = max(1, -(-J // L))
    probs = np.zeros(nb * L)                   # (q, p) = (1, 0) pads: the factor [1, 0]
    comps = np.ones(nb * L)
    probs[:J], comps[:J] = p, q
    probs = probs.reshape(nb, L).T.copy()
    comps = comps.reshape(nb, L).T.copy()
    # column k holds the polynomial of block k, so each step is contiguous
    cols = np.zeros((L + 1, nb))
    cols[0] = 1.0
    for i in range(L):                         # the Bernoulli recurrence, per block
        head = cols[:i + 1]
        up = head * probs[i]
        head *= comps[i]
        cols[1:i + 2] += up
    polys = [_trimmed(col, 0) for col in cols.T]
    while len(polys) > 1:                      # pairwise product tree
        merged = [_trimmed(np.convolve(a, b), oa + ob)
                  for (a, oa), (b, ob) in zip(polys[0::2], polys[1::2])]
        polys = merged + polys[len(merged) * 2:]
    poly, offset = polys[0]
    pmf = np.zeros(J + 1)
    pmf[offset:offset + poly.size] = poly
    return CountDistribution(pmf=pmf, mean=float(p.sum()), variance=float((p * q).sum()))


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
    """Var(N_r) = sum p_j q_j over the truncated profile.

    The neglected tail is below the profile's tail bound (each tail term
    p_j q_j <= p_j).
    """
    profile = build_profile(nu, r, epsilon)
    return float((profile.probabilities * profile.complements).sum())


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
