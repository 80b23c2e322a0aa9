"""Exact law of the particle count for the lowest disc level (m = 0).

For the weighted Bergman case the count N_r in the centred disc of radius r
is distributed as a sum of independent Bernoulli variables whose success
probabilities are ratios of incomplete to complete beta integrals,

    p_j = (2 nu - 1) (2 nu)_{j-1} / (j-1)! * B_r(j, 2 nu - 1)
        = B_r(j, 2 nu - 1) / B_1(j, 2 nu - 1),        j = 1, 2, ...

This module builds truncated probability profiles with certified geometric
tail bounds, evaluates the probability generating product, the exact
Poisson-binomial pmf, binomial moments by Newton's identities, the
variance series, and a reproducible Monte Carlo sampler.

A profile is evaluated in one vectorised call of the regularized incomplete
beta function, p_j = I_{r^2}(j, 2 nu - 1), over a block of indices that
doubles until the truncation rule stops.  Every profile is checked against
an independent second form, the negative-binomial tail

    p_j = sum_{k >= j} t_k,   t_1 = b x (1-x)^b,   t_{k+1}/t_k = x (k+b)/(k+1),

with x = r^2 and b = 2 nu - 1, summed from the far end in O(J) work.  A
disagreement raises :class:`TruncationFailure`.  Both steps together take
milliseconds even at r = 0.999 for every nu up to 6, where J ~ 3e4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .exceptions import DomainError, TruncationFailure

__all__ = [
    "BernoulliProfile",
    "CountDistribution",
    "build_profile",
    "generating_function",
    "distribution",
    "binomial_moment",
    "variance_series",
    "sample_counts",
]

# the two analytic forms of p_j must coincide; see build_profile.  Below the
# floor a looser check applies to the (numerically irrelevant) deep-tail
# terms; subnormal terms carry too few significant bits to compare at all.
_FORM_AGREEMENT_RTOL = 1e-10
_FORM_CHECK_FLOOR = 1e-30
_FORM_TAIL_RTOL = 1e-6
_TAIL_SUM_REL = 1e-18
_BURN_IN = 8
_FIRST_BLOCK = 64
# the largest truncation build_profile may reach
_HARD_CAP = 100000
_TINY = np.finfo(float).tiny
# sample_counts draws at most this many uniforms (8 bytes each) per block
_SAMPLE_BLOCK_UNIFORMS = 2 ** 20


@dataclass(frozen=True, eq=False)
class BernoulliProfile:
    """Truncated success probabilities p_1..p_J with a tail bound.

    ``tail_bound`` dominates sum_{j > J} p_j via the geometric envelope
    established at truncation time.  ``probabilities`` is index-aligned so
    that probabilities[j - 1] == p_j.  Treat instances as immutable.
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


def _tail_sum_form(b: float, x: float, n: int) -> np.ndarray:
    """p_1..p_n as tails of the negative-binomial law, independent of betainc.

    I_x(j, b) = sum_{k >= j} t_k with t_1 = b x (1-x)^b and
    t_{k+1} / t_k = x (k + b) / (k + 1).  log t_k is a cumulative sum of
    log x + log1p((b - 1) / (k + 1)), which keeps its absolute error near
    machine precision out to k ~ 10^5 (lgamma differences lose ~1e-10
    there).  The sum runs past n until the geometric bound on the omitted
    terms is below _TAIL_SUM_REL times the smallest normal p_j wanted,
    and is accumulated from the far end after one common rescaling.
    """
    log_t1 = math.log(b) + math.log(x) + b * math.log1p(-x)
    log_x = math.log(x)
    m = 2 * n
    while True:
        steps = log_x + np.log1p((b - 1.0) / np.arange(2, m + 1))
        log_t = log_t1 + np.concatenate(([0.0], np.cumsum(steps)))
        # beyond index m every ratio t_{k+1}/t_k is at most rho
        rho = x * max(1.0, (m + b) / (m + 1.0))
        if rho < 1.0:
            shift = log_t.max()
            sums = np.cumsum(np.exp(log_t - shift)[::-1])[::-1]
            with np.errstate(divide="ignore"):
                log_p = np.log(sums[:n]) + shift
            log_omitted = log_t[-1] + math.log(rho / (1.0 - rho))
            log_smallest = max(log_p.min(), math.log(_TINY))
            if log_omitted < log_smallest + math.log(_TAIL_SUM_REL):
                return np.exp(log_p)
        m *= 2


def _check_forms(probs: np.ndarray, b: float, x: float) -> None:
    """Raise TruncationFailure unless probs agrees with _tail_sum_form."""
    normal = probs >= _TINY
    if not normal.any():
        return
    other = _tail_sum_form(b, x, len(probs))
    rel = np.zeros_like(probs)
    rel[normal] = np.abs(other[normal] - probs[normal]) / probs[normal]
    rtol = np.where(probs > _FORM_CHECK_FLOOR, _FORM_AGREEMENT_RTOL, _FORM_TAIL_RTOL)
    bad = np.flatnonzero(rel > rtol)
    if bad.size:
        i = int(bad[0])
        raise TruncationFailure(
            f"success-probability forms disagree at j={i + 1}: "
            f"{other[i]!r} vs {probs[i]!r} (rel {rel[i]:.2e})")


def build_profile(nu: float, r: float, epsilon: float = 1e-12) -> BernoulliProfile:
    """Build the truncated Bernoulli profile for parameters (nu, r).

    Truncates at the first index J >= 8 whose empirical ratio p_J / p_{J-1}
    is below the geometric envelope q (q = r^2 + 0.01, lowered to
    (1 + r^2)/2 when that exceeds 1) and whose value makes the geometric
    tail bound p_J q / (1 - q) smaller than epsilon.

    p_1..p_n come from one vectorised regularized incomplete beta call,
    with n = 64 doubled (up to ``_HARD_CAP`` = 100000) until the rule
    above stops.  The kept p_1..p_J are then checked against the
    negative-binomial tail sums of :func:`_tail_sum_form`, an O(J) second
    form; they must agree to 1e-10 relative (1e-6 below 1e-30).  This reaches J ~ 3e4 at r = 0.999
    for every nu up to 6 in milliseconds.

    Raises :class:`TruncationFailure` if ``_HARD_CAP`` indices do not
    suffice or if the two forms disagree.
    """
    if not 0.5 < nu < math.inf:
        raise DomainError(f"nu must be finite and exceed 1/2, got {nu}")
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    if not 0.0 < epsilon < math.inf:
        raise DomainError(f"epsilon must be finite and positive, got {epsilon}")
    q = min(r * r + 0.01, 0.5 + 0.5 * r * r)   # strictly below 1, above lim p_{j+1}/p_j
    # stopping at p_J below this makes the geometric tail p_J q/(1-q) < epsilon
    p_stop = epsilon * (1.0 - q) / q
    b = 2.0 * nu - 1.0
    n = min(_FIRST_BLOCK, _HARD_CAP)
    while True:
        probs = special.betainc(np.arange(1, n + 1), b, r * r)
        tail = probs[_BURN_IN - 1:]
        stops = np.flatnonzero((tail < p_stop) & (tail <= probs[_BURN_IN - 2:-1] * q))
        if stops.size:
            probs = probs[:_BURN_IN + int(stops[0])]
            break
        if n >= _HARD_CAP:
            raise TruncationFailure(
                f"tail bound {epsilon} not reached within {_HARD_CAP} terms "
                f"(nu={nu}, r={r})")
        n = min(2 * n, _HARD_CAP)
    _check_forms(probs, b, r * r)
    return BernoulliProfile(nu=nu, r=r, probabilities=probs,
                            tail_bound=float(probs[-1]) * q / (1.0 - q))


def generating_function(profile: BernoulliProfile, s: float) -> float:
    """E (1+s)^{N_r} as the truncated product prod_j (1 + s p_j).

    Valid for |s| < 1 (the range for which the infinite product is
    certified); evaluated as exp(sum log1p(s p_j)) for stability.
    """
    if not -1.0 < s < 1.0:
        raise DomainError(f"s must lie in (-1, 1), got {s}")
    return float(math.exp(np.log1p(s * profile.probabilities).sum()))


def distribution(profile: BernoulliProfile) -> CountDistribution:
    """Exact Poisson-binomial pmf of the count over {0, ..., J}.

    Sequential convolution of the J Bernoulli factors; the mean and
    variance fields carry sum p_j and sum p_j (1 - p_j).
    """
    pmf = np.array([1.0])
    for p in profile.probabilities:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    p = profile.probabilities
    return CountDistribution(pmf=pmf, mean=float(p.sum()),
                             variance=float((p * (1.0 - p)).sum()))


def binomial_moment(profile: BernoulliProfile, k: int) -> float:
    """k-th binomial moment E C(N_r, k) of the count.

    For a sum of independent Bernoulli variables E C(N_r, k) is the
    elementary symmetric polynomial e_k of the p_j, formed from the power
    sums S_i = sum_j p_j^i by Newton's identities,

        l e_l = sum_{i=1}^{l} (-1)^{i-1} e_{l-i} S_i,    e_0 = 1.

    Capped at k <= 8 (the cap guards against float cancellation across
    alternating terms, not cost).
    """
    if k < 1 or k != int(k) or k > 8:
        raise DomainError(f"k must be an integer in [1, 8], got {k}")
    k = int(k)
    p = profile.probabilities
    power_sums = [float((p ** i).sum()) for i in range(1, k + 1)]
    e = [1.0]
    for l in range(1, k + 1):
        e.append(sum((-1) ** (i - 1) * e[l - i] * power_sums[i - 1]
                     for i in range(1, l + 1)) / l)
    return e[k]


def variance_series(nu: float, r: float, epsilon: float = 1e-12) -> float:
    """Var(N_r) = sum p_j - sum p_j^2 over the truncated profile.

    The neglected tail is below the profile's tail bound (each tail term
    p_j (1 - p_j) <= p_j).
    """
    profile = build_profile(nu, r, epsilon)
    p = profile.probabilities
    return float(p.sum() - (p ** 2).sum())


def sample_counts(profile: BernoulliProfile, seed: int, n_samples: int,
                  chunk: int = 20000) -> np.ndarray:
    """Histogram of ``n_samples`` independent draws of the count.

    Driven by the counter-based Philox generator keyed by ``seed``; draw i
    consumes the uniforms [i*J, (i+1)*J) of the stream, so results are
    bit-identical across runs, chunk sizes and platforms, and a parallel
    driver can reproduce any draw by jumping the counter.  Each block holds
    at most ``chunk`` draws and about 2^20 uniforms (8 MB), whichever is
    fewer.  Returns integer counts over {0, ..., J}.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if seed < 0 or seed != int(seed):
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    p = profile.probabilities
    J = len(p)
    rows = max(1, min(chunk, _SAMPLE_BLOCK_UNIFORMS // max(J, 1)))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    hist = np.zeros(J + 1, dtype=np.int64)
    done = 0
    while done < n_samples:
        take = min(rows, n_samples - done)
        uniforms = rng.random((take, J))
        counts = (uniforms < p).sum(axis=1)
        hist += np.bincount(counts, minlength=J + 1)
        done += take
    return hist
