"""Reference forms that only the tests use.

Direct forms of quantities the library computes another way: the incomplete
beta integral by adaptive quadrature, its ratio to the complete integral
through scipy's regularized incomplete beta function, and the success
probabilities of the m = 0 count law as negative-binomial tail sums, the
second form that every count-law profile is held to.  The count law's pmf
and sampler have their sequential forms here: the Bernoulli recurrence one
factor at a time, and the comparison of ``Generator.random()`` against p.

The planar count variances have two closed references: the Ginibre form at
n = 0 and Shirai's sector series at every level.

The hyperbolic lens integral has two quadrature forms, the direct angular
one and the integration-by-parts one, batched over an array of |z|.  They
are the oracles of the library's Gauss-Bonnet closed form, and the disc
variance with the lens taken by quadrature at every outer node is the
oracle of the disc routes at m > 0.  The limit constant C has its radial
integral up to a cutoff U, plus pi times the exact weight tail past U, as
the oracle of the library's finite Gauss-Jacobi sum at m > 0.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy import integrate, linalg, special

from dppstats import (DEFAULT_QUAD, DomainError, LensIntegralResult,
                      QuadratureConfig, QuadratureFailure)
from dppstats.quadrature import integrate_interval, integrate_rows
from dppstats.variance import _radial_weight, _weight_tail


def incomplete_beta(r: float, j: int, b: float) -> float:
    """The integral of s^(j-1) (1-s)^(b-1) over s in [0, r^2].

    Adaptive Gauss-Kronrod; when b < 1 and r > 0.99 the substitution
    s = 1 - u^2 removes the integrable endpoint singularity at s = 1.
    Accuracy: ~1e-12 absolute for b >= 1, ~1e-10 for 0 < b < 1.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"radius must lie in [0, 1], got {r}")
    if j < 1 or j != int(j):
        raise DomainError(f"first index must be a positive integer, got {j}")
    if b <= 0.0:
        raise DomainError(f"second parameter must be positive, got {b}")
    if r == 0.0:
        return 0.0
    j = int(j)
    # epsabs=0 keeps QUADPACK in relative mode, which matters for the far
    # series tail where the integral itself is ~1e-15 and below
    if b < 1.0 and r > 0.99:
        # s = 1 - u^2: ds = -2u du and (1-s)^{b-1} = u^{2b-2}
        lo = math.sqrt(max(0.0, 1.0 - r * r))
        val, _ = integrate.quad(
            lambda u: 2.0 * u ** (2.0 * b - 1.0) * (1.0 - u * u) ** (j - 1),
            lo, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
        return val
    val, _ = integrate.quad(
        lambda s: s ** (j - 1) * (1.0 - s) ** (b - 1.0),
        0.0, r * r, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def incomplete_beta_ratio(r: float, j: int, b: float) -> float:
    """Ratio of the incomplete to the complete beta integral.

    Equals ``incomplete_beta(r, j, b) / incomplete_beta(1, j, b)`` but is
    evaluated through the regularized incomplete beta function, which stays
    accurate for indices far beyond the reach of direct quadrature.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"radius must lie in [0, 1], got {r}")
    if j < 1 or j != int(j):
        raise DomainError(f"first index must be a positive integer, got {j}")
    if b <= 0.0:
        raise DomainError(f"second parameter must be positive, got {b}")
    return float(special.betainc(int(j), b, r * r))


# tail_sum_form sums until the omitted terms are below this share of the
# smallest normal p_j it returns
_TAIL_SUM_REL = 1e-18
_TINY = np.finfo(float).tiny


def tail_sum_form(b: float, x: float, n: int) -> np.ndarray:
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


def tail_sum_mismatch(probs: np.ndarray, b: float, x: float):
    """(j, oracle p_j, profile p_j) at the first j that misses
    :func:`tail_sum_form`, or None.

    The profile's tolerance: 1e-10 relative, 1e-6 below 1e-30; subnormal
    p_j carry too few significant bits to compare at all.
    """
    other = tail_sum_form(b, x, len(probs))
    normal = probs >= _TINY
    rel = np.zeros_like(probs)
    rel[normal] = np.abs(other[normal] - probs[normal]) / probs[normal]
    bad = np.flatnonzero(rel > np.where(probs > 1e-30, 1e-10, 1e-6))
    if bad.size:
        i = int(bad[0])
        return i + 1, float(other[i]), float(probs[i])
    return None


def profile_tail(b: float, x: float, J: int) -> float:
    """sum_{j > J} p_j from :func:`tail_sum_form`.

    The terms are summed to an index n that doubles until the geometric
    rest past n, at most p_n rho/(1 - rho) with rho = x max(1, (n + b)/(n + 1)),
    is below 1e-15 of the sum; that rest is included, so the value is an
    upper bound up to rounding.
    """
    n = 2 * J + 64
    while True:
        rho = x * max(1.0, (n + b) / (n + 1.0))
        if rho < 1.0:
            p = tail_sum_form(b, x, n)[J:]
            total, rest = float(p.sum()), float(p[-1]) * rho / (1.0 - rho)
            if rest <= 1e-15 * total:
                return total + rest
        n *= 2


def sequential_pmf(probs: np.ndarray) -> np.ndarray:
    """The Poisson-binomial pmf by the recurrence over one factor at a time."""
    pmf = np.array([1.0])
    for p in probs:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


def uniform_histogram(probs: np.ndarray, seed: int, n_samples: int,
                      chunk: int) -> np.ndarray:
    """Histogram of draws sum_j [u_j < p_j] with the uniforms of the
    ``seed``-keyed Philox ``Generator.random()``, ``chunk`` draws at a time."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    J = len(probs)
    hist = np.zeros(J + 1, dtype=np.int64)
    done = 0
    while done < n_samples:
        take = min(chunk, n_samples - done)
        counts = (rng.random((take, J)) < probs).sum(axis=1)
        hist += np.bincount(counts, minlength=J + 1)
        done += take
    return hist


def ginibre_variance(r: float) -> float:
    """Var(N_r) of the n = 0 planar process: r^2 e^{-2r^2} (I_0 + I_1)(2r^2)."""
    x = 2.0 * r * r
    return r * r * float(special.ive(0, x) + special.ive(1, x))


def _sector_mass(d: int, a: int, t, w, decay) -> float:
    """sum_i w_i d!/Gamma(d+a+1) t_i^a e^{-decay_i} L_d^{(a)}(t_i)^2."""
    log_weight = a * np.log(t) - decay + math.lgamma(d + 1) - math.lgamma(d + a + 1)
    return float(w @ (np.exp(log_weight) * special.eval_genlaguerre(d, a, t) ** 2))


def planar_sector_variance(n: int, r: float, nodes: int = 400) -> float:
    """Var(N_r) of planar level n as a Bernoulli sum over angular sectors.

    Sector k >= -n succeeds with probability
    p_k = d!/Gamma(d+a+1) int_0^{r^2} t^a e^{-t} L_d^{(a)}(t)^2 dt, where
    a = |k|, d = n for k >= 0 and d = n + k below (Shirai 2015), and
    Var(N_r) = sum p_k (1 - p_k).  Each p_k is one Gauss-Legendre sum on
    [0, r^2] of an entire integrand.  Where p_k > 1/2, 1 - p_k is formed
    as the same integral over [r^2, inf), which a 64-point Gauss-Laguerre
    rule gives exactly for a + 2d < 128, so that it does not cancel.  The
    sum stops past k = r^2 once p_k drops below 1e-18.  The log-space
    weights leave about 2e-14 relative error at r <= 6.
    """
    x, w = special.roots_legendre(nodes)
    t = 0.5 * r * r * (x + 1.0)
    w = 0.5 * r * r * w
    s, ws = special.roots_laguerre(64)
    total = 0.0
    k = -n
    while True:
        a, d = abs(k), (n if k >= 0 else n + k)
        p = _sector_mass(d, a, t, w, t)
        q = _sector_mass(d, a, r * r + s, ws, r * r) if p > 0.5 else 1.0 - p
        total += p * q
        if k > r * r and p < 1e-18:
            return total
        k += 1


# Floating-point roundoff can push an arccos argument marginally past +-1 at
# integration endpoints (analytically the endpoints are exactly +-1).  Within
# this window the argument is clamped; beyond it the inputs are wrong.
ACOS_CLAMP_WINDOW = 1e-12


def _nonneg_clamped(x: np.ndarray, name: str) -> np.ndarray:
    low = float(x.min())
    if low < -ACOS_CLAMP_WINDOW:
        raise DomainError(
            f"{name} is negative by {-low:.3e}, beyond the "
            f"{ACOS_CLAMP_WINDOW} roundoff window")
    return np.maximum(x, 0.0)


def _lens_rows(u_z, live_mask):
    """Zero-filled (value, error, converged) outputs and the live row indices."""
    return (np.zeros(u_z.shape), np.zeros(u_z.shape), np.ones(u_z.shape, dtype=bool),
            np.flatnonzero(live_mask))


def _lens_direct(r: float, u_z: np.ndarray, quad: QuadratureConfig):
    """Angular lens integral at every u_z = atanh(|z|) of an array, batched.

    Returns (value, error_estimate, converged) arrays shaped like ``u_z``;
    nothing is raised.  Rows with an empty range (|z| = 0) are exactly 0.

    The integral of arccos(g(t)) t (1-t^2)^{-2} dt, with
    g(t) = (t^2+|C|^2-R^2)/(2t|C|), runs from max(r, inner_edge) to
    outer_edge.  Everything is evaluated in u = atanh(t), where the
    geometry is exact: with u_r = atanh(r) the range is
    [max(u_r, |u_z - u_r|), u_z + u_r] by the tanh addition law, and the
    (1-t^2)^{-2} weight becomes sinh(u) cosh(u).  The substitutions
    u = end -+ w^2 at both endpoints remove the square-root behaviour of
    arccos where its argument reaches +-1; the two pieces of every |z| are
    stacked as rows of one :func:`integrate_rows` call, lower-end pieces
    first.

    arccos(g) itself is computed as 2 atan2(sqrt(1-g), sqrt(1+g)) from the
    factorizations

        1 - g = (outer_edge - t)(t - s) / (2 t |C|),
        1 + g = (t + s)(t + outer_edge) / (2 t |C|),

    where s = |C| - R carries the sign of |z| - r and |s| = inner_edge.
    The differences ``outer_edge - t`` and ``t - inner_edge`` are formed
    through the tanh-difference identity
    tanh a - tanh b = sinh(a-b)/(cosh a cosh b), keeping full accuracy when
    the range crowds against the boundary of the unit disc.
    """
    u_z = np.asarray(u_z, dtype=float)
    u_r = math.atanh(r)
    u_in = np.abs(u_z - u_r)
    u_lo = np.maximum(u_r, u_in)
    u_hi = u_z + u_r
    value, err, converged, live = _lens_rows(u_z, u_lo < u_hi)
    if live.size == 0:
        return value, err, converged
    u_z, u_in, u_lo, u_hi = u_z[live], u_in[live], u_lo[live], u_hi[live]
    sech2_z = 1.0 / np.cosh(u_z) ** 2
    denom = (1.0 - r * r) + r * r * sech2_z       # == 1 - |z|^2 r^2
    c = (1.0 - r * r) * np.tanh(u_z) / denom      # centre modulus |C|
    span = u_hi - u_lo
    lo_to_in = u_lo - u_in            # 0 when the inner edge is the lower bound
    # per stacked row, at w = 0: the endpoint u, the gaps u_hi - u and
    # u - u_in, and the direction the substitution moves u in
    params = np.stack([
        np.concatenate([u_lo, u_hi]),
        np.concatenate([span, np.zeros(live.size)]),
        np.concatenate([lo_to_in, span + lo_to_in]),
        np.repeat([1.0, -1.0], live.size),
        np.tile(np.cosh(u_hi), 2),
        np.tile(np.cosh(u_in), 2),
        np.tile(np.tanh(u_in), 2),                # inner_edge
        np.tile(np.tanh(u_hi), 2),                # outer_edge
        np.tile(c, 2)])
    center_ge_radius = np.tile(u_z >= u_r, 2)     # sign of |C| - R

    def integrand(w, rows):
        end, hi_gap, in_gap, sign, cosh_hi, cosh_in, inner_edge, upper, c = params[:, rows]
        ge = center_ge_radius[rows]
        w2 = sign * (w * w)
        u = end + w2
        t = np.tanh(u)
        cosh_u = np.cosh(u)
        d_up = np.sinh(hi_gap - w2) / (cosh_hi * cosh_u)    # outer_edge - t
        d_in = np.sinh(in_gap + w2) / (cosh_in * cosh_u)    # t - inner_edge
        t_plus_in = t + inner_edge
        one_minus_g = d_up * np.where(ge, d_in, t_plus_in)
        one_plus_g = np.where(ge, t_plus_in, d_in) * (t + upper)
        scale = 2.0 * t * c
        one_minus_g = _nonneg_clamped(one_minus_g / scale, "1 - arccos argument")
        one_plus_g = _nonneg_clamped(one_plus_g / scale, "1 + arccos argument")
        acos = 2.0 * np.arctan2(np.sqrt(one_minus_g), np.sqrt(one_plus_g))
        return 2.0 * w * (acos * np.sinh(u) * cosh_u)

    w_mid = np.tile(np.sqrt(0.5 * span), 2)
    v, e, ok = integrate_rows(integrand, 0.0, w_mid, quad)
    n = live.size
    value[live] = v[:n] + v[n:]
    err[live] = e[:n] + e[n:]
    converged[live] = ok[:n] & ok[n:]
    return value, err, converged


def _lens_transformed(r: float, u_z: np.ndarray, quad: QuadratureConfig):
    """The integration-by-parts lens form at every u_z = atanh(|z|), batched.

    Same contract as :func:`_lens_direct`.  Integration by parts turns the
    angular integral into a rational integral over the squared modulus s
    plus an explicit boundary term at t = r, active exactly when
    |z| < 2r/(1+r^2):

        I = (1/2) * int_0^{u_max} [ B/s + (1+B)/(1-s) ] du
            - arccos(|z| (1+r^2) / (2r)) / (2 (1-r^2)),

    where (C, R) = image_disc(|z|, r), B = R^2 - |C|^2, and
    s = F - 4|C|R sin^2(u) falls from the squared outer edge
    F = tanh^2(u_z + u_r) (u_r = atanh r) until it meets r^2 or the squared
    inner edge: sin^2(u_max) = min(1, (F - r^2)/(4|C|R)).  The sin^2
    substitution removes both square-root endpoints of the integral in s.
    One row per |z|.
    """
    u_z = np.asarray(u_z, dtype=float)
    u_r = math.atanh(r)
    value, err, converged, live = _lens_rows(
        u_z, np.maximum(u_r, np.abs(u_z - u_r)) < u_z + u_r)
    if live.size == 0:
        return value, err, converged
    u_z = u_z[live]
    z = np.tanh(u_z)
    sech2_z = 1.0 / np.cosh(u_z) ** 2
    denom = (1.0 - r * r) + r * r * sech2_z        # == 1 - z^2 r^2
    excess = (sech2_z - (1.0 - r * r)) / denom     # == (r^2 - z^2)/(1 - z^2 r^2)
    radius = sech2_z * r / denom
    center = (1.0 - r * r) * z / denom
    outer_sq = np.tanh(u_z + u_r) ** 2
    span = 4.0 * center * radius
    gap = sech2_z * (1.0 - r * r) / (1.0 + z * r) ** 2
    # (1 + excess)/gap collapses to the cancellation-free closed form term_gap
    params = np.stack([
        excess / outer_sq,                                              # term_outer
        span / outer_sq,                                                # v_rate
        (1.0 + r * r) * (1.0 + z * r) / ((1.0 - z * r) * (1.0 - r * r)),  # term_gap
        span / gap])                                                    # u_rate
    cut = (2.0 * r + z * (1.0 + r * r)) * (1.0 - z * r) ** 2 / (4.0 * r * sech2_z)
    u_max = np.arcsin(np.sqrt(np.minimum(1.0, cut)))

    def rational(u, rows):
        term_outer, v_rate, term_gap, u_rate = params[:, rows]
        s2 = np.sin(u) ** 2
        return term_outer / (1.0 - v_rate * s2) + term_gap / (1.0 + u_rate * s2)

    v, e, ok = integrate_rows(rational, 0.0, u_max, quad)
    # the boundary term at t = r, active when z < 2r/(1+r^2) == tanh(2 u_r)
    arg = np.minimum(1.0, z * (1.0 + r * r) / (2.0 * r))
    boundary = np.where(u_z < 2.0 * u_r, np.arccos(arg) / (1.0 - r * r), 0.0)
    value[live] = 0.5 * (v - boundary)
    err[live] = 0.5 * e
    converged[live] = ok
    return value, err, converged


def lens_integral(lens, r: float, z_modulus: float,
                  quad: QuadratureConfig = DEFAULT_QUAD) -> LensIntegralResult:
    """A batched quadrature lens at a single |z|; raises
    :class:`QuadratureFailure` if the tolerance cannot be certified."""
    values, errs, converged = lens(r, np.array([math.atanh(z_modulus)]), quad)
    value, err = float(values[0]), float(errs[0])
    if not converged[0] and err > quad.tolerance(value):
        raise QuadratureFailure(
            f"lens integral at r={r}, |z|={z_modulus}: error estimate {err:.3e} "
            f"exceeds tolerance {quad.tolerance(value):.3e}")
    return LensIntegralResult(value, err)


def disc_variance_quadrature_lens(level, r: float, lens=_lens_direct,
                                  quad: QuadratureConfig = DEFAULT_QUAD):
    """(value, error) of the disc variance with the lens taken by quadrature.

    The outer integral and the exact rest are the library's (u = R - w^2,
    :func:`dppstats.variance._weight_tail`); at every outer node the lens
    comes from the batched ``lens`` at a hundredth of the outer tolerance,
    and its error enters as sqrt(R) times the largest weighted inner error.
    The rounding of the n-node outer rule, 2 n eps relative, is added too.
    """
    R = 2.0 * math.atanh(r)
    inner = replace(quad, rel_tol=max(quad.rel_tol * 1e-2, 1e-13),
                    abs_tol=max(quad.abs_tol * 1e-2, 1e-14))
    inner_err_sup, nodes = [0.0], [0]

    def outer(w):
        nodes[0] = max(nodes[0], np.shape(w)[-1])
        flat = np.ravel(w)
        weight = 2.0 * flat * _radial_weight(level, R - flat * flat)
        value, err, _ = lens(r, R - flat * flat, inner)
        inner_err_sup[0] = max(inner_err_sup[0], float(np.max(weight * err, initial=0.0)))
        return (weight * value).reshape(np.shape(w))

    value, err = integrate_interval(outer, 0.0, math.sqrt(R), quad)
    rest = 0.5 * math.pi * math.sinh(0.5 * R) ** 2 * math.exp(_weight_tail(level, R)[0])
    rounding = 2.0 * nodes[0] * np.finfo(float).eps * value
    return (4.0 * math.pi * (value + rest),
            4.0 * math.pi * (err + math.sqrt(R) * inner_err_sup[0] + rounding))


def _radial_cutoff(level, envelope: float, abs_tol: float):
    """Upper limit U and tail bound for the radial integral in u = atanh(rho).

    The u-integrand is bounded by M sech^{2 beta}(u) <= M 4^beta e^{-2 beta U}
    with M = ``envelope``, so the tail past U is below
    M 4^beta e^{-2 beta U} / (2 beta).  Both are formed in log space, since
    4^beta alone overflows a double once beta exceeds about 511.
    """
    beta = level.beta
    target = max(0.5 * abs_tol, 1e-300)
    log_scale = math.log(max(envelope, 1e-300)) + beta * math.log(4.0)
    U = max(4.0, (log_scale - math.log(2.0 * beta * target)) / (2.0 * beta))
    U = min(U, 30.0)
    tail = math.exp(log_scale - math.log(2.0 * beta) - 2.0 * beta * U)
    return U, tail


def asymptotic_constant_cutoff(level, quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """C = 2 pi int_0^inf w(u) arccos(1 - 2 tanh^2 u) du by radial quadrature.

    The integral is taken up to the cutoff U of :func:`_radial_cutoff`, and
    past U arccos(1 - 2 tanh^2 u) = 2 asin(tanh u) is replaced by pi, which
    adds pi :func:`dppstats.variance._weight_tail` (U) and leaves at most
    2 asin(sech U) times that tail out.  The range is split at
    8 sqrt((m + 1)/beta), past which the weight has fallen by e^{-64}.
    """
    beta, m = level.beta, level.m
    # pi (beta/pi)^2 max |P_m|^2, max |P_m| = (beta + 1)_m / m!
    log_pmax = -special.betaln(beta + 1.0, m + 1.0) - math.log(beta + m + 1.0)
    envelope = math.pi * math.exp(2.0 * (math.log(beta / math.pi) + log_pmax))

    def outer(u):
        return _radial_weight(level, u) * 2.0 * np.arcsin(np.tanh(u))

    U, _ = _radial_cutoff(level, envelope, quad.abs_tol)
    peak = 8.0 * math.sqrt((m + 1) / beta)
    value, _ = integrate_interval(outer, 0.0, U, quad, (peak,) if 8.0 * peak < U else ())
    return 2.0 * math.pi * (value + math.pi * math.exp(_weight_tail(level, U)[0]))


def tail_rule_zero_exponent(m: int, beta: float):
    """The (m + 1)-point Gauss rule for t^{beta - 1} dt on [0, 1], in y = beta (1 - t),
    from the Jacobi entries written for that weight alone (no second exponent)."""
    b = beta - 1.0
    k = np.arange(1.0, m + 1.0)
    diag = np.empty(m + 1)
    diag[0] = beta / (b + 2.0)
    diag[1:] = beta / (2.0 * k + b) * (2.0 * k * (k + b + 1.0) + b) / (2.0 * k + b + 2.0)
    off = (beta / (2.0 * k + b) * k * (k + b)
           / (np.sqrt(2.0 * k + b + 1.0) * np.sqrt(2.0 * k + b - 1.0)))
    if m == 0:
        return diag, np.ones(1)
    y, vectors = linalg.eigh_tridiagonal(diag, off)
    return y, vectors[0] ** 2
