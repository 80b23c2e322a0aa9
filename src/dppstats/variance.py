"""Count variances in centred discs, their large-radius asymptotics and the
flat-geometry limit.

Each geometry has one computation: a radial integral of a weight times a
lens area, plus the exact integral of the weight past the point where the
area stops growing.  On the plane the area is A(rho) = r g(rho^2) (g is
Shirai's angular factor) and the rest past rho = 2r is a Gauss-Laguerre sum;
on the disc the area is the Gauss-Bonnet closed form and the rest a
Gauss-Jacobi sum.  Each computation carries two route names (shirai and
geometric, int1 and int3), so their agreement checks nothing.  Also here:
the constant C of Var(N_r) ~ C / (1 - r^2) as r -> 1, a finite sum, and
the curvature-rescaling table that links the disc family to the planar one.

Conventions.  The radial reduction of the disc-process variance is

    V = 4 pi * int_0^1 rho (1 - rho^2)^{-2} f(rho) I(rho, r) drho,

where f is the radial weight profile and I the *un-doubled* angular lens
integral of :func:`dppstats.geometry.hyperbolic_lens_integral`; the single
factor 2 of the variance formula is absorbed into the 4 pi prefactor
exactly once (2 from doubling I to a hyperbolic area, 2 pi from the angular
integration of the radial measure).

In u = atanh(rho) the disc integral is taken against :func:`_radial_weight`
up to the lens kink u = R = 2 atanh(r), the hyperbolic radius of D_r; past
it I is constant and the weight integrates exactly (:func:`_weight_tail`).
The returned error is the error of that one quadrature plus a rounding
bound, and it is checked against the tolerance once, at the end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import linalg, special

from .exceptions import DomainError, QuadratureFailure, TruncationFailure
from .geometry import _lens_area, euclidean_lens_complement_area
from .kernels import EuclideanLevel, HyperbolicLevel, _radial_profile
from .quadrature import DEFAULT_QUAD, QuadratureConfig, integrate_interval
from .specfun import _jacobi_zero_beta_gap

__all__ = [
    "VarianceResult",
    "ContractionRow",
    "variance_euclidean_shirai",
    "variance_euclidean_geometric",
    "variance_hyperbolic",
    "variance_hyperbolic_via_transformed",
    "asymptotic_constant",
    "contraction_check",
]

ROUTES = ("shirai", "geometric", "int1", "int3")


@dataclass(frozen=True)
class VarianceResult:
    """A variance value, its error estimate and the route that produced it."""

    value: float
    error_estimate: float
    route: str

    def __post_init__(self):
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}")


@dataclass(frozen=True)
class ContractionRow:
    """One row of the curvature-rescaling table."""

    scale: float
    scaled_variance: float
    euclidean_target: float
    ratio: float


_EPS = float(np.finfo(float).eps)
# the largest log of a factor of the radial weight; e^700 leaves room below overflow
_LOG_HUGE = 700.0

# planar tail cuts c = 4n + 40, 4n + 60, ... lie past the oscillatory region
# of L_n (t <~ 4n + 2) and stop before e^{-c/2} leaves the normal doubles
_MAX_CUT = 1400.0


def _laguerre_tails(n: int, rule, cuts):
    """int_c^inf L_n(t)^2 e^{-t} dt at each cut c by the (n + 1)-point Gauss-Laguerre
    rule (nodes, root weights): exact for degree 2n, every term positive."""
    cuts = np.asarray(cuts, dtype=float)[..., None]
    terms = rule[1] * np.exp(-0.5 * cuts) * special.eval_laguerre(n, cuts + rule[0])
    return np.sum(terms * terms, axis=-1)


@functools.cache
def _laguerre_rule(n: int):
    """The rule, the cuts and the tails at them, cached per level.  The rule must keep its
    orthonormality sum w L_n(s)^2 = 1, lost near n = 190; then |L_n| < 1e240 wherever used."""
    with np.errstate(all="ignore"):     # a rule that overflows fails the check below
        nodes, weights = special.roots_laguerre(n + 1)
        rule = nodes, np.sqrt(weights)
        norm = float(np.sum((rule[1] * special.eval_laguerre(n, nodes)) ** 2))
    if not abs(norm - 1.0) <= 1e-12:
        raise TruncationFailure(f"the {n + 1}-point Gauss-Laguerre rule has norm {norm!r}")
    cuts = np.arange(4.0 * n + 40.0, _MAX_CUT, 20.0)
    return rule, cuts, _laguerre_tails(n, rule, cuts)


def _variance_planar(level: EuclideanLevel, r: float, quad: QuadratureConfig,
                     route: str) -> VarianceResult:
    """V = (2/pi) int_0^inf rho e^{-rho^2} L_n(rho^2)^2 A(rho) drho, A(rho) = |D_r^c cap
    D_r(rho)|, pi r^2 past 2r; c is the first cut with rest r^2 :func:`_laguerre_tails`
    <= abs_tol/4.  If 4 r^2 <= c the exact rest at 4 r^2 joins the value.  Else the
    quadrature stops at sqrt(c), at 3/4 rel_tol, and the rest bound (A <= pi r^2)
    joins the error: max(2/pi abs_tol, 3/4 rel_tol V) + abs_tol/4 <= tolerance(V)."""
    if not (r > 0.0 and math.isfinite(4.0 * r * r)):
        raise DomainError(f"r must be positive with 4 r^2 finite, got {r}")
    n, r2 = level.n, r * r
    rule, cuts, cut_tails = _laguerre_rule(n)
    bounded = np.flatnonzero(r2 * cut_tails <= 0.25 * quad.abs_tol)     # tails <= 1
    if not bounded.size:
        raise TruncationFailure(f"no cut below {_MAX_CUT} bounds the rest at n={n}, r={r}")
    c = float(cuts[bounded[0]])
    exact = 4.0 * r2 <= c
    rest = r2 * float(_laguerre_tails(n, rule, 4.0 * r2) if exact else cut_tails[bounded[0]])

    def f(rho):
        scaled = np.exp(-0.5 * rho * rho) * special.eval_laguerre(n, rho * rho)  # e^{-t/2} L_n(t)
        return rho * scaled * scaled * euclidean_lens_complement_area(r, rho)

    value, err = integrate_interval(f, 0.0, min(2.0 * r, math.sqrt(c)),
                                    quad if exact else replace(quad, rel_tol=0.75 * quad.rel_tol))
    value, err = 2.0 / math.pi * value, 2.0 / math.pi * err
    return VarianceResult(value + exact * rest, err + (not exact) * rest, route)


def variance_euclidean_shirai(level: EuclideanLevel, r: float,
                              quad: QuadratureConfig = DEFAULT_QUAD) -> VarianceResult:
    """Planar count variance by Shirai's (r/pi) int L_n(t)^2 e^{-t} g(t) dt: his
    factor is the lens area, r g(t) = A(sqrt(t)), so this is the geometric route."""
    return _variance_planar(level, r, quad, "shirai")


def variance_euclidean_geometric(level: EuclideanLevel, r: float,
                                 quad: QuadratureConfig = DEFAULT_QUAD) -> VarianceResult:
    """Planar count variance with the lens area of :mod:`dppstats.geometry`."""
    return _variance_planar(level, r, quad, "geometric")


def _check_weight_envelope(level: HyperbolicLevel) -> None:
    """:class:`QuadratureFailure` if (beta/pi)^2 max |P_m^{(0, beta)}|^2, the
    largest factors of the radial weight, overflow a double."""
    # max |P_m| = (beta + 1)_m / m!, by betaln: a difference of lgammas cancels at large beta
    log_pmax = -special.betaln(level.beta + 1.0, level.m + 1.0) - math.log(level.beta + level.m + 1.0)
    log_envelope = 2.0 * (math.log(level.beta / math.pi) + log_pmax)
    if log_envelope > _LOG_HUGE:
        raise QuadratureFailure(
            f"the radial weight overflows at nu={level.nu}, m={level.m}: "
            f"(beta/pi)^2 max|P_m|^2 = e^{log_envelope:.6g}")


def _radial_weight(level: HyperbolicLevel, u):
    """Radial weight of the disc routes in u = atanh(rho), for an array ``u``.

    tanh u cosh^2 u (beta/pi sech^{2 (nu - m)} u P_m^{(0, beta)}(2 sech^2 u - 1))^2,
    i.e. rho (1 - rho^2)^{-1} times the profile of
    :func:`dppstats.kernels.f_profile`, with drho = sech^2 u du absorbed.
    sech^2 u enters as its logarithm -2 log1p(2 sinh^2(u/2)) and rho^2 as
    tanh^2 u, both accurate at the small u where a large beta puts the weight.
    """
    sinh_half = np.sinh(0.5 * u)
    log_g = -2.0 * np.log1p(2.0 * sinh_half * sinh_half)        # log sech^2 u
    return np.sinh(u) * np.cosh(u) * _radial_profile(level, log_g, np.tanh(u) ** 2)


@functools.lru_cache(maxsize=256)
def _tail_rule(m: int, beta: float, a: float = 0.0):
    """(m + 1)-point Gauss rule for t^{beta - 1} (1 - t)^a dt on [0, 1], in y = beta (1 - t).

    Golub-Welsch on the Jacobi matrix of x^a (1 - x)^{beta - 1} dx, x = 1 - t,
    whose entries are written without cancellation and scaled by beta, with
    every square root split, so they stay finite for every beta > 0 (at
    a = 0 they tend to the Gauss-Laguerre ones, 2k + 1 and k, as beta
    grows).  Returns nodes y and weights summing to 1, all positive.
    """
    b = beta - 1.0
    k = np.arange(1.0, m + 1.0)
    s = 2.0 * k + a + b
    diag = np.empty(m + 1)
    diag[0] = beta * (a + 1.0) / (a + b + 2.0)
    diag[1:] = beta / s * (2.0 * k * (k + a + b + 1.0) + b + a * (a + b + 1.0)) / (s + 2.0)
    off = (beta / s * np.sqrt(k * (k + a)) * (k + b) * np.sqrt((k + a + b) / (k + b))
           / (np.sqrt(s + 1.0) * np.sqrt(s - 1.0)))
    if m == 0:
        y, w = diag, np.ones(1)
    else:
        y, vectors = linalg.eigh_tridiagonal(diag, off)
        w = vectors[0] ** 2
    y.setflags(write=False)           # cached: every caller shares these arrays
    w.setflags(write=False)
    return y, w


def _weight_tail(level: HyperbolicLevel, u0: float):
    """log of int_{u0}^inf :func:`_radial_weight` du, exactly, and its size.

    With s = sech^2 u the integral is
    1/2 (beta/pi)^2 int_0^{s0} s^{beta - 1} P_m^{(0, beta)}(2s - 1)^2 ds,
    s0 = sech^2 u0.  Put s = s0 t: the Jacobi factor is a polynomial of
    degree 2m in t, so :func:`_tail_rule` integrates it exactly and
    every term is positive:

        beta/(2 pi^2) s0^beta sum_i w_i P_m^{(0, beta)}(1 - 2 (1 - s0 t_i))^2,

    with 1 - s0 t_i = tanh^2 u0 + s0 y_i / beta.  The prefactor is formed in
    log space; at m = 0 the sum is 1.  Returns (log value, sum of the
    magnitudes of the logarithms added), the second for a rounding bound.
    """
    beta, m = level.beta, level.m
    log_s0 = -2.0 * math.log1p(2.0 * math.sinh(0.5 * u0) ** 2)
    y, w = _tail_rule(m, beta)
    one_minus_s = math.tanh(u0) ** 2 + math.exp(log_s0) * y / beta
    p = _jacobi_zero_beta_gap(m, beta, one_minus_s)
    parts = (math.log(beta / (2.0 * math.pi ** 2)), beta * log_s0, math.log(float(w @ (p * p))))
    return sum(parts), sum(abs(x) for x in parts)


def _variance_disc(level: HyperbolicLevel, r: float, quad: QuadratureConfig,
                   route: str) -> VarianceResult:
    """V = 4 pi [int_0^R w(u) I(u) du + lens_max int_R^inf w(u) du], R = 2 atanh r.

    w is :func:`_radial_weight` and I the closed-form lens area
    (:func:`dppstats.geometry._lens_area`), which is lens_max from u = R on;
    the second integral is :func:`_weight_tail`.  The first runs in
    u = R - w^2, which removes the square-root behaviour of I at the kink
    and hands the lens R - u = w^2 exactly.  Its error is the one that
    :func:`integrate_interval` checked, plus a rounding bound: an n-node
    Gauss-Legendre rule is good to about 2 n eps relative, u = R - w^2 moves
    the peak of the weight by eps R, and the tail's prefactor is an
    exponential.  :class:`QuadratureFailure` is raised if the sum misses
    the tolerance.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    _check_weight_envelope(level)
    beta, R = level.beta, 2.0 * math.atanh(r)
    # past u = 8 sqrt((m + 1)/beta) the weight has fallen by e^{-64}; a range much longer
    # is split there, so that the first rules cannot miss a narrow peak at large beta
    peak = 8.0 * math.sqrt((level.m + 1) / beta)
    resolution = 4.0 * (level.m + 1) * R * math.sqrt(beta) * _EPS
    if resolution > quad.rel_tol:
        raise QuadratureFailure(
            f"u = R - w^2 resolves the weight's peak at u ~ {peak:.3g} only to "
            f"{resolution:.3g} relative at nu={level.nu}, m={level.m}, r={r}")
    nodes = [0]                                  # largest rule the quadrature used

    def f(w):
        nodes[0] = max(nodes[0], np.shape(w)[-1])
        gap = w * w
        u = R - gap
        return 2.0 * w * _radial_weight(level, u) * _lens_area(R, u, gap)

    breakpoints = (math.sqrt(R - peak),) if 8.0 * peak < R else ()
    value, err = integrate_interval(f, 0.0, math.sqrt(R), quad, breakpoints)
    log_tail, log_size = _weight_tail(level, R)
    rest = 0.5 * math.pi * math.sinh(0.5 * R) ** 2 * math.exp(log_tail)   # lens_max x tail
    rounding = (_EPS * (2.0 * nodes[0] + 16.0) + resolution) * value + _EPS * (8.0 + log_size) * rest
    total, err_total = 4.0 * math.pi * (value + rest), 4.0 * math.pi * (err + rounding)
    if not err_total <= quad.tolerance(total):
        raise QuadratureFailure(
            f"disc variance at nu={level.nu}, m={level.m}, r={r}: error {err_total:.3e} "
            f"exceeds tolerance {quad.tolerance(total):.3e}")
    return VarianceResult(total, err_total, route)


def variance_hyperbolic(level: HyperbolicLevel, r: float,
                        quad: QuadratureConfig = DEFAULT_QUAD) -> VarianceResult:
    """Disc-process count variance: one radial integral of the closed-form lens
    area with an exact rest past the kink (:func:`_variance_disc`)."""
    return _variance_disc(level, r, quad, "int1")


def variance_hyperbolic_via_transformed(level: HyperbolicLevel, r: float,
                                        quad: QuadratureConfig = DEFAULT_QUAD) -> VarianceResult:
    """The computation of :func:`variance_hyperbolic` under the route name int3.

    The two disc routes once integrated the lens by different quadratures;
    both now use its closed form, so their agreement checks nothing.  The
    independent checks are :func:`dppstats.counting.variance_series` at
    m = 0 and the quadrature-lens oracle of the test suite at m > 0.
    """
    return _variance_disc(level, r, quad, "int3")


def asymptotic_constant(level: HyperbolicLevel,
                        quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Constant C in Var(N_r) ~ C / (1 - r^2) as r -> 1, as an exact finite sum.

    As r -> 1, (1 - r^2) times the lens area tends to gd u = asin(tanh u), so
    C = 4 pi int w gd du = 4 pi int sech(u) T(u) du by parts, with w the weight
    of :func:`_radial_weight` and T its exact tail (:func:`_weight_tail`).  In
    z = tanh^2 u, T = beta/(2 pi^2) (1 - z)^beta S(z), where S(z) is the sum
    w_i P_m^{(0, beta)}(1 - 2 (z + tau_i - z tau_i))^2 of degree 2m, so

        C = (beta/pi) int_0^1 z^{-1/2} (1 - z)^{beta - 1/2} S(z) dz
          = sum_k v_k S(z_k) / B(beta, 1/2)

    with (z_k, v_k) from :func:`_tail_rule` at (beta + 1/2, a = -1/2): (m + 1)^2
    positive terms, summed exactly.  At m = 0, C = 1/B(beta, 1/2); always
    C <= beta = 2 (nu - m) - 1.  :class:`QuadratureFailure` if a rounding
    bound misses ``quad.tolerance(C)`` or the Jacobi recurrence overflows
    (beta past about 1e154 at m >= 2).
    """
    beta, m = level.beta, level.m
    tau, w = _tail_rule(m, beta)
    z, v = _tail_rule(m, beta + 0.5, -0.5)
    z, tau = (z / (beta + 0.5))[:, None], tau / beta
    with np.errstate(all="ignore"):   # an overflowing recurrence makes every P 0, inf or nan
        p = _jacobi_zero_beta_gap(m, beta, z + tau - z * tau)
        total = float(v @ (p * p) @ w)
    # -log B(beta, 1/2): scipy's betaln differences lgammas past beta = 171 and loses up
    # to 2e-9 there, so larger beta take Stirling's series, next term below 1.2e-3 beta^-7
    b2 = beta * beta
    parts = ((-special.betaln(beta, 0.5),) if beta <= 100.0 else
             (0.5 * math.log(beta / math.pi), (-0.125 + (1 / 192 - 1 / (640 * b2)) / b2) / beta))
    value = math.exp(sum(parts)) * total
    rounding = _EPS * (16.0 * (m + 1) ** 2 + sum(abs(x) for x in parts)) * value
    if not (0.0 < value < math.inf and rounding <= quad.tolerance(value)):
        raise QuadratureFailure(
            f"limit constant at nu={level.nu}, m={level.m}: {value!r} with rounding "
            f"{rounding:.3e} against tolerance {quad.tolerance(value):.3e}")
    return value


def contraction_check(m: int, r: float, R_values: Sequence[float],
                      quad: QuadratureConfig = DEFAULT_QUAD) -> list[ContractionRow]:
    """Curvature-rescaling table connecting disc levels to planar ones.

    For each scale R the disc process at (nu, m) = (R^2/2, m) is evaluated
    in the shrunk disc of radius r/R and compared against the planar
    variance at level m and radius r; the ratio tends to 1 as R grows.

    No power of R multiplies the disc-process variance: rescaling the
    integration variables blows the intensity up by R^2 (through
    beta^2/R^4 -> 1 with beta = R^2 - 2m - 1) while the disc of radius r/R
    shrinks the reference area by 1/R^2, and the two cancel exactly.  The
    count means already show this: E N_{r/R} = beta (r/R)^2 / (1 - (r/R)^2)
    at m = 0 tends to r^2, the planar mean, with no residual factor.
    """
    if m < 0 or m != int(m):
        raise DomainError(f"m must be a non-negative integer, got {m}")
    target = variance_euclidean_geometric(EuclideanLevel(int(m)), r, quad).value  # checks r
    rows = []
    for R in R_values:
        if not R > 1.0:
            raise DomainError(f"each scale must exceed 1, got {R}")
        if not r / R < 1.0:
            raise DomainError(f"r/R must lie in (0, 1), got {r / R}")
        level = HyperbolicLevel(R * R / 2.0, int(m))
        scaled = variance_hyperbolic(level, r / R, quad).value
        rows.append(ContractionRow(scale=float(R), scaled_variance=scaled,
                                   euclidean_target=target,
                                   ratio=scaled / target))
    return rows
