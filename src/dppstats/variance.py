"""Count variances in centred discs, their large-radius asymptotics and the
flat-geometry limit.

Planar processes admit two independent evaluations of Var(N_r): a weighted
Laguerre integral with a closed-form angular factor, and a radial integral
against the Euclidean lens area.  Disc processes likewise admit the direct
angular route and the integration-by-parts route; the module also computes
the constant governing Var(N_r) ~ C / (1 - r^2) as r -> 1, and the
curvature-rescaling table that connects the disc family to the planar one.

Conventions.  The radial reduction of the disc-process variance is

    V = 4 pi * int_0^1 rho (1 - rho^2)^{-2} f(rho) I(rho, r) drho,

where f is the radial weight profile and I the *un-doubled* angular lens
integral of :func:`dppstats.geometry.hyperbolic_lens_integral`; the single
factor 2 of the variance formula is absorbed into the 4 pi prefactor
exactly once (2 from doubling I to a hyperbolic area, 2 pi from the angular
integration of the radial measure).

The radial integral runs in u = atanh(rho) against :func:`_radial_weight`,
split at the lens kink into three pieces that refine together.  Each call
of its integrand holds the nodes of every piece still refining and
evaluates the lens integral at all of them at once, through the batched
lens functions of :mod:`dppstats.geometry`; it records the largest
weighted inner error, which enters the error estimate as
(range length) x (that supremum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .exceptions import DomainError
from .geometry import (_lens_direct, _lens_transformed,
                       euclidean_lens_complement_area)
from .kernels import EuclideanLevel, HyperbolicLevel, _radial_profile
from .quadrature import DEFAULT_QUAD, QuadratureConfig, integrate_interval
from .specfun import laguerre, log_pochhammer

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

ROUTES = ("shirai", "geometric", "int1", "int3", "series")


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


def variance_euclidean_shirai(level: EuclideanLevel, r: float,
                              quad: QuadratureConfig = DEFAULT_QUAD) -> VarianceResult:
    """Planar count variance via the weighted Laguerre integral.

    (r/pi) * int_0^inf L_n(t)^2 e^{-t} g(t) dt with the inner angular
    factor in closed form, g(t) = 2 r theta + r sin(2 theta) and
    theta = arcsin(min(1, sqrt(t)/(2r))).  The outer integral is truncated
    at T with an explicit exponential tail bound below abs_tol.
    """
    if not 0.0 < r < math.inf:
        raise DomainError(f"r must be finite and positive, got {r}")
    n = level.n

    def weighted(t):
        s = np.minimum(1.0, np.sqrt(t) / (2.0 * r))
        theta = np.arcsin(s)
        g = 2.0 * r * theta + r * np.sin(2.0 * theta)
        return laguerre(n, t) ** 2 * np.exp(-t) * g

    # |L_n(t)| <= (3t)^n for t >= 1 gives tail <= 2 r^2 9^n T^{2n} e^{-T}
    T = 80.0 + 10.0 * n
    while 2.0 * r * r * 9.0 ** n * T ** (2 * n) * math.exp(-T) > 0.5 * quad.abs_tol:
        T += 20.0
    tail = 2.0 * r * r * 9.0 ** n * T ** (2 * n) * math.exp(-T)
    # t = x^2 removes the sqrt(t) behaviour of the angular factor at 0
    split = min(4.0 * r * r, T)
    value, err = integrate_interval(
        lambda x: 2.0 * x * weighted(x * x), 0.0, math.sqrt(split), quad)
    if split < T:
        v2, e2 = integrate_interval(weighted, split, T, quad)
        value += v2
        err += e2
    return VarianceResult(max(r / math.pi * value, 0.0),
                          r / math.pi * err + tail, "shirai")


def variance_euclidean_geometric(level: EuclideanLevel, r: float,
                                 quad: QuadratureConfig = DEFAULT_QUAD) -> VarianceResult:
    """Planar count variance via translation invariance and the lens area.

    (2/pi) * int_0^inf rho e^{-rho^2} L_n(rho^2)^2 Area(D_r^c cap D_r(rho)) drho,
    truncated at rho = max(2r, 1) + 8 where the Gaussian weight makes the
    tail negligible (bound below abs_tol by construction).
    """
    if not 0.0 < r < math.inf:
        raise DomainError(f"r must be finite and positive, got {r}")
    n = level.n

    def f(rho):
        return (rho * np.exp(-rho * rho) * laguerre(n, rho * rho) ** 2
                * euclidean_lens_complement_area(r, rho))

    T = max(2.0 * r, 1.0) + 8.0
    tail = 2.0 * r * r * 9.0 ** n * T ** (4 * n) * math.exp(-T * T)
    value, err = integrate_interval(f, 0.0, T, quad, breakpoints=(2.0 * r,))
    return VarianceResult(max(2.0 / math.pi * value, 0.0),
                          2.0 / math.pi * err + tail, "geometric")


def _jacobi_endpoint_max(level: HyperbolicLevel) -> float:
    """max of |P_m^{(0, beta)}| on [-1, 1], attained at -1 for beta > 0."""
    if level.m == 0:
        return 1.0
    return math.exp(log_pochhammer(level.beta + 1.0, level.m) - math.lgamma(level.m + 1))


def _radial_cutoff(level: HyperbolicLevel, envelope: float, abs_tol: float):
    """Upper limit U and tail bound for the radial integral in u = atanh(rho).

    The u-integrand is bounded by M sech^{2 beta}(u) <= M 4^beta e^{-2 beta u}
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


def _radial_weight(level: HyperbolicLevel, u):
    """Radial weight of the disc routes in u = atanh(rho), for an array ``u``.

    tanh u cosh^2 u (beta/pi sech^{2 (nu - m)} u P_m^{(0, beta)}(2 sech^2 u - 1))^2,
    i.e. rho (1 - rho^2)^{-1} times the profile of
    :func:`dppstats.kernels.f_profile`, with drho = sech^2 u du absorbed.
    """
    sech2 = 1.0 / np.cosh(u) ** 2          # == 1 - rho^2, no cancellation
    return np.tanh(u) / sech2 * _radial_profile(level, sech2)


def _inner_config(quad: QuadratureConfig) -> QuadratureConfig:
    # the lens integral must be resolved below the outer tolerance
    return replace(quad, rel_tol=max(quad.rel_tol * 1e-2, 1e-13),
                   abs_tol=max(quad.abs_tol * 1e-2, 1e-14))


def _variance_hyperbolic_radial(level: HyperbolicLevel, r: float,
                                quad: QuadratureConfig,
                                lens: Callable, route: str) -> VarianceResult:
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    beta = level.beta
    inner_quad = _inner_config(quad)
    inner_err_sups = [0.0]                       # per outer call: sup of the error integrand

    def outer(u):
        # every outer node's lens integral in one batched call
        nodes = np.ravel(u).astype(float)
        weight = _radial_weight(level, nodes)
        value, err, _ = lens(r, nodes, inner_quad)
        inner_err_sups.append(float(np.max(weight * err, initial=0.0)))
        return (weight * value).reshape(np.shape(u))

    lens_max = 0.5 * math.pi * r * r / (1.0 - r * r)
    pmax_sq = _jacobi_endpoint_max(level) ** 2
    envelope = (beta / math.pi) ** 2 * pmax_sq * lens_max
    U, tail = _radial_cutoff(level, envelope, quad.abs_tol)
    kink = math.atanh(2.0 * r / (1.0 + r * r))   # lens inner boundary switches here
    piece_quad = replace(quad, abs_tol=quad.abs_tol / 4.0)
    value, err = integrate_interval(outer, 0.0, U, piece_quad,
                                    breakpoints=(kink, kink + 2.0))
    # inner errors propagate through at most (range length) x (sup of the
    # weighted inner error seen at the quadrature nodes)
    err_total = err + tail + U * max(inner_err_sups)
    return VarianceResult(max(4.0 * math.pi * value, 0.0),
                          4.0 * math.pi * err_total, route)


def variance_hyperbolic(level: HyperbolicLevel, r: float,
                        quad: QuadratureConfig = DEFAULT_QUAD) -> VarianceResult:
    """Disc-process count variance via the direct angular lens integral."""
    return _variance_hyperbolic_radial(level, r, quad, _lens_direct, "int1")


def variance_hyperbolic_via_transformed(level: HyperbolicLevel, r: float,
                                        quad: QuadratureConfig = DEFAULT_QUAD) -> VarianceResult:
    """Disc-process count variance via the integration-by-parts lens route.

    Identical contract to :func:`variance_hyperbolic`; the two share no
    quadrature structure in the inner integral and serve as independent
    cross-checks of each other.
    """
    return _variance_hyperbolic_radial(level, r, quad, _lens_transformed, "int3")


def asymptotic_constant(level: HyperbolicLevel,
                        quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Constant C in Var(N_r) ~ C / (1 - r^2) as r -> 1.

    C = 2 pi * int_0^1 rho (1 - rho^2)^{-2} f(rho) arccos(1 - 2 rho^2) drho,
    finite because 2 (nu - m) - 1 > 0.  Bounded above by 2 (nu - m) - 1.
    """
    beta = level.beta

    def outer(u):
        u = np.atleast_1d(u)
        sech2 = 1.0 / np.cosh(u) ** 2
        return _radial_weight(level, u) * np.arccos(np.clip(2.0 * sech2 - 1.0, -1.0, 1.0))

    envelope = (beta / math.pi) ** 2 * _jacobi_endpoint_max(level) ** 2 * math.pi
    U, tail = _radial_cutoff(level, envelope, quad.abs_tol)
    value, _ = integrate_interval(outer, 0.0, U, quad)
    return 2.0 * math.pi * value


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
    if not 0.0 < r < math.inf:
        raise DomainError(f"r must be finite and positive, got {r}")
    target = variance_euclidean_geometric(EuclideanLevel(int(m)), r, quad).value
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
