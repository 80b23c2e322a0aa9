"""Count variances in centred discs, their large-radius asymptotics and the
flat-geometry limit.

The planar routes are one computation, a radial integral against the lens
area A(rho) = r g(rho^2) (g is Shirai's angular factor) with an exact
Gauss-Laguerre rest past rho = 2r, so their agreement checks nothing.  The
disc routes are the direct angular and the integration-by-parts lens
integrals.  Also here: the constant C of Var(N_r) ~ C / (1 - r^2) as r -> 1,
and the curvature-rescaling table that links the disc family to the planar one.

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

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .exceptions import DomainError, TruncationFailure
from .geometry import (_lens_direct, _lens_transformed,
                       euclidean_lens_complement_area)
from .kernels import EuclideanLevel, HyperbolicLevel, _radial_profile
from .quadrature import DEFAULT_QUAD, QuadratureConfig, integrate_interval
from .specfun import log_pochhammer

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
