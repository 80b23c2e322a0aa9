"""Count variances in centred discs, their large-radius asymptotics and the
flat-geometry limit.

Each geometry has one computation: a radial integral of a weight times a
lens area, plus the exact integral of the weight past the point where the
area stops growing.  On the plane the area is A(rho) = r g(rho^2) (g is
Shirai's angular factor) and the rest past rho = 2r is a Gauss-Laguerre sum;
on the disc the area is the Gauss-Bonnet closed form and the rest a
Gauss-Jacobi sum.  Both exact sums take their rules from one builder,
:func:`_gauss_rule` (eigenvalue nodes, Christoffel weights, from the Jacobi
matrix of the weight); each radial integral is one call of
:func:`dppstats.quadrature.integrate_interval`, Gauss-Legendre on its
breakpoint pieces kept as Python floats (not the rows core of
``integrate_rows``), whose error carries its rules' rounding, and one check,
:func:`dppstats.quadrature._certify`, holds every variance and C to the
tolerance.  :data:`ROUTES` lists each geometry's route names: the first labels
its one computation, the second is an alias that returns the same numbers under
its own label, so the two names check nothing against each other.  Also here:
the constant C of Var(N_r) ~ C / (1 - r^2) as r -> 1, a finite sum, and the
curvature-rescaling table that links the disc family to the planar one.

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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .exceptions import DomainError, QuadratureFailure, TruncationFailure
from .geometry import _lens_area, _lens_complement
from .kernels import EuclideanLevel, HyperbolicLevel, _radial_profile
from .quadrature import DEFAULT_QUAD, QuadratureConfig, _certify, integrate_interval
from .specfun import _jacobi_zero_beta_gap, _laguerre_product

__all__ = ["VarianceResult", "ContractionRow", "variance_euclidean_shirai",
           "variance_euclidean_geometric", "variance_hyperbolic",
           "variance_hyperbolic_via_transformed", "asymptotic_constant", "contraction_check"]

# each geometry's route names; the first labels its one computation, the second an alias
ROUTES = {"disc": ("int1", "int3"), "planar": ("shirai", "geometric")}
_LABELS = frozenset(name for names in ROUTES.values() for name in names)


@dataclass(frozen=True)
class VarianceResult:
    """A variance value, its error estimate and its route name (:data:`ROUTES`)."""

    value: float
    error_estimate: float
    route: str

    def __post_init__(self):
        if self.route not in _LABELS:
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

# from n = 195 on, the last weight of the (n + 1)-point Gauss-Laguerre rule underflows to 0
_MAX_PLANAR_N = 194
# the largest disc level m whose (m + 1)-point Gauss-Jacobi rules are built, as dense matrices
_MAX_DISC_M = 4096

# multiplies the (p_k, p_k') rows of _gauss_rule into p_k^2 and (p_k^2)' = 2 p_k p_k'
_SUM_AND_SLOPE = np.array([[1.0], [2.0]])


def _gauss_rule(diag, off):
    """Nodes, ascending, and weights summing to 1 of the Gauss rule of a Jacobi matrix.

    ``diag`` and ``off`` hold the recurrence off_k p_{k+1} = (y - diag_k) p_k -
    off_{k-1} p_{k-1}, p_0 = 1, of the orthonormal polynomials of a measure of mass 1,
    whose zeros in p_n are the nodes (Golub & Welsch, Math. Comp. 23 (1969)): the
    eigenvalues (:func:`numpy.linalg.eigvalsh`) after one Newton step on p_n, off_n = 1.
    Each weight is the Christoffel number 1 / sum_{k<n} p_k(y)^2 (Gautschi 2004), a
    positive sum, so it keeps its relative accuracy however small; an eigenvector's
    first component is good to about eps absolute.  The sum is taken at the
    eigenvalue and moved by the Newton step to first order.  A sum past 2^600 is
    scaled by 2^-600, so a weight below the doubles underflows to 0.  Read-only arrays.
    """
    y = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    off, shifted = np.append(off, 1.0), y - diag[:, None]
    prev, cur, acc = np.zeros((3, 2, y.size))     # rows: p_k and p_k' at the nodes
    cur[0] = 1.0
    shift = np.zeros(y.size, dtype=int)
    for k in range(y.size):
        acc += cur[0] * cur * _SUM_AND_SLOPE      # sum_{j<=k} p_j^2 and its derivative
        nxt = shifted[k] * cur - (off[k - 1] if k else 0.0) * prev
        nxt[1] += cur[0]
        prev, cur = cur, nxt / off[k]
        if acc[0].max() > 2.0 ** 600:
            big = acc[0] > 2.0 ** 600
            prev[:, big], cur[:, big] = prev[:, big] * 2.0 ** -300, cur[:, big] * 2.0 ** -300
            acc[:, big], shift[big] = acc[:, big] * 2.0 ** -600, shift[big] + 600
    step = cur[0] / cur[1]
    w = np.ldexp(1.0 / (acc[0] - step * acc[1]), -shift)
    y, w = y - step, w / w.sum()
    y.setflags(write=False)           # cached by the callers, which share these arrays
    w.setflags(write=False)
    return y, w


def _laguerre_tail(n: int, rule, c: float) -> float:
    """int_c^inf L_n(t)^2 e^{-t} dt by the (n + 1)-point Gauss-Laguerre rule (nodes,
    root weights): exact for degree 2n, every term positive and scaled by e^{-c/2}
    before it is squared."""
    terms = _laguerre_product(n, c + rule[0]) * (math.exp(-0.5 * c) * rule[1])
    return float(terms @ terms)


@functools.cache
def _laguerre_rule(n: int):
    """The rule, the cuts and the tails at them, cached per level.  The rule is
    :func:`_gauss_rule` of e^{-t} (diagonal 2k + 1, subdiagonal k) and must keep its
    orthonormality sum w L_n(s)^2 = 1, the tail at c = 0; then |L_n| < 1e271 wherever
    used.  From n = 195 on the last weight underflows to 0, and the rule is refused
    from n alone, before its matrix is built or L_n formed (its product at the last
    node would overflow by n = 400)."""
    if n > _MAX_PLANAR_N:
        raise TruncationFailure(f"the last weight of the {n + 1}-point Gauss-Laguerre rule "
                                f"underflows to 0 from n = {_MAX_PLANAR_N + 1} on")
    k = np.arange(n + 1.0)
    nodes, weights = _gauss_rule(2.0 * k + 1.0, k[1:])
    rule = nodes, np.sqrt(weights)
    norm = _laguerre_tail(n, rule, 0.0)
    if not abs(norm - 1.0) <= 1e-12:
        raise TruncationFailure(f"the {n + 1}-point Gauss-Laguerre rule has norm {norm!r}")
    cuts = np.arange(4.0 * n + 40.0, _MAX_CUT, 20.0)
    return rule, cuts, np.array([_laguerre_tail(n, rule, c) for c in cuts.tolist()])


def variance_euclidean_shirai(level: EuclideanLevel, r: float,
                              quad: QuadratureConfig = DEFAULT_QUAD) -> VarianceResult:
    """Planar count variance, the plane's one computation (route shirai).

    Shirai's (r/pi) int L_n(t)^2 e^{-t} g(t) dt, whose factor is the lens area,
    r g(t) = A(sqrt(t)): V = (2/pi) int_0^inf rho e^{-rho^2} L_n(rho^2)^2 A(rho) drho,
    A(rho) = |D_r^c cap D_r(rho)|, pi r^2 past 2r; c is the first cut with rest
    r^2 :func:`_laguerre_tail` <= abs_tol/4.  If 4 r^2 <= c the exact rest at 4 r^2
    joins the value and its rounding, (8 + 4 r^2 + (n + 1)^2) eps of it, the error:
    e^{-t} at a rounded t = 4 r^2 moves by 4 r^2 eps, and against 200-digit sums
    the rest was within 210 eps up to n = 187 and 0.26 (n + 1)^2 eps at n = 188,
    where one weight of the rule is subnormal.  Else the quadrature stops at
    sqrt(c), at 3/4 rel_tol, and the rest bound (A <= pi r^2) joins the error:
    max(2/pi abs_tol, 3/4 rel_tol V) + abs_tol/4 <= tolerance(V).
    The integral's error carries its rule's rounding (:func:`integrate_interval`);
    :func:`dppstats.quadrature._certify` checks the sum against the tolerance."""
    if not (r > 0.0 and math.isfinite(4.0 * r * r)):
        raise DomainError(f"r must be positive with 4 r^2 finite, got {r}")
    n, r2 = level.n, r * r
    rule, cuts, cut_tails = _laguerre_rule(n)
    bounded = np.flatnonzero(r2 * cut_tails <= 0.25 * quad.abs_tol)     # tails <= 1
    if not bounded.size:
        raise TruncationFailure(f"no cut below {_MAX_CUT} bounds the rest at n={n}, r={r}")
    c = float(cuts[bounded[0]])
    exact = 4.0 * r2 <= c
    rest = r2 * (_laguerre_tail(n, rule, 4.0 * r2) if exact else float(cut_tails[bounded[0]]))

    def f(rho):
        t = rho * rho
        scaled = np.exp(-0.5 * t) * _laguerre_product(n, t)      # e^{-t/2} L_n(t)
        return rho * scaled * scaled * _lens_complement(r, rho)   # every node is at most 2r

    value, err = integrate_interval(
        f, 0.0, min(2.0 * r, math.sqrt(c)),
        quad if exact else replace(quad, rel_tol=0.75 * quad.rel_tol))
    total = 2.0 / math.pi * value + exact * rest
    rest_err = _EPS * (8.0 + 4.0 * r2 + (n + 1) ** 2) * rest if exact else rest
    err_total = _certify(total, 2.0 / math.pi * err + rest_err, quad,
                         "for the planar variance at n={}, r={}", n, r)
    return VarianceResult(total, err_total, "shirai")


def variance_euclidean_geometric(level: EuclideanLevel, r: float,
                                 quad: QuadratureConfig = DEFAULT_QUAD) -> VarianceResult:
    """:func:`variance_euclidean_shirai`'s result under the route name geometric."""
    res = variance_euclidean_shirai(level, r, quad)
    return VarianceResult(res.value, res.error_estimate, "geometric")


def _check_degree(level: HyperbolicLevel) -> None:
    """:class:`TruncationFailure` if m exceeds _MAX_DISC_M, from m alone, before the
    (m + 1)-point Gauss-Jacobi rule's dense (m + 1)^2 matrix is asked for."""
    if level.m > _MAX_DISC_M:
        raise TruncationFailure(f"the level m={level.m} exceeds {_MAX_DISC_M}, the largest "
                                f"whose Gauss-Jacobi rule is built")


def _check_weight_envelope(level: HyperbolicLevel) -> None:
    """:class:`QuadratureFailure` if (beta/pi)^2 max |P_m^{(0, beta)}|^2, the
    largest factors of the radial weight, overflow a double."""
    # max |P_m| = (beta + 1)_m / m! = prod_{i <= m} (1 + beta / i), summed as logs
    log_pmax = math.fsum(math.log1p(level.beta / i) for i in range(1, level.m + 1))
    log_envelope = 2.0 * (math.log(level.beta / math.pi) + log_pmax)
    if log_envelope > _LOG_HUGE:
        raise QuadratureFailure(
            f"the radial weight overflows at nu={level.nu}, m={level.m}: "
            f"(beta/pi)^2 max|P_m|^2 = e^{log_envelope:.6g}")


def _radial_weight(level: HyperbolicLevel, u):
    """Radial weight of the disc variance in u = atanh(rho), for an array ``u``.

    tanh u cosh^2 u (beta/pi sech^{2 (nu - m)} u P_m^{(0, beta)}(2 sech^2 u - 1))^2,
    i.e. rho (1 - rho^2)^{-1} times the profile of
    :func:`dppstats.kernels.f_profile`, with drho = sech^2 u du absorbed.
    sech^2 u enters as its logarithm -2 log1p(2 sinh^2(u/2)) and rho^2 as
    tanh^2 u, both accurate at the small u where a large beta puts the weight.
    """
    sinh_half = np.sinh(0.5 * u)
    log_g = -2.0 * np.log1p(2.0 * sinh_half * sinh_half)        # log sech^2 u
    return np.sinh(u) * np.cosh(u) * _radial_profile(level, log_g, np.tanh(u) ** 2)


def _tail_jacobi(m: int, beta: float, a: float = 0.0):
    """Diagonal and subdiagonal of the Jacobi matrix of :func:`_tail_rule`.

    The matrix is that of x^a (1 - x)^{beta - 1} dx, x = 1 - t, scaled by
    beta.  Its entries are written without cancellation, with every square
    root split, so they stay finite for every beta > 0 (at a = 0 they tend
    to the Gauss-Laguerre ones, 2k + 1 and k, as beta grows).
    """
    b = beta - 1.0
    k = np.arange(1.0, m + 1.0)
    s = 2.0 * k + a + b
    diag = np.empty(m + 1)
    diag[0] = beta * (a + 1.0) / (a + b + 2.0)
    diag[1:] = beta / s * (2.0 * k * (k + a + b + 1.0) + b + a * (a + b + 1.0)) / (s + 2.0)
    off = (beta / s * np.sqrt(k * (k + a)) * (k + b) * np.sqrt((k + a + b) / (k + b))
           / (np.sqrt(s + 1.0) * np.sqrt(s - 1.0)))
    return diag, off


@functools.lru_cache(maxsize=256)
def _tail_rule(m: int, beta: float, a: float = 0.0):
    """(m + 1)-point Gauss rule for t^{beta - 1} (1 - t)^a dt on [0, 1], in y = beta (1 - t)."""
    return _gauss_rule(*_tail_jacobi(m, beta, a))


def _tail_sum(level: HyperbolicLevel, x, s):
    """sum_i w_i P_m^{(0, beta)}(1 - 2 (x + s y_i / beta))^2 over :func:`_tail_rule` (m, beta),
    for arrays ``x`` and ``s`` (a leading axis each): the Jacobi factor of the exact weight
    tail (:func:`_weight_tail`), a polynomial of degree 2m in x and s, every term positive."""
    y, w = _tail_rule(level.m, level.beta)
    p = _jacobi_zero_beta_gap(level.m, level.beta, x[..., None] + s[..., None] * (y / level.beta))
    return (p * p) @ w


def _weight_tail(level: HyperbolicLevel, u0: float):
    """log of int_{u0}^inf :func:`_radial_weight` du, exactly, and its size.

    With s = sech^2 u the integral is
    1/2 (beta/pi)^2 int_0^{s0} s^{beta - 1} P_m^{(0, beta)}(2s - 1)^2 ds, s0 = sech^2 u0.
    Put s = s0 t: the Jacobi factor has degree 2m in t, so :func:`_tail_rule` sums it
    exactly, beta/(2 pi^2) s0^beta :func:`_tail_sum` (tanh^2 u0, s0), the prefactor in
    log space.  Returns (log value, sum of the magnitudes of the logarithms added),
    the second for a rounding bound.
    """
    beta = level.beta
    log_s0 = -2.0 * math.log1p(2.0 * math.sinh(0.5 * u0) ** 2)
    total = float(_tail_sum(level, np.array(math.tanh(u0) ** 2), np.array(math.exp(log_s0))))
    parts = (math.log(beta / (2.0 * math.pi ** 2)), beta * log_s0, math.log(total))
    return sum(parts), sum(abs(x) for x in parts)


def variance_hyperbolic(level: HyperbolicLevel, r: float,
                        quad: QuadratureConfig = DEFAULT_QUAD) -> VarianceResult:
    """Disc-process count variance, the disc's one computation (route int1).

    V = 4 pi [int_0^R w(u) I(u) du + lens_max int_R^inf w(u) du], R = 2 atanh r.

    w is :func:`_radial_weight` and I the closed-form lens area
    (:func:`dppstats.geometry._lens_area`), which is lens_max from u = R on;
    the second integral is :func:`_weight_tail`.  The first runs in
    u = R - w^2, which removes the square-root behaviour of I at the kink
    and hands the lens R - u = w^2 exactly.  Its error is
    :func:`integrate_interval`'s, which carries its rule's rounding, plus its own
    terms: u = R - w^2 moves the peak of the weight by eps R (the
    resolution), the tail's prefactor is an exponential and its sum is good
    to 4 (m + 1)^2 eps relative (the rounded arguments of P_m meet its slope,
    up to m^2 times its size; the rule's weights lose a few (m + 1) eps).
    :func:`dppstats.quadrature._certify` checks the sum against the tolerance.
    m > 4096 raises :class:`TruncationFailure` before any rule or integrand is
    evaluated.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    _check_degree(level)
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

    def f(w):
        gap = w * w
        u = R - gap
        return 2.0 * w * _radial_weight(level, u) * _lens_area(R, u, gap)

    breakpoints = (math.sqrt(R - peak),) if 8.0 * peak < R else ()
    value, err = integrate_interval(f, 0.0, math.sqrt(R), quad, breakpoints)
    log_tail, log_size = _weight_tail(level, R)
    rest = 0.5 * math.pi * math.sinh(0.5 * R) ** 2 * math.exp(log_tail)   # lens_max x tail
    rounding = resolution * value + _EPS * (8.0 + 4.0 * (level.m + 1) ** 2 + log_size) * rest
    total = 4.0 * math.pi * (value + rest)
    err_total = _certify(total, 4.0 * math.pi * (err + rounding), quad,
                         "for the disc variance at nu={}, m={}, r={}", level.nu, level.m, r)
    return VarianceResult(total, err_total, "int1")


def variance_hyperbolic_via_transformed(level: HyperbolicLevel, r: float,
                                        quad: QuadratureConfig = DEFAULT_QUAD) -> VarianceResult:
    """:func:`variance_hyperbolic`'s result under the route name int3; the
    independent checks are :func:`dppstats.counting.variance_series` at m = 0 and
    the quadrature-lens oracle of the test suite at m > 0."""
    res = variance_hyperbolic(level, r, quad)
    return VarianceResult(res.value, res.error_estimate, "int3")


def asymptotic_constant(level: HyperbolicLevel,
                        quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Constant C in Var(N_r) ~ C / (1 - r^2) as r -> 1, as an exact finite sum.

    As r -> 1, (1 - r^2) times the lens area tends to gd u = asin(tanh u), so
    C = 4 pi int w gd du = 4 pi int sech(u) T(u) du by parts, with w the weight
    of :func:`_radial_weight` and T its exact tail (:func:`_weight_tail`).  In
    z = tanh^2 u, T = beta/(2 pi^2) (1 - z)^beta S(z), where S(z) is the sum
    :func:`_tail_sum` at (z, 1 - z), of degree 2m, so

        C = (beta/pi) int_0^1 z^{-1/2} (1 - z)^{beta - 1/2} S(z) dz
          = sum_k v_k S(z_k) / B(beta, 1/2)

    with (z_k, v_k) from :func:`_tail_rule` at (beta + 1/2, a = -1/2): (m + 1)^2
    positive terms, summed exactly.  At m = 0, C = 1/B(beta, 1/2); always
    C <= beta = 2 (nu - m) - 1.  The rounding bound is 16 (m + 1)^2 eps for
    the sum and 8 eps for the prefactor 1/B(beta, 1/2), a ratio of gammas up to
    beta = 100 and Stirling's series past it, within 5 eps of 40-digit values.
    :class:`QuadratureFailure` if the rounding misses ``quad.tolerance(C)``
    (:func:`dppstats.quadrature._certify`), C is not finite and positive or C
    exceeds beta by more than its rounding; :class:`TruncationFailure`, before
    any rule is built, if m > 4096.
    """
    _check_degree(level)
    beta, m = level.beta, level.m
    z, v = _tail_rule(m, beta + 0.5, -0.5)
    z = z / (beta + 0.5)
    with np.errstate(all="ignore"):   # a P^2 past DBL_MAX makes the sum inf, raised below
        total = float(v @ _tail_sum(level, z, 1.0 - z))
    # 1/B(beta, 1/2) = Gamma(beta + 1/2) / (Gamma(beta) sqrt(pi)); the bit beta + 1/2 drops
    # past a power of 2 (133 eps at beta = 64) returns as Gamma(s + d) = Gamma(s)(1 + d psi(s)).
    # Past 100, Stirling's series of the ratio over sqrt(beta/pi), next term < 1.2e-3 beta^-7
    if beta <= 100.0:
        s = beta + 0.5
        d = beta - (s - 0.5)     # exactly what the rounding dropped
        prefactor = (math.gamma(s) * (1.0 + d * (math.log(s) - 0.5 / s))
                     / (math.gamma(beta) * math.sqrt(math.pi)))
    else:
        b2 = beta * beta
        prefactor = (math.sqrt(beta / math.pi)
                     * math.exp((-0.125 + (1 / 192 - 1 / (640 * b2)) / b2) / beta))
    value = prefactor * total
    rounding = _certify(value, _EPS * (16.0 * (m + 1) ** 2 + 8.0) * value, quad,
                        "for the rounding of the limit constant at nu={}, m={}", level.nu, m)
    if not (0.0 < value and value - rounding <= beta):
        raise QuadratureFailure(
            f"limit constant at nu={level.nu}, m={m}: {value!r} with rounding "
            f"{rounding:.3e} lies outside its bound (0, {beta!r}]")
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
    target = variance_euclidean_shirai(EuclideanLevel(int(m)), r, quad).value  # checks r
    rows = []
    for R in R_values:
        if not R > 1.0:
            raise DomainError(f"each scale must exceed 1, got {R}")
        if not r / R < 1.0:
            raise DomainError(f"r/R must lie in (0, 1), got {r / R}")
        level = HyperbolicLevel(R * R / 2.0, int(m))
        scaled = variance_hyperbolic(level, r / R, quad).value
        rows.append(ContractionRow(float(R), scaled, target, scaled / target))
    return rows
