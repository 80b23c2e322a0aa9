"""Euclidean and Poincare-disc geometry.

Moebius involutions of the unit disc, hyperbolic distance, Moebius images
of centred discs, and the two lens areas that drive the count variances:
the Euclidean area of ``D_r^c \\cap D_r(z)`` and the hyperbolic angular
integral over ``D_r^c \\cap D(C, R)``, where ``D(C, R)`` is the image of
the centred disc ``D_r`` under the involution exchanging 0 and z.

Radial symmetry is exploited throughout: the lens quantities depend only
on ``|z|``, so the integral operations take a modulus, not a point.

The hyperbolic lens integral has a batched form for the disc variance
routes: ``_lens_direct`` and ``_lens_transformed`` take an array of
u_z = atanh(|z|) and return value, error and convergence arrays from one
:func:`dppstats.quadrature.integrate_rows` call, whose integrand works on a
(rows x nodes) matrix with each row's parameters broadcast as a column.
The public functions are the one-row case and raise
:class:`QuadratureFailure` when the tolerance cannot be certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, QuadratureFailure
from .quadrature import DEFAULT_QUAD, QuadratureConfig, integrate_rows

__all__ = [
    "ImageDisc",
    "LensIntegralResult",
    "mobius",
    "hyperbolic_distance",
    "image_disc",
    "euclidean_lens_complement_area",
    "hyperbolic_lens_integral",
    "hyperbolic_lens_integral_transformed",
]

# Floating-point roundoff can push an arccos argument marginally past +-1 at
# integration endpoints (analytically the endpoints are exactly +-1).  Within
# this window the argument is clamped; beyond it the inputs are wrong.
ACOS_CLAMP_WINDOW = 1e-12


@dataclass(frozen=True)
class ImageDisc:
    """Image D(C, R) of the centred disc D_r under the involution at |z|.

    ``center_modulus`` and ``radius`` are the Euclidean parameters |C| and R
    of the image disc; ``inner_edge`` / ``outer_edge`` are the moduli of its
    boundary points nearest to / farthest from the origin, ``|C| -+ R`` in
    absolute value.
    """

    z_modulus: float
    r: float
    center_modulus: float
    radius: float
    inner_edge: float
    outer_edge: float


@dataclass(frozen=True)
class LensIntegralResult:
    """Value and error estimate of a lens integral."""

    value: float
    error_estimate: float


def _require_in_disc(p: complex, name: str):
    if not abs(p) < 1.0:
        raise DomainError(f"{name} must lie in the open unit disc, got |{name}| = {abs(p)}")


def mobius(w: complex, z: complex, theta: float = 0.0) -> complex:
    """Disc automorphism e^{i theta} (w - z) / (1 - conj(w) z).

    With ``theta = 0`` the map is an involution exchanging 0 and ``w``.
    """
    w = complex(w)
    z = complex(z)
    _require_in_disc(w, "w")
    _require_in_disc(z, "z")
    out = (w - z) / (1.0 - w.conjugate() * z)
    if theta != 0.0:
        out *= complex(math.cos(theta), math.sin(theta))
    return out


def hyperbolic_distance(z: complex, w: complex) -> float:
    """Hyperbolic distance between two points of the open unit disc.

    Computed as atanh(|w - z| / |1 - conj(w) z|); equivalently
    cosh^2(d) = |1 - z conj(w)|^2 / ((1-|z|^2)(1-|w|^2)).
    """
    z = complex(z)
    w = complex(w)
    _require_in_disc(z, "z")
    _require_in_disc(w, "w")
    return math.atanh(abs(w - z) / abs(1.0 - w.conjugate() * z))


def image_disc(z_modulus: float, r: float) -> ImageDisc:
    """Parameters of the Moebius image of D_r under the involution at |z|.

    The image is the Euclidean disc with centre modulus
    (1-r^2)|z| / (1-|z|^2 r^2) and radius (1-|z|^2) r / (1-|z|^2 r^2); it is
    also the set of points w with |mobius(w, z)| < r.
    """
    if not 0.0 <= z_modulus < 1.0:
        raise DomainError(f"z_modulus must lie in [0, 1), got {z_modulus}")
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    z = z_modulus
    denom = 1.0 - z * z * r * r
    c = (1.0 - r * r) * z / denom
    rad = (1.0 - z * z) * r / denom
    inner = abs(z - r) / (1.0 - z * r)     # == |c - rad|, cancellation-free
    outer = (z + r) / (1.0 + z * r)        # == c + rad
    return ImageDisc(z_modulus=z, r=r, center_modulus=c, radius=rad,
                     inner_edge=inner, outer_edge=outer)


def euclidean_lens_complement_area(r: float, z_modulus):
    """Euclidean area of D_r^c intersected with the disc D_r(z).

    Equals pi r^2 - 2 r^2 arccos(|z|/2r) + (|z|/2) sqrt(4r^2 - |z|^2) for
    |z| < 2r and pi r^2 otherwise (the translated disc has left the centred
    one entirely).  Continuous in |z|, zero at |z| = 0.  Vectorized in
    ``z_modulus``.
    """
    if not r > 0.0:
        raise DomainError(f"r must be positive, got {r}")
    z = np.asarray(z_modulus, dtype=float)
    if np.any(z < 0.0):
        raise DomainError("z_modulus must be non-negative")
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.full_like(z, math.pi * r * r)
    near = z < 2.0 * r
    zn = z[near]
    # both terms are written in the exact difference 2r - z, which keeps the
    # area continuous through z = 2r at roundoff level:
    # arccos(z/2r) == 2 arcsin(sqrt((2r - z)/(4r)))
    diff = 2.0 * r - zn
    angle = 2.0 * np.arcsin(np.sqrt(diff / (4.0 * r)))
    out[near] = (math.pi * r * r - 2.0 * r * r * angle
                 + 0.5 * zn * np.sqrt(diff * (2.0 * r + zn)))
    return float(out[0]) if scalar else out


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

    Same contract as :func:`_lens_direct`; the formula is documented at
    :func:`hyperbolic_lens_integral_transformed`.  One row per |z|.
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


def _validate_lens_args(r: float, z_modulus: float):
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    if not 0.0 <= z_modulus < 1.0:
        raise DomainError(f"z_modulus must lie in [0, 1), got {z_modulus}")


def _one_row(lens, r: float, z_modulus: float,
             quad: QuadratureConfig) -> LensIntegralResult:
    """A batched lens function at a single |z|, with the strict contract."""
    values, errs, converged = lens(r, np.array([math.atanh(z_modulus)]), quad)
    value, err = float(values[0]), float(errs[0])
    if not converged[0] and err > quad.tolerance(value):
        raise QuadratureFailure(
            f"lens integral at r={r}, |z|={z_modulus}: error estimate {err:.3e} "
            f"exceeds tolerance {quad.tolerance(value):.3e} with {quad.scheme}")
    return LensIntegralResult(value, err)


def hyperbolic_lens_integral(r: float, z_modulus: float,
                             quad: QuadratureConfig = DEFAULT_QUAD) -> LensIntegralResult:
    """Angular lens integral I(|z|, r) of the hyperbolic count variance.

    I = integral of arccos((t^2+|C|^2-R^2)/(2t|C|)) * t/(1-t^2)^2 dt from
    max(r, inner_edge) to outer_edge, where (C, R) = image_disc(|z|, r).
    Geometrically 2*I is the hyperbolic area of D_r^c intersected with the
    image disc.  Returns exactly 0 when |z| = 0 (the image disc is D_r
    itself, so the region is empty) or when the range is empty.  Raises
    :class:`QuadratureFailure` if the tolerance cannot be certified.
    """
    _validate_lens_args(r, z_modulus)
    return _one_row(_lens_direct, r, z_modulus, quad)


def hyperbolic_lens_integral_transformed(r: float, z_modulus: float,
                                         quad: QuadratureConfig = DEFAULT_QUAD) -> LensIntegralResult:
    """The lens integral evaluated through its integration-by-parts form.

    Integration by parts turns the angular integral into a rational
    integral over the squared modulus s plus an explicit boundary term at
    t = r, active exactly when |z| < 2r/(1+r^2):

        I = (1/2) * int_0^{u_max} [ B/s + (1+B)/(1-s) ] du
            - arccos(|z| (1+r^2) / (2r)) / (2 (1-r^2)),

    where (C, R) = image_disc(|z|, r), B = R^2 - |C|^2, and
    s = F - 4|C|R sin^2(u) falls from the squared outer edge
    F = tanh^2(u_z + u_r) (u_z = atanh|z|, u_r = atanh r) until it meets r^2
    or the squared inner edge: sin^2(u_max) = min(1, (F - r^2)/(4|C|R)).
    The sin^2 substitution removes both square-root endpoints of the
    integral in s.  Agrees with :func:`hyperbolic_lens_integral`; the two
    evaluations share no quadrature structure, which makes the pair a
    genuine cross-check.
    """
    _validate_lens_args(r, z_modulus)
    return _one_row(_lens_transformed, r, z_modulus, quad)
