"""Euclidean and Poincare-disc geometry.

Moebius involutions of the unit disc, hyperbolic distance, Moebius images
of centred discs, and the two lens areas that drive the count variances:
the Euclidean area of ``D_r^c \\cap D_r(z)`` and the hyperbolic angular
integral over ``D_r^c \\cap D(C, R)``, where ``D(C, R)`` is the image of
the centred disc ``D_r`` under the involution exchanging 0 and z.

Radial symmetry is exploited throughout: the lens quantities depend only
on ``|z|``, so the integral operations take a modulus, not a point.

The hyperbolic lens integral is a closed form by Gauss-Bonnet, vectorised
in u = atanh(|z|) for the disc variance routes (``_lens_area``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

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
    # pi r^2 - 2 r^2 arccos(z/2r) == 2 r^2 arcsin(z/2r), so no term cancels;
    # the chord from 2r - z and arctan2 stay accurate up to z = 2r
    chord = np.sqrt((2.0 * r - zn) * (2.0 * r + zn))
    out[near] = 2.0 * r * r * np.arctan2(zn, chord) + 0.5 * zn * chord
    return float(out[0]) if scalar else out


def _validate_lens_args(r: float, z_modulus: float):
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    if not 0.0 <= z_modulus < 1.0:
        raise DomainError(f"z_modulus must lie in [0, 1), got {z_modulus}")


# relative rounding bound of the closed form: a few sinh, sqrt and arctan2
# evaluations of positive terms, each correctly rounded to about one ulp
_LENS_ROUNDING = 8.0 * np.finfo(float).eps


def _lens_area(R, u, gap):
    """Angular lens integral I at u = atanh|z| = R - ``gap``, 0 <= gap <= R; vectorised.

    R = 2 atanh(r) is the radius of D_r in the curvature -1 metric, and the
    image disc has the same radius with its centre 2u away.  By Gauss-Bonnet

        I = 1/2 [cosh R asin(tanh u / tanh R) - asin(sinh u / sinh R)].

    With q = sqrt(sinh(R - u) sinh(R + u)) = sqrt(sinh^2 R - sinh^2 u) and
    c = cosh R - 1 = 2 sinh^2(R/2), asin(tanh u / tanh R) = atan2(sinh u cosh R, q)
    and the difference of the two arcsines is a single atan2, so

        I = 1/2 [c atan2(sinh u cosh R, q) + atan2(sinh u q c, sinh^2 R + sinh^2 u c)]

    holds only positive terms.  R - u enters through ``gap`` alone, which the
    callers hold exactly.  At gap = 0 it is the largest value, pi c / 4.
    """
    c = 2.0 * np.sinh(0.5 * R) ** 2
    sinh_u = np.sinh(u)
    q = np.sqrt(np.sinh(gap) * np.sinh(R + u))
    return 0.5 * (c * np.arctan2(sinh_u * np.cosh(R), q)
                  + np.arctan2(sinh_u * q * c, np.sinh(R) ** 2 + sinh_u * sinh_u * c))


def hyperbolic_lens_integral(r: float, z_modulus: float) -> LensIntegralResult:
    """Angular lens integral I(|z|, r) of the hyperbolic count variance.

    I = integral of arccos((t^2+|C|^2-R^2)/(2t|C|)) * t/(1-t^2)^2 dt from
    max(r, inner_edge) to outer_edge, where (C, R) = image_disc(|z|, r).
    Geometrically 2*I is the hyperbolic area of D_r^c intersected with the
    image disc, which Gauss-Bonnet gives in closed form (:func:`_lens_area`).
    It is 0 at |z| = 0 and pi r^2 / (2 (1 - r^2)) once |z| >= 2r/(1+r^2),
    where the image disc has left D_r.  The error estimate bounds the
    rounding of the closed form.
    """
    _validate_lens_args(r, z_modulus)
    R, u = 2.0 * math.atanh(r), math.atanh(z_modulus)
    value = float(_lens_area(R, min(u, R), max(R - u, 0.0)))
    return LensIntegralResult(value, _LENS_ROUNDING * value)


def hyperbolic_lens_integral_transformed(r: float, z_modulus: float) -> LensIntegralResult:
    """The lens integral under the name of its former integration-by-parts route.

    It returns the closed form of :func:`hyperbolic_lens_integral`, so the
    two names check nothing against each other.  The integration-by-parts
    and angular quadratures are the test suite's oracles for that form.
    """
    return hyperbolic_lens_integral(r, z_modulus)
