"""Correlation kernels of the two determinantal processes.

The planar family lives on the complex plane with a Gaussian reference
measure and kernel e^{z conj(w)} L_n(|z-w|^2); the disc family lives on the
Poincare disc with reference measure (1-|z|^2)^{2 nu - 2} dz and a kernel
built from a power of (1 - z conj(w)) and a Jacobi polynomial.  Levels are
validated parameter bundles; the radial weight profile squares to the
modulus of the disc kernel after the reference weights are absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .specfun import _jacobi_zero_beta_gap, jacobi_zero_beta, laguerre

__all__ = ["EuclideanLevel", "HyperbolicLevel", "fock_kernel_sq_weighted", "hyperbolic_kernel",
           "hyperbolic_kernel_abs_sq", "f_profile"]


@dataclass(frozen=True)
class EuclideanLevel:
    """Index of a planar level: a non-negative integer n."""

    n: int

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise DomainError(f"level index must be a non-negative integer, got {self.n}")


@dataclass(frozen=True)
class HyperbolicLevel:
    """Parameters (nu, m) of a disc-family level.

    Requires nu > 1/2, integer 0 <= m <= floor(nu - 1/2) and
    2 (nu - m) - 1 > 0; the last condition is what makes the radial weight
    profile integrable on the disc.
    """

    nu: float
    m: int

    def __post_init__(self):
        if not 0.5 < self.nu < math.inf:
            raise DomainError(f"nu must be finite and exceed 1/2, got {self.nu}")
        if self.m < 0 or self.m != int(self.m):
            raise DomainError(f"m must be a non-negative integer, got {self.m}")
        if self.m > math.floor(self.nu - 0.5):
            raise DomainError(
                f"m must not exceed floor(nu - 1/2) = {math.floor(self.nu - 0.5)}, got {self.m}")
        if not self.beta > 0.0:
            raise DomainError(
                f"2 (nu - m) - 1 must be positive, got {self.beta} for nu={self.nu}, m={self.m}")

    @property
    def beta(self) -> float:
        """Jacobi parameter 2 (nu - m) - 1."""
        return 2.0 * (self.nu - self.m) - 1.0

    @property
    def energy(self) -> float:
        """Level energy 4 m (2 nu - m - 1)."""
        return 4.0 * self.m * (2.0 * self.nu - self.m - 1.0)


def fock_kernel_sq_weighted(level: EuclideanLevel, z: complex, w: complex) -> float:
    """Weighted squared kernel of the planar process.

    |K_n(z, w)|^2 e^{-|z|^2} e^{-|w|^2} / pi^2, which collapses to
    e^{-|z-w|^2} L_n(|z-w|^2)^2 / pi^2 and depends on z - w only.
    """
    s = abs(complex(z) - complex(w)) ** 2
    return math.exp(-s) * laguerre(level.n, s) ** 2 / math.pi ** 2


def hyperbolic_kernel(level: HyperbolicLevel, z: complex, w: complex) -> complex:
    """Reproducing kernel of the disc process at ``level``.

    (beta/pi) (1 - z conj(w))^{-2 nu} * q^{-m} * P_m^{(0, beta)}(2 q - 1)
    with q = (1-|z|^2)(1-|w|^2) / |1 - z conj(w)|^2.  The complex power uses
    the principal branch; Re(1 - z conj(w)) > 0 on the disc, so the branch
    cut is never crossed.  Hermitian: G(z, w) = conj(G(w, z)).
    """
    z = complex(z)
    w = complex(w)
    if not (abs(z) < 1.0 and abs(w) < 1.0):
        raise DomainError("kernel arguments must lie in the open unit disc")
    cross = 1.0 - z * w.conjugate()
    q = (1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2) / abs(cross) ** 2
    beta = level.beta
    out = beta / math.pi * cross ** (-2.0 * level.nu)
    if level.m > 0:
        out *= q ** (-level.m)
    return out * jacobi_zero_beta(level.m, beta, 2.0 * q - 1.0)


def hyperbolic_kernel_abs_sq(level: HyperbolicLevel, z: complex, w: complex) -> float:
    """|G(z, w)|^2 through the real radial profile, no complex powers.

    Uses the weight identity
    |G(z, w)|^2 (1-|z|^2)^{2 nu} (1-|w|^2)^{2 nu} = f(d(z, w)) with the
    profile of :func:`f_profile`, evaluated at the pseudo-hyperbolic radius
    |z - w| / |1 - z conj(w)|.
    """
    z = complex(z)
    w = complex(w)
    if not (abs(z) < 1.0 and abs(w) < 1.0):
        raise DomainError("kernel arguments must lie in the open unit disc")
    rho = abs(z - w) / abs(1.0 - z * w.conjugate())
    prof = float(_radial_profile(level, math.log1p(-rho * rho), rho * rho))
    return prof / ((1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2)) ** (2.0 * level.nu)


def _radial_profile(level: HyperbolicLevel, log_g, rho2):
    """(beta/pi g^{nu - m} P_m^{(0, beta)}(1 - 2 rho^2))^2 with g = 1 - rho^2.

    The one home of the radial weight profile, for scalars or arrays.
    Callers pass log g and rho^2 in whichever cancellation-free form they
    hold: g^{nu - m} = exp((nu - m) log g) and the Jacobi factor in rho^2
    then keep full accuracy where g is within a few ulps of 1 and beta is
    large.
    """
    beta = level.beta
    power = np.exp((level.nu - level.m) * log_g)
    return (beta / math.pi * power
            * _jacobi_zero_beta_gap(level.m, beta, np.asarray(rho2, dtype=float))) ** 2


def f_profile(level: HyperbolicLevel, rho: float) -> float:
    """Radial weight profile at pseudo-hyperbolic radius ``rho`` in [0, 1).

    [(beta/pi) (1 - rho^2)^{nu - m} P_m^{(0, beta)}(1 - 2 rho^2)]^2; at
    rho = 0 equals (beta/pi)^2.  ``rho = tanh(d)`` links the profile to the
    hyperbolic distance d.
    """
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    return float(_radial_profile(level, math.log1p(-rho * rho), rho * rho))
