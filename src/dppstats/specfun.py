"""Classical special functions: Laguerre and Jacobi polynomials and the
log-scale Pochhammer symbol.

Polynomials are evaluated by forward three-term recurrences rather than
coefficient expansion; the recurrences stay stable for the large second
Jacobi parameters (up to ~10^3) that the curvature-rescaling checks need.
All functions are pure and accept scalars or ndarrays where noted.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DomainError

__all__ = [
    "laguerre",
    "jacobi_zero_beta",
    "log_pochhammer",
]


def laguerre(n: int, x):
    """Laguerre polynomial L_n(x).

    Recurrence: (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}, exact for n in
    {0, 1}.  ``x`` may be a scalar or ndarray.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"degree must be a non-negative integer, got {n}")
    n = int(n)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    p = np.ones_like(x)
    if n >= 1:
        prev, p = p, 1.0 - x
        for k in range(1, n):
            prev, p = p, ((2 * k + 1 - x) * p - k * prev) / (k + 1)
    return float(p[0]) if scalar else p


def jacobi_zero_beta(m: int, beta: float, x):
    """Jacobi polynomial P_m^{(0, beta)}(x), first parameter fixed to 0.

    Requires beta > -1.  Normalised so that P_m^{(0, beta)}(1) = 1.
    Evaluated as :func:`_jacobi_zero_beta_gap` at y = (1 - x)/2.
    """
    if m < 0 or m != int(m):
        raise DomainError(f"degree must be a non-negative integer, got {m}")
    if beta <= -1.0:
        raise DomainError(f"second parameter must exceed -1, got {beta}")
    x = np.asarray(x, dtype=float)
    p = _jacobi_zero_beta_gap(int(m), beta, 0.5 * (1.0 - np.atleast_1d(x)))
    return float(p[0]) if x.ndim == 0 else p


def _jacobi_zero_beta_gap(m: int, beta: float, y):
    """P_m^{(0, beta)}(1 - 2y) for an array ``y``, by the recurrence written in y.

    (2k + beta)(2k + beta - 2) x - beta^2 becomes
    2 (2k (k - 1 + beta) - beta) - 2 (2k + beta)(2k + beta - 2) y, so no
    beta^2 terms cancel.  Near x = 1 at large beta, where the polynomial
    varies on the scale y ~ 1/beta, the form in x loses about beta eps.
    """
    p = np.ones_like(y)
    if m >= 1:
        prev, p = p, 1.0 - (beta + 2.0) * y
        for k in range(2, m + 1):
            c1 = 2.0 * k * (k + beta) * (2 * k + beta - 2)
            c2 = (2 * k + beta - 1) * (2.0 * (2 * k * (k - 1 + beta) - beta)
                                       - 2.0 * (2 * k + beta) * (2 * k + beta - 2) * y)
            c3 = 2.0 * (k - 1) * (k + beta - 1) * (2 * k + beta)
            prev, p = p, (c2 * p - c3 * prev) / c1
    return p


def log_pochhammer(a: float, j: int) -> float:
    """log of the rising factorial (a)_j for a > 0, overflow-free.

    Computed as lgamma(a + j) - lgamma(a).
    """
    if j < 0 or j != int(j):
        raise DomainError(f"index must be a non-negative integer, got {j}")
    if a <= 0.0:
        raise DomainError(f"log-scale rising factorial needs a > 0, got {a}")
    return math.lgamma(a + j) - math.lgamma(a)
