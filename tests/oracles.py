"""Reference special functions that only the tests use.

Direct forms of quantities the library computes another way: the rising
factorial as a product, the incomplete beta integral by adaptive
quadrature, and its ratio to the complete integral through scipy's
regularized incomplete beta function.  They serve as oracles for
``log_pochhammer`` and for the success probabilities of the m = 0 count law.
The planar count variances have two closed references: the Ginibre form at
n = 0 and Shirai's sector series at every level.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

from dppstats import DomainError


def pochhammer(a: float, j: int) -> float:
    """Rising factorial (a)_j = a (a+1) ... (a+j-1), with (a)_0 = 1.

    Overflows for large j; use ``log_pochhammer`` past j ~ 150.
    """
    if j < 0 or j != int(j):
        raise DomainError(f"index must be a non-negative integer, got {j}")
    out = 1.0
    for k in range(int(j)):
        out *= a + k
    return out


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
