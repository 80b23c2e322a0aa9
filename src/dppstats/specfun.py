"""Classical special functions: Laguerre and Jacobi polynomials.

Polynomials are evaluated by forward three-term recurrences rather than
coefficient expansion; the recurrences stay stable for the large second
Jacobi parameters (up to ~10^3) that the curvature-rescaling checks need.
The planar variance takes L_n instead as a product over its zeros
(:func:`_laguerre_product`), each the double nearest the true zero: Newton's
method from the Jacobi matrix's eigenvalues, with the recurrence run in
double-double arithmetic (Dekker, Numer. Math. 18 (1971)) on numpy arrays.
All functions are pure and accept scalars or ndarrays where noted.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .exceptions import DomainError, QuadratureFailure

__all__ = ["laguerre", "jacobi_zero_beta"]


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
    Each step is divided through by s t = (2k + beta)(2k + beta - 2), one
    factor at a time, so no coefficient grows like beta^2 and overflows.
    """
    p = np.ones_like(y)
    if m >= 1:
        prev, p = p, 1.0 - (beta + 2.0) * y
        for k in range(2, m + 1):
            s, t = 2 * k + beta, 2 * k + beta - 2
            c1 = 2.0 * k * ((k + beta) / s)
            c2 = 2.0 * (2 * k + beta - 1) * ((2.0 * k * ((k - 1 + beta) / s) - beta / s) / t - y)
            c3 = 2.0 * (k - 1) * ((k + beta - 1) / t)
            prev, p = p, (c2 * p - c3 * prev) / c1
    return p


# Dekker's splitter 2^27 + 1 cuts a double into two halves of at most 26 bits,
# whose products are exact
_SPLITTER = 134217729.0
# Newton steps from the eigenvalues; one step and a check settle every zero up to n = 500
_NEWTON_STEPS = 6


def _two_sum(a, b):
    """fl(a + b) and its rounding error e, a + b = s + e exactly (Knuth's TwoSum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    """a = hi + lo with hi and lo of at most 26 significant bits (Dekker's split)."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_product(a, a_split, b, b_split):
    """fl(a b) and its rounding error e, a b = p + e exactly, from the splits of
    a and b (Dekker's TwoProduct)."""
    p = a * b
    (ah, al), (bh, bl) = a_split, b_split
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _laguerre_newton_step(n: int, x):
    """L_n(x) / L_n'(x) for an ndarray ``x``, L_n in double-double, n >= 1.

    Runs the monic recurrence l_{k+1} = (x - 2k - 1) l_k - k^2 l_{k-1},
    l_k = (-1)^k k! L_k, divided through by 2^{s_k}, s_k = floor(log2 k!): the
    scaled coefficients are k^2 and x - 2k - 1 times powers of 2, so each is
    exact or a double-double, and no step divides.  The derivative needs only
    a few digits and runs in double.  The scaled l_k are of the size of L_k,
    at most e^{x/2}, and the split multiplies them by 2^27: nothing overflows up
    to n = 350, whose largest zero is 1361 (the plane stops at n = 188).
    """
    s = [math.factorial(k).bit_length() - 1 for k in range(n + 1)]
    hi, lo, d = np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    prev_hi, prev_lo, prev_d = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    hi_split, prev_split = _split(hi), _split(prev_hi)
    for k in range(n):
        c = math.ldexp(1.0, s[k] - s[k + 1])
        b = math.ldexp(float(k * k), (s[k - 1] if k else 0) - s[k + 1])
        a_hi, a_lo = _two_sum(x, -(2.0 * k + 1.0))
        a_hi, a_lo = c * a_hi, c * a_lo
        p, e = _two_product(a_hi, _split(a_hi), hi, hi_split)
        q, f = _two_product(b, _split(b), prev_hi, prev_split)
        new_hi, g = _two_sum(p, -q)
        g += (e - f) + (a_hi * lo + a_lo * hi - b * prev_lo)
        new_d = a_hi * d + c * hi - b * prev_d
        prev_hi, prev_lo, prev_d, prev_split = hi, lo, d, hi_split
        hi = new_hi + g
        lo, d = g - (hi - new_hi), new_d
        hi_split = _split(hi)
    return (hi + lo) / d


@functools.cache
def _laguerre_zeros(n: int):
    """The zeros of L_n, ascending, and their reciprocals, as read-only (n, 1) columns.

    Each zero is the double nearest the true one: the eigenvalues of the Jacobi
    matrix of e^{-t} (diagonal 2k + 1, subdiagonal k) are good to about eps n
    absolute, and Newton's method on :func:`_laguerre_newton_step` runs until
    every step is below half an ulp.  :class:`QuadratureFailure` if it does not.
    """
    k = np.arange(n, dtype=float)
    x = np.linalg.eigvalsh(np.diag(2.0 * k + 1.0) + np.diag(k[1:], -1))
    for _ in range(_NEWTON_STEPS):
        step = _laguerre_newton_step(n, x)
        moved = ~(np.abs(step) <= 0.5 * np.spacing(x))
        if not moved.any():
            zeros, inv = x[:, None], 1.0 / x[:, None]
            zeros.setflags(write=False)
            inv.setflags(write=False)
            return zeros, inv
        x = np.where(moved, x - step, x)
    raise QuadratureFailure(f"Newton's method did not settle the zeros of L_{n}")


def _laguerre_product(n: int, t):
    """L_n(t) = prod_i (z_i - t) / z_i over the zeros of :func:`_laguerre_zeros`,
    for an ndarray ``t``: one (n x t.size) array of factors, reduced along its rows.

    Near a zero z_i - t is exact, so the value keeps its relative accuracy
    there; the zeros' own rounding moves it by at most half an ulp of each.
    """
    if n == 0:
        return np.ones_like(t)
    zeros, inv = _laguerre_zeros(n)
    factors = zeros - t.reshape(-1)
    factors *= inv
    return np.multiply.reduce(factors).reshape(t.shape)
