"""One-dimensional Gauss-Legendre quadrature with error estimates.

Every integral in this package is node-doubling composite Gauss-Legendre on
the package's own rules (:func:`_legendre_rule`, Newton's method on the
Legendre recurrence, built with numpy alone and cached per call shape).
Its callers integrate smooth pieces (endpoint singularities are removed by
substitutions first), so it converges spectrally.  :class:`QuadratureConfig`
carries the tolerances; its ``scheme`` field is a label, and every accepted
name runs the same quadrature.

There is one loop, :func:`_node_doubling`, on (midpoint, half-width)
pieces kept as Python floats: every piece doubles its order on its own,
from 64 nodes up to 8192, and leaves the active set once the difference of
its last two sums is within ``config.tolerance`` of the last.  The first
comparison, 64 against 128 nodes, is one integrand call on the nodes of
both rules; each later doubling is one call on what is still active.  A
call sees the 1-D nodes of its pieces, piece after piece, and no call sees
more than ``_NODE_BLOCK`` = 2^20 nodes (8 MB per array of doubles).  Each
piece's terms are summed pairwise over the contiguous slice of each rule,
so a piece's sums do not depend on what else shares its call.  Two entry
points run on it:

- :func:`integrate_interval` integrates one callable from a to b as its
  breakpoint pieces and sums them in increasing order.  Its error carries
  the (2 N + 16) eps rounding of the rules, so callers add only their own
  terms.  This is the path of every variance.
- :func:`integrate_rows` integrates one integrand per row over per-row
  limits, one piece per row.  Its integrand sees the nodes reshaped to a
  (rows x nodes) matrix and the row indices as a column, so per-row
  parameters broadcast as ``params[rows]``.  It skips empty rows and
  reports each row's largest rule; a row and the interval of its integrand
  alone agree bit for bit.

:func:`_certify` is the one tolerance check of every integral, variance and
constant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, QuadratureFailure

# the accepted labels of QuadratureConfig.scheme; every one runs the same quadrature
SCHEMES = ("adaptive_gauss_kronrod", "gauss_legendre_fixed", "tanh_sinh")

# most nodes one integrand call may see: 2^20 doubles, 8 MB per array
_NODE_BLOCK = 1 << 20
# the Gauss-Legendre schedule: 64 and 128 nodes per piece in one integrand call,
# then one call per doubling up to 64 * 2^7 = 8192 nodes
_GL_FIRST_NODES = 64
_GL_MAX_NODES = _GL_FIRST_NODES * 2 ** 7

_EPS = float(np.finfo(float).eps)


def _legendre_rule(n: int):
    """Nodes, ascending, and weights of the n-node Gauss-Legendre rule, n even.

    Newton's method on P_n(cos theta) from Tricomi's nodes (Hale & Townsend,
    SIAM J. Sci. Comput. 35 (2013)) for the nodes in (0, 1), mirrored.  The
    recurrence runs on P_k and P_k - P_{k-1} in t = 1 - x = 2 sin^2(theta/2),
    accurate near x = 1, and the weight is 2 / (dP_n(cos theta)/dtheta)^2.  A
    node stops once its step is within an ulp of theta or no longer halves.
    The middle pair of weights then moves by ulps until numpy's pairwise sum
    of the weights, which only grows with the pair, is 2.
    """
    k = np.arange(1.0, n // 2 + 1.0)
    phi = (4.0 * k - 1.0) * math.pi / (4.0 * n + 2.0)
    theta = phi + (n - 1.0) / (8.0 * n ** 3) / np.tan(phi)
    slope = np.empty_like(theta)
    active, last = np.arange(theta.size), np.inf
    while active.size:
        th = theta[active]
        t = 2.0 * np.sin(0.5 * th) ** 2
        p, d = 1.0 - t, -t
        for j in range(1, n):
            d = (j * d - (2 * j + 1) * t * p) / (j + 1)
            p = p + d
        slope[active] = n * (d - t * p) / np.sin(th)
        step = p / slope[active]
        theta[active] = th - step
        step = np.abs(step)
        keep = (step > _EPS * th) & (step < 0.5 * last)
        active, last = active[keep], step[keep]
    x, w = np.cos(theta), 2.0 / slope ** 2
    x, w = np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1]))
    h, up = n // 2, w.sum() < 2.0
    while w.sum() != 2.0 and (w.sum() < 2.0) == up:
        w[h - 1:h + 1] = np.nextafter(w[h], np.inf if up else 0.0)
    return x, w


@functools.cache
def _leggauss(sizes: tuple[int, ...]):
    """Nodes and weights of the Gauss-Legendre rules of ``sizes`` nodes, concatenated,
    and the slice of each rule."""
    x, w = zip(*(_legendre_rule(n) for n in sizes))
    edges = np.cumsum((0,) + sizes).tolist()
    return (np.concatenate(x), np.concatenate(w),
            [slice(lo, hi) for lo, hi in zip(edges, edges[1:])])


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the integrals in this package.

    ``rel_tol``/``abs_tol`` combine in the usual way: an estimate is accepted
    once its error estimate drops below ``max(abs_tol, rel_tol * |value|)``.
    ``scheme`` is a label: it must be one of :data:`SCHEMES`, and every name
    runs the same Gauss-Legendre quadrature.  The field goes once the benchmark
    harness stops setting it.  Instances are immutable and safe to share
    across threads; invalid fields raise :class:`DomainError`.
    """

    scheme: str = "gauss_legendre_fixed"
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise DomainError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise DomainError("tolerances must be finite and positive")

    def tolerance(self, scale: float) -> float:
        """max(abs_tol, rel_tol |scale|); abs_tol for a nan scale."""
        rel = self.rel_tol * abs(scale)
        return rel if rel > self.abs_tol else self.abs_tol


DEFAULT_QUAD = QuadratureConfig()


def _certify(value, error, config: QuadratureConfig, where: str, *fields):
    """``error`` if ``value`` is finite and ``error <= config.tolerance(value)``, else
    :class:`QuadratureFailure`; its message ends in ``where.format(*fields)``,
    formatted only then.  A nan error never passes."""
    if abs(value) < math.inf and error <= config.tolerance(value):
        return error
    raise QuadratureFailure(f"error estimate {error:.3e} exceeds tolerance "
                            f"{config.tolerance(value):.3e} " + where.format(*fields))


def _piece_sums(f, pieces, keys, sizes):
    """Sums of the Gauss-Legendre rules of ``sizes`` nodes on ``pieces[k]``, k in ``keys``.

    A piece is a (midpoint, half-width) pair.  One integrand call
    ``f(x, keys)`` sees the 1-D nodes of those pieces, piece after piece,
    split by whole pieces into calls of at most _NODE_BLOCK nodes only when
    they hold more (a piece wider than the block is called alone).  Each
    piece's terms f * w are summed pairwise over the contiguous slice of each
    rule, so a piece's sums do not depend on what else shares its call.
    Returns one list of ``len(sizes)`` floats per key.
    """
    x, w, rules = _leggauss(sizes)
    if len(keys) == 1:          # the common case: floats only, 3-4 us less per call
        mid, half = pieces[keys[0]]
        terms = f(mid + half * x, keys) * w
        return [[half * float(np.add.reduce(terms[rule])) for rule in rules]]
    step = max(1, _NODE_BLOCK // x.size)
    if len(keys) > step:
        return [sums for start in range(0, len(keys), step)
                for sums in _piece_sums(f, pieces, keys[start:start + step], sizes)]
    mid, half = np.array([pieces[k] for k in keys]).T
    terms = f((mid[:, None] + half[:, None] * x).ravel(), keys).reshape(mid.size, x.size) * w
    return np.stack([half * terms[:, rule].sum(axis=-1) for rule in rules], axis=-1).tolist()


def _node_doubling(f, pieces, config: QuadratureConfig):
    """Node-doubling Gauss-Legendre on each (midpoint, half-width) of ``pieces``:
    the one loop of both entry points.

    Every piece doubles its order on its own, from _GL_FIRST_NODES up to
    _GL_MAX_NODES, and leaves the active set once the difference of its last
    two sums is within ``config.tolerance`` of the last one (a nan difference
    never is).  That difference is the piece's error estimate, conservative
    for smooth integrands; a piece that runs out of nodes keeps its last sum,
    unconverged.  Each doubling level is one :func:`_piece_sums` call on the
    pieces still active, the first on every piece with both of the first two
    rules.  Returns a list of ``(value, error, converged, nodes)`` per piece,
    ``nodes`` the largest rule it summed, and the largest rule of all.
    """
    results = [None] * len(pieces)
    n = 2 * _GL_FIRST_NODES
    active = range(len(pieces))
    sums = _piece_sums(f, pieces, active, (_GL_FIRST_NODES, n))
    while True:
        refine = []
        for k, (prev, cur) in zip(active, sums):
            step_err = abs(cur - prev)
            ok = step_err <= config.tolerance(cur)
            results[k] = cur, step_err, ok, n
            if not ok:
                refine.append(k)
        if not refine or 2 * n > _GL_MAX_NODES:
            return results, n
        n *= 2
        sums = _piece_sums(f, pieces, refine, (n,))
        active, sums = refine, [(results[k][0], cur) for k, (cur,) in zip(refine, sums)]


def integrate_interval(f, a: float, b: float, config: QuadratureConfig,
                       breakpoints=()):
    """Integrate a vectorized callable from a to b under ``config``.

    ``breakpoints`` are interior points where the integrand is continuous
    but not smooth; the interval is split there, and the pieces run through
    :func:`_node_doubling`: each doubling level is one call ``f(x)`` on the
    1-D nodes of every piece still refining, piece after piece in increasing
    order.  A piece's value, error and rule are those of the same row of
    :func:`integrate_rows`, bit for bit.  The value is signed: b < a gives
    exactly minus the integral from b to a.  Taking the pieces in increasing
    order, :func:`_certify` raises :class:`QuadratureFailure` at the first
    prefix that has not converged and whose summed error estimate is not
    within the tolerance of its summed value (a nan estimate never is).
    Returns ``(value, error)``: the summed estimates plus the rounding bound
    (2 N + 16) eps |value|, N the largest rule any piece summed, which the
    package's rules meet (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013)).
    """
    if a == b:
        return 0.0, 0.0
    if b < a:
        value, err = integrate_interval(f, b, a, config, breakpoints)
        return -value, err
    cuts = [a, *sorted({p for p in breakpoints if a < p < b}), b]
    pieces = [(0.5 * (hi + lo), 0.5 * (hi - lo)) for lo, hi in zip(cuts, cuts[1:])]
    results, n = _node_doubling(lambda x, keys: f(x), pieces, config)
    total, err, converged = 0.0, 0.0, True
    for v, e, ok, _ in results:
        total += v
        err += e
        converged = converged and ok
        if not converged:
            _certify(total, err, config, "on [{}, {}]", a, b)
    return total, err + _EPS * (2.0 * n + 16.0) * abs(total)


def integrate_rows(f, a, b, config: QuadratureConfig):
    """Integrate one integrand per row over per-row limits [a_k, b_k].

    ``f(x, rows)`` receives a (rows x nodes) node matrix ``x`` and a
    (rows x 1) column of integer row indices, and returns the integrand
    values at ``x``, row k using the parameters of row k.  Each row is a
    piece of :func:`_node_doubling`, so it refines on its own and row k
    gives, bit for bit, what :func:`integrate_interval` gives for its
    integrand alone: a b_k < a_k row is exactly minus its forward row.

    Returns ``(value, error_estimate, converged, nodes)`` arrays, ``nodes``
    the largest rule row k summed; the error leaves out the rules' rounding.
    Nothing is raised on non-convergence; the caller decides what a failed
    row means.  Rows with a_k == b_k give (0, 0, True, 0) and are never
    evaluated.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    a, b = a.ravel(), b.ravel()
    value, err = np.zeros(a.size), np.zeros(a.size)
    converged, nodes = np.ones(a.size, dtype=bool), np.zeros(a.size, dtype=int)
    live = np.flatnonzero(a != b)
    if live.size:
        lo, hi = np.minimum(a, b)[live], np.maximum(a, b)[live]
        pieces = list(zip((0.5 * (hi + lo)).tolist(), (0.5 * (hi - lo)).tolist()))
        results, _ = _node_doubling(
            lambda x, keys: f(x.reshape(len(keys), -1), live[keys, None]).ravel(),
            pieces, config)
        value[live], err[live], converged[live], nodes[live] = zip(*results)
        value[b < a] *= -1.0
    return value, err, converged, nodes
