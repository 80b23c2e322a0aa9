"""One-dimensional quadrature engines with error estimates.

Three schemes sit behind :class:`QuadratureConfig`: ``gauss_legendre_fixed``,
node-doubling composite Gauss-Legendre, the default;
``adaptive_gauss_kronrod``, QUADPACK's adaptive routine
(:func:`scipy.integrate.quad`); and ``tanh_sinh``, the double-exponential
rule (:func:`scipy.integrate.tanhsinh`).  The callers in this package
integrate smooth pieces (endpoint singularities are removed by
substitutions first), so Gauss-Legendre converges spectrally.  It needs
nothing from :mod:`scipy.integrate`, whose import pulls in scipy.optimize
and scipy.sparse; the other two schemes import it on first use.

There is one Gauss-Legendre implementation, :func:`_gauss_legendre`.  It
integrates one integrand per row, each over its own non-empty limits, such
as the pieces of one interval, on a (rows x nodes) matrix of nodes; the
integrand also sees the row indices as a column, so per-row parameters
broadcast as ``params[rows]``.  Every row doubles its order on its own,
from 64 nodes up to 8192, and leaves the active set once it passes the
acceptance test.  The first comparison, 64 against 128 nodes, is one call
on every row and the nodes of both rules; each later doubling is one call
on the rows still active.  Each row reports the largest rule it summed,
which sizes the rounding bound.  No integrand call sees more
than ``_NODE_BLOCK`` = 2^20 nodes (8 MB per array of doubles).  The rules
are the package's own (:func:`_legendre_rule`, Newton's method on the
Legendre recurrence), built with numpy alone and cached per call shape.

:func:`integrate_interval` integrates one callable from a to b as its
breakpoint pieces, the rows of one :func:`_gauss_legendre` call; its error
carries the rounding of the rules, so callers add only their own terms.
:func:`_certify` is the one tolerance check of every integral, variance and
constant.  :func:`integrate_rows`, the public row interface, skips empty rows
and hands the rest to :func:`_gauss_legendre`, to one vectorized tanh-sinh
call, or to one QUADPACK call per row, because QUADPACK is scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import QuadratureFailure

SCHEMES = ("adaptive_gauss_kronrod", "gauss_legendre_fixed", "tanh_sinh")

# most nodes one (rows x nodes) integrand call may see: 2^20 doubles, 8 MB per array
_NODE_BLOCK = 1 << 20
# scipy's tanh-sinh rule evaluates at most 2^13 nodes per row and level at
# its default maxlevel of 10, which integrate_rows passes explicitly
_TANH_SINH_MAXLEVEL = 10
_TANH_SINH_LEVEL_NODES = 1 << 13
# the Gauss-Legendre schedule: 64 and 128 nodes per piece in one integrand call,
# then one call per doubling up to 64 * 2^7 = 8192 nodes
_GL_FIRST_NODES = 64
_GL_MAX_NODES = _GL_FIRST_NODES * 2 ** 7
# subinterval limit of each QUADPACK call
_QUADPACK_LIMIT = 200

_EPS = float(np.finfo(float).eps)

_leggauss_cache: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, list[slice]]] = {}


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


def _leggauss(sizes: tuple[int, ...]):
    """Nodes and weights of the Gauss-Legendre rules of ``sizes`` nodes, concatenated,
    and the slice of each rule."""
    if sizes not in _leggauss_cache:
        x, w = zip(*(_legendre_rule(n) for n in sizes))
        edges = np.cumsum((0,) + sizes).tolist()
        _leggauss_cache[sizes] = (np.concatenate(x), np.concatenate(w),
                                  [slice(lo, hi) for lo, hi in zip(edges, edges[1:])])
    return _leggauss_cache[sizes]


@dataclass(frozen=True)
class QuadratureConfig:
    """Scheme and tolerances for the integrals in this package.

    ``rel_tol``/``abs_tol`` combine in the usual way: an estimate is accepted
    once its error estimate drops below ``max(abs_tol, rel_tol * |value|)``.
    Instances are immutable and safe to share across threads.
    """

    scheme: str = "gauss_legendre_fixed"
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")

    def tolerance(self, scale: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(scale))


DEFAULT_QUAD = QuadratureConfig()


def _within_tol(err, value, abs_tol, rel_tol):
    """Acceptance test of every doubling step: err <= max(abs_tol, rel_tol |value|).

    Written with ``|`` so that it serves scalars and arrays alike.
    """
    return (err <= abs_tol) | (err <= rel_tol * abs(value))


def _certify(value, error, config: QuadratureConfig, where: str, *fields):
    """``error`` if ``value`` is finite and ``error <= config.tolerance(value)``, else
    :class:`QuadratureFailure`; its message ends in ``where.format(*fields)``,
    formatted only then.  A nan error never passes."""
    if abs(value) < math.inf and error <= config.tolerance(value):
        return error
    raise QuadratureFailure(f"error estimate {error:.3e} exceeds tolerance "
                            f"{config.tolerance(value):.3e} " + where.format(*fields))


def _row_blocks(count: int, nodes_per_row: int):
    """Consecutive slices of ``count`` rows holding at most _NODE_BLOCK nodes each.

    A single row is never split, so a row with more nodes than the block
    forms a slice of its own.
    """
    step = max(1, _NODE_BLOCK // nodes_per_row)
    for start in range(0, count, step):
        yield slice(start, start + step)


def _gauss_legendre_sums(f, rows, mid, half, sizes):
    """Sums of the Gauss-Legendre rules of ``sizes`` nodes, one row of ``mid``, ``half`` each.

    The rules share one integrand call ``f(x, rows[:, None])`` on their
    concatenated nodes, split into the blocks of :func:`_row_blocks` only
    when the rows hold more than _NODE_BLOCK nodes.  Each row is summed on
    its own, pairwise, so a row's sum does not depend on how many rows its
    block holds (a matrix-vector product rounds a row differently when the
    block is small).  Returns ``len(sizes)`` arrays over the rows.
    """
    x, w, rules = _leggauss(sizes)
    if rows.size > max(1, _NODE_BLOCK // x.size):
        out = np.empty((len(sizes), rows.size))
        for block in _row_blocks(rows.size, x.size):
            out[:, block] = _gauss_legendre_sums(f, rows[block], mid[block], half[block], sizes)
        return out
    terms = f(mid[:, None] + half[:, None] * x, rows[:, None]) * w
    return [half * terms[:, rule].sum(axis=-1) for rule in rules]


def _gauss_legendre(f, a, b, abs_tol, rel_tol):
    """Node-doubling Gauss-Legendre over the rows [a_k, b_k], none of them empty.

    ``f(x, rows)`` sees the nodes and the indices into ``a`` of their rows.
    Every row doubles its order on its own, from _GL_FIRST_NODES up to
    _GL_MAX_NODES, and leaves the active set once the difference between its
    last two refinements passes :func:`_within_tol`.  That difference is the
    row's error estimate, conservative for smooth integrands; a row that
    runs out of nodes keeps its last refinement, unconverged.  The first
    comparison takes one integrand call on every row; every later doubling
    takes one more on the rows still active.  Returns ``(value, error,
    converged, nodes)``, ``nodes`` the largest rule each row summed.
    """
    n = 2 * _GL_FIRST_NODES
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    value, err, nodes = np.empty(a.size), np.empty(a.size), np.empty(a.size, dtype=int)
    converged = np.empty(a.size, dtype=bool)
    rows = np.arange(a.size)
    prev, cur = _gauss_legendre_sums(f, rows, mid, half, (_GL_FIRST_NODES, n))
    while True:
        step_err = np.abs(cur - prev)
        ok = _within_tol(step_err, cur, abs_tol, rel_tol)
        value[rows], err[rows], converged[rows], nodes[rows] = cur, step_err, ok, n
        n *= 2
        if ok.all() or n > _GL_MAX_NODES:
            return value, err, converged, nodes
        rows, prev = rows[~ok], cur[~ok]
        cur, = _gauss_legendre_sums(f, rows, mid[rows], half[rows], (n,))


def integrate_rows(f, a, b, config: QuadratureConfig):
    """Integrate one integrand per row over per-row limits [a_k, b_k].

    ``f(x, rows)`` receives a node array ``x`` and integer row indices
    ``rows`` that broadcast against it (a (rows x 1) column beside a
    (rows x nodes) matrix, equal shapes, or one plain ``int`` for the
    single-node calls of ``adaptive_gauss_kronrod``), and returns the
    integrand values at ``x``, row k using the parameters of row k.  The
    rows are independent, batched as described in the module docstring.

    Returns ``(value, error_estimate, converged, nodes)`` arrays.
    ``nodes`` is the largest rule row k summed under
    ``gauss_legendre_fixed``; under the other two schemes it is the most
    nodes one integrand call handed the row (1 for QUADPACK's scalar
    calls).  Nothing is raised on non-convergence; the caller decides what
    a failed row means.  Rows with a_k == b_k give (0, 0, True, 0) and are
    never evaluated.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    a, b = a.ravel(), b.ravel()
    active = np.flatnonzero(a != b)
    value = np.zeros(a.size)
    err = np.zeros(a.size)
    converged = np.ones(a.size, dtype=bool)
    nodes = np.zeros(a.size, dtype=int)
    if config.scheme == "gauss_legendre_fixed":
        if active.size:
            value[active], err[active], converged[active], nodes[active] = _gauss_legendre(
                lambda x, rows: f(x, active[rows]), a[active], b[active],
                config.abs_tol, config.rel_tol)
        return value, err, converged, nodes
    from scipy import integrate     # the default scheme never loads scipy.integrate

    if config.scheme == "adaptive_gauss_kronrod":
        for k in active.tolist():
            v, e = integrate.quad(
                lambda x: float(f(np.array([x]), k)[0]), a[k], b[k],
                epsabs=config.abs_tol, epsrel=config.rel_tol,
                limit=_QUADPACK_LIMIT)
            # QUADPACK's acceptance limit: ten tolerances
            value[k], err[k], converged[k] = v, e, e <= config.tolerance(v) * 10.0
        nodes[active] = 1
        return value, err, converged, nodes
    # tanh_sinh: the row index travels as an argument, which scipy subsets
    # and shapes alongside the nodes of the rows still active
    for block in _row_blocks(active.size, _TANH_SINH_LEVEL_NODES):
        block = active[block]
        widths = [0]

        def g(x, k):
            widths.append(np.shape(x)[-1])
            return f(x, k.astype(np.intp))

        res = integrate.tanhsinh(
            g, a[block], b[block],
            args=(block.astype(float),), maxlevel=_TANH_SINH_MAXLEVEL,
            atol=config.abs_tol, rtol=config.rel_tol)
        value[block], err[block], converged[block] = res.integral, res.error, res.success
        nodes[block] = max(widths)
    return value, err, converged, nodes


def integrate_interval(f, a: float, b: float, config: QuadratureConfig,
                       breakpoints=()):
    """Integrate a vectorized callable from a to b under ``config``.

    ``breakpoints`` are interior points where the integrand is continuous
    but not smooth; the interval is split there, and the pieces, in
    increasing order, are the rows of one Gauss-Legendre doubling (one
    :func:`integrate_rows` call under the other schemes), so every
    integrand call sees the nodes of all pieces still refining.  The value
    is signed: b < a gives exactly minus the integral from b to a, whose
    pieces it integrates and sums.  Taking the pieces in order from a,
    :func:`_certify` raises :class:`QuadratureFailure` at the first prefix
    that has not converged and whose summed error estimate is not within
    the tolerance of its summed value (a nan estimate never is).  Returns
    ``(value, error)``: the summed estimates plus the rounding bound
    (2 N + 16) eps |value|, N the largest rule any piece summed, which the
    package's rules meet (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013)).
    """
    if a == b:
        return 0.0, 0.0
    lo, hi = min(a, b), max(a, b)
    cuts = sorted({a, b, *(p for p in breakpoints if lo < p < hi)})
    pieces = (lambda x, rows: f(x), np.array(cuts[:-1]), np.array(cuts[1:]))
    if config.scheme == "gauss_legendre_fixed":
        values, errs, oks, nodes = _gauss_legendre(*pieces, config.abs_tol, config.rel_tol)
    else:
        values, errs, oks, nodes = integrate_rows(*pieces, config)
    from_a = list(zip(values.tolist(), errs.tolist(), oks.tolist()))[::-1 if b < a else 1]
    total, err, converged = 0.0, 0.0, True
    for v, e, ok in from_a:
        total += v
        err += e
        converged = converged and ok
        if not converged:
            _certify(total, err, config, "on [{}, {}] with {}", a, b, config.scheme)
    if b < a:   # minus the sums of the forward interval, in its order
        total, err = -float(np.cumsum(values)[-1]), float(np.cumsum(errs)[-1])
    return total, err + _EPS * (2.0 * max(nodes.tolist()) + 16.0) * abs(total)
