"""One-dimensional quadrature engines with error estimates.

Three interchangeable schemes sit behind :class:`QuadratureConfig`:

* ``adaptive_gauss_kronrod`` -- QUADPACK's adaptive Gauss-Kronrod driver
  (:func:`scipy.integrate.quad`),
* ``gauss_legendre_fixed``   -- node-doubling composite Gauss-Legendre,
* ``tanh_sinh``              -- double-exponential rule
  (:func:`scipy.integrate.tanhsinh`).

The callers in this package always integrate smooth pieces (endpoint
singularities are removed by explicit substitutions before the engines are
invoked), so the node-doubling Gauss-Legendre scheme converges spectrally
and is the default.

There is one engine, :func:`integrate_rows`, with one implementation of
each scheme.  It integrates a family of integrands, one per row, each over
its own limits, such as the pieces of one interval.  Its integrand sees a
(rows x nodes) matrix of nodes together with the row indices, so per-row
parameters broadcast as ``params[rows]``.  Under ``gauss_legendre_fixed``
every row doubles its order on its own and leaves the active set as soon
as it passes the acceptance test; ``tanh_sinh`` makes one vectorized
:func:`scipy.integrate.tanhsinh` call with array limits; and
``adaptive_gauss_kronrod`` runs one QUADPACK call per row, because QUADPACK
is scalar.  No single integrand call sees more than ``_NODE_BLOCK`` = 2^20
nodes (8 MB per array of doubles): the active rows are split into chunks
that fit.

:func:`integrate_interval` integrates one vectorized callable over [a, b]
and returns a ``(value, error_estimate)`` pair.  It splits the interval at
its breakpoints and hands the pieces to :func:`integrate_rows` as rows, so
the pieces share every integrand call, and raises
:class:`QuadratureFailure` when the requested tolerance is missed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .exceptions import QuadratureFailure

SCHEMES = ("adaptive_gauss_kronrod", "gauss_legendre_fixed", "tanh_sinh")

# most nodes one (rows x nodes) integrand call of integrate_rows may see:
# 2^20 doubles, 8 MB per array
_NODE_BLOCK = 1 << 20
# scipy's tanh-sinh rule evaluates at most 2^13 nodes per row and level at
# its default maxlevel of 10, which integrate_rows passes explicitly
_TANH_SINH_MAXLEVEL = 10
_TANH_SINH_LEVEL_NODES = 1 << 13
# the Gauss-Legendre schedule: 32 nodes per piece, doubled eight times at most
_GL_FIRST_NODES = 32
_GL_MAX_NODES = _GL_FIRST_NODES * 2 ** 8
# subinterval limit of each QUADPACK call
_QUADPACK_LIMIT = 200

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(n: int):
    if n not in _leggauss_cache:
        _leggauss_cache[n] = special.roots_legendre(n)
    return _leggauss_cache[n]


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


def _kronrod_converged(value, err, config: QuadratureConfig) -> bool:
    # the acceptance limit of the QUADPACK scheme: ten tolerances
    return err <= config.tolerance(value) * 10.0


def _row_blocks(rows: np.ndarray, nodes_per_row: int):
    """Consecutive chunks of ``rows`` holding at most _NODE_BLOCK nodes each.

    A single row is never split, so a row with more nodes than the block
    forms a chunk of its own.
    """
    step = max(1, _NODE_BLOCK // nodes_per_row)
    for start in range(0, rows.size, step):
        yield rows[start:start + step]


def _gauss_legendre_rows_sum(f, rows, mid, half, n):
    x, w = _leggauss(n)
    out = np.empty(rows.size)
    done = 0
    for block in _row_blocks(rows, n):
        vals = f(mid[block, None] + half[block, None] * x, block[:, None])
        out[done:done + block.size] = half[block] * (vals @ w)
        done += block.size
    return out


def _gauss_legendre_rows(f, a, b, active, abs_tol, rel_tol, n0, n_max):
    """Node-doubling Gauss-Legendre over the ``active`` rows.

    Every row doubles its order on its own, from ``n0`` up to ``n_max``
    nodes, and leaves the active set once the difference between its last
    two refinements passes :func:`_within_tol`.  That difference is the
    row's error estimate, conservative for smooth integrands; a row that
    runs out of nodes keeps its last refinement, unconverged.  Rows outside
    ``active`` stay (0, 0, True).
    """
    value = np.zeros(a.size)
    err = np.zeros(a.size)
    converged = np.ones(a.size, dtype=bool)
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    prev = _gauss_legendre_rows_sum(f, active, mid, half, n0)
    value[active], err[active], converged[active] = prev, np.inf, False
    n = 2 * n0
    while n <= n_max and active.size:
        cur = _gauss_legendre_rows_sum(f, active, mid, half, n)
        step_err = np.abs(cur - prev)
        ok = _within_tol(step_err, cur, abs_tol, rel_tol)
        value[active], err[active], converged[active] = cur, step_err, ok
        active, prev = active[~ok], cur[~ok]
        n *= 2
    return value, err, converged


def integrate_rows(f, a, b, config: QuadratureConfig):
    """Integrate one integrand per row over per-row limits [a_k, b_k].

    ``f(x, rows)`` receives a node array ``x`` and integer row indices
    ``rows`` that broadcast against it (a (rows x 1) column beside a
    (rows x nodes) matrix, equal shapes, or one plain ``int`` for the
    single-node calls of ``adaptive_gauss_kronrod``), and returns the
    integrand values at ``x``, row k using the parameters of row k.  The
    rows are independent, batched as described in the module docstring.

    Returns ``(value, error_estimate, converged)`` arrays.  Nothing is
    raised on non-convergence; the caller decides what a failed row means.
    Rows with a_k == b_k give (0, 0, True) and are never evaluated.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    a, b = a.ravel(), b.ravel()
    active = np.flatnonzero(a != b)
    if config.scheme == "gauss_legendre_fixed":
        return _gauss_legendre_rows(f, a, b, active, config.abs_tol, config.rel_tol,
                                    _GL_FIRST_NODES, _GL_MAX_NODES)
    value = np.zeros(a.size)
    err = np.zeros(a.size)
    converged = np.ones(a.size, dtype=bool)
    if config.scheme == "adaptive_gauss_kronrod":
        for k in active.tolist():
            v, e = integrate.quad(
                lambda x: float(f(np.array([x]), k)[0]), a[k], b[k],
                epsabs=config.abs_tol, epsrel=config.rel_tol,
                limit=_QUADPACK_LIMIT)
            value[k], err[k], converged[k] = v, e, _kronrod_converged(v, e, config)
        return value, err, converged
    # tanh_sinh: the row index travels as an argument, which scipy subsets
    # and shapes alongside the nodes of the rows still active
    for block in _row_blocks(active, _TANH_SINH_LEVEL_NODES):
        res = integrate.tanhsinh(
            lambda x, k: f(x, k.astype(np.intp)), a[block], b[block],
            args=(block.astype(float),), maxlevel=_TANH_SINH_MAXLEVEL,
            atol=config.abs_tol, rtol=config.rel_tol)
        value[block], err[block], converged[block] = res.integral, res.error, res.success
    return value, err, converged


def integrate_interval(f, a: float, b: float, config: QuadratureConfig,
                       breakpoints=()):
    """Integrate a vectorized callable over [a, b] under ``config``.

    ``breakpoints`` are interior points where the integrand is continuous
    but not smooth; the interval is split there, and the pieces are the
    rows of one :func:`integrate_rows` call, so every integrand call sees
    the nodes of all pieces still refining.  The pieces are summed in
    order; :class:`QuadratureFailure` is raised at the first prefix that
    has not converged and whose summed error estimate exceeds the
    tolerance of its summed value.  Returns ``(value, error_estimate)``.
    """
    if a == b:
        return 0.0, 0.0
    cuts = np.array(sorted({a, b, *(p for p in breakpoints if a < p < b)}))
    values, errs, oks = integrate_rows(lambda x, rows: f(x), cuts[:-1], cuts[1:], config)
    total, err = 0.0, 0.0
    converged = True
    for v, e, ok in zip(values.tolist(), errs.tolist(), oks.tolist()):
        total += v
        err += e
        converged = converged and ok
        if not converged and err > config.tolerance(total):
            raise QuadratureFailure(
                f"error estimate {err:.3e} exceeds tolerance "
                f"{config.tolerance(total):.3e} on [{a}, {b}] with {config.scheme}")
    return total, err
