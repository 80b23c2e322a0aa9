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
which sizes the callers' rounding bounds.  No integrand call sees more
than ``_NODE_BLOCK`` = 2^20 nodes (8 MB per array of doubles).

:func:`integrate_interval` integrates one callable from a to b as its
breakpoint pieces, the rows of one :func:`_gauss_legendre` call, and
raises :class:`QuadratureFailure` when the tolerance is missed.
:func:`integrate_rows`, the public row interface, skips empty rows and
hands the rest to :func:`_gauss_legendre`, to one vectorized tanh-sinh
call, or to one QUADPACK call per row, because QUADPACK is scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

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

_leggauss_cache: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, list[slice]]] = {}


def _leggauss(sizes: tuple[int, ...]):
    """Nodes and weights of the Gauss-Legendre rules of ``sizes`` nodes, concatenated,
    and the slice of each rule."""
    if sizes not in _leggauss_cache:
        x, w = zip(*(special.roots_legendre(n) for n in sizes))
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


def _kronrod_converged(value, err, config: QuadratureConfig) -> bool:
    # the acceptance limit of the QUADPACK scheme: ten tolerances
    return err <= config.tolerance(value) * 10.0


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
            value[k], err[k], converged[k] = v, e, _kronrod_converged(v, e, config)
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
    but not smooth; the interval is split there, and the pieces, ordered
    from a to b, are the rows of one Gauss-Legendre doubling (one
    :func:`integrate_rows` call under the other schemes), so every
    integrand call sees the nodes of all pieces still refining.  The value
    is signed: b < a gives minus the integral from b to a.  The pieces are
    summed in order; :class:`QuadratureFailure` is raised at the first
    prefix that has not converged and whose summed error estimate is not
    within the tolerance of its summed value (a nan estimate never is).
    Returns ``(value, error_estimate, nodes)``, ``nodes`` the largest rule
    any piece summed, which sizes a rounding bound.
    """
    if a == b:
        return 0.0, 0.0, 0
    lo, hi = min(a, b), max(a, b)
    cuts = sorted({a, b, *(p for p in breakpoints if lo < p < hi)}, reverse=bool(b < a))
    pieces = (lambda x, rows: f(x), np.array(cuts[:-1]), np.array(cuts[1:]))
    if config.scheme == "gauss_legendre_fixed":
        values, errs, oks, nodes = _gauss_legendre(*pieces, config.abs_tol, config.rel_tol)
    else:
        values, errs, oks, nodes = integrate_rows(*pieces, config)
    total, err = 0.0, 0.0
    converged = True
    for v, e, ok in zip(values.tolist(), errs.tolist(), oks.tolist()):
        total += v
        err += e
        converged = converged and ok
        if not converged and not err <= config.tolerance(total):
            raise QuadratureFailure(
                f"error estimate {err:.3e} exceeds tolerance "
                f"{config.tolerance(total):.3e} on [{a}, {b}] with {config.scheme}")
    return total, err, int(nodes.max())
