"""One-dimensional quadrature engines with error estimates.

Three interchangeable schemes sit behind :class:`QuadratureConfig`:

* ``adaptive_gauss_kronrod`` -- QUADPACK's adaptive Gauss-Kronrod driver
  (:func:`scipy.integrate.quad`),
* ``gauss_legendre_fixed``   -- node-doubling composite Gauss-Legendre,
* ``tanh_sinh``              -- double-exponential rule
  (:func:`scipy.integrate.tanhsinh`).

Every entry point returns a ``(value, error_estimate)`` pair.  The callers
in this package always integrate smooth pieces (endpoint singularities are
removed by explicit substitutions before the engines are invoked), so the
node-doubling Gauss-Legendre scheme converges spectrally and is the
default.

Two entry points share the schemes.  :func:`integrate_interval` integrates
one vectorized callable over one interval.  :func:`integrate_rows`
integrates a family of integrands, one per row, each over its own limits;
the disc variance routes use it to evaluate the lens integral at every
outer node in one array pass.  Its integrand sees a (rows x nodes) matrix
of nodes together with the row indices, so per-row parameters broadcast as
``params[rows]``.  Under ``gauss_legendre_fixed`` every row doubles its
order on its own and leaves the active set as soon as it passes the same
acceptance test as the one-interval scheme; ``tanh_sinh`` makes one
vectorized :func:`scipy.integrate.tanhsinh` call with array limits; and
``adaptive_gauss_kronrod`` runs one QUADPACK call per row, because QUADPACK
is scalar.  No single integrand call sees more than ``_NODE_BLOCK`` = 2^20
nodes (8 MB per array of doubles): the active rows are split into chunks
that fit.
"""

from __future__ import annotations

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

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(n: int):
    if n not in _leggauss_cache:
        _leggauss_cache[n] = special.roots_legendre(n)
    return _leggauss_cache[n]


@dataclass(frozen=True)
class QuadratureConfig:
    """Scheme, tolerances and node budgets for the integrals in this package.

    ``rel_tol``/``abs_tol`` combine in the usual way: an estimate is accepted
    once its error estimate drops below ``max(abs_tol, rel_tol * |value|)``.
    ``radial_nodes`` is the starting order of the Gauss-Legendre scheme (the
    order doubles until convergence), ``max_subdivisions`` bounds adaptive
    refinement.  Instances are immutable and safe to share across threads.
    """

    scheme: str = "gauss_legendre_fixed"
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    radial_nodes: int = 32

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.radial_nodes < 2:
            raise ValueError("radial_nodes must be >= 2")

    def tolerance(self, scale: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(scale))


DEFAULT_QUAD = QuadratureConfig()


def _within_tol(err, value, abs_tol, rel_tol):
    """Acceptance test of every doubling step: err <= max(abs_tol, rel_tol |value|).

    Written with ``|`` so that it serves scalars and arrays alike.
    """
    return (err <= abs_tol) | (err <= rel_tol * abs(value))


def _gauss_legendre_max_nodes(config: QuadratureConfig) -> int:
    return config.radial_nodes * 2 ** min(config.max_subdivisions, 8)


def _gauss_legendre_doubling(f, a, b, abs_tol, rel_tol, n0, n_max):
    """Gauss-Legendre on [a, b] doubling the order until converged.

    ``f`` must accept an ndarray of nodes.  Returns (value, error_estimate,
    converged); the error estimate is the difference between the last two
    refinements, which is conservative for smooth integrands.
    """
    if a == b:
        return 0.0, 0.0, True
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    x, w = _leggauss(n0)
    prev = half * float(np.dot(w, f(mid + half * x)))
    n = 2 * n0
    err = np.inf
    while n <= n_max:
        x, w = _leggauss(n)
        cur = half * float(np.dot(w, f(mid + half * x)))
        err = abs(cur - prev)
        if _within_tol(err, cur, abs_tol, rel_tol):
            return cur, err, True
        prev = cur
        n *= 2
    return prev, err, False


def _kronrod_converged(value, err, config: QuadratureConfig) -> bool:
    # the acceptance limit of the QUADPACK scheme: ten tolerances
    return err <= config.tolerance(value) * 10.0


def _as_scalar_f(f):
    return lambda x: float(f(np.array([x]))[0])


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
    """Per-row :func:`_gauss_legendre_doubling` over the ``active`` rows.

    Every row doubles its order on its own and leaves the active set once it
    passes :func:`_within_tol`; its value, error and flag follow the
    one-interval routine exactly.  Rows outside ``active`` stay (0, 0, True).
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


def integrate_interval(f, a: float, b: float, config: QuadratureConfig,
                       breakpoints=(), strict: bool = True):
    """Integrate a vectorized callable over [a, b] under ``config``.

    ``breakpoints`` are interior points where the integrand is continuous
    but not smooth; the interval is split there for every scheme.  With
    ``strict`` the requested tolerance is enforced via
    :class:`QuadratureFailure`; otherwise the best estimate and its error
    are returned and the caller folds the error into its own budget.
    """
    if a == b:
        return 0.0, 0.0
    cuts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    total, err = 0.0, 0.0
    converged = True
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if config.scheme == "gauss_legendre_fixed":
            v, e, ok = _gauss_legendre_doubling(
                f, lo, hi, config.abs_tol, config.rel_tol,
                config.radial_nodes, _gauss_legendre_max_nodes(config))
        elif config.scheme == "adaptive_gauss_kronrod":
            v, e = integrate.quad(
                _as_scalar_f(f), lo, hi, epsabs=config.abs_tol,
                epsrel=config.rel_tol, limit=max(config.max_subdivisions, 50))
            ok = _kronrod_converged(v, e, config)
        else:  # tanh_sinh
            res = integrate.tanhsinh(f, lo, hi, atol=config.abs_tol,
                                     rtol=config.rel_tol)
            v, e, ok = float(res.integral), float(res.error), bool(res.success)
        total += v
        err += e
        converged = converged and ok
        # a busted prefix cannot be rescued by later pieces; fail fast
        if strict and not converged and err > config.tolerance(total):
            raise QuadratureFailure(
                f"error estimate {err:.3e} exceeds tolerance "
                f"{config.tolerance(total):.3e} on [{a}, {b}] with {config.scheme}")
    return total, err


def integrate_rows(f, a, b, config: QuadratureConfig):
    """Integrate one integrand per row over per-row limits [a_k, b_k].

    ``f(x, rows)`` receives a node array ``x`` and integer row indices
    ``rows`` that broadcast against it (a (rows x 1) column beside a
    (rows x nodes) matrix, equal shapes, or one plain ``int`` for the
    single-node calls of ``adaptive_gauss_kronrod``), and returns the
    integrand values at ``x``, row k using the parameters of row k.  The rows are independent: each
    gets the same treatment :func:`integrate_interval` gives one interval
    without breakpoints, batched as described in the module docstring.

    Returns ``(value, error_estimate, converged)`` arrays.  Nothing is
    raised on non-convergence; the caller decides what a failed row means.
    Rows with a_k == b_k give (0, 0, True) and are never evaluated.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    a, b = a.ravel(), b.ravel()
    active = np.flatnonzero(a != b)
    if config.scheme == "gauss_legendre_fixed":
        return _gauss_legendre_rows(f, a, b, active, config.abs_tol, config.rel_tol,
                                    config.radial_nodes, _gauss_legendre_max_nodes(config))
    value = np.zeros(a.size)
    err = np.zeros(a.size)
    converged = np.ones(a.size, dtype=bool)
    if config.scheme == "adaptive_gauss_kronrod":
        for k in active.tolist():
            v, e = integrate.quad(
                lambda x: float(f(np.array([x]), k)[0]), a[k], b[k],
                epsabs=config.abs_tol, epsrel=config.rel_tol,
                limit=max(config.max_subdivisions, 50))
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
