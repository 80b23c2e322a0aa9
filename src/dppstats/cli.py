"""Command-line front end.

Subcommands front the library: ``variance`` (single values and r-sweeps on
either geometry; each geometry has one computation, and ``--route`` picks
which of its route names in :data:`dppstats.variance.ROUTES` labels the
rows), ``asymptotics`` (the
(1-r^2) Var(N_r) -> C table), ``distribution`` (exact count law and
optional Monte Carlo) and ``contraction`` (curvature-rescaling table).
All emit CSV (default) or JSON to stdout or to ``--output``.

Conventions:

* floats are rendered with 17 significant digits so output is byte-stable
  for a fixed configuration and seed;
* files are written to a temporary name and renamed on success, so a
  failing run never leaves a partial file;
* a relative ``--output`` is resolved against $DPPSTATS_OUTPUT_DIR when
  that variable is set;
* exit codes: 0 success, 2 invalid parameters (an ``--output`` that cannot
  be written among them), 3 numerical failure
  (quadrature or series truncation).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import click

from .counting import build_profile, distribution, generating_function, sample_distribution
from .exceptions import DomainError, QuadratureFailure, TruncationFailure
from .kernels import EuclideanLevel, HyperbolicLevel
from .quadrature import QuadratureConfig
from .variance import (ROUTES, asymptotic_constant, contraction_check,
                       variance_euclidean_shirai, variance_hyperbolic)

EXIT_INVALID = 2
EXIT_NUMERICAL = 3

DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12
DEFAULT_EPSILON = 1e-12
DEFAULT_SEED = 0


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(text: str, output: str | None):
    """Print to stdout, or atomically write to ``output``."""
    if output is None:
        click.echo(text, nl=False)
        return
    if not os.path.isabs(output):
        base = os.environ.get("DPPSTATS_OUTPUT_DIR")
        if base:
            output = os.path.join(base, output)
    directory = os.path.dirname(os.path.abspath(output))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, output)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            _fail(f"cannot write {output}: {exc.strerror or exc}", EXIT_INVALID)
        raise


def _csv(header: list[str], rows: list[list], comments: list[str] = ()) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    lines += [f"# {c}" for c in comments]
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        _fail(str(exc), EXIT_INVALID)
    except (QuadratureFailure, TruncationFailure) as exc:
        _fail(str(exc), EXIT_NUMERICAL)


def _quad_options(fn):
    fn = click.option("--rel-tol", type=float, default=DEFAULT_REL_TOL,
                      show_default=True, help="Relative quadrature tolerance.")(fn)
    fn = click.option("--abs-tol", type=float, default=DEFAULT_ABS_TOL,
                      show_default=True, help="Absolute quadrature tolerance.")(fn)
    return fn


def _output_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                      default="csv", show_default=True, help="Output format.")(fn)
    fn = click.option("--output", type=click.Path(), default=None,
                      help="Output file (default: stdout); relative paths "
                           "resolve against $DPPSTATS_OUTPUT_DIR.")(fn)
    return fn


def _make_quad(rel_tol, abs_tol) -> QuadratureConfig:
    try:
        return QuadratureConfig(rel_tol=rel_tol, abs_tol=abs_tol)
    except ValueError as exc:
        _fail(str(exc), EXIT_INVALID)


@click.group()
def cli():
    """Count statistics of determinantal point processes on the plane and
    the Poincare disc."""


@cli.command()
@click.option("--euclidean", is_flag=True, help="Use the planar process.")
@click.option("--n", type=int, default=None, help="Planar level index (with --euclidean).")
@click.option("--nu", type=float, default=None, help="Disc-process parameter nu (> 1/2).")
@click.option("--m", type=int, default=None, help="Disc-process level index m.")
@click.option("--r", "radii", type=float, multiple=True, required=True,
              help="Disc radius; repeat for a sweep.")
@click.option("--route", default=None,
              type=click.Choice([name for names in ROUTES.values() for name in names]
                                + ["both"]),
              help="Route name that labels the rows (default: the geometry's "
                   "first); 'both' prints the geometry's one computation under "
                   "each route name.")
@_quad_options
@_output_options
def variance(euclidean, n, nu, m, radii, route, rel_tol, abs_tol, fmt, output):
    """Count variance in centred discs; one row per (r, route)."""
    quad = _make_quad(rel_tol, abs_tol)
    if euclidean:
        if n is None:
            _fail("--euclidean requires --n", EXIT_INVALID)
        level = _guarded(EuclideanLevel, n)
        geometry, compute = "planar", variance_euclidean_shirai
    else:
        if nu is None or m is None:
            _fail("disc-process variance requires --nu and --m "
                  "(or pass --euclidean with --n)", EXIT_INVALID)
        level = _guarded(HyperbolicLevel, nu, m)
        geometry, compute = "disc", variance_hyperbolic
    names = ROUTES[geometry]
    route = route or names[0]
    if route != "both" and route not in names:
        _fail(f"route {route!r} is not a {geometry} route", EXIT_INVALID)
    labels = names if route == "both" else (route,)
    rows = []
    for r in radii:
        res = _guarded(compute, level, r, quad)
        rows += [[r, res.value, res.error_estimate, label] for label in labels]
    if fmt == "csv":
        _emit(_csv(["r", "value", "error_estimate", "route"], rows), output)
    else:
        level_fields = {"n": n} if euclidean else {"nu": nu, "m": m}
        _emit(_json({"command": "variance", **level_fields,
                     "rows": [{"r": r, "value": v, "error_estimate": e, "route": rt}
                              for r, v, e, rt in rows]}), output)


@cli.command()
@click.option("--nu", type=float, required=True, help="Disc-process parameter nu (> 1/2).")
@click.option("--m", type=int, required=True, help="Disc-process level index m.")
@click.option("--r", "radii", type=float, multiple=True,
              default=(0.9, 0.99, 0.999), show_default=True,
              help="Radii approaching 1; repeat for a custom grid.")
@_quad_options
@_output_options
def asymptotics(nu, m, radii, rel_tol, abs_tol, fmt, output):
    """Table of (1 - r^2) Var(N_r) against its r -> 1 limit constant."""
    quad = _make_quad(rel_tol, abs_tol)
    level = _guarded(HyperbolicLevel, nu, m)
    constant = _guarded(asymptotic_constant, level, quad)
    rows = []
    for r in radii:
        res = _guarded(variance_hyperbolic, level, r, quad)
        scaled = (1.0 - r * r) * res.value
        rows.append([r, scaled, constant, scaled / constant])
    if fmt == "csv":
        body = _csv(["r", "scaled_variance", "constant", "ratio"], rows)
        _emit(body + f"limit,,{_fmt(constant)},\n", output)
    else:
        _emit(_json({"command": "asymptotics", "nu": nu, "m": m,
                     "constant": constant, "bound": level.beta,
                     "route": ROUTES["disc"][0],
                     "rows": [{"r": r, "scaled_variance": s, "ratio": q}
                              for r, s, _, q in rows]}), output)


@cli.command("distribution")
@click.option("--nu", type=float, required=True, help="Disc-process parameter nu (> 1/2).")
@click.option("--r", type=float, required=True, help="Disc radius in (0, 1).")
@click.option("--epsilon", type=float, default=DEFAULT_EPSILON, show_default=True,
              help="Series tail bound.")
@click.option("--s", "s_values", type=float, multiple=True,
              help="Evaluate the generating product at these s in (-1, 1).")
@click.option("--samples", type=click.IntRange(min=0), default=0, show_default=True,
              help="Monte Carlo draws to histogram (0 disables).")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True,
              help="Monte Carlo seed.")
@_output_options
def distribution_cmd(nu, r, epsilon, s_values, samples, seed, fmt, output):
    """Exact count law at the lowest disc level: pmf, moments, sampling."""
    profile = _guarded(build_profile, nu, r, epsilon)
    law = distribution(profile)
    hist = None
    if samples > 0:
        hist = _guarded(sample_distribution, law, seed, samples)
    gen_rows = [(s, _guarded(generating_function, profile, s)) for s in s_values]
    if fmt == "csv":
        header = ["n", "probability"] + (["sample_count"] if hist is not None else [])
        rows = []
        for k, p in enumerate(law.pmf):
            row = [k, float(p)]
            if hist is not None:
                row.append(int(hist[k]))
            rows.append(row)
        comments = [f"mean={_fmt(law.mean)}", f"variance={_fmt(law.variance)}",
                    f"truncation={profile.truncation}",
                    f"tail_bound={_fmt(profile.tail_bound)}"]
        comments += [f"generating_function s={_fmt(s)}: {_fmt(g)}" for s, g in gen_rows]
        _emit(_csv(header, rows, comments), output)
    else:
        payload = {"command": "distribution", "nu": nu, "r": r,
                   "route": "series",
                   "truncation": profile.truncation,
                   "tail_bound": profile.tail_bound,
                   "mean": law.mean, "variance": law.variance,
                   "pmf": [float(p) for p in law.pmf],
                   "generating_function": [{"s": s, "value": g} for s, g in gen_rows]}
        if hist is not None:
            payload["samples"] = {"seed": seed, "count": samples,
                                  "histogram": [int(h) for h in hist]}
        _emit(_json(payload), output)


@cli.command()
@click.option("--m", type=int, required=True, help="Level index shared by both geometries.")
@click.option("--r", type=float, required=True, help="Planar disc radius.")
@click.option("--scale", "scales", type=float, multiple=True,
              default=(4.0, 8.0, 16.0), show_default=True,
              help="Rescaling factors R; repeat for a custom list.")
@_quad_options
@_output_options
def contraction(m, r, scales, rel_tol, abs_tol, fmt, output):
    """Curvature-rescaling table: R^2 Var against the planar target."""
    quad = _make_quad(rel_tol, abs_tol)
    rows = _guarded(contraction_check, m, r, scales, quad)
    if fmt == "csv":
        _emit(_csv(["scale", "scaled_variance", "euclidean_target", "ratio"],
                   [[w.scale, w.scaled_variance, w.euclidean_target, w.ratio]
                    for w in rows]), output)
    else:
        _emit(_json({"command": "contraction", "m": m, "r": r,
                     "route": ROUTES["disc"][0],
                     "rows": [{"scale": w.scale, "scaled_variance": w.scaled_variance,
                               "euclidean_target": w.euclidean_target, "ratio": w.ratio}
                              for w in rows]}), output)


def main():
    cli(prog_name="dppstats")


if __name__ == "__main__":
    main()
