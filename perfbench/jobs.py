"""Running one benchmark job, checking it against the library's oracles, and
attributing each failure to a known defect of the library.

A job is timed in :func:`run` and checked afterwards in :func:`check`, so the
oracles cost nothing in the reported latencies.  :func:`run` never raises:
an exception from the library becomes part of the job's output, and
:func:`check` turns it into a problem.

A job fails when :func:`check` finds any problem:

* the job raised, or an in-process CLI job exited with another code than
  expected (0 for every job here);
* a returned error estimate is above ``max(abs_tol, rel_tol * |value|)``;
* a value disagrees with its oracle beyond the error bars (plus a rounding
  allowance): the exact nu = 1 variance r^2 / (1 - r^4), the paired routes
  (int1/int3 on the disc, shirai/geometric on the plane), and for the count
  law the pmf normalisation, its moments, the binomial moments, the
  generating function and a seeded histogram.

:func:`attribute` names the known seed defect behind a problem, or
``"unattributed"``; see the package README for the rules.
"""

from __future__ import annotations

import math

import numpy as np
from click.testing import CliRunner

import dppstats
from dppstats.cli import cli
from dppstats.quadrature import QuadratureConfig

REL_TOL = 1e-9
ABS_TOL = 1e-12
EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny
LOG_TINY = math.log(TINY)
# floating-point allowance for comparisons that carry no error bar of their own
ROUNDING = 1e-13

# attribution rules: the U <= 30 cap of the disc routes leaves a tail of order
# e^{-60 beta}, beta = 2 (nu - m) - 1; it reaches the tolerance near beta = 0.37
# and falls below a tenth of it near 0.41 (D3)
D3_MAX_BETA = 0.40
# below this radius the disc routes miss rel_tol 1e-9 by up to ~6x, and the
# planar shirai route by 0.4% at (n, r) = (27, 0.115); below r ~ 0.008 the
# transformed route also loses ~1e-14 to cancellation that its error
# estimate leaves out
SMALL_R = 0.15
# the library accepts a QUADPACK error estimate up to this multiple of the
# tolerance on the adaptive_gauss_kronrod scheme (gauss_kronrod)
KRONROD_MAX_MISS = 10.0


def tolerance(value: float) -> float:
    return max(ABS_TOL, REL_TOL * abs(value))


class Problem:
    """One reason a job failed; ``where`` carries what attribution needs."""

    def __init__(self, kind: str, detail: str, **where):
        self.kind = kind
        self.detail = detail
        self.where = where


# ---------------------------------------------------------------- running

class Runner:
    """Runs jobs in this process; one instance per worker."""

    def __init__(self):
        self.cli_runner = CliRunner()
        self.cli_output_bytes = 0

    def run(self, job: dict) -> dict:
        try:
            if job.get("cli"):
                return self._run_cli(job)
            return _LIBRARY[job["kind"]](job)
        except Exception as exc:                   # counted as a failure by check()
            return {"exception": exc}

    def _run_cli(self, job: dict) -> dict:
        res = self.cli_runner.invoke(cli, _cli_args(job))
        self.cli_output_bytes += len(res.stdout_bytes)
        exc = res.exception if not isinstance(res.exception, SystemExit) else None
        return {"exit_code": res.exit_code, "stdout": res.stdout, "exception": exc}


def _quad(job: dict) -> QuadratureConfig:
    return QuadratureConfig(scheme=job.get("scheme", "gauss_legendre_fixed"),
                            rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _row(res, r):
    return (r, res.value, res.error_estimate, res.route)


def _disc_point(job):
    level = dppstats.HyperbolicLevel(job["nu"], job["m"])
    quad, r = _quad(job), job["r"]
    return {"rows": [_row(dppstats.variance_hyperbolic(level, r, quad), r),
                     _row(dppstats.variance_hyperbolic_via_transformed(level, r, quad), r)]}


def _disc_asymptotics(job):
    level = dppstats.HyperbolicLevel(job["nu"], job["m"])
    quad = _quad(job)
    constant = dppstats.asymptotic_constant(level, quad)
    return {"constant": constant,
            "rows": [_row(dppstats.variance_hyperbolic(level, r, quad), r)
                     for r in job["radii"]]}


def _contraction(job):
    rows = dppstats.contraction_check(job["m"], job["r"], job["scales"], _quad(job))
    return {"ratios": [(w.scale, w.ratio) for w in rows]}


def _planar_point(job):
    level = dppstats.EuclideanLevel(job["n"])
    r = job["r"]
    return {"rows": [_row(dppstats.variance_euclidean_shirai(level, r), r),
                     _row(dppstats.variance_euclidean_geometric(level, r), r)]}


def _law(job):
    profile = dppstats.build_profile(job["nu"], job["r"])
    out = {"profile": profile, "law": dppstats.distribution(profile),
           "gen": [(s, dppstats.generating_function(profile, s)) for s in job["s"]],
           "binomial": [dppstats.binomial_moment(profile, k) for k in range(1, 5)]}
    if job["samples"]:
        out["hist"] = dppstats.sample_counts(profile, job["sample_seed"], job["samples"])
    return out


def _law_chunks(job):
    profile = dppstats.build_profile(job["nu"], job["r"])
    return {"profile": profile,
            "hists": [dppstats.sample_counts(profile, job["sample_seed"], job["samples"],
                                             chunk=c) for c in job["chunks"]]}


_LIBRARY = {"disc_point": _disc_point, "disc_asymptotics": _disc_asymptotics,
            "contraction": _contraction, "planar_point": _planar_point,
            "law": _law, "law_chunks": _law_chunks}


def _cli_args(job: dict) -> list[str]:
    kind = job["kind"]
    if kind == "disc_point":
        return ["variance", "--nu", repr(job["nu"]), "--m", str(job["m"]),
                "--r", repr(job["r"]), "--route", "both"]
    if kind == "disc_asymptotics":
        args = ["asymptotics", "--nu", repr(job["nu"]), "--m", str(job["m"])]
        for r in job["radii"]:
            args += ["--r", repr(r)]
        return args
    if kind == "contraction":
        args = ["contraction", "--m", str(job["m"]), "--r", repr(job["r"])]
        for s in job["scales"]:
            args += ["--scale", repr(s)]
        return args
    if kind == "planar_point":
        return ["variance", "--euclidean", "--n", str(job["n"]), "--r", repr(job["r"]),
                "--route", "both"]
    if kind == "law":
        args = ["distribution", "--nu", repr(job["nu"]), "--r", repr(job["r"])]
        for s in job["s"]:
            args += ["--s", repr(s)]
        return args
    raise ValueError(f"no CLI form for job kind {kind!r}")


# ---------------------------------------------------------------- checking

def check(job: dict, out: dict) -> list[Problem]:
    """Every problem the oracles find in ``out``; empty when the job passed."""
    exc = out.get("exception")
    if exc is not None:
        return [Problem("exception", f"{type(exc).__name__}: {exc}",
                        exc_type=type(exc).__name__)]
    if job.get("cli") and out["exit_code"] != 0:
        return [Problem("exit_code", f"exit code {out['exit_code']}, expected 0")]
    try:
        if job.get("cli"):
            out = _parse_cli(job, out["stdout"])
        return _CHECKS[job["kind"]](job, out)
    except Exception as exc:         # output of an unexpected shape is a failure too
        return [Problem("oracle", f"cannot check output: {type(exc).__name__}: {exc}")]


def _parse_cli(job: dict, text: str) -> dict:
    lines = text.splitlines()
    body = [ln.split(",") for ln in lines[1:] if ln and not ln.startswith("#")]
    kind = job["kind"]
    if kind in ("disc_point", "planar_point"):
        return {"rows": [(float(r), float(v), float(e), rt) for r, v, e, rt in body]}
    if kind == "disc_asymptotics":
        constant = float(body[-1][2])              # the "limit,,C," line
        return {"constant": constant, "rows": []}
    if kind == "contraction":
        return {"ratios": [(float(b[0]), float(b[3])) for b in body]}
    comments = dict(ln[2:].split("=", 1) for ln in lines
                    if ln.startswith("# ") and "=" in ln and ":" not in ln)
    gen = [(float(ln.split("s=")[1].split(":")[0]), float(ln.rsplit(": ", 1)[1]))
           for ln in lines if ln.startswith("# generating_function")]
    return {"pmf": np.array([float(b[1]) for b in body]),
            "mean": float(comments["mean"]), "variance": float(comments["variance"]),
            "truncation": int(comments["truncation"]),
            "tail_bound": float(comments["tail_bound"]), "gen": gen}


def _check_rows(job, rows, paired: bool) -> list[Problem]:
    problems = []
    for r, value, err, route in rows:
        if not (math.isfinite(value) and math.isfinite(err)) or err > tolerance(value):
            problems.append(Problem(
                "tolerance", f"{route} at r={r}: error {err:.3g} vs tolerance "
                f"{tolerance(value):.3g}", route=route, r=r, ratio=err / tolerance(value)))
        if job.get("nu") == 1.0 and job.get("m") == 0:
            exact = r * r / (1.0 - r ** 4)
            excess = abs(value - exact) - err
            if not excess <= ROUNDING * exact:
                problems.append(Problem("bars", f"{route} at r={r}: {value!r} vs exact "
                                        f"{exact!r} (error {err:.3g})", routes=(route,),
                                        r=r, excess=excess, tolerance=tolerance(exact)))
    if paired:
        by_r: dict[float, list] = {}
        for r, value, err, route in rows:
            by_r.setdefault(r, []).append((value, err, route))
        for r, pair in by_r.items():
            (a, ea, ra), (b, eb, rb) = pair
            excess = abs(a - b) - (ea + eb)
            if not excess <= ROUNDING * max(abs(a), abs(b)):
                problems.append(Problem("bars", f"{ra}/{rb} at r={r}: {a!r} vs {b!r} "
                                        f"beyond errors {ea:.3g} + {eb:.3g}",
                                        routes=(ra, rb), r=r, excess=excess,
                                        tolerance=tolerance(max(abs(a), abs(b)))))
    return problems


def _check_point(job, out):
    return _check_rows(job, out["rows"], paired=True)


def _check_asymptotics(job, out):
    problems = _check_rows(job, out["rows"], paired=False)
    constant = out["constant"]
    bound = 2.0 * (job["nu"] - job["m"]) - 1.0
    if not 0.0 < constant <= bound * (1.0 + ROUNDING):
        problems.append(Problem("oracle", f"constant {constant!r} outside (0, {bound!r}]"))
    if job["nu"] == 1.0 and job["m"] == 0 and not abs(constant - 0.5) <= tolerance(0.5):
        problems.append(Problem("oracle", f"constant {constant!r}, exact 0.5"))
    return problems


def _check_contraction(job, out):
    ratios = out["ratios"]
    if len(ratios) != len(job["scales"]) or not all(
            math.isfinite(q) and q > 0.0 for _, q in ratios):
        return [Problem("oracle", f"contraction rows {ratios!r}")]
    scale, last = ratios[-1]
    if scale >= 16.0 and not abs(last - 1.0) <= 0.05:
        return [Problem("oracle", f"ratio {last!r} at R={scale} not near 1")]
    return []


def _check_law(job, out):
    if "law" in out:
        profile, law = out["profile"], out["law"]
        pmf, mean, var = law.pmf, law.mean, law.variance
        J, tail = profile.truncation, profile.tail_bound
    else:                                          # parsed CLI output
        pmf, mean, var = out["pmf"], out["mean"], out["variance"]
        J, tail = out["truncation"], out["tail_bound"]
    problems = []
    rnd = 4.0 * EPS * (J + 1)                      # accumulated rounding, relative
    k = np.arange(len(pmf), dtype=float)
    if len(pmf) != J + 1:
        return [Problem("oracle", f"pmf has {len(pmf)} entries for J={J}")]
    total = float(pmf.sum())
    if not abs(total - 1.0) <= tail + rnd:
        problems.append(Problem("oracle", f"pmf sums to {total!r}"))
    pmf_mean = float(k @ pmf)
    if not abs(pmf_mean - mean) <= tail + rnd * max(1.0, mean):
        problems.append(Problem("oracle", f"pmf mean {pmf_mean!r} vs series {mean!r}"))
    pmf_var = float(((k - pmf_mean) ** 2) @ pmf)
    if not abs(pmf_var - var) <= tail + rnd * max(1.0, mean * mean):
        problems.append(Problem("oracle", f"pmf variance {pmf_var!r} vs series {var!r}"))
    if job["nu"] == 1.0:
        r = job["r"]
        exact = r * r / (1.0 - r ** 4)
        if not abs(var - exact) <= tail + rnd * exact:
            problems.append(Problem("oracle", f"variance {var!r} vs exact {exact!r}"))
    with np.errstate(divide="ignore"):
        log_pmf = np.log(pmf)
    for s, g in out["gen"]:
        a = k * math.log1p(s) + log_pmf
        top = float(a.max())
        log_ref = top + math.log(float(np.exp(a - top).sum()))
        log_g = math.log(g) if g > 0.0 else -math.inf
        # below the smallest normal double the product has lost its digits
        underflow = log_ref < LOG_TINY and g < TINY
        if not (abs(log_g - log_ref) <= 1e-9 or underflow):
            problems.append(Problem("oracle", f"generating function at s={s}: {g!r} "
                                    f"vs pmf {math.exp(log_ref)!r}"))
    for order, value in enumerate(out.get("binomial", ()), start=1):
        ref = float(_falling(k, order) @ pmf) / math.factorial(order)
        if order == 1:
            ok = value == mean or abs(value - mean) <= ROUNDING * mean
        else:
            # the alternating cycle-type sum has terms up to mean^k / k!, so
            # rounding leaves an absolute error of order eps * mean^k
            ok = (abs(value - ref) <= (1e-9 + rnd) * abs(ref)
                  + 1e-12 * max(1.0, mean) ** order)
        if not ok:
            problems.append(Problem("oracle", f"binomial moment {order}: {value!r} "
                                    f"vs pmf {ref!r}"))
    if "hist" in out:
        problems += _check_hist(out["hist"], pmf, job["samples"])
    return problems


def _falling(k, order):
    out = np.ones_like(k)
    for i in range(order):
        out *= k - i
    return out


def _check_hist(hist, pmf, n) -> list[Problem]:
    if int(hist.sum()) != n or len(hist) != len(pmf):
        return [Problem("oracle", f"histogram holds {int(hist.sum())} draws, expected {n}")]
    k = np.arange(len(pmf), dtype=float)
    mean = float(k @ pmf)
    sd = math.sqrt(max(float(((k - mean) ** 2) @ pmf), 1e-300))
    x_bar = float(k @ hist) / n
    ks = float(np.abs(np.cumsum(hist) / n - np.cumsum(pmf)).max())
    if abs(x_bar - mean) > 6.0 * sd / math.sqrt(n) or ks > 2.5 / math.sqrt(n):
        return [Problem("oracle", f"histogram misfit: mean {x_bar:.4f} vs {mean:.4f}, "
                        f"KS distance {ks:.4f}")]
    return []


def _check_chunks(job, out):
    a, b = out["hists"]
    problems = _check_hist(a, dppstats.distribution(out["profile"]).pmf, job["samples"])
    if not np.array_equal(a, b):
        problems.append(Problem("oracle", f"histograms differ between chunk sizes "
                                f"{job['chunks']}"))
    return problems


_CHECKS = {"disc_point": _check_point, "disc_asymptotics": _check_asymptotics,
           "contraction": _check_contraction, "planar_point": _check_point,
           "law": _check_law, "law_chunks": _check_chunks}


# ------------------------------------------------------------- attribution

def attribute(job: dict, problem: Problem) -> str:
    """The known seed defect behind ``problem``, or ``"unattributed"``."""
    kind = job["kind"]
    if problem.kind == "exception":
        if problem.where["exc_type"] == "OverflowError" and kind == "contraction":
            return "D1"                            # 4.0 ** beta in the radial cutoff
        return "unattributed"
    if problem.kind == "bars":
        # a value outside its error bars: at small r by no more than the
        # requested tolerance (the estimate under-reports, the value still
        # meets the request), and on a tanh_sinh point, where scipy's
        # estimate does not bound the error of the transformed route (one
        # point found 42 tolerances off with its estimate inside the
        # tolerance).  Anything else is never excused
        where = problem.where
        if job.get("scheme") == "tanh_sinh":
            return "tanh_sinh"
        if (where["excess"] <= where["tolerance"] and where["r"] < SMALL_R
                and set(where["routes"]) <= {"int1", "int3"}):
            return "small_r"
        return "unattributed"
    if problem.kind != "tolerance":
        return "unattributed"                      # wrong values are never excused
    route = problem.where["route"]
    if route == "geometric":
        return "D2"                                # truncation T does not grow with n
    if route in ("int1", "int3") and 2.0 * (job["nu"] - job["m"]) - 1.0 <= D3_MAX_BETA:
        return "D3"
    if route in ("int1", "int3", "shirai") and problem.where["r"] < SMALL_R:
        return "small_r"
    if (job.get("scheme") == "adaptive_gauss_kronrod"
            and problem.where["ratio"] <= KRONROD_MAX_MISS):
        return "gauss_kronrod"
    if job.get("scheme") == "tanh_sinh":
        return "tanh_sinh"     # the library takes scipy's success flag as convergence
    return "unattributed"


def failure_record(job: dict, problems: list[Problem]) -> dict:
    causes = sorted({attribute(job, p) for p in problems})
    return {"job": job, "causes": causes, "detail": problems[0].detail}


class Tally:
    """Attempted and failed jobs, and one failure record per failing job."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.causes: dict[str, int] = {}
        self.records: dict[int, dict] = {}

    def add(self, index: int, job: dict, problems: list[Problem]):
        self.attempted += 1
        if problems:
            self.failed += 1
            record = failure_record(job, problems)
            for cause in record["causes"]:
                self.causes[cause] = self.causes.get(cause, 0) + 1
            self.records.setdefault(index, record)

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "causes": self.causes,
                "failures": [self.records[i] for i in sorted(self.records)]}
