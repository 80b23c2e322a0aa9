"""Seeded job lists for the three benchmark workloads.

The continuous parameters come from scrambled Sobol points or stratified
draws keyed by the seed, so two seeds give different inputs with nearly the
same mix of cheap and expensive jobs; that is what keeps a run's wall time
steady from seed to seed.  A job is a plain dict that :mod:`jobs` knows how to run and
check.  The same seed always yields the same list, in the same order.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import qmc

WORKLOADS = ("disc_variance", "planar_variance", "count_law")

# disc_variance: levels x (interior radii + the two radii near 1 + one
# asymptotics table), plus contraction tables, alternative schemes and the
# single R = 32 contraction row that overflows at the seed (defect D1)
DISC_LEVELS = 16
DISC_INTERIOR_RADII = 4
DISC_NEAR_ONE = (0.99, 0.999)
ASYMPTOTIC_RADII = (0.9, 0.99, 0.999)
CONTRACTION_SCALES = (4.0, 8.0, 16.0)
OVERFLOW_SCALE = 32.0

# planar_variance: many sub-millisecond points
PLANAR_POINTS = 2048
PLANAR_MAX_N = 30
PLANAR_MAX_R = 6.0
PLANAR_CLI_JOBS = 96

# count_law: near r = 1 the truncation J grows like (1 + 0.16 (nu - 1)) /
# (1 - r^2), so 1 - r^2 is drawn log-uniform and scaled by that factor: J
# then spreads evenly in log J from about 10 to about 1500 whatever nu,
# which keeps the cost of the heaviest requests steady from seed to seed.
# The fixed requests reach J ~ 6000 (the corner of the domain) and
# J ~ 17 000 (r = 0.999)
LAW_REQUESTS = 128
LAW_MAX_NU = 6.0
LAW_MAX_R = 0.99
LAW_MIN_R = 0.1
LAW_CORNER_R = 0.995
LAW_J_SLOPE = 0.16
LAW_SAMPLES = 10_000
LAW_CLI_JOBS = 4

CLI_SHARE = 0.1

# passes over the job list per timing group, chosen so that one group about
# fills a 30 s run; each job keeps its fastest pass of the group
PASSES = {"disc_variance": 2, "planar_variance": 10, "count_law": 3}

# the traced run traces this many jobs from the front of the list; the jobs
# with a fixed role (anchors, alternative schemes, the overflow row) sit
# behind them, so every seed traces a sample of the random jobs only
TRACE_JOBS = {"disc_variance": 24, "planar_variance": 1024, "count_law": 16}


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _sobol(rng: np.random.Generator, dims: int, n: int) -> np.ndarray:
    """``n`` scrambled Sobol points in [0, 1)^dims (a prefix when n is not 2^k)."""
    m = max(1, math.ceil(math.log2(n)))
    return qmc.Sobol(dims, scramble=True, rng=rng).random_base2(m)[:n]


def _stratified(rng: np.random.Generator, k: int) -> np.ndarray:
    """One uniform draw in each of ``k`` equal strata of [0, 1), shuffled."""
    return rng.permutation((np.arange(k) + rng.random(k)) / k)


def _r(x: float) -> float:
    # parameters travel as JSON and as CLI text; 12 digits keep both exact
    return float(f"{x:.12g}")


def disc_jobs(seed: int) -> list[dict]:
    rng = _rng("disc_variance", seed)
    pts = _sobol(rng, 2, DISC_LEVELS)
    levels = [(1.0, 0)]                     # the exact nu = 1 oracle level
    for u_nu, u_m in pts:
        nu = _r(0.5 + 7.5 * (1.0 - u_nu))   # (0.5, 8]
        m_max = min(2, math.floor(nu - 0.5))
        m = min(int(u_m * (m_max + 1)), m_max)
        if 2.0 * (nu - m) - 1.0 <= 0.0:     # keep beta > 0 (measure-zero edge)
            m -= 1
        levels.append((nu, m))
    jobs = []
    for nu, m in levels:
        radii = [_r(0.99 * x) for x in _stratified(rng, DISC_INTERIOR_RADII)]
        for r in radii + list(DISC_NEAR_ONE):
            jobs.append({"kind": "disc_point", "nu": nu, "m": m, "r": max(r, 1e-3)})
        jobs.append({"kind": "disc_asymptotics", "nu": nu, "m": m,
                     "radii": list(ASYMPTOTIC_RADII)})
    for m, u in zip((0, 1, 2), _stratified(rng, 3)):
        jobs.append({"kind": "contraction", "m": m, "r": _r(2.0 * (1.0 - u)),
                     "scales": list(CONTRACTION_SCALES)})
    _route_through_cli(rng, jobs, round(CLI_SHARE * len(jobs)))
    fixed = [{"kind": "contraction", "m": int(rng.integers(0, 3)),
              "r": _r(2.0 * (1.0 - rng.random())), "scales": [OVERFLOW_SCALE]}]
    # alternative quadrature schemes on one interior point each
    for scheme in ("adaptive_gauss_kronrod", "tanh_sinh"):
        nu, m = levels[1 + int(rng.integers(0, DISC_LEVELS))]
        fixed.append({"kind": "disc_point", "nu": nu, "m": m,
                      "r": _r(0.2 + 0.7 * rng.random()), "scheme": scheme})
    return _shuffled(rng, jobs) + fixed


def planar_jobs(seed: int) -> list[dict]:
    rng = _rng("planar_variance", seed)
    pts = _sobol(rng, 2, PLANAR_POINTS)
    jobs = [{"kind": "planar_point", "n": min(int(u_n * (PLANAR_MAX_N + 1)), PLANAR_MAX_N),
             "r": _r(PLANAR_MAX_R * (1.0 - u_r))} for u_n, u_r in pts]
    _route_through_cli(rng, jobs, PLANAR_CLI_JOBS)
    return _shuffled(rng, jobs)


def law_jobs(seed: int) -> list[dict]:
    rng = _rng("count_law", seed)
    pts = _sobol(rng, 2, LAW_REQUESTS)
    min_scale = 1.0 + LAW_J_SLOPE * (0.5 - 1.0)
    lo = math.log((1.0 - LAW_MAX_R ** 2) / min_scale)
    hi = math.log(1.0 - LAW_MIN_R ** 2)
    jobs = []
    for u_nu, u_gap in pts:
        nu = _r(0.5 + (LAW_MAX_NU - 0.5) * (1.0 - u_nu))
        gap = min(1.0 - LAW_MIN_R ** 2,                   # 1 - r^2
                  math.exp(lo + (hi - lo) * u_gap) * (1.0 + LAW_J_SLOPE * (nu - 1.0)))
        jobs.append({"kind": "law", "nu": nu, "r": _r(math.sqrt(1.0 - gap)),
                     "s": [_r(x) for x in (-0.9 + 0.5 * rng.random(),
                                            -0.3 + 0.5 * rng.random(),
                                            0.2 + 0.3 * rng.random())],
                     "samples": 0, "sample_seed": int(rng.integers(0, 2**31))})
    # the quarter of the requests with the smallest r draw samples, with
    # L3-resident blocks of 0.6 to about 40 MB; the corner request below
    # takes the sampler far beyond L3.  Sampling only the cheapest requests
    # keeps the costs near the median and the 90th percentile the same for
    # every seed
    by_radius = sorted(range(len(jobs)), key=lambda i: jobs[i]["r"])
    for i in by_radius[:len(jobs) // 4]:
        jobs[i]["samples"] = LAW_SAMPLES
    _route_through_cli(rng, [j for j in jobs if not j["samples"]], LAW_CLI_JOBS)
    # the exact nu = 1 case at r = 0.999 (J near 17 000), the corner of the
    # domain with samples, which sets the sampler's largest working set, and
    # the chunk-size reproducibility check
    fixed = [{"kind": "law", "nu": 1.0, "r": 0.999, "s": [-0.5, 0.25],
              "samples": 0, "sample_seed": 0},
             {"kind": "law", "nu": LAW_MAX_NU, "r": LAW_CORNER_R, "s": [-0.5, 0.25],
              "samples": LAW_SAMPLES, "sample_seed": int(rng.integers(0, 2**31))},
             {"kind": "law_chunks", "nu": _r(0.5 + 2.0 * rng.random()),
              "r": _r(0.3 + 0.3 * rng.random()), "samples": 5000,
              "chunks": [5000, 777], "sample_seed": int(rng.integers(0, 2**31))}]
    return _shuffled(rng, jobs) + fixed


def _route_through_cli(rng, candidates, count):
    for i in rng.choice(len(candidates), count, replace=False):
        candidates[i]["cli"] = True


def _shuffled(rng, jobs):
    return [jobs[i] for i in rng.permutation(len(jobs))]


GENERATORS = {"disc_variance": disc_jobs, "planar_variance": planar_jobs,
              "count_law": law_jobs}


def job_list(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)
