"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on a passing suite (pytest shows captured output for failures anyway).
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest
from scipy import special

from dppstats import (EuclideanLevel, HyperbolicLevel, asymptotic_constant,
                      binomial_moment, build_profile, contraction_check,
                      distribution, euclidean_lens_complement_area,
                      generating_function, hyperbolic_distance, image_disc,
                      mobius, sample_counts, variance_euclidean_geometric,
                      variance_euclidean_shirai, variance_hyperbolic,
                      variance_hyperbolic_via_transformed, variance_series)
from oracles import planar_sector_variance


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{name}]: {status} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


@lru_cache(maxsize=None)
def profile_and_law(nu, r):
    profile = build_profile(nu, r)
    return profile, distribution(profile)


def test_criterion_01_peres_virag_exact_law():
    start = time.perf_counter()
    worst = 0.0
    for r in (0.2, 0.5, 0.8, 0.95):
        value = variance_hyperbolic(HyperbolicLevel(1.0, 0), r).value
        exact = r * r / (1 - r ** 4)
        worst = max(worst, abs(value - exact) / exact)
    elapsed = time.perf_counter() - start
    report(1, "Peres-Virag exact law", worst < 1e-5 and elapsed < 5.0,
           f"max rel err {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_02_series_quadrature_duality():
    worst = 0.0
    for nu in (1.0, 1.5, 2.7):
        for r in (0.5, 0.9):
            series = variance_series(nu, r)
            quad = variance_hyperbolic(HyperbolicLevel(nu, 0), r).value
            worst = max(worst, abs(series - quad) / quad)
    report(2, "series/quadrature duality", worst < 1e-5, f"max rel err {worst:.2e}")


def test_criterion_03_asymptotic_law():
    ok = True
    details = []
    for nu, m in ((1.0, 0), (2.0, 1), (3.2, 2)):
        level = HyperbolicLevel(nu, m)
        c = asymptotic_constant(level)
        errs = [abs((1 - r * r) * variance_hyperbolic(level, r).value / c - 1.0)
                for r in (0.9, 0.99, 0.999)]
        ok = ok and errs[0] > errs[1] > errs[2] and errs[2] < 0.02
        details.append(f"({nu},{m}): {errs[2]:.4f}")
    c_ground = asymptotic_constant(HyperbolicLevel(1.0, 0))
    ok = ok and abs(c_ground - 0.5) < 1e-8
    report(3, "variance asymptotics", ok,
           "final errs " + ", ".join(details) + f"; C(1,0)-0.5 = {c_ground - 0.5:.1e}")


def test_criterion_04_constant_bound():
    violations = []
    for nu in (0.75, 1.0, 2.0, 3.5, 5.0):
        for m in range(int(math.floor(nu - 0.5)) + 1):
            if 2 * (nu - m) - 1 <= 0:
                continue
            level = HyperbolicLevel(nu, m)
            c = asymptotic_constant(level)
            if c > level.beta:
                violations.append((nu, m, c))
    report(4, "constant bound", not violations, f"violations: {violations!r}")


def test_criterion_05_euclidean_routes_and_growth():
    # the two routes are one computation, so each is held to the sector series
    worst = 0.0
    for n in (0, 1, 2):
        level = EuclideanLevel(n)
        for r in (0.5, 1.0, 2.0):
            ref = planar_sector_variance(n, r)
            for route in (variance_euclidean_shirai, variance_euclidean_geometric):
                worst = max(worst, abs(route(level, r).value - ref) / ref)
    growth = 0.0
    for n in (0, 1):
        level = EuclideanLevel(n)
        v20 = variance_euclidean_shirai(level, 20.0).value
        v40 = variance_euclidean_shirai(level, 40.0).value
        growth = max(growth, abs(v20 / 20 - v40 / 40) / (v40 / 40))
    report(5, "planar routes against the sector series and linear growth",
           worst < 1e-6 and growth < 0.02,
           f"series rel {worst:.2e}, growth dev {growth:.3%}")


def test_criterion_06_hyperbolic_route_equivalence():
    worst = 0.0
    for nu in (2.7, 3.2, 4.1):
        for m in (0, 1, 2):
            level = HyperbolicLevel(nu, m)
            for r in (0.3, 0.6, 0.9):
                a = variance_hyperbolic(level, r).value
                b = variance_hyperbolic_via_transformed(level, r).value
                worst = max(worst, abs(a - b) / a)
    report(6, "hyperbolic route equivalence (3x3x3)", worst < 1e-6,
           f"max rel err {worst:.2e}")


def test_criterion_07_cycle_formula():
    worst = 0.0
    for nu, r in ((1.0, 0.5), (1.5, 0.7), (3.0, 0.9)):
        profile, law = profile_and_law(nu, r)
        ns = np.arange(len(law.pmf))
        for k in range(1, 6):
            ref = float((special.comb(ns, k) * law.pmf).sum())
            worst = max(worst, abs(binomial_moment(profile, k) - ref)
                        / max(1.0, abs(ref)))
    report(7, "binomial moments by the prefix-sum recurrence", worst < 1e-9,
           f"max scaled err {worst:.2e}")


def test_criterion_08_generating_function_duality():
    worst = 0.0
    for nu, r in ((1.0, 0.5), (1.5, 0.7), (3.0, 0.9)):
        profile, law = profile_and_law(nu, r)
        ns = np.arange(len(law.pmf))
        for s in (-0.5, 0.25, 0.9):
            lhs = generating_function(profile, s)
            rhs = float((law.pmf * (1 + s) ** ns).sum())
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    report(8, "generating-function duality", worst < 1e-9, f"max rel err {worst:.2e}")


def test_criterion_09_monte_carlo():
    profile, _ = profile_and_law(1.5, 0.7)
    n = 100000
    hist = sample_counts(profile, 0, n)
    rerun = sample_counts(profile, 0, n)
    ks = np.arange(len(hist))
    mean = float((ks * hist).sum()) / n
    var = float((((ks - mean) ** 2) * hist).sum()) / n
    mu = float(profile.probabilities.sum())
    sigma_sq = float((profile.probabilities * (1 - profile.probabilities)).sum())
    se = math.sqrt(sigma_sq / n)
    ok = (abs(mean - mu) < 4 * se
          and abs(var - sigma_sq) / sigma_sq < 0.05
          and np.array_equal(hist, rerun))
    report(9, "seeded Monte Carlo", ok,
           f"|mean-mu|/se {abs(mean - mu) / se:.2f}, var dev "
           f"{abs(var - sigma_sq) / sigma_sq:.3%}, rerun identical "
           f"{np.array_equal(hist, rerun)}")


def _euclidean_lens_mc(r, z, n_total=12_000_000, seed=0, chunk=2_000_000):
    """Monte Carlo area of D_r^c cap D_r(z): uniform draws in D_r(z)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    outside = 0
    done = 0
    while done < n_total:
        k = min(chunk, n_total - done)
        # uniform in the disc of radius r centred at (z, 0)
        u = rng.random(k)
        theta = rng.random(k) * (2 * math.pi)
        rad = r * np.sqrt(u)
        x = z + rad * np.cos(theta)
        y = rad * np.sin(theta)
        outside += int((x * x + y * y > r * r).sum())
        done += k
    return math.pi * r * r * outside / n_total


def test_criterion_10_geometry_suite():
    rng = np.random.default_rng(1)

    def points(n):
        pts = rng.uniform(-0.95, 0.95, size=(2 * n, 2))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < 0.95][:n]
        return pts[:, 0] + 1j * pts[:, 1]

    ws, zs, ys = points(1000), points(1000), points(1000)
    inv = max(abs(mobius(w, mobius(w, z)) - z) for w, z in zip(ws, zs))
    iso = max(abs(hyperbolic_distance(mobius(w, z), mobius(w, y))
                  - hyperbolic_distance(z, y)) for w, z, y in zip(ws, zs, ys))

    boundary = 0.0
    for w_mod, r in ((0.3, 0.5), (0.8, 0.2), (0.6, 0.9)):
        disc = image_disc(w_mod, r)
        for theta in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
            zeta = r * complex(math.cos(theta), math.sin(theta))
            boundary = max(boundary, abs(
                abs(mobius(w_mod, zeta) - disc.center_modulus) - disc.radius))

    lens_formula = euclidean_lens_complement_area(1.0, 1.0)
    lens_mc = _euclidean_lens_mc(1.0, 1.0)
    lens_err = abs(lens_formula - lens_mc)

    cont = 0.0
    for r in (0.4, 1.0, 2.5):
        left = euclidean_lens_complement_area(r, 2 * r * (1 - 1e-13))
        right = euclidean_lens_complement_area(r, 2 * r)
        cont = max(cont, abs(left - right))

    ok = inv < 1e-11 and iso < 1e-11 and boundary < 1e-10 and lens_err < 1e-3 and cont < 1e-12
    report(10, "geometry suite", ok,
           f"involution {inv:.1e}, isometry {iso:.1e}, boundary {boundary:.1e}, "
           f"lens-vs-MC {lens_err:.1e}, continuity {cont:.1e}")


def test_criterion_11_contraction_limit():
    start = time.perf_counter()
    ok = True
    details = []
    for m in (0, 1):
        rows = contraction_check(m, 1.0, (4.0, 8.0, 16.0))
        errs = [abs(row.ratio - 1.0) for row in rows]
        ok = ok and errs[0] > errs[1] > errs[2] and errs[2] < 0.10
        details.append(f"m={m}: " + "->".join(f"{e:.4f}" for e in errs))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(11, "contraction limit", ok,
           "; ".join(details) + f"; runtime {elapsed:.1f}s")
