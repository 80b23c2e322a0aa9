"""Layer probes: one public function of each layer, timed alone.

Each probe reports the median of a few repeats on fixed arguments, so it
moves only when its own layer changes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import dppstats

# a fixed node array: the 256 Gauss-Legendre nodes on [-1, 1]
_NODES = np.polynomial.legendre.leggauss(256)[0]


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_probes() -> dict[str, float]:
    level = dppstats.HyperbolicLevel(1.0, 0)
    laguerre_nodes = 60.0 * (_NODES + 1.0)
    profile = dppstats.build_profile(1.0, 0.99)
    return {
        "probe.specfun_recurrence_us": 1e6 * _median_time(
            lambda: (dppstats.jacobi_zero_beta(2, 255.0, _NODES),
                     dppstats.laguerre(30, laguerre_nodes)), 51),
        "probe.geometry_lens_ms": 1e3 * _median_time(
            lambda: dppstats.hyperbolic_lens_integral(0.9, 0.95), 11),
        "probe.geometry_lens_transformed_ms": 1e3 * _median_time(
            lambda: dppstats.hyperbolic_lens_integral_transformed(0.9, 0.95), 11),
        "probe.variance_int1_ms": 1e3 * _median_time(
            lambda: dppstats.variance_hyperbolic(level, 0.9), 3),
        "probe.variance_int3_ms": 1e3 * _median_time(
            lambda: dppstats.variance_hyperbolic_via_transformed(level, 0.9), 5),
        "probe.counting_profile_ms": 1e3 * _median_time(
            lambda: dppstats.build_profile(1.0, 0.99), 3),
        "probe.counting_pmf_ms": 1e3 * _median_time(
            lambda: dppstats.distribution(profile), 5),
        "probe.counting_sample_ms": 1e3 * _median_time(
            lambda: dppstats.sample_counts(profile, 1, 10_000), 3),
    }
