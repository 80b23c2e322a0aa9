"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import dppstats  # noqa: E402
import jobs  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import run_plain  # noqa: E402

PASSES = 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_follow_the_seed(workload):
    first = workloads.job_list(workload, 7)
    assert first == workloads.job_list(workload, 7)
    assert first != workloads.job_list(workload, 8)
    assert len(first) >= 100
    assert json.loads(json.dumps(first)) == first


class _Replay:
    """A runner that hands back prepared outputs in order."""

    def __init__(self, outputs):
        self.outputs = list(outputs)

    def run(self, job):
        out = self.outputs.pop(0)
        if isinstance(out, Exception):
            return {"exception": out}
        return out


def test_wrong_values_and_exceptions_count_as_failures():
    job = {"kind": "planar_point", "n": 1, "r": 1.0}
    good = jobs.Runner().run(job)
    assert jobs.check(job, good) == []
    rows = list(good["rows"])
    worst = max(range(2), key=lambda i: rows[i][2])
    r, value, err, route = rows[worst]
    rows[worst] = (r, value + 10.0 * err, err, route)       # 10x its error bar
    shifted = {"rows": rows}
    tally = jobs.Tally()
    outputs = [good, shifted, RuntimeError("injected")] * PASSES
    run_plain(_Replay(outputs), [job] * 3, 0.0, PASSES, tally)
    assert (tally.attempted, tally.failed) == (3 * PASSES, 2 * PASSES)
    assert tally.failed / tally.attempted == pytest.approx(2 / 3)
    assert tally.causes == {"unattributed": 2 * PASSES}


def test_exact_oracle_catches_a_shifted_disc_value():
    job = {"kind": "disc_point", "nu": 1.0, "m": 0, "r": 0.5}
    out = jobs.Runner().run(job)
    assert jobs.check(job, out) == []
    r, value, err, route = out["rows"][1]
    out["rows"][1] = (r, value + 10.0 * max(err, 1e-15), err, route)
    kinds = [p.kind for p in jobs.check(job, out)]
    assert "bars" in kinds


def test_known_defects_are_attributed():
    overflow = jobs.Problem("exception", "OverflowError", exc_type="OverflowError")
    assert jobs.attribute({"kind": "contraction"}, overflow) == "D1"
    geometric = jobs.Problem("tolerance", "", route="geometric", r=1.0)
    assert jobs.attribute({"kind": "planar_point", "n": 12}, geometric) == "D2"
    small_beta = jobs.Problem("tolerance", "", route="int1", r=0.5)
    assert jobs.attribute({"kind": "disc_point", "nu": 0.55, "m": 0}, small_beta) == "D3"
    small_r = jobs.Problem("tolerance", "", route="int3", r=0.05)
    assert jobs.attribute({"kind": "disc_point", "nu": 2.0, "m": 1}, small_r) == "small_r"
    shirai = jobs.Problem("tolerance", "", route="shirai", r=0.115)
    assert jobs.attribute({"kind": "planar_point", "n": 27}, shirai) == "small_r"
    wrong = jobs.Problem("oracle", "")
    assert jobs.attribute({"kind": "disc_point", "nu": 0.55, "m": 0}, wrong) == "unattributed"


def _bars(r, excess, routes=("int1", "int3")):
    return jobs.Problem("bars", "", routes=routes, r=r, excess=excess, tolerance=1e-12)


def test_error_bar_and_scheme_misses_are_excused_only_where_known():
    disc = {"kind": "disc_point", "nu": 4.0, "m": 0}
    assert jobs.attribute(disc, _bars(0.005, 3e-15)) == "small_r"
    assert jobs.attribute(disc, _bars(0.005, 3e-12)) == "unattributed"
    assert jobs.attribute(disc, _bars(0.5, 3e-15)) == "unattributed"
    tanh_sinh = dict(disc, scheme="tanh_sinh")
    assert jobs.attribute(tanh_sinh, _bars(0.5, 3e-11)) == "tanh_sinh"
    assert jobs.attribute(tanh_sinh, jobs.Problem("oracle", "")) == "unattributed"
    planar = {"kind": "planar_point", "n": 3}
    assert jobs.attribute(planar, _bars(0.05, 3e-15, ("shirai", "geometric"))) == "unattributed"
    kronrod = dict(disc, scheme="adaptive_gauss_kronrod")
    loose = jobs.Problem("tolerance", "", route="int3", r=0.5, ratio=1.1)
    assert jobs.attribute(kronrod, loose) == "gauss_kronrod"
    assert jobs.attribute(disc, loose) == "unattributed"
    far = jobs.Problem("tolerance", "", route="int3", r=0.5, ratio=30.0)
    assert jobs.attribute(kronrod, far) == "unattributed"
    assert jobs.attribute(tanh_sinh, far) == "tanh_sinh"


def _spans(tracer):
    return [(p, tracer.layers[lay], tracer.names[nm])
            for p, lay, nm in zip(tracer.parent, tracer.layer, tracer.name)]


def test_tracer_assigns_a_known_chain_to_its_layers():
    tracer = Tracer(dppstats, HERE)
    x = np.linspace(0.0, 1.0, 5)
    tracer.trace("chain", lambda: dppstats.laguerre(3, x))
    spans = _spans(tracer)
    assert spans[0] == (-1, "bench", "chain")
    assert spans[1] == (0, "specfun", "laguerre")
    assert len(spans) > 2
    assert all(parent == 1 and layer == "numpy" for parent, layer, _ in spans[2:])
    times = tracer.self_times()
    assert sum(times.values()) == pytest.approx(tracer.wall_time(), rel=1e-12)
    assert set(t for t in times if times[t] > 0) == {"bench", "specfun", "numpy"}


def test_tracer_counts_at_layer_boundaries():
    tracer = Tracer(dppstats, HERE)
    tracer.trace("lens", lambda: dppstats.hyperbolic_lens_integral(0.5, 0.3))
    tracer.trace("lens", lambda: dppstats.hyperbolic_lens_integral_transformed(0.5, 0.3))
    profile = tracer.trace("law", lambda: dppstats.build_profile(1.0, 0.5))
    counts = tracer.counts
    assert counts["geometry.lens_calls"] == 2
    assert counts["quadrature.calls"] >= 1
    assert counts["geometry.integrand_nodes"] == tracer.quad_total_nodes > 0
    assert 0 < tracer.quad_useful_nodes < tracer.quad_total_nodes
    assert counts["counting.profile_terms"] == profile.truncation
    assert counts["specfun.incomplete_beta_calls"] == 2 * profile.truncation
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.wall_time(), rel=1e-12)
    layers = {layer for _, layer, _ in _spans(tracer)}
    assert {"geometry", "quadrature", "counting", "specfun", "scipy"} <= layers


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count_law", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
