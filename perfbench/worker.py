"""The workload process, started fresh by ``run.py`` for every measurement.

    python3 perfbench/worker.py WORKLOAD SRC_DIR [--setup-only]

It imports ``dppstats.cli`` from SRC_DIR, runs one fixed warm-up job and
prints ``ready``; the parent times this as set-up.  With ``--setup-only`` it
stops there.  Otherwise it reads one JSON line from stdin (the job list and
the run settings), runs the jobs and prints ``result <json>``.

Plain mode runs groups of passes over the job list (``passes`` in the
settings) while another group fits in the run's seconds; every job is
timed and then checked.  Between jobs it also times a fixed reference loop,
by which the end-to-end times are scaled.  Traced mode runs the layer probes,
then the first ``trace_jobs`` jobs plain and again under the layer tracer,
and writes the spans to ``spans_path``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
# the reference loop runs before a job once this long has passed since it
# last ran: often enough to follow the host's speed, at ~5 % overhead.  Each
# job time is divided by the median of the REF_WINDOW reference times around
# it; the host's speed changes within a second, so a local median follows it
# better than the median of a whole group
REF_EVERY_S = 0.05
REF_WINDOW = 9
# the end-to-end times are reported in seconds on a host where the reference
# loop takes this long: its time on the 2-vCPU Xeon VM of the recorded
# baseline, rounded
REF_NOMINAL_S = 0.0025


def warm_up(workload: str):
    import dppstats
    if workload == "disc_variance":
        dppstats.variance_hyperbolic(dppstats.HyperbolicLevel(1.0, 0), 0.5)
    elif workload == "planar_variance":
        dppstats.variance_euclidean_shirai(dppstats.EuclideanLevel(1), 1.0)
        dppstats.variance_euclidean_geometric(dppstats.EuclideanLevel(1), 1.0)
    else:
        dppstats.distribution(dppstats.build_profile(1.0, 0.5))


@functools.cache
def _reference_arrays():
    return np.linspace(0.01, 1.0, 256), np.random.default_rng(0).random(200_000)


def reference_loop() -> float:
    """Fixed numpy work independent of dppstats (about 2.5 ms).

    Element-wise ufuncs on a 256-node array cost, per call, what the
    library's vectorised integrands cost; a sort and a pass over 1.6 MB
    arrays follow the memory system.  Over five minutes on a shared 2-vCPU
    VM whose speed drifted by up to 1.8x, job times divided by this loop
    varied less than job times divided by a pure-Python loop (README.md).
    """
    x, big = _reference_arrays()
    acc = 0.0
    for _ in range(2):
        for _ in range(60):
            acc += float((np.exp(-x) * np.sin(3.0 * x) + x ** 1.5).sum())
        acc += float(np.sort(big[:50_000]).sum()) + float((big * 1.0001).sum())
    return acc


def reference_times(count: int) -> list[float]:
    """Seconds taken by ``count`` runs of the reference loop, one after another."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return times


def local_reference(ref_times: list[float]) -> list[float]:
    """Median of the REF_WINDOW reference times centred on each one."""
    half = REF_WINDOW // 2
    return [statistics.median(ref_times[max(0, i - half):i + half + 1])
            for i in range(len(ref_times))]


def run_plain(runner, job_list, seconds, passes, tally):
    """Run groups of ``passes`` passes while another group fits in ``seconds``.

    Within a group each job keeps its fastest pass: the passes lie a whole
    pass apart in time, so a slow phase of the shared machine rarely covers
    all of them.  Every group takes the minimum over the same number of passes,
    so the estimate does not depend on how many groups fit.  Between jobs,
    at least every REF_EVERY_S, the reference loop is timed.  Returns, per
    group, each job's fastest time in seconds, each job's fastest time in
    units of the local reference time, and the group's median reference time.
    """
    from jobs import check
    clock = time.perf_counter
    groups = []
    t_begin = clock()
    while True:
        ref_times, samples = [], []          # samples: (job index, seconds, ref index)
        last_ref = -math.inf
        for _ in range(passes):
            for index, job in enumerate(job_list):
                if clock() - last_ref >= REF_EVERY_S:
                    t0 = clock()
                    reference_loop()
                    last_ref = clock()
                    ref_times.append(last_ref - t0)
                t0 = clock()
                out = runner.run(job)
                samples.append((index, clock() - t0, len(ref_times) - 1))
                tally.add(index, job, check(job, out))
                del out
        local = local_reference(ref_times)
        seconds_best = [math.inf] * len(job_list)
        ref_best = [math.inf] * len(job_list)
        for index, t, k in samples:
            seconds_best[index] = min(seconds_best[index], t)
            ref_best[index] = min(ref_best[index], t / local[k])
        groups.append({"seconds": seconds_best, "ref": ref_best,
                       "ref_s": statistics.median(ref_times)})
        per_group = (clock() - t_begin) / len(groups)
        if clock() - t_begin + per_group > seconds:
            return groups


def run_traced(runner, job_list, count, spans_path, meta, tally):
    import dppstats
    from jobs import check
    from probes import run_probes
    from spans import Tracer

    probes = run_probes()
    clock = time.perf_counter
    subset = job_list[:count]
    plain = 0.0
    for index, job in enumerate(subset):
        t0 = clock()
        out = runner.run(job)
        plain += clock() - t0
        tally.add(index, job, check(job, out))
        del out
    tracer = Tracer(dppstats, HERE)
    runner.cli_output_bytes = 0
    for index, job in enumerate(subset):
        out = tracer.trace(job["kind"], lambda: runner.run(job))
        tally.add(index, job, check(job, out))
        del out
    traced = tracer.wall_time()
    counts = dict(tracer.counts)
    counts["cli.output_bytes"] = runner.cli_output_bytes
    result = {"probes": probes, "plain_seconds": plain, "traced_seconds": traced,
              "self_s": tracer.self_times(), "counts": counts,
              "useful_nodes": tracer.quad_useful_nodes,
              "total_nodes": tracer.quad_total_nodes,
              "spans": len(tracer), "traced_jobs": len(subset)}
    tracer.write(spans_path, meta)
    return result


def main(argv):
    workload, src_dir = argv[1], os.path.abspath(argv[2])
    sys.path.insert(0, src_dir)
    import dppstats.cli  # noqa: F401  (the import users of the CLI pay for)
    if not os.path.abspath(dppstats.__file__).startswith(src_dir + os.sep):
        print(f"dppstats imported from {dppstats.__file__}, not {src_dir}",
              file=sys.stderr)
        return 2
    warm_up(workload)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    sys.path.insert(0, HERE)
    from jobs import Runner, Tally
    config = json.loads(sys.stdin.readline())
    runner, tally = Runner(), Tally()
    if config["trace"]:
        result = run_traced(runner, config["jobs"], config["trace_jobs"],
                            config["spans_path"], config["meta"], tally)
    else:
        result = {"groups": run_plain(runner, config["jobs"], config["seconds"],
                                      config["passes"], tally)}
    result.update(tally.result())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
