"""Benchmark entry point; run it from the root of a dppstats checkout.

    python3 perfbench/run.py --workload disc_variance --seed 1 --seconds 20 --trace 0

Plain run (``--trace 0``): times several fresh interpreter starts (set-up),
then runs the workload's job list in a fresh single-threaded worker for
``--seconds`` and checks every job.  Traced run (``--trace 1``): runs the
layer probes and a fixed prefix of the job list plain and under the layer
tracer.  Both print their metrics by name and unit, write a report with the
environment and every failing job to ``.perfbench-out/``, and end with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``correct`` is false when a job fails for a reason that is not one of the
library's known seed defects (see README.md), for example a value outside
its own error bars.  Exit status is non-zero when the run itself breaks.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import numpy as np

from spans import EXTERNAL_LAYERS, LAYERS, PACKAGE_LAYERS
from worker import REF_NOMINAL_S, reference_times
from workloads import PASSES, TRACE_JOBS, WORKLOADS, job_list

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
SETUP_STARTS = 7
# reference loops timed just before each fresh start and just after it is ready
SETUP_REFS = 8
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def _worker_env(src: str) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def _read_line(proc, deadline: float, buffer: bytearray) -> str:
    fd = proc.stdout.fileno()
    while b"\n" not in buffer:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise BenchError("worker timed out")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            raise BenchError(f"worker exited early with status {proc.wait()}")
        buffer += chunk
    line, _, rest = bytes(buffer).partition(b"\n")
    buffer[:] = rest
    return line.decode()


class Worker:
    """A fresh worker process; ``setup_s`` is its time from spawn to ready."""

    def __init__(self, workload: str, src: str, deadline: float, setup_only: bool):
        self.deadline = deadline
        self.buffer = bytearray()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, src]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd + (["--setup-only"] if setup_only else []),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=_worker_env(src), bufsize=0)
        try:
            if _read_line(self.proc, deadline, self.buffer) != "ready":
                raise BenchError("worker did not report ready")
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.close()
            raise

    def request(self, config: dict) -> dict:
        self.proc.stdin.write((json.dumps(config) + "\n").encode())
        self.proc.stdin.close()
        while True:
            line = _read_line(self.proc, self.deadline, self.buffer)
            if line.startswith("result "):
                return json.loads(line[len("result "):])

    def close(self):
        if self.proc.poll() is None:
            left = max(0.1, self.deadline - time.monotonic())
            try:
                self.proc.wait(timeout=left)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode not in (0, None):
            raise BenchError(f"worker exited with status {self.proc.returncode}")


def _start(workload: str, src: str, deadline: float, setup_only: bool):
    """A fresh worker, and its set-up time in seconds and in reference loops.

    The loops are timed in this process, just before the spawn and just after
    the worker is ready, so they see the host's speed of that moment.
    """
    refs = reference_times(SETUP_REFS)
    worker = Worker(workload, src, deadline, setup_only)
    try:
        refs += reference_times(SETUP_REFS)
        if setup_only:
            worker.close()
    except BaseException:
        worker.close()
        raise
    return worker, (worker.setup_s, worker.setup_s / statistics.median(refs))


def _git_commit() -> str:
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def environment() -> dict:
    versions = {}
    for name in ("numpy", "scipy", "click"):
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            versions[name] = "missing"
    return {"commit": _git_commit(), "python": platform.python_version(),
            **versions, "nproc": os.cpu_count(), "machine": platform.machine(),
            "threads": {name: "1" for name in THREAD_VARS}}


def plain_metrics(result: dict, setup: list[tuple[float, float]]) -> dict:
    # every time is measured in units of the reference loop timed beside it,
    # then given in seconds on a host where the loop takes REF_NOMINAL_S: the
    # host's speed drifts by up to 1.8x and moves both alike (README.md)
    lat = REF_NOMINAL_S * np.asarray([g["ref"] for g in result["groups"]])
    return {"setup_s": (REF_NOMINAL_S * statistics.median(ref for _, ref in setup), "s"),
            "wall_s": (float(np.median(lat.sum(axis=1))), "s"),
            "job_p50_ms": (1e3 * float(np.percentile(lat, 50)), "ms"),
            "job_p90_ms": (1e3 * float(np.percentile(lat, 90)), "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB")}


def raw_times(result: dict, setup: list[tuple[float, float]]) -> dict:
    """The same times as the host ran them, and the reference loop's time."""
    groups = np.asarray([g["seconds"] for g in result["groups"]])
    lat_ms = 1e3 * groups.ravel()
    return {"setup_s": (statistics.median(seconds for seconds, _ in setup), "s"),
            "wall_s": (float(np.median(groups.sum(axis=1))), "s"),
            "job_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
            "job_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
            "ref_ms": (1e3 * float(np.median([g["ref_s"] for g in result["groups"]])), "ms")}


def layer_metrics(result: dict) -> dict:
    counts = result["counts"]
    metrics = {f"{layer}.self_s": (result["self_s"].get(layer, 0.0), "s")
               for layer in LAYERS}
    listed = set(LAYERS)
    metrics["unlisted.self_s"] = (sum(t for layer, t in result["self_s"].items()
                                      if layer not in listed), "s")
    for layer in PACKAGE_LAYERS + EXTERNAL_LAYERS:
        metrics[f"{layer}.calls"] = (counts.get(f"{layer}.calls", 0), "count")
    total = result["total_nodes"]
    metrics.update({
        "variance.outer_nodes": (counts.get("variance.integrand_nodes", 0), "count"),
        "geometry.inner_nodes": (counts.get("geometry.integrand_nodes", 0), "count"),
        "geometry.lens_calls": (counts.get("geometry.lens_calls", 0), "count"),
        "quadrature.useful_node_frac": (result["useful_nodes"] / total if total else 0.0,
                                        "1"),
        "specfun.incomplete_beta_calls": (counts.get("specfun.incomplete_beta_calls", 0),
                                          "count"),
        "counting.profile_terms": (counts.get("counting.profile_terms", 0), "count"),
        "counting.pmf_madds": (counts.get("counting.pmf_madds", 0), "count"),
        "counting.uniforms": (counts.get("counting.uniforms", 0), "count"),
        "counting.sample_bytes": (counts.get("counting.sample_bytes", 0), "B"),
        "cli.output_bytes": (counts.get("cli.output_bytes", 0), "B"),
        "trace.overhead_ratio": (result["traced_seconds"] / result["plain_seconds"], "1"),
        "trace.traced_wall_s": (result["traced_seconds"], "s"),
        "trace.plain_wall_s": (result["plain_seconds"], "s"),
        "trace.spans": (result["spans"], "count"),
        "ops_failed_frac": (result["failed"] / result["attempted"], "1"),
    })
    for name, value in result["probes"].items():
        metrics[name] = (value, name.rsplit("_", 1)[1])
    return metrics


def run(args) -> dict:
    if not os.path.isfile(os.path.join("src", "dppstats", "__init__.py")):
        raise BenchError("no src/dppstats here; run from the root of a dppstats checkout")
    src = os.path.abspath("src")
    deadline = time.monotonic() + DEADLINE_S
    jobs = job_list(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    env = environment()
    # fresh starts before and after the workload, so set-up is sampled over
    # the whole run and not in one phase of a shared machine
    starts_before = 0 if args.trace else SETUP_STARTS // 2
    starts_after = 0 if args.trace else SETUP_STARTS - 1 - starts_before
    setup = [_start(args.workload, src, deadline, True)[1] for _ in range(starts_before)]
    worker, first = _start(args.workload, src, deadline, False)
    setup.append(first)
    try:
        result = worker.request({
            "jobs": jobs, "seconds": args.seconds, "passes": PASSES[args.workload],
            "trace": args.trace,
            "trace_jobs": TRACE_JOBS[args.workload],
            "spans_path": os.path.join(OUT_DIR, f"spans-{tag}.json"),
            "meta": {"workload": args.workload, "seed": args.seed, "env": env}})
    finally:
        worker.close()
    setup += [_start(args.workload, src, deadline, True)[1] for _ in range(starts_after)]
    metrics = layer_metrics(result) if args.trace else plain_metrics(result, setup)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "jobs": len(jobs),
              "setup_samples_s": [seconds for seconds, _ in setup],
              "setup_samples_ref": [ref for _, ref in setup],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **{k: result[k] for k in ("attempted", "failed", "causes", "failures")}}
    if args.trace:
        report["traced_jobs"] = result["traced_jobs"]
    else:
        groups = result["groups"]
        report.update(raw={k: {"value": v, "unit": u}
                           for k, (v, u) in raw_times(result, setup).items()},
                      latency_samples=sum(len(g["ref"]) for g in groups),
                      group_seconds=[sum(g["seconds"]) for g in groups],
                      ops_failed_frac=result["failed"] / result["attempted"])
    with open(os.path.join(OUT_DIR, f"run-{tag}-trace{args.trace}.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, m in report["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'jobs in list':34s} {report['jobs']}")
    if args.trace:
        print(f"{'traced jobs':34s} {report['traced_jobs']}")
    else:
        for name, m in report["raw"].items():
            print(f"{'raw ' + name:34s} {m['value']:.6g} {m['unit']}")
        print(f"{'latency samples':34s} {report['latency_samples']}")
        print(f"{'pass groups':34s} {len(report['group_seconds'])}")
        print(f"{'ops_failed_frac':34s} {report['ops_failed_frac']:.6g} 1")
    print(f"{'attempted / failed':34s} {report['attempted']} / {report['failed']}")
    print(f"{'failure causes':34s} {json.dumps(report['causes'], sort_keys=True)}")
    print(json.dumps({
        "correct": report["causes"].get("unattributed", 0) == 0,
        "attempted": report["attempted"], "failed": report["failed"],
        "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
