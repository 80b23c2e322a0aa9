"""Run every workload over several seeds and record the baseline.

    python3 perfbench/record_baseline.py [--seeds 1-10] [--workloads a,b]
                                         [--output perfbench/baseline.json]

Run it from the root of a checkout.  For each workload it makes one plain
run per seed (and one traced run on the first seed), then prints for every
end-to-end metric the median and the quartile spread (distance between the
first and third quartile as a share of the median) next to the metric's
bound.  With ``--output`` it writes the environment (commit, versions,
nproc, CPU model and L3 size, thread settings), every run's metrics, the
spreads, and the failing jobs of every seed with their causes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _cpu() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    l3 = "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else ():
        try:
            with open(os.path.join(cache, index, "level")) as handle:
                if handle.read().strip() != "3":
                    continue
            with open(os.path.join(cache, index, "size")) as handle:
                l3 = handle.read().strip()
        except OSError:
            continue
    return {"cpu_model": model, "l3_size": l3}


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    with open(os.path.join(".perfbench-out",
                           f"run-{workload}-seed{seed}-trace{trace}.json")) as handle:
        return json.load(handle)


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median, quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


# failing jobs kept per seed, job kind and cause; the seed reproduces the rest
FAILURE_ROWS = 20


def _failure_table(report: dict) -> dict:
    """Failing jobs of one run by job kind and cause: the count, and one row
    of parameters for each of the first FAILURE_ROWS jobs.

    Floats keep 6 significant digits; the seed reproduces the exact values.
    """
    table: dict = {}
    for f in report["failures"]:
        job = dict(f["job"])
        kind = job.pop("kind")
        entry = table.setdefault(kind, {"fields": sorted(job), "causes": {}})
        row = [float(f"{job.get(k):.6g}") if isinstance(job.get(k), float) else job.get(k)
               for k in entry["fields"]]
        cause = entry["causes"].setdefault("+".join(f["causes"]), {"count": 0, "rows": []})
        cause["count"] += 1
        if len(cause["rows"]) < FAILURE_ROWS:
            cause["rows"].append(row)
    return {"seed": report["seed"], "jobs": table}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--output", default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    out = {"env": None, "seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in names:
        runs = []
        for seed in seeds:
            report = _run(workload, seed, bench["run_seconds"], 0)
            runs.append(report)
            values = {k: round(v["value"], 6) for k, v in report["metrics"].items()}
            print(workload, seed, values, f"failed {report['failed']}/{report['attempted']}",
                  report["causes"], flush=True)
        entry = {"runs": [{"seed": r["seed"], "attempted": r["attempted"],
                           "failed": r["failed"], "causes": r["causes"],
                           "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                          for r in runs],
                 "summary": {}}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med, rel = spread(values) if len(values) > 1 else (values[0], 0.0)
            entry["summary"][metric["name"]] = {"median": med, "quartile_spread": rel,
                                                "bound": metric["bound"]}
            print(f"  {metric['name']:12s} median {med:.6g}  spread {rel:.4f}  "
                  f"bound {metric['bound']}", flush=True)
        entry["failures"] = [_failure_table(r) for r in runs]
        entry["traced"] = _run(workload, seeds[0], bench["run_seconds"], 1)["metrics"]
        out["env"] = {**runs[0]["env"], "commit": _commit(), **_cpu()}
        out["workloads"][workload] = entry
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dump(out))


def dump(doc) -> str:
    """Indented JSON with every list of plain values on one line."""
    text = json.dumps(doc, indent=1)
    return re.sub(r"\[[^\[\]{}]*\]", lambda m: " ".join(m.group(0).split()), text) + "\n"


if __name__ == "__main__":
    main()
