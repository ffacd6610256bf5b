#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload fig5_dense --runs 10 [--first-seed 1]
                                [--seconds S] [--trace 0] [--json out.json]

For every metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as a
share of the median, next to the metric's bound from BENCHMARK.json. A run
that fails stops the script with that run's exit status.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

PKG = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(PKG, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout)
        sys.exit(f"spread: {workload} seed {seed} exited {p.returncode}")
    return json.loads(lines[-1])


def host():
    """CPU model and count, recorded beside every measurement."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return {"cpu": line.split(":", 1)[1].strip(), "cpus": os.cpu_count()}
    except OSError:
        pass
    return {"cpu": platform.processor(), "cpus": os.cpu_count()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default=None, help="write the per-metric summary here")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for i in range(a.runs):
        res = run_once(a.workload, a.first_seed + i, seconds, a.trace)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {a.first_seed + i}: {len(res['metrics'])} metrics, "
              f"{res['attempted']} attempted, {res['failed']} failed", file=sys.stderr)

    summary = {}
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        rel = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "iqr_over_median": rel, "bound": bound, "values": v}
        print(f"{name:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} "
              f"{'' if bound is None else bound:>6}")
    if a.json:
        with open(a.json, "w") as f:
            json.dump({"workload": a.workload, "runs": a.runs, "first_seed": a.first_seed,
                       "seconds": seconds, "trace": a.trace, "host": host(),
                       "metrics": summary}, f, indent=1)


if __name__ == "__main__":
    main()
