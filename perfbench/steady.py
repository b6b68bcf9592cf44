#!/usr/bin/env python3
"""Steadiness report for the whyq benchmark.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--first-seed 1]
        [--workloads interactive,exact,churn]

Runs every workload --runs times through perfbench/run.py, each time with
the next seed, interleaving the workloads so a slow spell of a shared host
hits all of them. Prints, per workload and end-to-end metric, the median,
the quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json, plus the host context:
nproc, CPU MHz, build type, load average at start and end, the share of
CPU time the hypervisor stole during the runs, and the seeds.
Exits nonzero if any run fails or any spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def host_context():
    mhz = []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("cpu MHz"):
                    mhz.append(float(line.split(":")[1]))
    except OSError:
        pass
    build_type = "?"
    try:
        with open(os.path.join(ROOT, ".bench_build", "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    cpu = None  # (steal, total) jiffies of all CPUs
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        cpu = (fields[7], sum(fields))
    except (OSError, IndexError, ValueError):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "mhz": round(statistics.mean(mhz), 1) if mhz else None,
        "build_type": build_type,
        "loadavg": os.getloadavg(),
    }


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    start = host_context()
    values = {w: {} for w in workloads}
    failures = []
    for r in range(args.runs):
        seed = args.first_seed + r
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", "%g" % args.seconds, "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL,
                                  universal_newlines=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or not result or not result["correct"]:
                failures.append("%s seed %d (exit %d)" % (w, seed,
                                                         proc.returncode))
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("run %s seed %d: %s" % (w, seed, ", ".join(
                "%s=%.5g" % (k, v["value"])
                for k, v in sorted(result["metrics"].items()))), flush=True)
    end = host_context()

    steal = "?"
    if start["cpu"] and end["cpu"] and end["cpu"][1] > start["cpu"][1]:
        steal = "%.3f" % ((end["cpu"][0] - start["cpu"][0])
                          / (end["cpu"][1] - start["cpu"][1]))
    print("\nhost: nproc=%s mhz=%s build=%s loadavg start=%s end=%s "
          "steal share=%s" % (
              start["nproc"], start["mhz"], start["build_type"],
              "/".join("%.2f" % x for x in start["loadavg"]),
              "/".join("%.2f" % x for x in end["loadavg"]), steal))
    print("seeds %d..%d, %g s per run\n" % (
        args.first_seed, args.first_seed + args.runs - 1, args.seconds))
    noisy = []
    print("%-12s %-24s %12s %12s %12s %8s %6s %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "verdict"))
    for w in workloads:
        for name, vals in sorted(values[w].items()):
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            if bound is None:
                verdict = ""
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                noisy.append("%s/%s" % (w, name))
            print("%-12s %-24s %12.5g %12.5g %12.5g %8.4f %6s %s" % (
                w, name, med, q1, q3, spread,
                "-" if bound is None else "%.2f" % bound, verdict))
    for f in failures:
        print("failed: " + f)
    return 1 if failures or noisy else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
