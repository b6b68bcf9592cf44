#!/usr/bin/env python3
"""The whyq benchmark, as one command.

    python3 perfbench/run.py --workload <interactive|exact|churn> --seed N \
        --seconds S --trace <0|1>

Builds the benchmark binary (perfbench/CMakeLists.txt, compiling the library from
src/) into .bench_build, generates the workload's inputs for the seed into
.bench_data in a separate process, runs the workload, checks every answer
and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, their
times normalised by the host's speed as measured during the run; with
--trace 1 the per-layer ones from a traced serial replay, as measured. Exits nonzero when
a check fails or the build, generation or run does. perfbench/NOTES.md
describes the workloads, metrics and the noise they were built against.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DATA = os.path.join(ROOT, ".bench_data")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("interactive", "exact", "churn")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def inputs_dir(workload, seed, seconds, code):
    """Generates the inputs for (workload, seed, seconds) once per version
    of the code (the generator is part of it) and reuses them; generation
    is its own process, outside every measurement."""
    path = os.path.join(DATA, "%s-s%d-t%g-%s" % (workload, seed, seconds,
                                                 code))
    if os.path.exists(os.path.join(path, "workload.txt")):
        return path
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [BINARY, "gen", "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--out", tmp]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("perfbench: input generation failed")
        shutil.rmtree(tmp, ignore_errors=True)
        return None
    shutil.rmtree(path, ignore_errors=True)
    os.rename(tmp, path)
    return path


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def code_hash():
    """A hash of the code a run measures: the library sources and the
    benchmark's own. Another commit's code gets its own fixed-work record."""
    h = hashlib.sha256()
    files = [os.path.join(HERE, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for d, dirs, names in os.walk(top):
            dirs.sort()
            files.extend(os.path.join(d, n) for n in sorted(names))
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def check_fixed_work(path, trace, work):
    """Two runs of the same inputs and the same code must do the same work:
    same answers, same truncation counts, same picky and MBS totals. The
    record is kept per code hash, so a change that does different (correct)
    work starts a record of its own instead of failing against the old."""
    record = os.path.join(path,
                          "work-trace%d-%s.json" % (trace, code_hash()))
    if os.path.exists(record):
        with open(record) as f:
            before = json.load(f)
        if before != work:
            return ("work differs from an earlier run of the same seed: "
                    "%s vs %s" % (json.dumps(before, sort_keys=True),
                                  json.dumps(work, sort_keys=True)))
        return None
    with open(record, "w") as f:
        json.dump(work, f, sort_keys=True)
    return None


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tamper", choices=("closeness", "dominance"),
                    help="corrupt answers before the check (self-test)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        log("perfbench: --seconds must be positive")
        return 2

    if not build():
        return 2
    path = inputs_dir(args.workload, args.seed, args.seconds, code_hash())
    if path is None:
        return 2
    cmd = [BINARY, "run", "--in", path, "--trace", str(args.trace)]
    if args.tamper:
        cmd += ["--tamper", args.tamper]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          universal_newlines=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        log("perfbench: the run produced no result (exit %d)" % proc.returncode)
        return 2

    problems = []
    # The result line carries exactly the metrics BENCHMARK.json names; the
    # binary's others (churn's update and plan-store layers) go to the report.
    expected = expected_metrics(args.trace)
    metrics = {k: v for k, v in result["metrics"].items() if k in expected}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != expected:
        problems.append("metrics %s do not match BENCHMARK.json %s"
                        % (sorted(got.items()), sorted(expected.items())))
    others = sorted(set(result["metrics"]) - set(expected))
    if others:
        print("not in BENCHMARK.json: " + ", ".join(
            "%s=%.6g %s" % (k, result["metrics"][k]["value"],
                            result["metrics"][k]["unit"]) for k in others))
    if not args.tamper:
        mismatch = check_fixed_work(path, args.trace, result["work"])
        if mismatch:
            problems.append(mismatch)
    print("work: " + json.dumps(result["work"], sort_keys=True))

    # The untraced numbers of this seed beside the traced replay's own.
    e2e = os.path.join(path, "e2e-untraced.json")
    if args.trace == 0 and not args.tamper:
        with open(e2e, "w") as f:
            json.dump(result["metrics"], f, sort_keys=True)
    elif os.path.exists(e2e):
        with open(e2e) as f:
            untraced = json.load(f)
        print("untraced e2e of this seed: " + ", ".join(
            "%s=%.6g %s" % (k, v["value"], v["unit"])
            for k, v in sorted(untraced.items())))
    else:
        print("untraced e2e of this seed: none yet (run --trace 0 first)")

    for p in problems:
        print("check failed: " + p)
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    correct = failed == 0 and not problems and proc.returncode == 0
    print("fail_frac %.6f" % (failed / attempted if attempted else 1.0))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
