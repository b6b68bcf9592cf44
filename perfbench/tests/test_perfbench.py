#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Runs every workload, churn included, at a tiny size (--seconds 1) through
perfbench/run.py and checks that each prints every metric BENCHMARK.json
names, with its unit, in both the timed and the traced mode, that a timed
run reports its host-speed slices and its values as measured, and that
churn's traced run reports its plan-store layer; that deliberately tampered
answers fail the answer checks (closeness on every workload, dominance on
exact); that two runs of one seed do the same work, while a record of other
code does not bind a run; and that the command refuses to run without the
library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SEED = 7

sys.path.insert(0, BENCH)
import run as run_py  # noqa: E402  (perfbench/run.py)


def run(workload, trace=0, extra=(), root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, lines, result


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def expected(self, key):
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_tiny_runs_print_every_metric_with_its_unit(self):
        # churn is runnable but not in BENCHMARK.json (see NOTES.md).
        for w in ("interactive", "exact", "churn"):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    proc, lines, result = run(w, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    self.assertIsNotNone(result)
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, self.expected(key))
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                        # The timed metrics are host-speed normalised; the
                        # report carries the slices and the raw values.
                        self.assertTrue(any(l.startswith("  host speed: ")
                                            for l in lines))
                        self.assertTrue(any(l.startswith("  as measured: ")
                                            for l in lines))
                    if w == "churn" and trace == 1:
                        others = [l for l in lines
                                  if l.startswith("not in BENCHMARK.json")]
                        self.assertEqual(len(others), 1)
                        self.assertIn("plan.hit_ratio=0.", others[0])

    def assert_tamper_fails(self, workload, how, message):
        proc, lines, result = run(workload, extra=["--tamper", how])
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any("check failed" in l and message in l
                            for l in lines), "\n".join(lines[-20:]))

    def test_tampered_answer_fails_the_check(self):
        messages = {"interactive": "recomputed", "exact": "recomputed",
                    "churn": "the replica has"}
        for workload, message in messages.items():
            with self.subTest(workload=workload):
                self.assert_tamper_fails(workload, "closeness", message)

    def test_exact_answer_below_greedy_fails_the_dominance_check(self):
        self.assert_tamper_fails("exact", "dominance", "< greedy")

    def test_fixed_work_record_is_kept_per_code_hash(self):
        saved = run_py.code_hash
        try:
            with tempfile.TemporaryDirectory() as d:
                run_py.code_hash = lambda: "parent"
                self.assertIsNone(run_py.check_fixed_work(d, 0, {"a": "1"}))
                self.assertIsNone(run_py.check_fixed_work(d, 0, {"a": "1"}))
                self.assertIsNotNone(
                    run_py.check_fixed_work(d, 0, {"a": "2"}))
                run_py.code_hash = lambda: "child"
                self.assertIsNone(run_py.check_fixed_work(d, 0, {"a": "2"}))
        finally:
            run_py.code_hash = saved

    def test_same_seed_does_the_same_work(self):
        works = []
        for _ in range(2):
            proc, lines, result = run("exact")
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            self.assertTrue(result["correct"])
            works.extend(l for l in lines if l.startswith("work: "))
        self.assertEqual(len(works), 2)
        self.assertEqual(works[0], works[1])

    def test_refuses_without_the_library_sources(self):
        bare = os.path.join(ROOT, ".bench_data", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc, lines, result = run("interactive", root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
