#!/usr/bin/env python3
"""Self-check of the benchmark and its output.

    python3 perfbench/test_perfbench.py

Checks BENCHMARK.json against its format rules (keys, limits, the
setup_s metric), that perfbench/metrics.json describes exactly the per-layer
metrics, and then runs every workload for one second untraced and traced
through perfbench/run.py: each run must pass its output checks and report
every metric of its kind with its declared unit, the traced and untraced runs
must agree on the simulated-statistics fingerprint, and each per-layer metric
must measure work on the workloads metrics.json names for it. Finally the
benchmark must refuse to run, with no result line, in a directory that holds
only BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load(path):
    with open(path) as f:
        return json.load(f)


BENCH = load(os.path.join(ROOT, "BENCHMARK.json"))
MAP = load(os.path.join(HERE, "metrics.json"))["per_layer"]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, cwd=ROOT, seconds=1):
    """(exit code, parsed last line or None, full record or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None, None
    record = None
    for line in lines:
        if line.startswith("provenance "):
            record = load(json.loads(line[len("provenance "):])["record"])
    return proc.returncode, last, record


class FormatTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)
        cmd = BENCH["command"]
        self.assertTrue(1 <= len(cmd) <= 32)
        for arg in cmd:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(BENCH["paths"]) <= 16)
        for p in BENCH["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        self.assertIsInstance(BENCH["run_seconds"], int)
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        # A full acceptance measurement (4 + 22 runs per workload, each about
        # 2 s over run_seconds, and two builds of at most 5 minutes) must fit
        # its 3420 s time budget.
        runs = 4 + 22 * len(WORKLOADS)
        self.assertLess(runs * (BENCH["run_seconds"] + 4) + 2 * 300, 3420)

    def test_names(self):
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        self.assertTrue(1 <= len(BENCH["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(BENCH["per_layer"]) <= 128)
        seen = set()
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for entry in (BENCH["workloads"] + BENCH["end_to_end"] +
                      BENCH["per_layer"]):
            self.assertRegex(entry["name"], NAME)
            self.assertNotIn(entry["name"], seen)
            seen.add(entry["name"])
            if "unit" in entry:
                self.assertRegex(entry["unit"], UNIT)
                self.assertIn(entry["better"], ("higher", "lower"))
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCH["end_to_end"]))

    def test_metric_map(self):
        self.assertEqual(set(MAP), {m["name"] for m in BENCH["per_layer"]})
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        for name, entry in MAP.items():
            self.assertTrue(set(entry["moves"]) <= e2e, name)
            self.assertTrue(entry["on"] and set(entry["on"]) <= set(WORKLOADS),
                            name)


class OutputTest(unittest.TestCase):
    def check_run(self, workload, trace):
        code, last, record = run(workload, trace)
        self.assertEqual(code, 0, f"{workload} trace={trace}")
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(last["correct"])
        self.assertEqual(last["failed"], 0)
        self.assertGreaterEqual(last["attempted"], 1)
        kind = "per_layer" if trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in BENCH[kind]}
        self.assertEqual({n: m["unit"] for n, m in last["metrics"].items()},
                         declared)
        prov = record["info"]["provenance"]
        for key in ("nproc", "cpu_model", "build_type", "compiler",
                    "git_commit", "seed"):
            self.assertIn(key, prov)
        self.assertEqual(prov["build_type"], "Release")
        return last, record

    def test_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                last, plain = self.check_run(w, 0)
                for name, m in last["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.assertIn("spread_iqr_over_median", plain["info"]["ops"])
                _, traced = self.check_run(w, 1)
                self.assertEqual(plain["info"]["fingerprint"],
                                 traced["info"]["fingerprint"])
                idle = set(traced["info"]["idle_metrics"])
                for name, entry in MAP.items():
                    if w in entry["on"]:
                        self.assertNotIn(name, idle, f"{name} idle on {w}")

    def test_refuses_without_sources(self):
        base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        bare = os.path.join(ROOT, base, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for p in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
