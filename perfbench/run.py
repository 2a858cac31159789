#!/usr/bin/env python3
"""Build and run the mempool benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds perfbench/ (the mempool
library from src/ plus the perfbench program, Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs one workload. It checks the program's output against BENCHMARK.json
(every metric of the run's kind present, with its unit, end-to-end metrics
nonzero), prints one line per metric and a provenance line, and prints as its
last line {"correct", "attempted", "failed", "metrics"}. In a traced run,
per-layer metrics the workload does not report (layers it never enters) read
0 and are listed as info.idle_metrics. The full record, with provenance,
spread and fingerprint, goes to <build>/results/.

Exit status: 0 when every output check passed; 1 when a check failed (the
result line says correct=false) or the output is malformed (no result line);
2 on bad arguments or a failed build.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configure (once) and build the program; returns the executable path."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = f"{e}"
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed ({rc}); log in {log_path}", 2)
    return os.path.join(bdir, "perfbench")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def check_metrics(bench, result, trace):
    """Problems with the program's metrics, checked against BENCHMARK.json."""
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[kind]}
    got = result.get("metrics", {})
    problems = []
    for name in sorted(set(declared) - set(got)):
        problems.append(f"missing {kind} metric {name}")
    for name in sorted(set(got) - set(declared)):
        problems.append(f"undeclared metric {name}")
    for name, m in got.items():
        if name not in declared:
            continue
        value = m.get("value")
        if m.get("unit") != declared[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, "
                            f"declared {declared[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a number")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not positive")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}", 2)
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    bdir = build_dir()
    exe = build(bdir)
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           # Relative, so the service's socket path stays short.
           "--out-dir", os.path.relpath(out_dir, ROOT),
           "--commit", git_commit()]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"perfbench printed no result (exit {proc.returncode})", 1)

    info = result.setdefault("info", {})
    if args.trace:
        # Per-layer metrics of layers this workload never enters read 0.
        metrics = result.setdefault("metrics", {})
        info["idle_metrics"] = []
        for m in bench["per_layer"]:
            if m["name"] not in metrics:
                metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
                info["idle_metrics"].append(m["name"])
    problems = check_metrics(bench, result, args.trace == 1)
    if problems:
        fail("malformed output: " + "; ".join(problems), 1)

    record = dict(result, wall_s=wall, exit_code=proc.returncode)
    path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    for name, m in sorted(result["metrics"].items()):
        print(f"{args.workload:14s} {name:32s} {m['value']:>16.6g} {m['unit']}")
    for err in info.get("errors", []):
        print(f"{args.workload:14s} FAILED CHECK: {err}")
    prov = dict(info.get("provenance", {}), ops=info.get("ops"),
                fingerprint=info.get("fingerprint"), record=path)
    print("provenance " + json.dumps(prov, sort_keys=True))
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    print(json.dumps({
        "correct": bool(ok),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
