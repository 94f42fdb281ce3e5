#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The C++ benchmark (perfbench/) is built
from source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), together with the engine sources under src/.
Databases live under .bench_build/perfbench-work while a run lasts, and the
traced run's spans are written to .bench_build/perfbench-spans/.

Prints every metric by name, unit and direction (from BENCHMARK.json), then,
as the last line, the run's JSON result. Exits non-zero, without a result,
if the engine sources are missing or the build fails, and non-zero after the
result if a correctness or serializability check failed. With --workload
all it runs every workload in BENCHMARK.json and prints one combined result
whose metric names are prefixed with the workload's.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "db", "db.h")):
        log("perfbench: engine sources (src/) not found next to perfbench/")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(binary, workload, seed, seconds, trace):
    work = os.path.join(os.path.dirname(build_dir()), "perfbench-work")
    spans = os.path.join(os.path.dirname(build_dir()), "perfbench-spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(work, "%s-%d" % (workload, os.getpid()))]
    if trace:
        cmd += ["--span-file",
                os.path.join(spans, "%s-seed%d.tsv" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        sys.exit(3)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        log("perfbench: %s printed no result (exit %d)" % (workload, proc.returncode))
        sys.exit(3)
    result = json.loads(lines[-1])
    return result, proc.returncode


def check_metrics(result, spec, trace, workload):
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in expected}
    problems = []
    for m in expected:
        if m["name"] not in got:
            problems.append("missing metric " + m["name"])
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append("unit of %s is %s, BENCHMARK.json says %s" %
                            (m["name"], got[m["name"]]["unit"], m["unit"]))
    problems += ["unlisted metric " + n for n in got if n not in names]
    for p in problems:
        log("perfbench: %s: %s" % (workload, p))
    return not problems


def print_table(workload, result, spec, trace):
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    print("%s: correct=%s attempted=%d failed=%d" %
          (workload, result["correct"], result["attempted"], result["failed"]))
    for m in expected:
        v = result["metrics"][m["name"]]["value"]
        print("  %-34s %16.6g %-6s (%s is better)" %
              (m["name"], v, m["unit"], m["better"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        log("perfbench: unknown workload %s (known: %s)" %
            (args.workload, ", ".join(names)))
        sys.exit(2)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in workloads:
        result, code = run_one(binary, w, args.seed, args.seconds, args.trace)
        if not check_metrics(result, spec, args.trace, w):
            result["correct"] = False
        if code != 0 or not result["correct"]:
            status = 1
        print_table(w, result, spec, args.trace)
        if len(workloads) == 1:
            combined = result
        else:
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for n, m in result["metrics"].items():
                combined["metrics"][w + "." + n] = m
    print(json.dumps(combined))
    sys.exit(status)


if __name__ == "__main__":
    main()
