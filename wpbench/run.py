#!/usr/bin/env python3
"""End-to-end benchmark of the Wave-PIM library.

    python3 wpbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 wpbench/run.py --self-test

Builds the library sources and the wpbench binary (Release, into
.bench_build/wpbench at the checkout root), runs one workload in a single
serial process and prints, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 first makes an untraced run (for the tracing overhead)
and then a traced run of fixed size, and reports the per-layer metrics.
--self-test runs the check self-test. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wpbench")
WORKLOADS = ("project_grid", "sim_batched", "serve_stream")
BUILD_LIMIT_S = 850.0  # the first run in a checkout builds from scratch
RUN_LIMIT_S = 165.0    # after the build, a run must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds; returns False (with the log on stderr) on error."""
    deadline = time.monotonic() + BUILD_LIMIT_S
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("build timed out: " + " ".join(cmd))
            return False
        if done.returncode != 0:
            log(done.stdout)
            log("build failed: " + " ".join(cmd))
            return False
    return True


def child_env():
    # The library reads WAVEPIM_* defaults (exec tier, net backend, pool
    # size, witness, word-tier switches); the workloads must not inherit them.
    return {k: v for k, v in os.environ.items() if not k.startswith("WAVEPIM_")}


def run_wpbench(args, deadline):
    """Runs the binary; returns its parsed last line, or None on failure."""
    cmd = [os.path.join(BUILD, "wpbench")] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return None
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        log("wpbench exited with %d" % done.returncode)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("wpbench printed no result")
        return None


def declared_metrics(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and None in (opts.workload, opts.seed,
                                       opts.seconds, opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if opts.seed is not None and opts.seed < 0:
        parser.error("--seed must be >= 0")
    if opts.seconds is not None and opts.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not build():
        return 1
    deadline = time.monotonic() + RUN_LIMIT_S
    if opts.self_test:
        return subprocess.run([os.path.join(BUILD, "wpbench_selftest")],
                              env=child_env(), timeout=600).returncode

    base = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds)]
    result = run_wpbench(base + ["--trace", "0"], deadline)
    if result is None:
        return 1
    key = "end_to_end"
    if opts.trace == 1:
        untraced = result
        op_ms = untraced["metrics"]["op_ms"]["value"]
        result = run_wpbench(base + ["--trace", "1", "--untraced-op-ms",
                                    repr(op_ms)], deadline)
        if result is None:
            return 1
        result["correct"] = result["correct"] and untraced["correct"]
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
        key = "per_layer"

    want = declared_metrics(key)
    if sorted(want) != sorted(result["metrics"]):
        log("metrics %s do not match BENCHMARK.json %s %s"
            % (sorted(result["metrics"]), key, sorted(want)))
        return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: result["metrics"][name]
                                  for name in want}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
