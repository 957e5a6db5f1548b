#!/usr/bin/env python3
"""Builds gdlog and the benchmark from source, runs one workload, prints
the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset (CMake, Release). The last line of stdout
is the result object {"correct", "attempted", "failed", "metrics"}; the
line before it stamps the host and build. Exits non-zero when the build
fails, when any output was wrong, or when the reported metrics are not
exactly the ones BENCHMARK.json names for the mode.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds perfbench and gdlogd; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench", "gdlogd"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("build step failed: %s" % error)
            return False
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def revision():
    """The git commit when the tree is a checkout, else a digest of the
    sources the benchmark builds."""
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
        lines = done.stdout.split()
        if (done.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return "git:" + lines[1][:12]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "tree:" + digest.hexdigest()[:12]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    run_dir = os.path.join(out, "perfbench-out")
    os.makedirs(run_dir, exist_ok=True)
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--gdlogd", os.path.join(out, "gdlog", "tools", "gdlogd"),
               "--out-dir", run_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        log("benchmark did not finish: %s" % error)
        return 1
    lines = done.stdout.strip().splitlines()
    stamp = next((l for l in lines if l.startswith("# stamp:")), None)
    if not lines or stamp is None:
        log("benchmark printed no result (exit %d)" % done.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not a result: " + lines[-1][:200])
        return 1
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return 1
    print("%s revision=%s workload=%s seed=%d trace=%d" % (
        stamp, revision(), args.workload, args.seed, args.trace))
    print(json.dumps(result))
    sys.stdout.flush()
    if not result["correct"] or done.returncode != 0:
        log("correctness check failed (exit %d)" % done.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
