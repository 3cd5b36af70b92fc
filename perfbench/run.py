#!/usr/bin/env python3
"""Builds libremedy's benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload x8|adult --seed N --seconds S --trace 0|1

Run from the root of a checkout. The driver binary is compiled from src/ and
perfbench/ into .bench_build/perfbench (a no-op when nothing changed), then
run once. Its human-readable report goes to stdout; the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). Details land in .bench_out/<workload>-s<seed>-t<trace>/.

Exits nonzero, without a result line, when the build fails, the run fails
or times out, or the result does not match BENCHMARK.json; exits nonzero
after the result line when an output check failed (correct = false).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "libremedy_bench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the driver; returns the build seconds."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("libremedy sources (src/) are missing from this tree")
    start = time.monotonic()
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "libremedy_bench",
                  "-j", jobs])
    with open(log_path, "w") as build_log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=build_log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}")
            if done.returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                raise BenchError(f"build failed (see {log_path}):\n{tail}")
    return time.monotonic() - start


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code a
    result came from even where the tree is not a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def validate(result, spec, trace):
    """Checks the result line against the contract and BENCHMARK.json."""
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys are {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise BenchError(f"{key} is not a whole number")
    if result["attempted"] < 1 or result["failed"] < 0:
        raise BenchError("attempted must be >= 1 and failed >= 0")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise BenchError(f"metric names differ from BENCHMARK.json: "
                         f"missing {missing}, unexpected {extra}")
    for m in wanted:
        got = metrics[m["name"]]
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            raise BenchError(f"{m['name']}: unit {got.get('unit')} != "
                             f"{m['unit']}")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            raise BenchError(f"{m['name']}: value {value!r} is not a number")
        if not trace and value <= 0:
            raise BenchError(f"{m['name']}: end-to-end value {value} <= 0")


def run(workload, seed, seconds, trace, scale=None, echo=True):
    """Builds, runs one workload, validates; returns (exit code, result)."""
    spec = load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload!r}")
    build_s = build()
    log(f"build: {build_s:.1f}s")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S}s")
    lines = done.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if done.stderr:
        log(done.stderr.rstrip())
    if done.returncode not in (0, 1) or not lines:
        raise BenchError(f"driver exited {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"last line is not JSON: {lines[-1][:200]}")
    validate(result, spec, trace)
    if (done.returncode == 0) != result["correct"]:
        raise BenchError("exit code disagrees with the correct flag")
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        code, result = run(args.workload, args.seed, args.seconds,
                           args.trace == 1)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
