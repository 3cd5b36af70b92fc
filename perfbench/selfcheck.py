#!/usr/bin/env python3
"""Reduced-scale self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json briefly (5% of the row counts, 3
seconds), untraced and traced, with every output check on, and requires
each run to be correct, to fail no operation, and to report exactly the
metrics BENCHMARK.json names. Then copies BENCHMARK.json and perfbench/
alone into .bench_out/selfcheck-bare/ and requires the benchmark to fail
there without printing a result, since it cannot build without src/.
Exits 0 only when every step passed; takes under a minute on 4 cores once
the driver is built.
"""

import os
import shutil
import subprocess
import sys

import run

SCALE = 0.05
SECONDS = 3
SEED = 1


def check_workloads():
    failures = 0
    for workload in run.load_spec()["workloads"]:
        name = workload["name"]
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            try:
                code, result = run.run(name, SEED, SECONDS, trace, scale=SCALE,
                                       echo=False)
            except run.BenchError as e:
                print(f"FAIL {label}: {e}")
                failures += 1
                continue
            ok = code == 0 and result["correct"] and result["failed"] == 0
            print(f"{'ok  ' if ok else 'FAIL'} {label}: attempted "
                  f"{result['attempted']}, failed {result['failed']}, "
                  f"{len(result['metrics'])} metrics")
            failures += 0 if ok else 1
    return failures


def check_bare_tree():
    bare = os.path.join(run.OUT_DIR, "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "x8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    printed_result = '"correct"' in done.stdout
    ok = done.returncode != 0 and not printed_result
    print(f"{'ok  ' if ok else 'FAIL'} bare tree: exit {done.returncode}, "
          f"result printed: {printed_result}")
    return 0 if ok else 1


def main():
    failures = check_workloads() + check_bare_tree()
    print("self-check", "passed" if failures == 0 else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
