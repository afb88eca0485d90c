#!/usr/bin/env python3
"""Smoke test of the rl0 benchmark.

    python3 rl0bench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny size, traced and untraced,
and checks that each run passes its output checks, reports no failed
command, and emits exactly the metric names and units BENCHMARK.json
lists (end-to-end ones positive). Then copies only BENCHMARK.json and the
benchmark's own directories to an empty directory and checks that the
benchmark fails there without printing a result. Exits non-zero on the
first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(condition, message):
    if not condition:
        print("smoke_test: FAIL: " + message, file=sys.stderr)
        sys.exit(1)


def run(cwd, workload, trace, extra=()):
    cmd = ["python3", os.path.join(cwd, "rl0bench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            what = "%s trace=%d" % (workload, trace)
            proc = run(ROOT, workload, trace, ("--scale", "0.05"))
            check(proc.returncode == 0, what + " exited %d:\n%s"
                  % (proc.returncode, proc.stderr[-3000:]))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(result["correct"], what + " failed its checks:\n"
                  + proc.stdout.strip().splitlines()[-2])
            check(result["failed"] == 0 and result["attempted"] >= 1,
                  what + " failed commands: %r" % result)
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in listed}
            check(sorted(metrics) == sorted(want),
                  what + " metric names differ: %s"
                  % sorted(set(metrics) ^ set(want)))
            for name, unit in want.items():
                value = metrics[name]["value"]
                check(metrics[name]["unit"] == unit, what + " unit of " + name)
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      what + " value of " + name)
                check(trace == 1 or value > 0, what + " %s is %r" % (name, value))
            print("ok  " + what, flush=True)

    # Only the benchmark's own files: it must fail, and print no result.
    bare = os.path.join(ROOT, ".bench_run", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            ["python3", "rl0bench/run.py", "--workload",
             spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180, env=env)
        check(proc.returncode != 0, "a bare copy of the benchmark succeeded")
        check('"correct"' not in proc.stdout,
              "a bare copy of the benchmark printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_run"))
        except OSError:
            pass
    print("ok  bare copy fails without a result")


if __name__ == "__main__":
    main()
