#!/usr/bin/env python3
"""Builds and runs the rl0 benchmark.

    python3 rl0bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any working directory works). The first run
configures and builds the library, rl0_serve and the rl0bench program in
.bench_build (or $CARGO_TARGET_DIR) under the repository root; later runs
only rebuild what changed. Each run works in its own directory under
.bench_run, which is removed afterwards together with every process the
run started.

Standard output ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
preceded by a report line with host and build facts. Build logs and the
human-readable tables go to standard error. The exit code is non-zero,
and no result is printed, when the benchmark cannot build or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("rl0bench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, configured)


def build(build_path):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no rl0 sources next to the benchmark (looked in %s)" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(build_path, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_path,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_path, "--target", "rl0bench",
                  "rl0_serve", "-j", str(os.cpu_count() or 4)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def source_digest():
    """sha256 over the sources the benchmark builds: names the code tested
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", os.path.basename(HERE)):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths.extend(os.path.join(dirpath, f) for f in files)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def stop_group(proc):
    """Kills the run's process group and waits until every member is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.time() + 30
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink each job's stream (smoke test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_path = build_dir()
    build(build_path)
    bench = os.path.join(build_path, "rl0bench")
    serve = os.path.join(build_path, "rl0", "rl0_serve")

    run_root = os.path.join(ROOT, ".bench_run")
    run_dir = os.path.join(run_root, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--serve-binary", serve, "--scale", repr(args.scale),
           "--commit", commit(), "--source-digest", source_digest()]
    # Its own session, so every process it starts can be stopped at once.
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        stop_group(proc)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(run_root)
        except OSError:
            pass
    if stdout is None:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("rl0bench exited with %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("rl0bench printed no result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
