#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The binary is built with CMake in
Release mode under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), where build.log, the per-run detail records and
the traced runs' span files are kept. The binary's standard output is
passed through unchanged: its last line is the JSON result. The script
exits non-zero without printing a result when the program's sources are
missing, the build fails, or the run fails or overruns.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flight-50k", "serve-mix")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run, the no-op rebuild included, must end within 180 s.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(bdir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the program's sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; there is nothing to build")
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "--parallel", jobs])
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            log.write("$ " + " ".join(step) + "\n")
            log.flush()
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("the build failed; the full log is " + log_path)
    return os.path.join(bdir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")

    bdir = build_dir()
    binary = build(bdir)
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit(), "--out-dir", out_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S, 3)
    lines = run.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        pass
    if run.returncode != 0 or not isinstance(result, dict) \
            or set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout[-4000:])
        fail("the binary exited with %d and no result" % run.returncode, 3)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
