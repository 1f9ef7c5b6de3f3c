#!/usr/bin/env python3
"""Builds and runs the Quaestor loopback benchmark.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark program and the
repository's libraries it links are compiled from source (CMake,
Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
on first use; later runs rebuild incrementally. The statistics self-test
runs before every benchmark run. The last line of standard output is the
program's JSON result; build output and the human-readable report go to
standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("no Quaestor sources (src/CMakeLists.txt) beside the benchmark")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
           "perfbench", "perfbench_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        fail("statistics self-test failed")

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
