#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload reads|realtime|durable_stream \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # the oracle's own test

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build/, and the durable workload's files go to a
scratch directory inside it that the run removes again. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def run(command):
    child = subprocess.Popen(command)
    try:
        return child.wait()
    except BaseException:
        child.terminate()
        child.wait()
        raise


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        return run([os.path.join(build_dir, "oracle_test")])
    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    return run([os.path.join(build_dir, "perfbench")] + argv +
               ["--scratch", scratch])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
