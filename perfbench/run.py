#!/usr/bin/env python3
"""Builds the time-to-phi benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hfl-inproc --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and compiles the library and the benchmark
(Release, into .bench_build/perfbench); later calls only re-check the build.
Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. The exit code is the benchmark's, or non-zero when the build
fails (for instance when the library sources are not there).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found\n")
        return 1
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        code = subprocess.call(configure, stdout=sys.stderr)
        if code != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return code
    return subprocess.call(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr)


def main():
    code = build()
    if code != 0:
        sys.stderr.write("perfbench: build failed\n")
        return code or 1
    scratch = os.path.join(ROOT, ".bench_build", "perfbench-run-%d" % os.getpid())
    try:
        return subprocess.call([BINARY] + sys.argv[1:] + ["--scratch-dir", scratch])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
