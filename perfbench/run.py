#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload analyze_cold|serve_edits|core_queries \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds
perfbench (the omega-deps libraries from src/ plus the benchmark program in this
directory) under .bench_build/ -- or under $CARGO_TARGET_DIR when that is
set -- with CMake; later calls only rebuild what changed. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    build_dir = os.path.abspath(os.environ.get(
        "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
