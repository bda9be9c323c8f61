#!/usr/bin/env python3
"""Builds and runs the end-to-end tuning-server benchmark.

    python3 perfbench/run.py --workload fleet|deep|churn --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first call configures perfbench/
(a CMake package that compiles the library sources under src/) into
.bench_build/perfbench in Release mode; every call then brings the build
up to date and runs the benchmark with the given arguments. Build output
goes to stderr, so the last line of standard output is the benchmark's
JSON result. Exits non-zero, without a result, when the build fails.
"""

import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build", "perfbench")
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return 1
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "perfbench")] +
                          sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
