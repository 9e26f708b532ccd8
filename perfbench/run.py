#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload closed_full --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The driver is built (CMake, Release)
under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
before anything is timed; its last stdout line is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ beside perfbench/; run from a "
                 "full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "perfbench_driver"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_driver")


def main():
    driver = build()
    done = subprocess.run([driver] + sys.argv[1:], cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
