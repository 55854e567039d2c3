#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (and the library sources it links) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; later runs only re-check the build. Build output and
self-test output go to stderr, so the benchmark's JSON result stays the
last line of stdout. The exit status is the benchmark's own (0 only
when every output matched the reference).
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("hmd_gaze", "fleet_small", "lossy_delivery")


def fail(code, message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def step(cmd):
    """Run one build or self-test step with its output on stderr."""
    sys.stderr.flush()
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail(2, "--seed must be >= 0 and --seconds in (0, 600]")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "core", "pipeline.hh")):
        fail(2, "no library sources next to perfbench/ (run from a full "
                "checkout)")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(os.path.abspath(build_root), "perfbench")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if step(configure) != 0:
            shutil.rmtree(build, ignore_errors=True)
            fail(3, "cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if step(["cmake", "--build", build, "--parallel", jobs]) != 0:
        fail(3, "build failed")

    binary = os.path.join(build, "perfbench")
    if step([binary, "--self-test"]) != 0:
        fail(4, "self-test of the benchmark's arithmetic failed")

    sys.stdout.flush()
    result = subprocess.run([binary,
                             "--workload", args.workload,
                             "--seed", str(args.seed),
                             "--seconds", repr(args.seconds),
                             "--trace", str(args.trace)])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
