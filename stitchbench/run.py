#!/usr/bin/env python3
"""Build stitchbench from this checkout's sources, then run it.

    python3 stitchbench/run.py --workload sweep_cold --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) as a Release CMake build of src/ plus the
benchmark; traced runs write their spans under <build>/traces. Build
output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Every argument is passed to the
benchmark (see main.cc); the exit status is the benchmark's, or 1
when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure once, then bring the stitchbench target up to date."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", build_dir, "--target", "stitchbench",
               "--parallel", jobs]
    return subprocess.call(command, stdout=sys.stderr) == 0


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("stitchbench: build failed", file=sys.stderr)
        return 1
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [os.path.join(build_dir, "stitchbench")] + sys.argv[1:]
    command += ["--out-dir", traces]
    sys.stdout.flush()
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
