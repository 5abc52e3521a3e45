#!/usr/bin/env python3
"""End-to-end sweep benchmark for hvcache.

Run from the repository root:

    python3 sweepbench/run.py --workload fig3_hp_cold --seed 1 --seconds 10 --trace 0

Builds sweepbench/ (which pulls in the hvcache libraries from the root) as a
Release build under $CARGO_TARGET_DIR, or .bench_build when that is unset,
then runs sweep_bench with the given arguments. Build output goes to
stderr; the last line of stdout is the benchmark's JSON result. Extra
arguments (--tiny, --corrupt-row) are passed through to sweep_bench.
Workloads and metrics are listed in BENCHMARK.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_root):
    build_dir = os.path.join(build_root, "sweepbench")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "sweep_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache.read():
            sys.exit("sweepbench: refusing to report from a non-Release build")
    return os.path.join(build_dir, "sweep_bench")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, timeout=10)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("sweepbench: build failed: %s" % error)
    result = subprocess.run([binary, *sys.argv[1:], "--commit", commit(),
                             # Relative, so the daemon's socket path stays
                             # within the Unix-socket length limit.
                             "--tmp", os.path.relpath(os.path.join(build_root, "tmp"))])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
