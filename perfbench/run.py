#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload cold_serve --seed 42 --seconds 12 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) and its output
to stderr, so the last line of stdout is the benchmark's JSON result.
Runtime files (snapshots, journals, span dumps) go under .perfbench/.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cold_serve", "hot_repeat", "fresh_mixed")


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wwt", "service.h")):
        print("perfbench: run from the repository root (no src/wwt here)",
              file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(root, ".perfbench")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
