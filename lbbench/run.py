#!/usr/bin/env python3
"""Builds lbbench from source and runs one workload.

    python3 lbbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build lands in .bench_build/lbbench (reused
by later runs); build output goes to stderr so that the last line of stdout
stays the benchmark's JSON result. Exits non-zero, printing no result, when
the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lbbench")
BINARY = os.path.join(BUILD, "lbbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "lbbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def main(argv):
    if not build():
        print("lbbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.run([BINARY] + argv, cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
