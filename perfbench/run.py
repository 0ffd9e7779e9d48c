#!/usr/bin/env python3
"""Build perfbench and run one workload.

    python3 perfbench/run.py --workload solo|mix8|sweep --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (with the simulator libraries under src/) in .bench_build;
later runs only check the build is current. Scratch files go to
.bench_work/<pid> and are removed afterwards; traced runs leave their
spans in .bench_out/. The last line of standard output is the
workload's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run measures for --seconds and then finishes its round and checks;
# this much more bounds the whole run however slow the host is.
CHECK_MARGIN_S = 140


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["solo", "mix8", "sweep"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    build()
    # Paths relative to the root, where the program runs: campaign
    # manifests name the generated trace files by these paths.
    workdir = os.path.join(".bench_work", str(os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir, "--outdir", ".bench_out"]
    timeout = args.seconds + CHECK_MARGIN_S
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout:g} s")
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
