#!/usr/bin/env python3
"""Build and run one workload of the host-clock benchmark.

    python3 hostbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the `hostbench` binary and the maxk library it links (from src/)
with CMake into .bench_build/hostbench under the repository root, then
runs one workload, or every workload in turn with `--workload all`. The
last line of stdout is the JSON result (with `all`, each workload's
result line follows a `== <workload>` line). Exit status: 0 when every
output check passed, 1 when one failed or a run broke, 2 on a usage
error or when there are no sources to build.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")
WORKLOADS = [
    "full-reddit-maxk",
    "sampled-flickr-relu",
    "serve-flickr-maxk",
    "sharded2-reddit-relu",
]
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; compiler output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "nn", "trainer.hh")):
        print("hostbench: no maxk sources under src/ to build", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "hostbench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes: same code paths, tiny inputs")
    args = ap.parse_args()

    if not build():
        print("hostbench: build failed", file=sys.stderr)
        return 2
    env = dict(os.environ, MAXK_LOG_LEVEL="warn")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        if len(workloads) > 1:
            print("== " + workload)
        cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(BUILD, "out")]
        if args.tiny:
            cmd.append("--tiny")
        sys.stdout.flush()
        try:
            rc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print("hostbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            rc = 1
        status = max(status, rc)
    return status


if __name__ == "__main__":
    sys.exit(main())
