#!/usr/bin/env python3
"""Build and run the simulator's end-to-end and per-layer benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

The first call configures and builds `sio_perfbench` from ../src into
.bench_build/perfbench; later calls only re-check the build.  Build output
goes to standard error.  The benchmark's own output goes to standard output,
and its last line is one JSON object with the keys correct, attempted,
failed and metrics.  --seed and --seconds default to the benchmark
binary's own defaults (core::kDefaultSeed, 10 s).  With --trace 1 the
per-layer spans are written to .bench_build/perfbench/spans/<workload>-seed<seed>.jsonl
(<workload>.jsonl without --seed).

`--workload all` runs every workload in both modes and prints each metric
line prefixed with its workload (no JSON line).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sio_perfbench")
WORKLOADS = ["paper", "ckpt-crash", "traced"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "sio_perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def bench_cmd(workload, seed, seconds, trace):
    """The binary's command line; options left as None take its defaults."""
    cmd = [BINARY, "--workload", workload, "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        name = workload if seed is None else f"{workload}-seed{seed}"
        cmd += ["--span-file", os.path.join(spans, name + ".jsonl")]
    return cmd


def run_one(args):
    cmd = bench_cmd(args.workload, args.seed, args.seconds, args.trace)
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def run_all(args):
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = bench_cmd(workload, args.seed, args.seconds, trace)
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
            status = status or out.returncode
            for line in out.stdout.splitlines():
                if not line.startswith("{"):
                    print(f"{workload:<11} {line}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not build():
        return 1
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
