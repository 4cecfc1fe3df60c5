#!/usr/bin/env python3
"""Check perfbench's exact work counters against checked-in goldens.

Run from the repository root:

  python3 tools/perfbench_counters.py            # diff against bench/golden/
  python3 tools/perfbench_counters.py --refresh  # rewrite the goldens
  python3 tools/perfbench_counters.py --binary build/tools/sio_perfbench

For each workload it runs

  python3 perfbench/run.py --workload <w> --seed 1 --seconds 1 --trace 1

or, with --binary, that sio_perfbench binary itself with the same options
and a temporary --span-file (the golden.perfbench_<w> ctest entries run the
main build's binary this way).  It keeps every `fingerprint` line plus every
`metric` line whose unit is `count`, `sim_s` or `B`.  Those are exact for a
seed: any change in them is a behaviour change.  Host-dependent lines are
dropped: every `bench.*` metric and `pablo.peak_bytes_retained` (allocator
capacity).  The kept lines are compared byte for byte with
bench/golden/perfbench_<w>.txt.  A run whose own pass checks failed (no
`checks ok` line) fails too.  Exit status is 0 when every workload passes
its checks and matches, 1 otherwise.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "bench", "golden")
WORKLOADS = ["paper", "ckpt-crash", "traced"]
EXACT_UNITS = {"count", "sim_s", "B"}
HOST_DEPENDENT = {"pablo.peak_bytes_retained"}


def exact_lines(stdout):
    """The fingerprint lines and exact metric lines of one perfbench run."""
    kept = []
    for line in stdout.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "fingerprint":
            kept.append(line)
        elif fields[0] == "metric" and len(fields) >= 4:
            name, unit = fields[1], fields[-1]
            if unit in EXACT_UNITS and not name.startswith("bench.") \
                    and name not in HOST_DEPENDENT:
                kept.append(line)
    return kept


def run_workload(workload, binary):
    opts = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    if binary is None:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")] + opts
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    else:
        with tempfile.TemporaryDirectory(prefix="perfbench_counters_") as tmp:
            cmd = [binary] + opts + ["--span-file", os.path.join(tmp, "spans.jsonl")]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        print(f"perfbench_counters: {workload}: perfbench exited with {out.returncode}",
              file=sys.stderr)
        return None
    if not any(line.startswith("checks ok") for line in out.stdout.splitlines()):
        print(f"perfbench_counters: {workload}: a pass check failed", file=sys.stderr)
        sys.stderr.writelines(line + "\n" for line in out.stdout.splitlines()
                              if line.startswith(("checks", "check-failed")))
        return None
    return exact_lines(out.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--refresh", action="store_true",
                        help="rewrite bench/golden/perfbench_<w>.txt from this build")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="check only this workload (repeatable; default: all)")
    parser.add_argument("--binary", metavar="PATH",
                        help="run this sio_perfbench binary instead of perfbench/run.py")
    args = parser.parse_args()

    status = 0
    for workload in args.workload or WORKLOADS:
        lines = run_workload(workload, args.binary)
        if lines is None:
            status = 1
            continue
        text = "".join(line + "\n" for line in lines)
        golden = os.path.join(GOLDEN_DIR, f"perfbench_{workload}.txt")
        if args.refresh:
            with open(golden, "w") as f:
                f.write(text)
            print(f"perfbench_counters: wrote {os.path.relpath(golden, ROOT)}")
            continue
        if not os.path.isfile(golden):
            print(f"perfbench_counters: {golden} is missing (run with --refresh)",
                  file=sys.stderr)
            status = 1
            continue
        with open(golden) as f:
            want = f.read()
        if text == want:
            print(f"perfbench_counters: {workload}: {len(lines)} lines match")
            continue
        status = 1
        print(f"perfbench_counters: {workload}: differs from "
              f"{os.path.relpath(golden, ROOT)}")
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(keepends=True), text.splitlines(keepends=True),
            fromfile="golden", tofile="actual"))
    return status


if __name__ == "__main__":
    sys.exit(main())
