#!/usr/bin/env python3
"""Same-host A/B measurement of perfbench: a parent commit against this tree.

Run from the repository root:

  python3 tools/ab_pairs.py PARENT_REV [--workload w] [--pairs 10] [--seconds S]

It checks PARENT_REV out into a git worktree under the build directory
(<build-dir>/ab_pairs/parent), builds sio_perfbench from that checkout and
from this working tree (RelWithDebInfo, <build-dir>/ab_pairs/{parent,change}-perfbench),
then runs alternating pairs, one process at a time: pair i runs both sides
with --seed i --seconds S --trace 0, the parent first in odd pairs.  The
worktree is removed at the end; the two build trees stay for the next call.

For each end-to-end metric of BENCHMARK.json it prints a markdown row with
both medians and quartiles ("median [q1, q3]"), the change/parent ratio,
"lower in k of n" (higher for higher-is-better metrics) and the gain-rule
verdict of EXPERIMENTS.md: a side wins when it reads better in at least 9 of
10 pairs (90% of n) and the medians differ by more than the parent's
quartile spread.  ok_ratio, sim_exec_s and sim_io_s are exact for a seed;
they must match pair by pair, or the tool reports each mismatch and exits 1.
A run that fails or reports correct=false also exits 1.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper", "ckpt-crash", "traced"]
EXACT = ("ok_ratio", "sim_exec_s", "sim_io_s")
RUN_TIMEOUT_S = 600


def end_to_end_metrics():
    """(name, unit, better) of every end-to-end metric in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"], m["better"]) for m in json.load(f)["end_to_end"]]


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def build(source, build_dir):
    """Configures and builds sio_perfbench from source/perfbench; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", os.path.join(source, "perfbench"), "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "sio_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "sio_perfbench")


def run(binary, workload, seed, seconds):
    """One perfbench run; returns its metrics as {name: value}."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {out.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise RuntimeError(f"{' '.join(cmd)} reported correct=false")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt(value, unit):
    """A value as EXPERIMENTS.md tables print it, without its unit."""
    if unit == "s":
        return f"{value:.3f}"
    if unit == "ns":
        return f"{value:.0f}"
    if unit == "MB":
        return f"{value:.1f}"
    return f"{value:.4g}"


def cell(values, unit):
    """median [q1, q3] of `values`; seconds carry their unit on the median."""
    q1, med, q3 = quartiles(values)
    suffix = " s" if unit == "s" else ""
    return f"{fmt(med, unit)}{suffix} [{fmt(q1, unit)}, {fmt(q3, unit)}]"


def signed_pct(ratio):
    pct = (ratio - 1.0) * 100.0
    return "0.0%" if abs(pct) < 0.05 else f"{'+' if pct > 0 else '−'}{abs(pct):.1f}%"


def verdict(parent, change, better):
    """The gain rule, applied in both directions."""
    n = len(parent)
    need = math.ceil(0.9 * n)
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    if abs(med_c - med_p) > q3 - q1:
        if wins >= need:
            return wins, "gain"
        if losses >= need:
            return wins, "loss"
    return wins, "no clear difference"


def measure(workload, pairs, seconds, parent_bin, change_bin):
    runs = {"parent": [], "change": []}
    for i in range(1, pairs + 1):
        order = ["parent", "change"] if i % 2 == 1 else ["change", "parent"]
        for side in order:
            binary = parent_bin if side == "parent" else change_bin
            runs[side].append(run(binary, workload, i, seconds))
        print(f"ab_pairs: {workload}: pair {i}/{pairs} done", file=sys.stderr)
    return runs


def report(workload, runs, metrics):
    """Prints one workload's rows; returns the exact-metric mismatches."""
    n = len(runs["parent"])
    for name, unit, better in metrics:
        if name in EXACT:
            continue
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        pm = statistics.median(parent)
        cm = statistics.median(change)
        wins, rule = verdict(parent, change, better)
        ratio = signed_pct(cm / pm) if pm else "n/a"
        word = "lower" if better == "lower" else "higher"
        print(f"| `{workload}` | `{name}` | {cell(parent, unit)} | {cell(change, unit)} "
              f"| {ratio} | {word} in {wins} of {n} | {rule} |")
    mismatches = []
    for i, (p, c) in enumerate(zip(runs["parent"], runs["change"]), start=1):
        for name in EXACT:
            if p.get(name) != c.get(name):
                mismatches.append(f"{workload} pair {i} (seed {i}): {name} "
                                  f"parent {p.get(name)} change {c.get(name)}")
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", metavar="PARENT_REV", help="the commit to compare against")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="measure only this workload (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="perfbench --seconds per run (default: 30)")
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build"),
                        help="where the worktree and build trees go (default: build/)")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    base = os.path.join(os.path.abspath(args.build_dir), "ab_pairs")
    worktree = os.path.join(base, "parent")
    sha = git("rev-parse", "--verify", args.parent + "^{commit}")
    if os.path.exists(worktree):
        git("worktree", "remove", "--force", worktree)
    git("worktree", "prune")
    git("worktree", "add", "--detach", worktree, sha)
    try:
        parent_bin = build(worktree, os.path.join(base, "parent-perfbench"))
        change_bin = build(ROOT, os.path.join(base, "change-perfbench"))
        metrics = end_to_end_metrics()
        print(f"ab_pairs: parent {args.parent} ({sha[:12]}) vs the working tree; "
              f"{args.pairs} pairs, seeds 1-{args.pairs}, {args.seconds:g} s each, --trace 0, "
              f"parent first in odd pairs")
        print()
        print("| workload | metric | parent | change | change/parent | pairs | verdict |")
        print("|---|---|---|---|---|---|---|")
        mismatches = []
        for workload in args.workload or WORKLOADS:
            runs = measure(workload, args.pairs, args.seconds, parent_bin, change_bin)
            mismatches += report(workload, runs, metrics)
            sys.stdout.flush()
    except (RuntimeError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"ab_pairs: {e}", file=sys.stderr)
        return 1
    finally:
        git("worktree", "remove", "--force", worktree)
    print()
    if mismatches:
        for m in mismatches:
            print(f"ab_pairs: MISMATCH {m}")
        return 1
    print(f"ab_pairs: {', '.join(EXACT)} match pair by pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
