#!/usr/bin/env python3
"""Gate google-benchmark results against a checked-in baseline.

Usage: bench_gate.py CURRENT.json BASELINE.json

Compares `items_per_second` per benchmark name.  Benchmarks listed in GATED
fail the build when they regress by more than MAX_DROP or are missing from
the current run; everything else only warns.  Refresh with `bench_micro_sim
--benchmark_out=bench/BASELINE_micro_sim.json --benchmark_out_format=json`
on a quiet machine.  (Deterministic outputs are not gated here: ctest diffs
them exactly against bench/golden/.)
"""

import json
import sys

# Benchmarks whose regression fails CI (the engine hot path the overhaul
# optimized, the text and binary trace emission, binary decode, span
# emission and streaming-fold hot paths; refresh bench/BASELINE_trace.json
# with `bench_trace --benchmark_out=bench/BASELINE_trace.json
# --benchmark_out_format=json`).
# Fractional drop allowed before failing / warning.
GATED = {"BM_EngineScheduleDispatch", "BM_TraceEmitText", "BM_TraceEmitTextSpans",
         "BM_TraceEmitBinary", "BM_TraceDecodeBinary", "BM_TraceStreamingFold", "BM_SpanEmit"}
MAX_DROP = 0.25


def load(path):
    with open(path) as f:
        return json.load(f)


def index(data):
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        ips = b.get("items_per_second")
        if ips:
            out[b["name"]] = (ips, b["name"] in GATED)
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    current = index(load(sys.argv[1]))
    baseline = index(load(sys.argv[2]))

    failures = []
    missing = []
    for name in sorted(baseline):
        if name not in current:
            if baseline[name][1]:
                print(f"bench-gate: {name}: missing from current run MISSING")
                missing.append(name)
            else:
                print(f"bench-gate: WARN {name}: missing from current run")
            continue
        (base, gated), (cur, _) = baseline[name], current[name]
        if base <= 0:
            print(f"bench-gate: WARN {name}: non-positive baseline, skipped")
            continue
        ratio = cur / base
        status = "ok" if ratio >= 1.0 - MAX_DROP else "REGRESSED"
        print(f"bench-gate: {name}: {cur:.3g}/s vs baseline "
              f"{base:.3g}/s ({ratio:.2f}x) {status}")
        if status == "REGRESSED":
            if gated:
                failures.append(name)
            else:
                print(f"bench-gate: WARN {name}: regression in ungated benchmark")

    if failures:
        print(f"bench-gate: FAIL: {', '.join(failures)} dropped more than "
              f"{MAX_DROP:.0%} below baseline")
    if missing:
        print(f"bench-gate: FAIL: {', '.join(missing)} missing from the current run")
    if failures or missing:
        return 1
    print("bench-gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
