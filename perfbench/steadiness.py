#!/usr/bin/env python3
"""Measure how steady the benchmark is and print the evidence as Markdown.

Runs the command of BENCHMARK.json from the repository root, one fresh
process per run, and reports for every end-to-end metric and workload the
median and spread of each set of seeds. The spread is the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a
share of the median; the drift is how far the second set's median moved
from the first's, as a share of the first, in the metric's worse
direction.

    python3 perfbench/steadiness.py --seeds 1-10 --second-seeds 11-20
    python3 perfbench/steadiness.py --workloads restart --trace-runs 3
    python3 perfbench/steadiness.py --reserve-study 256,384,512 --seeds 1-5
    python3 perfbench/steadiness.py --compete 0.25 --workloads restart --seeds 1-3
"""

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time

# Wall time of every run, per workload: what a run costs the caller.
WALL = {}
# File that gets one JSON line per run (--raw), or None.
RAW = None


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, workload, seed, trace=0, env=None, notes=None):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True,
                         env={**os.environ, **(env or {})})
    WALL.setdefault(workload, []).append(time.monotonic() - t0)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    if notes is not None:
        notes.extend(line for line in lines if line.startswith("#"))
    if RAW:
        RAW.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, "env": env or {},
                              "notes": [line for line in lines if line.startswith("#")],
                              "metrics": result["metrics"]}) + "\n")
        RAW.flush()
    return {k: v["value"] for k, v in result["metrics"].items()}


def compete(duty, seconds, seed):
    """Hold every core for about `duty` of the time: spin for random
    slices averaging 2 ms, sleep in between."""
    r = random.Random(seed)
    nap = 0.002 * (1 - duty) / duty
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        t = time.monotonic() + r.uniform(0, 0.004)
        while time.monotonic() < t:
            pass
        time.sleep(r.uniform(0, 2 * nap))


def compete_study(bench, workloads, seeds, duty):
    # One competitor process per core, started before the run and stopped
    # after it; the run's own set-up and checks compete too.
    print("| workload | seed | competitors | throughput_mops | by wall time (Mops/s) | client CPU share |")
    print("|---|---|---|---|---|---|")
    for w in workloads:
        for s in seeds:
            for on in (False, True):
                procs = [subprocess.Popen([sys.executable, __file__, "--spin", str(duty), str(s * 10 + c)])
                         for c in range(os.cpu_count() if on else 0)]
                notes = []
                try:
                    r = run(bench, w, s, notes=notes)
                finally:
                    for p in procs:
                        p.kill()
                        p.wait()
                wall, share = re.search(r"by wall time ([\d.]+) Mops/s; .* CPU ([\d.]+) of", " ".join(notes)).groups()
                print(f"| {w} | {s} | {'yes' if on else 'no'} | {r['throughput_mops']:.4f} | {wall} | {share} |",
                      flush=True)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(bench, workloads, sets):
    print("| workload | metric | bound |" + "".join(f" median {n} | spread {n} |" for n in range(1, len(sets) + 1))
          + (" drift |" if len(sets) > 1 else ""))
    print("|---|---|---|" + "---|---|" * len(sets) + ("---|" if len(sets) > 1 else ""))
    for w in workloads:
        runs = [[run(bench, w, s) for s in seeds] for seeds in sets]
        for m in bench["end_to_end"]:
            name, sign = m["name"], (1 if m["better"] == "lower" else -1)
            cols = [[r[name] for r in rs] for rs in runs]
            row = f"| {w} | {name} | {m['bound']} |"
            row += "".join(f" {statistics.median(c):.6g} | {spread(c):.4f} |" for c in cols)
            if len(cols) > 1:
                first, second = statistics.median(cols[0]), statistics.median(cols[1])
                row += f" {sign * (second - first) / first:+.4f} |"
            print(row, flush=True)


def traced(bench, workloads, seeds):
    names = [m["name"] for m in bench["per_layer"]]
    runs = {w: [run(bench, w, s, trace=1) for s in seeds] for w in workloads}
    print("| metric |" + "".join(f" {w} |" for w in workloads))
    print("|---|" + "---|" * len(workloads))
    for n in names:
        cells = []
        for w in workloads:
            values = [r[n] for r in runs[w]]
            cells.append(f" {statistics.median(values):.6g} ({min(values):.4g}–{max(values):.4g}) |")
        print(f"| {n} |" + "".join(cells), flush=True)


def reserve_study(bench, reserves, seeds):
    # The ycsb_a heap reserves 256 MiB; RALLOC_MAX_CAP raises the reserve
    # of Ralloc::create (it takes the larger of the two).
    print("| ycsb_a reserve (MiB) | setup_s median | setup_s min–max | spread | peak_rss_mib |")
    print("|---|---|---|---|---|")
    for mib in reserves:
        rs = [run(bench, "ycsb_a", s, env={"RALLOC_MAX_CAP": f"{mib}M"}) for s in seeds]
        setup = [r["setup_s"] for r in rs]
        rss = statistics.median(r["peak_rss_mib"] for r in rs)
        print(f"| {mib} | {statistics.median(setup):.4f} | {min(setup):.4f}–{max(setup):.4f} "
              f"| {spread(setup):.4f} | {rss:.1f} |", flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--second-seeds", type=seed_range)
    p.add_argument("--workloads", help="comma-separated; default: every workload of BENCHMARK.json")
    p.add_argument("--trace-runs", type=int, default=0, help="traced runs per workload instead")
    p.add_argument("--reserve-study", help="comma-separated ycsb_a reserves in MiB (at least 256) instead")
    p.add_argument("--compete", type=float, help="compare each run with one where a competitor holds every "
                   "core for this share of the time (0 to 1) instead")
    p.add_argument("--raw", help="append every run's metrics and # lines to this file, one JSON line each")
    p.add_argument("--spin", nargs=2, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.spin:
        return compete(float(args.spin[0]), 900, int(args.spin[1]))
    global RAW
    RAW = open(args.raw, "a") if args.raw else None
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    if args.compete:
        compete_study(bench, workloads, args.seeds, args.compete)
    elif args.reserve_study:
        reserve_study(bench, [int(x) for x in args.reserve_study.split(",")], args.seeds)
    elif args.trace_runs:
        traced(bench, workloads, args.seeds[:args.trace_runs])
    else:
        end_to_end(bench, workloads, [args.seeds] + ([args.second_seeds] if args.second_seeds else []))
    print()
    for w, walls in WALL.items():
        print(f"- {w}: {len(walls)} runs, wall time per run median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")


if __name__ == "__main__":
    main()
