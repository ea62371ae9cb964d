#!/usr/bin/env python3
"""Steadiness check: run each workload K times, each in a fresh process
with its own seed, and report every end-to-end metric's median, quartiles,
spread (quartile distance over median) and largest deviation from the
median against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--json OUT]

Run from the root of a checkout. Exit code 1 when any spread, setup_s
excepted, exceeds its bound. Seed 9001 is held out: never use it while
tuning; use it to confirm a claimed change on a seed the change was not
written against.
"""

import argparse
import json
import statistics
import subprocess
import sys

HELD_OUT_SEED = 9001


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=400)
    last = res.stdout.decode(errors="replace").rstrip("\n").split("\n")[-1]
    result = json.loads(last)
    if res.returncode != 0 or not result["correct"]:
        raise SystemExit("%s seed %d failed its checks" % (workload, seed))
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = [args.first_seed + i for i in range(args.runs)]
    if HELD_OUT_SEED in seeds:
        raise SystemExit("seed %d is held out" % HELD_OUT_SEED)
    ok = True
    report = {}
    for wl in workloads:
        values = {}
        for seed in seeds:
            result = run_once(wl, seed, bench["run_seconds"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d runs, seeds %d..%d)" % (wl, len(seeds), seeds[0], seeds[-1]))
        print("%-16s %12s %12s %12s %8s %8s %7s" % (
            "metric", "q1", "median", "q3", "spread", "maxdev", "bound"))
        report[wl] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            maxdev = max(abs(v - med) for v in vals) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > metric["bound"]:
                flag = "  OVER BOUND"
                ok = False
            elif spread > metric["bound"] / 3:
                flag = "  over a third of bound"
            print("%-16s %12.6g %12.6g %12.6g %8.4f %8.4f %7.3f%s" % (
                name, q1, med, q3, spread, maxdev, metric["bound"], flag))
            report[wl][name] = {"values": vals, "q1": q1, "median": med, "q3": q3,
                                "spread": spread, "max_deviation": maxdev}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
