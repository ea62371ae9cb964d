#!/usr/bin/env python3
"""Benchmark entry point: build the benchmark program from source, run one
workload in a fresh process, check its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --manifest      # rewrite BENCHMARK.json

Run from the root of a checkout of the repository. The program is built
with dune into .bench_build/ (release profile, shared cache off). With
--trace 1 the bench-side spans are also written as a Chrome trace to
.bench_build/traces/. The last line of standard output is the JSON result
{correct, attempted, failed, metrics}; the exit code is non-zero when the
build fails, the program fails, or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT = 170

# The benchmark's contract, written to BENCHMARK.json by --manifest.
WORKLOADS = [
    ("point-read",
     "uniform 95/5 get/put on a fault-free gigabit 16-snode rfactor-3 cluster: "
     "event heap, batching, wire sizing and quorum reads; repair, scans and "
     "anti-entropy stay idle"),
    ("write-repair",
     "0.99-Zipf 70% puts on a slow windowed link with one snode crash-stopped "
     "mid-window, 1.5% range scans and one anti-entropy round per slice: "
     "writes, hinted handoff, scans and Merkle rebuilds"),
    ("routed-256",
     "uniform 50/50 single-copy ops on 256 snodes whose 512-entry route caches "
     "hold a fraction of the partition map, grown by paced routed creations: "
     "routing, creation and event heap"),
]

END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("host_ops_per_s", "1/s", "higher", 0.25),
    ("peak_heap_mb", "MB", "lower", 0.15),
    ("get_p50_ms", "ms", "lower", 0.05),
    ("get_p999_ms", "ms", "lower", 0.2),
    ("put_p50_ms", "ms", "lower", 0.05),
    ("put_p999_ms", "ms", "lower", 0.2),
    ("msgs_per_op", "1/op", "lower", 0.05),
    ("bytes_per_op", "B/op", "lower", 0.1),
    ("slo_pct", "%", "higher", 0.15),
]

PER_LAYER = [
    ("event_sim.events_per_op", "1/op", "lower"),
    ("event_sim.step_ns", "ns", "lower"),
    ("event_sim.step_words", "words", "lower"),
    ("event_sim.pending_peak", "count", "lower"),
    ("network.batch_parts_per_batch", "count", "higher"),
    ("network.msgs_per_op.data", "1/op", "lower"),
    ("network.msgs_per_op.ack", "1/op", "lower"),
    ("network.msgs_per_op.repl", "1/op", "lower"),
    ("network.msgs_per_op.ae", "1/op", "lower"),
    ("network.msgs_per_op.lb", "1/op", "lower"),
    ("network.msgs_per_op.route", "1/op", "lower"),
    ("network.msgs_per_op.create", "1/op", "lower"),
    ("network.msgs_per_op.batch", "1/op", "lower"),
    ("snode.run_ns_per_event", "ns", "lower"),
    ("snode.issue_ns", "ns", "lower"),
    ("snode.wire_size_ns", "ns", "lower"),
    ("snode.wire_size_words", "words", "lower"),
    ("snode.retransmits_per_op", "1/op", "lower"),
    ("snode.backpressured_per_op", "1/op", "lower"),
    ("snode.sheds", "count", "lower"),
    ("snode.failed_pct", "%", "lower"),
    ("snode.range_ops", "count", "higher"),
    ("snode.range_p50_ms", "ms", "lower"),
    ("snode.range_p99_ms", "ms", "lower"),
    ("snode.range_scan_ms", "ms", "lower"),
    ("hashes.string_ns", "ns", "lower"),
    ("hashspace.find_point_ns", "ns", "lower"),
    ("hashspace.find_point_words", "words", "lower"),
    ("hashspace.learn_ns", "ns", "lower"),
    ("hashspace.learn_words", "words", "lower"),
    ("routing.hops_p50", "hops", "lower"),
    ("routing.hops_p99", "hops", "lower"),
    ("routing.cache_hit_pct", "%", "higher"),
    ("routing.evictions_per_op", "1/op", "lower"),
    ("routing.retries_per_op", "1/op", "lower"),
    ("routing.cache_entries_peak", "count", "lower"),
    ("core.add_vnode_us", "us", "lower"),
    ("core.lookup_ns", "ns", "lower"),
    ("core.creations_per_host_s", "1/s", "higher"),
    ("core.sigma_qv_pct", "%", "lower"),
    ("kv.lww_merge_ns", "ns", "lower"),
    ("kv.lww_merge_words", "words", "lower"),
    ("replication.read_repairs_per_op", "1/op", "lower"),
    ("replication.hints_stored", "count", "lower"),
    ("replication.hints_flushed", "count", "higher"),
    ("replication.replicas_ns", "ns", "lower"),
    ("merkle.ae_rounds", "count", "lower"),
    ("merkle.ae_frames", "count", "lower"),
    ("merkle.ae_keys_sent", "count", "lower"),
    ("merkle.ae_round_s", "s", "lower"),
    ("merkle.build_ms", "ms", "lower"),
    ("merkle.build_words", "words", "lower"),
    ("balance.transfers", "count", "higher"),
    ("balance.heat_gini", "ratio", "lower"),
    ("telemetry.observe_ns", "ns", "lower"),
    ("telemetry.record_metrics_ms", "ms", "lower"),
    ("gc.minor_words_per_op", "words", "lower"),
    ("gc.promoted_words_per_op", "words", "lower"),
    ("gc.major_collections", "count", "lower"),
    ("check.linear_s", "s", "lower"),
    ("check.invariants_s", "s", "lower"),
    ("check.divergence_s", "s", "lower"),
    ("check.replicas_s", "s", "lower"),
    ("check.keys_over_linear_bound", "count", "lower"),
    ("attributed_pct", "%", "higher"),
    ("trace_overhead_pct", "%", "lower"),
]

RUN_SECONDS = 10


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", os.path.join("lib", "snode", "runtime.ml"),
                   os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("not a checkout of the repository: %s is missing" % needed)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", "-j", "2",
           "--display", "quiet", "./perfbench/bench.exe"]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             timeout=850)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(res.stdout.decode(errors="replace"))
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--manifest", action="store_true",
                    help="rewrite BENCHMARK.json from the tables in this file")
    args = ap.parse_args()
    if args.manifest:
        with open("BENCHMARK.json", "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None or args.seed is None:
        fail("--workload and --seed are required")
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT)
    lines = res.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if res.returncode != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("benchmark program exited with %d" % res.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("no result line")
    expected = {n: u for n, u, *_ in (PER_LAYER if args.trace else END_TO_END)}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from the manifest: missing %s, unexpected %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
