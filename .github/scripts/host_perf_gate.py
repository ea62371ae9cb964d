#!/usr/bin/env python3
"""Host perf gate: compare perfbench result lines of a change with its parent's.

    python3 .github/scripts/host_perf_gate.py CHANGE PARENT CHANGE_HEAP PARENT_HEAP CHANGE_ALLOC PARENT_ALLOC

Each file (JSONL) holds one perfbench result line per run (the last line that
perfbench/run.py prints). The first pair holds point-read runs. The gate fails
(exit 1) unless every run of both trees reports "correct": true, the change's
median host_ops_per_s is at least RATIO times the parent's, and the change's
median peak_heap_mb is at most HEAP_RATIO times the parent's. Both sides must
come from the same runner, so host speed cancels out of the throughput ratio.

The other two pairs hold one run per workload and tree, each line wrapped
as {"workload": NAME, "result": RESULT_LINE}; both trees must have run the
same workloads. The second pair holds --trace 0 runs of routed-256 and
write-repair: for each, the change's peak_heap_mb must be at most
HEAP_RATIO times the parent's. Peak heap is deterministic for a given build
and seed up to the address-space layout (write-repair's moves by about
0.5 %), so one run per tree is enough.

The third pair holds --trace 1 runs of routed-256, write-repair and
point-read: for each, the change's gc.minor_words_per_op must be at most
ALLOC_RATIO times the parent's. Each workload runs a fixed number of operations at a fixed
seed, yet the count still varies by about 0.1 % between runs of one build
(it follows the address-space layout). That spread sits about 20 times
inside the ALLOC_RATIO bound, so one run per tree is enough.
"""

import json
import statistics
import sys

RATIO = 0.8
METRIC = "host_ops_per_s"
HEAP_RATIO = 1.10
HEAP_METRIC = "peak_heap_mb"
ALLOC_RATIO = 1.02
ALLOC_METRIC = "gc.minor_words_per_op"


def load(path):
    runs = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            try:
                runs.append(json.loads(line))
            except ValueError:
                sys.exit("%s:%d: not a perfbench result line: %r" % (path, n, line[:80]))
    if not runs:
        sys.exit("%s: no runs" % path)
    return runs


def gate(paths, workload, metric, ratio_bound, higher_is_better):
    """Print both sides' values of METRIC on WORKLOAD and return whether the
    change's median passes RATIO_BOUND against the parent's."""
    ok = True
    medians = {}
    for side, path in zip(("change", "parent"), paths):
        runs = load(path)
        if not all(r.get("correct") is True for r in runs):
            print("::error::a %s run failed its output checks" % side)
            ok = False
        values = [r["metrics"][metric]["value"] for r in runs]
        medians[side] = statistics.median(values)
        print("%s %s %s: %s, median %.6g" % (
            workload, side, metric, ", ".join("%.6g" % v for v in values),
            medians[side]))
    ratio = medians["change"] / medians["parent"]
    bound = ">=" if higher_is_better else "<="
    print("change / parent = %.3f (gate: %s %.2f)" % (ratio, bound, ratio_bound))
    failed = ratio < ratio_bound if higher_is_better else ratio > ratio_bound
    if failed:
        print("::error::host perf gate failed: %s median %s is %.1f%% of the "
              "parent's" % (workload, metric, 100 * ratio))
        ok = False
    return ok


def workload_gate(paths, metric, ratio_bound):
    """Compare METRIC workload by workload; return whether every workload
    of the change stays at most RATIO_BOUND times the parent's."""
    sides = {}
    for side, path in zip(("change", "parent"), paths):
        lines = load(path)
        try:
            sides[side] = {l["workload"]: l["result"] for l in lines}
        except (KeyError, TypeError):
            sys.exit("%s: lines must be {\"workload\": ..., \"result\": ...}" % path)
    if set(sides["change"]) != set(sides["parent"]):
        print("::error::%s gate: the trees ran different workloads" % metric)
        return False
    ok = True
    for w in sorted(sides["change"]):
        runs = {side: sides[side][w] for side in sides}
        if not all(r.get("correct") is True for r in runs.values()):
            print("::error::a %s run failed its output checks" % w)
            ok = False
            continue
        change, parent = (runs[s]["metrics"][metric]["value"]
                          for s in ("change", "parent"))
        ratio = change / parent
        print("%s %s: change %.6g, parent %.6g, change / parent = %.4f "
              "(gate: <= %.2f)" % (w, metric, change, parent, ratio,
                                   ratio_bound))
        if ratio > ratio_bound:
            print("::error::host perf gate failed: %s %s is %.1f%% of the "
                  "parent's" % (w, metric, 100 * ratio))
            ok = False
    return ok


def main():
    if len(sys.argv) != 7:
        sys.exit(__doc__.strip().split("\n\n")[1])
    ok = gate(sys.argv[1:3], "point-read", METRIC, RATIO, True)
    ok = gate(sys.argv[1:3], "point-read", HEAP_METRIC, HEAP_RATIO, False) and ok
    ok = workload_gate(sys.argv[3:5], HEAP_METRIC, HEAP_RATIO) and ok
    ok = workload_gate(sys.argv[5:7], ALLOC_METRIC, ALLOC_RATIO) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
