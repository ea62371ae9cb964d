#!/usr/bin/env python3
"""Host perf gate: compare perfbench result lines of a change with its parent's.

    python3 .github/scripts/host_perf_gate.py CHANGE.jsonl PARENT.jsonl

Each file holds one perfbench result line per run (the last line that
perfbench/run.py prints). The gate fails (exit 1) unless every run of both
trees reports "correct": true and the change's median host_ops_per_s is at
least RATIO times the parent's. Both sides must come from the same runner,
so host speed cancels out of the ratio.
"""

import json
import statistics
import sys

RATIO = 0.8
METRIC = "host_ops_per_s"


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


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().split("\n\n")[1])
    ok = True
    medians = {}
    for side, path in zip(("change", "parent"), sys.argv[1:]):
        runs = load(path)
        if not all(r.get("correct") is True for r in runs):
            print("::error::a %s run failed its output checks" % side)
            ok = False
        values = [r["metrics"][METRIC]["value"] for r in runs]
        medians[side] = statistics.median(values)
        print("%s %s: %s, median %.0f" % (
            side, METRIC, ", ".join("%.0f" % v for v in values), medians[side]))
    ratio = medians["change"] / medians["parent"]
    print("change / parent = %.3f (gate: >= %.2f)" % (ratio, RATIO))
    if ratio < RATIO:
        print("::error::host perf gate failed: median %s is %.1f%% of the parent's"
              % (METRIC, 100 * ratio))
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
