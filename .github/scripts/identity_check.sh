#!/usr/bin/env bash
# Parent-vs-change identity check for behaviour-preserving changes.
#
# Usage: .github/scripts/identity_check.sh PARENT_DIR
#
# PARENT_DIR is a checkout of the parent commit, made with
# `git clone` (not `git worktree`). Both trees are built, then each runs
# the seed-2004 CI smokes, CI's explorer sweeps and repro replays, and the
# deterministic bench snapshot in its own scratch directory. The script
# compares, tree against tree:
#   - every run's exit code, stdout and the trace/metrics files it writes;
#   - BENCH_runtime.json with every "cpu_seconds" field removed (the only
#     host-timed fields).
# BENCH_ROUTING_SIZES and BENCH_AE_KEYS pass through to both bench runs
# (unset, the bench runs its full ladder, ~2 min per tree).
#
# Exit 0 when everything is identical, 1 otherwise. Set IDENTITY_OUT to
# keep the outputs in a chosen directory (default: a fresh temp dir).
# This is a tool for refactors, not a CI gate: a change that alters
# behaviour on purpose differs here by design.
set -u

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
  echo "usage: $0 PARENT_DIR" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/../.." && pwd)
out=${IDENTITY_OUT:-$(mktemp -d)}
mkdir -p "$out"

# name|arguments; each runs with its side's scratch directory as cwd.
smokes=(
  "chaos-metrics-trace|chaos --snodes 8 --vnodes 24 --keys 200 --seed 2004 --metrics --trace chaos-trace.json"
  "chaos-rf3|chaos --snodes 8 --vnodes 24 --keys 200 --seed 2004 --rfactor 3 --read-quorum 2 --write-quorum 2"
  "chaos-route-cap|chaos --snodes 8 --vnodes 24 --keys 200 --seed 2004 --route-cap 16"
  "chaos-overload|chaos --overload --seed 2004"
  "chaos-overload-causal|chaos --overload --seed 2004 --causal --trace overload-causal.jsonl"
  "kv-audit|kv --audit"
  "range|range --snodes 5 --keys 120 --queries 40 --seed 2004"
  "heat|heat --seed 2004 --metrics-csv heat-metrics.csv"
  "balance|balance --zipf 0.99 --seed 2004"
  "route|route --snodes 100,1000 --seed 2004 --json route-sweep.json --metrics-csv route-metrics.csv"
  "explore-protected|explore --seed 100 --seeds 10 --rounds 20 --max-tweaks 4"
  "explore-mt-ae|explore --scenario mt-ae --seed 200 --seeds 5 --rounds 10 --max-tweaks 3"
  "explore-mutate|explore --mutate --seed 1 --seeds 5 --rounds 30 --max-tweaks 3"
)
# name|repro; each replays from the tree root, so the repro path is the
# same on both sides.
replays=(
  "livelock-replay|test/repros/creation-coordinator-livelock.sched"
  "mt-race-replay|test/repros/mt-reconciliation-race.sched"
  "lost-ack-replay|test/repros/lost-acked-write.sched"
)

for side in parent change; do
  if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
  echo "== building $side ($tree)"
  (cd "$tree" && dune build bin/dht_sim.exe bench/main.exe) || {
    echo "build failed: $side" >&2
    exit 2
  }
  exe=$tree/_build/default/bin/dht_sim.exe
  dir=$out/$side
  rm -rf "$dir"
  mkdir -p "$dir/run" "$dir/bench"
  for entry in "${smokes[@]}"; do
    name=${entry%%|*}
    args=${entry#*|}
    echo "   $name"
    # shellcheck disable=SC2086 # word-split the argument string on purpose
    (cd "$dir/run" && "$exe" $args > "../$name.stdout" 2> /dev/null)
    echo $? > "$dir/$name.code"
  done
  for entry in "${replays[@]}"; do
    name=${entry%%|*}
    echo "   $name"
    (cd "$tree" && "$exe" explore --replay "${entry#*|}" > "$dir/$name.stdout" 2> /dev/null)
    echo $? > "$dir/$name.code"
  done
  echo "   bench"
  (cd "$dir/bench" && "$tree/_build/default/bench/main.exe" > /dev/null 2>&1)
  echo $? > "$dir/bench.code"
  jq -S 'walk(if type == "object" then del(.cpu_seconds) else . end)' \
    "$dir/bench/BENCH_runtime.json" > "$dir/bench.json" 2> /dev/null
done

echo "== comparing (outputs in $out)"
fail=0
compare () { # label parent-file change-file
  if cmp -s "$2" "$3"; then
    echo "identical  $1"
  else
    echo "DIFFERS    $1"
    fail=1
  fi
}
for f in $(cd "$out/parent" && ls ./*.code ./*.stdout bench.json); do
  compare "${f#./}" "$out/parent/$f" "$out/change/$f"
done
# Files either side wrote; one missing on the other side differs too.
for f in $( (ls "$out/parent/run"; ls "$out/change/run") | sort -u); do
  compare "run/$f" "$out/parent/run/$f" "$out/change/run/$f"
done
if [ $fail = 0 ]; then echo "identity check: all identical"; else echo "identity check: FAILED"; fi
exit $fail
