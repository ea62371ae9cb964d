#!/usr/bin/env bash
# Every tier-1 case alone: runs each case that `test_main.exe list` names
# in a process of its own, so a case that passes only because an earlier
# case ran first in the same process (a one-time allocation it would
# otherwise count, a table an earlier case filled) fails here.
#
# Usage: .github/scripts/each_alone.sh
#
# Run from the repository root after `dune build @test/runtest`, which
# builds test/test_main.exe and copies test/repros next to it. Each case
# runs from _build/default with --color=always, as it would in a
# terminal. Prints each failing case with the tail of its output, then
# how many cases ran; exits 1 if any case failed or none was listed.
set -u

cd _build/default || exit 2
exe=./test/test_main.exe
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

cases=0
failed=0
while read -r suite index; do
  cases=$((cases + 1))
  if ! "$exe" test "^$suite\$" "$index" --color=always -o "$logs" \
      > "$logs/run.txt" 2>&1; then
    failed=$((failed + 1))
    echo "FAILED alone: $suite $index"
    tail -n 40 "$logs/run.txt"
  fi
done < <("$exe" list --color=never | awk 'NF >= 3 && $2 ~ /^[0-9]+$/ { print $1, $2 }')

echo "$cases cases run alone, $failed failed"
[ "$cases" -gt 0 ] && [ "$failed" -eq 0 ]
