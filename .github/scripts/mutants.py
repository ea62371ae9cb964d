#!/usr/bin/env python3
"""Mutant catalogue: every catalogued mutant must fail tier-1.

    python3 .github/scripts/mutants.py [CATALOGUE]

CATALOGUE (default: mutants.json next to this script) is a JSON list of
entries, each a planted defect:

    {"name": "...", "file": "lib/...", "search": "...", "replace": "...",
     "suite": "..."}

`search` must occur exactly once in `file`; the script fails at once if it
does not (a refactor moved the code, so the entry must move with it). It
then copies the repository (without _build, .bench_build and .git) into a
temporary directory, checks that `dune build && dune runtest` passes there,
and for each entry in turn replaces `search` by `replace`, runs
`dune build && dune runtest`, and puts the file back. An entry is killed
when that run fails and the alcotest summary reports a failed test in the
named `suite` (a mutant that no longer compiles is not killed: it shows
nothing). The script exits 1 if any entry survives, 0 when all are killed,
and prints each entry's wall time.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TIER1 = "dune build --root . 2>&1 && dune runtest --root . 2>&1"


def tier1(tree):
    res = subprocess.run(TIER1, shell=True, cwd=tree, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
    return res.returncode, res.stdout


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(HERE, "mutants.json")
    with open(path) as f:
        entries = json.load(f)
    originals = {}
    for e in entries:
        with open(os.path.join(ROOT, e["file"])) as f:
            text = f.read()
        n = text.count(e["search"])
        if n != 1:
            print("mutant %r: its search string occurs %d times in %s"
                  % (e["name"], n, e["file"]))
            return 1
        originals[e["name"]] = text
    tree = tempfile.mkdtemp(prefix="mutants-")
    try:
        shutil.copytree(ROOT, tree, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("_build", ".bench_build", ".git"))
        start = time.time()
        code, out = tier1(tree)
        if code != 0:
            print(out[-4000:])
            print("tier-1 fails on the unmutated tree")
            return 1
        print("unmutated tree passes tier-1 (%.0f s)" % (time.time() - start))
        survivors = 0
        for e in entries:
            target = os.path.join(tree, e["file"])
            text = originals[e["name"]]
            start = time.time()
            with open(target, "w") as f:
                f.write(text.replace(e["search"], e["replace"]))
            try:
                code, out = tier1(tree)
            finally:
                with open(target, "w") as f:
                    f.write(text)
            failed = re.search(r"\[FAIL\]\s+%s\s" % re.escape(e["suite"]), out)
            verdict = "killed" if code != 0 and failed else "SURVIVED"
            print("%-8s %-48s %s (%.0f s)"
                  % (verdict, e["name"], e["suite"], time.time() - start))
            if verdict != "killed":
                survivors += 1
                # What did fail, if anything: a build error or other suites.
                print("\n".join(l for l in out.splitlines()
                                if l.startswith(("Error", "> [FAIL]", "  [FAIL]")))[:2000])
        print("%d of %d mutants killed" % (len(entries) - survivors, len(entries)))
        return 1 if survivors else 0
    finally:
        shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
