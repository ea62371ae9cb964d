#!/usr/bin/env python3
"""Dead-export scan: list the library surface that no binary needs.

    python3 .github/scripts/dead_exports.py [REPO_DIR]

Run from the repository root (or pass it). The scan has two parts.

Values. Every `val NAME` declared in a `lib/**/*.mli` is searched for as a
word in the code of the `.ml` files under lib/, bin/, bench/, perfbench/ and
examples/, leaving out the value's own `.ml`. Comments and the contents of
string literals are stripped first, so a name that only prose or a message
mentions is not a caller, and neither is a `let` or `and` that defines a
value of the same name (`let stddev_sample`, `let rec go`, `and step`). A
value found nowhere there is listed, marked "test-only" when the code of a
test/ file names it and "unused" otherwise. Otherwise the search is by name
alone, so a value whose name some other file also uses (calls another
module's value of that name, binds it as a local or a label) is never
listed: the scan under-reports and never flags a live value.

Modules. A module of a lib/ library is referred to by a non-test file when
that file names it by its library-qualified path (`Dht_core.Plan`), or
names it as `Plan.` while it can see the library's modules unqualified: the
file belongs to the same library or opens it (`open Dht_core`,
`let open Dht_core in`, `Dht_core.(...)`). The module's own `.ml` and `.mli`
do not count, and neither do comments and strings (a doc link such as
`{!Dht_stats.Histogram}` is not a use). A module that no file under lib/,
bin/, bench/, perfbench/ or examples/ refers to is listed.

The scan fails (exit 1) if any module is listed, if more than MAX_VALUES
values are listed, or if a listed value's doc comment in its `.mli` has no
line containing "Needed by" naming the test or tool that keeps it exported.
"""

import os
import re
import sys

MAX_VALUES = 20
SOURCE_ROOTS = ("lib", "bin", "bench", "perfbench", "examples")
TEST_ROOT = "test"
NEEDED_BY = "Needed by"
# A signature item that ends the doc comment of the value before it.
ITEM_START = re.compile(
    r"\s*(val|type|module|end|exception|include|external|class|open)\b")
VAL_DECL = re.compile(r"\s*val\s+([a-z_][A-Za-z0-9_']*)")
# What precedes a name that a `let` or `and` binding defines.
DEFINED_BY = re.compile(r"\b(?:let(?:\[@[^\]]*\])?(?:\s+rec)?|and)\s+$")


def read_tree(roots, exts):
    files = {}
    for root in roots:
        for dirpath, dirnames, names in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(("_", ".")))
            for name in sorted(names):
                if name.endswith(exts):
                    path = os.path.join(dirpath, name)
                    with open(path) as f:
                        files[path] = f.read()
    return files


CHAR_LITERAL = re.compile(
    r"'(?:[^\\'\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")
QUOTED_OPEN = re.compile(r"\{([a-z_]*)\|")


def strip_comments(text):
    """Drop OCaml comments (nested) and the contents of string literals,
    keeping line breaks, so that names in prose or messages are not uses."""
    out = []
    i, n, depth = 0, len(text), 0
    while i < n:
        if text.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append("\n" * text.count("\n", i, j))
            i = j + 1
        elif QUOTED_OPEN.match(text, i):
            m = QUOTED_OPEN.match(text, i)
            close = "|" + m.group(1) + "}"
            j = text.find(close, m.end())
            j = n if j < 0 else j
            out.append("\n" * text.count("\n", i, j))
            i = j + len(close)
        elif CHAR_LITERAL.match(text, i):
            i = CHAR_LITERAL.match(text, i).end()
        else:
            if not depth or text[i] == "\n":
                out.append(text[i])
            i += 1
    return "".join(out)


def word(name):
    return re.compile(
        r"(?<![A-Za-z0-9_'])" + re.escape(name) + r"(?![A-Za-z0-9_'])")


def uses(pat, text):
    """Whether TEXT names PAT anywhere but as the name a `let` or `and`
    binding defines."""
    return any(not DEFINED_BY.search(text, max(0, m.start() - 80), m.start())
               for m in pat.finditer(text))


def declared_values(text):
    """Yield (name, doc) for each `val` of an interface; doc is the text from
    the declaration up to the next signature item."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        m = VAL_DECL.match(line)
        if not m:
            continue
        j = i + 1
        while j < len(lines) and not ITEM_START.match(lines[j]):
            j += 1
        yield m.group(1), "\n".join(lines[i:j])


def library_name(lib_dir):
    with open(os.path.join(lib_dir, "dune")) as f:
        m = re.search(r"\(name\s+([a-z_0-9]+)\)", f.read())
    return m.group(1).capitalize() if m else None


def scan_values(sources, code, tests):
    ml_code = {p: t for p, t in code.items() if p.endswith(".ml")}
    listed = []
    interfaces = (p for p in sources
                  if p.startswith("lib" + os.sep) and p.endswith(".mli"))
    for mli in sorted(interfaces):
        own_ml = mli[:-1]
        for name, doc in declared_values(sources[mli]):
            pat = word(name)
            if any(uses(pat, t) for p, t in ml_code.items() if p != own_ml):
                continue
            tested = any(pat.search(t) for t in tests.values())
            kind = "test-only" if tested else "unused"
            listed.append((mli, name, kind, NEEDED_BY in doc))
    return listed


def scan_modules(code):
    libs = {}
    for path in code:
        if path.startswith("lib" + os.sep):
            lib_dir = os.path.dirname(path)
            if lib_dir not in libs:
                libs[lib_dir] = library_name(lib_dir)
    listed = []
    for lib_dir, lib in sorted(libs.items()):
        if lib is None:
            continue
        opens = re.compile(r"\bopen!?\s+" + lib + r"\b|\b" + lib + r"\.\(")
        # `module Cluster = Dht_cluster` makes `Cluster.Topology` qualified.
        alias = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*"
                           + lib + r"\b(?!\.)")
        modules = sorted({os.path.splitext(os.path.basename(p))[0]
                          for p in code if os.path.dirname(p) == lib_dir})
        for base in modules:
            mod = base.capitalize()
            own = (os.path.join(lib_dir, base + ".ml"),
                   os.path.join(lib_dir, base + ".mli"))
            bare = re.compile(r"(?<![A-Za-z0-9_'.])" + mod + r"\.")

            def refers(path, text):
                for prefix in [lib] + alias.findall(text):
                    if re.search(r"\b" + prefix + r"\." + mod + r"\b", text):
                        return True
                sees = os.path.dirname(path) == lib_dir or opens.search(text)
                return bool(sees and bare.search(text))

            if not any(refers(p, t) for p, t in code.items() if p not in own):
                listed.append("%s.%s (%s)" % (lib, mod, lib_dir))
    return listed


def main():
    if len(sys.argv) > 1:
        os.chdir(sys.argv[1])
    sources = read_tree(SOURCE_ROOTS, (".ml", ".mli"))
    code = {p: strip_comments(t) for p, t in sources.items()}
    tests = {p: strip_comments(t)
             for p, t in read_tree((TEST_ROOT,), (".ml",)).items()}
    values = scan_values(sources, code, tests)
    modules = scan_modules(code)
    ok = True
    for mli, name, kind, documented in values:
        note = "" if documented else "  <- no \"%s\" line" % NEEDED_BY
        print("value  %-9s %s: %s%s" % (kind, mli, name, note))
    for m in modules:
        print("module unused    %s" % m)
    test_only = sum(1 for v in values if v[2] == "test-only")
    print("%d values listed (%d test-only, %d unused), %d modules listed"
          % (len(values), test_only, len(values) - test_only, len(modules)))
    if len(values) > MAX_VALUES:
        print("::error::%d values have no caller outside tests "
              "(at most %d allowed)" % (len(values), MAX_VALUES))
        ok = False
    if not all(v[3] for v in values):
        print("::error::every listed value needs a \"%s\" line in its doc "
              "comment" % NEEDED_BY)
        ok = False
    if modules:
        print("::error::%d lib modules have no non-test user" % len(modules))
        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
