#!/usr/bin/env python3
"""Dead-export scan: list the library surface that no binary needs.

    python3 .github/scripts/dead_exports.py [REPO_DIR]

Run from the repository root (or pass it). The scan has three parts.

Values. Every `val NAME` declared in a `lib/**/*.mli` is looked for at
its calls, resolved as for knobs (below), in the `.ml` files under lib/,
bin/, bench/, perfbench/ and examples/; every value of a module passed
whole to a functor (`Hashtbl.Make (Group_id)`) counts as called. Comments
and the contents of string literals are stripped first, so a name that
only prose or a message mentions is not a caller. A value that no call
there names is listed, marked "test-only" when a call in a test/ file
names it and "unused" otherwise. So another module's value of the same
name (`Registry.pp` for `Welford.pp`), or a local or label so named, is
not a caller, and neither is a record field so named where it is declared
(`{ x : t; ...`) or initialised (`{ x = e; ...`, `{ r with x = e }`);
a value reached only through a name the scan cannot
resolve (`let f = M.g in f x`) would be listed.

Modules. A module of a lib/ library is referred to by a non-test file when
that file names it by its library-qualified path (`Dht_core.Plan`), or
names it as `Plan.` while it can see the library's modules unqualified: the
file belongs to the same library or opens it (`open Dht_core`,
`let open Dht_core in`, `Dht_core.(...)`). The module's own `.ml` and `.mli`
do not count, and neither do comments and strings (a doc link such as
`{!Dht_stats.Histogram}` is not a use). A module that no file under lib/,
bin/, bench/, perfbench/ or examples/ refers to is listed.

Knobs. Every optional argument (`?x:`) in the type of a `val` of a
`lib/**/*.mli` is looked for at the calls of its function. A call is a
word occurrence of the function's name that is qualified by the enclosing
module's name (`Runtime.create`, `Keygen.Population.create`), by an alias
of it (`module R = Dht_snode.Runtime`, `let module R = ... in`), or that
is unqualified in the module's own `.ml` or in a file that opens the
module; a `let` or `and` that defines the name is not a call. The labels
(`~x`, `~x:e`, `?x`, `?x:e`) at bracket depth 0 after the name, up to the
first keyword, operator, separator or unmatched closing bracket, are what
the call sets; forwarding an option (`f ?x`) sets it too. Modules are told
apart by name only, so a name shared by two modules (the two `Registry`
and the two `Trace` modules) counts as set for both, and a function passed
as an argument (`g M.f ~x`) gets the labels after it: where in doubt, the
scan counts a knob as set. It cannot see a call through a value bound
under another name (`let f = M.g in f ~x`); give the labels at the named
call instead. A knob that no call under lib/, bin/, bench/, perfbench/ or
examples/ sets is listed, marked "test-only" (printed as information) when
a test/ file sets it and "unset" otherwise. An unset knob is a
configuration nobody runs: replace it with the constant it defaults to.

The scan fails (exit 1) if any module or unset knob is listed, if more
than MAX_VALUES values are listed, or if a listed value's doc comment in
its `.mli` has no line containing "Needed by" naming the test or tool that
keeps it exported.
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
# What precedes a name that a `let` or `and` binding defines.
DEFINED_BY = re.compile(r"\b(?:let(?:\[@[^\]]*\])?(?:\s+rec)?|and)\s+$")
# A record field named like a value: its declaration (`{ x : t;`,
# `; mutable x : t`) and its initialiser in a record literal (`{ x = e;`,
# `{ r with x = e }`), each perhaps qualified (`{ M.x = e }`), are no call.
# A `(val m : S)` unpacking is one: `val` is not a field's lead.
FIELD_DECL = (re.compile(r"(?:[{;]|\bmutable)\s*$"), re.compile(r"\s*:(?![:=])"))
FIELD_INIT = (re.compile(r"(?:[{;]|\bwith)\s*$"), re.compile(r"\s*=(?!=)"))
QUALIFIERS = re.compile(r"(?:[A-Z][A-Za-z0-9_']*\s*\.\s*)+$")


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


def library_name(lib_dir):
    with open(os.path.join(lib_dir, "dune")) as f:
        m = re.search(r"\(name\s+([a-z_0-9]+)\)", f.read())
    return m.group(1).capitalize() if m else None


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


IDENT = r"[a-z_][A-Za-z0-9_']*"
MOD = r"[A-Z][A-Za-z0-9_']*"
OPT_ARG = re.compile(r"\?(" + IDENT + r")\s*:")
SIG_OPEN = re.compile(r"\s*module\s+(" + MOD + r")\s*:\s*sig\b")
SIG_END = re.compile(r"\s*end\b")
VAL_TYPE = re.compile(r"\s*val\s+(" + IDENT + r")\s*:")
ALIAS = re.compile(r"\bmodule\s+(" + MOD + r")\s*=\s*(" + MOD
                   + r"(?:\s*\.\s*" + MOD + r")*)")
QUALIFIER = re.compile(r"(" + MOD + r")\s*\.\s*$")
TOKEN = re.compile(r"""\s*(?:
    (?P<label>[~?]""" + IDENT + r""")(?![A-Za-z0-9_'])
  | (?P<open>[(\[{]|\bbegin\b|\bstruct\b|\bsig\b|\bobject\b)
  | (?P<close>[)\]}]|\bend\b)
  | (?P<word>[A-Za-z_][A-Za-z0-9_']*|[0-9][0-9A-Za-z_.']*)
  | (?P<sym>[!$%&*+\-./:<=>?@^|~#;,`]+))""", re.X)
FUNCTOR_ARG = re.compile(r"\b" + MOD + r"\s*\(\s*(?:" + MOD + r"\s*\.\s*)*("
                         + MOD + r")\s*\)")
# Keywords that end an application at depth 0.
STOP_WORDS = {"in", "then", "else", "with", "do", "done", "let", "and",
              "when", "of", "to", "downto", "match", "if", "fun", "function",
              "or", "mod", "land", "lor", "lxor", "lsl", "lsr", "asr", "val",
              "type", "module", "open", "try", "while", "for", "include",
              "external", "exception"}
# Symbols that may sit inside one argument (`~x:r.f`, `~x:!r`, `~x:`A`).
ARG_SYMS = {".", "!", ":", "#", "`"}


def labels_after(text, i):
    """The labels of the application whose function name ends at I."""
    found, depth = set(), 0
    while True:
        m = TOKEN.match(text, i)
        if not m or m.end() == i:
            return found
        i = m.end()
        if m.group("open"):
            depth += 1
        elif m.group("close"):
            depth -= 1
            if depth < 0:
                return found
        elif depth == 0:
            if m.group("label"):
                found.add(m.group("label")[1:])
            elif m.group("word") in STOP_WORDS or (
                    m.group("sym") and m.group("sym") not in ARG_SYMS):
                return found


def item_end(lines, i):
    """The line after the last one of the signature item starting at I."""
    j = i + 1
    while j < len(lines) and not ITEM_START.match(lines[j]):
        j += 1
    return j


def declared(raw, text):
    """Yield (module, value, doc, optional arguments) for each `val` of an
    interface, given as RAW text and comment-stripped TEXT (whose lines are
    RAW's, as stripping keeps every line break). Module is the innermost
    `module M : sig` around the value, None at top level; doc is RAW from
    the declaration up to the next signature item. Arguments of a
    callback's type (inside brackets) are not the value's own."""
    raw_lines, lines = raw.split("\n"), text.split("\n")
    inner = []
    for i, line in enumerate(lines):
        m = SIG_OPEN.match(line)
        if m:
            inner.append(m.group(1))
            continue
        if SIG_END.match(line) and inner:
            inner.pop()
            continue
        m = VAL_TYPE.match(line)
        if not m:
            continue
        ty = "\n".join(lines[i:item_end(lines, i)])[m.end():]
        depth, args = 0, []
        for k, c in enumerate(ty):
            depth += (c in "([{") - (c in ")]}")
            if c == "?" and depth == 0:
                arg = OPT_ARG.match(ty, k)
                if arg:
                    args.append(arg.group(1))
        doc = "\n".join(raw_lines[i:item_end(raw_lines, i)])
        yield (inner[-1] if inner else None), m.group(1), doc, args


def calls(mod, fn, own_ml, files):
    """Yield (text, end) for each call of MOD.FN in FILES, END being where
    the function's name ends in the file's TEXT."""
    call = word(fn)
    opens = re.compile(r"\b(?:open!?|include)\s+(?:" + MOD + r"\.)*" + mod
                       + r"\b|\b" + mod + r"\.\(")
    for path, text in files.items():
        aliases = {a: p.split(".")[-1].strip() for a, p in ALIAS.findall(text)}
        sees = path == own_ml or opens.search(text)
        for m in call.finditer(text):
            before = text[max(0, m.start() - 80):m.start()]
            lead = QUALIFIERS.sub("", before)
            if any(head.search(lead) and tail.match(text, m.end())
                   for head, tail in (FIELD_DECL, FIELD_INIT)):
                continue
            q = QUALIFIER.search(before)
            if q:
                if aliases.get(q.group(1), q.group(1)) != mod:
                    continue
            elif before.rstrip().endswith(".") or not sees:
                continue
            elif DEFINED_BY.search(before):
                continue
            yield text, m.end()


def set_labels(mod, fn, own_ml, files):
    """Labels that some call of MOD.FN in FILES gives."""
    found = set()
    for text, end in calls(mod, fn, own_ml, files):
        found |= labels_after(text, end)
    return found


def scan(sources, code, tests):
    """The listed values and knobs: (mli, name, kind, documented) and
    (mli, function, argument, kind)."""
    ml_code = {p: t for p, t in code.items() if p.endswith(".ml")}
    values, knobs = [], []
    # Modules passed whole to a functor (`Hashtbl.Make (Group_id)`): the
    # functor may call any of their values.
    whole = {m for t in ml_code.values() for m in FUNCTOR_ARG.findall(t)}
    interfaces = (p for p in sources
                  if p.startswith("lib" + os.sep) and p.endswith(".mli"))
    for mli in sorted(interfaces):
        own_ml = mli[:-1]
        base = os.path.splitext(os.path.basename(mli))[0].capitalize()
        for sub, fn, doc, args in declared(sources[mli], code[mli]):
            mod = sub or base
            if mod not in whole and not any(calls(mod, fn, own_ml, ml_code)):
                tested = any(calls(mod, fn, None, tests))
                kind = "test-only" if tested else "unused"
                values.append((mli, fn, kind, NEEDED_BY in doc))
            if not args:
                continue
            live = set_labels(mod, fn, own_ml, ml_code)
            tested = set_labels(mod, fn, None, tests)
            name = "%s.%s" % (base + ("." + sub if sub else ""), fn)
            for arg in args:
                if arg not in live:
                    kind = "test-only" if arg in tested else "unset"
                    knobs.append((mli, name, arg, kind))
    return values, knobs


def main():
    if len(sys.argv) > 1:
        os.chdir(sys.argv[1])
    sources = read_tree(SOURCE_ROOTS, (".ml", ".mli"))
    code = {p: strip_comments(t) for p, t in sources.items()}
    tests = {p: strip_comments(t)
             for p, t in read_tree((TEST_ROOT,), (".ml",)).items()}
    values, knobs = scan(sources, code, tests)
    modules = scan_modules(code)
    ok = True
    for mli, name, kind, documented in values:
        note = "" if documented else "  <- no \"%s\" line" % NEEDED_BY
        print("value  %-9s %s: %s%s" % (kind, mli, name, note))
    for m in modules:
        print("module unused    %s" % m)
    for mli, name, arg, kind in knobs:
        print("knob   %-9s %s: %s ?%s" % (kind, mli, name, arg))
    test_only = sum(1 for v in values if v[2] == "test-only")
    unset = [k for k in knobs if k[3] == "unset"]
    print("%d values listed (%d test-only, %d unused), %d modules listed, "
          "%d knobs listed (%d test-only, %d unset)"
          % (len(values), test_only, len(values) - test_only, len(modules),
             len(knobs), len(knobs) - len(unset), len(unset)))
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
    if unset:
        print("::error::%d optional arguments are set by no caller; replace "
              "each with its default" % len(unset))
        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
