#!/usr/bin/env python3
"""Determinism lint for the bit-exactness-critical directories.

The engine/sim/store/recovery stack promises bit-identical results for any
worker count, lane kernel or scalar reference path, shard split, or
kill/resume schedule (see docs/engine.md and docs/store.md). That contract dies quietly the moment
a source file reaches for ambient nondeterminism, so this lint bans it at
review time instead of debugging it at merge time:

  rand              libc rand() — global hidden state, seeding unclear
  srand             seeding the banned libc generator
  time              time() — wall-clock input to any computation
  wall-clock        system_clock / gettimeofday / clock_gettime / localtime /
                    gmtime — timestamps vary per run and per host
  random-device     std::random_device — explicitly nondeterministic
  unseeded-rng      constructing a std RNG engine without an explicit seed
  unordered-iteration  range-for over a std::unordered_{map,set} variable —
                    iteration order is libc++/libstdc++- and salt-dependent,
                    so any counter or output fed from it diverges across
                    builds

Intentional exceptions carry a justification on the flagged line (or the line
above):

    const auto deadline = now();  // lint:allow(wall-clock) progress UI only

Exit status: 0 clean, 1 violations, 2 usage error. Run with no arguments from
the repo root to lint the default directories; pass explicit files (the
self-test does) to lint just those.
"""

import os
import re
import sys

DEFAULT_DIRS = ("src/engine", "src/sim", "src/store", "src/recovery",
                "src/orchestrate")
SOURCE_EXTENSIONS = (".h", ".cc")

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# (rule, regex, message). Patterns run on comment-stripped lines.
LINE_RULES = (
    ("rand", re.compile(r"(?<![\w:.])rand\s*\("),
     "libc rand() is banned: hidden global state, unspecified sequence"),
    ("srand", re.compile(r"(?<![\w:.])srand\s*\("),
     "srand() seeds the banned libc generator"),
    ("time", re.compile(r"(?<![\w:.])time\s*\("),
     "time() feeds wall-clock into the computation"),
    ("wall-clock",
     re.compile(r"system_clock|gettimeofday|clock_gettime|"
                r"(?<![\w:.])(?:localtime|gmtime)\s*\("),
     "wall-clock reads vary per run/host; derive everything from the seed "
     "(steady_clock is fine for measuring durations)"),
    ("random-device", re.compile(r"std::random_device"),
     "std::random_device is nondeterministic by definition"),
    ("unseeded-rng",
     re.compile(r"std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
                r"ranlux(?:24|48)(?:_base)?|knuth_b)\s+\w+\s*(?:;|\{\s*\})"),
     "std RNG engine constructed without an explicit seed"),
)

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)")
RANGE_FOR_RE = re.compile(r"for\s*\([^;:)]*:\s*(\w+)\s*\)")


def strip_comments_and_strings(line):
    """Blanks string/char literals and // comments so rules match only code.

    Keeps column positions stable (replacement preserves length). Block
    comments are not handled line-spanningly; repo style is // comments.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if ch in "\"'":
            quote = ch
            out.append(" ")
            i += 1
            while i < n and line[i] != quote:
                step = 2 if line[i] == "\\" else 1
                out.append(" " * min(step, n - i))
                i += step
            if i < n:
                out.append(" ")
                i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def allowed_rules(raw_lines, index):
    """Rules suppressed on line `index` via lint:allow on it or the line above."""
    rules = set()
    for look in (index, index - 1):
        if look < 0:
            continue
        match = ALLOW_RE.search(raw_lines[look])
        if match:
            rules.update(r.strip() for r in match.group(1).split(","))
    return rules


def lint_file(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            raw_lines = handle.read().splitlines()
    except OSError as error:
        return [(path, 0, "io", str(error))]

    violations = []
    code_lines = [strip_comments_and_strings(line) for line in raw_lines]

    unordered_vars = set()
    for code in code_lines:
        for match in UNORDERED_DECL_RE.finditer(code):
            unordered_vars.add(match.group(1))

    for index, code in enumerate(code_lines):
        allowed = allowed_rules(raw_lines, index)
        for rule, pattern, message in LINE_RULES:
            if pattern.search(code) and rule not in allowed:
                violations.append((path, index + 1, rule, message))
        if "unordered-iteration" not in allowed:
            for match in RANGE_FOR_RE.finditer(code):
                if match.group(1) in unordered_vars:
                    violations.append(
                        (path, index + 1, "unordered-iteration",
                         "iterating a std::unordered_* container; order is "
                         "implementation-dependent — sort keys first if the "
                         "result feeds counters or output"))
    return violations


def collect_targets(arguments, root):
    if arguments:
        return arguments
    targets = []
    for directory in DEFAULT_DIRS:
        base = os.path.join(root, directory)
        if not os.path.isdir(base):
            print(f"lint_invariants: missing directory {base}", file=sys.stderr)
            sys.exit(2)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    targets.append(os.path.join(dirpath, name))
    return sorted(targets)


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    targets = collect_targets(argv[1:], root)
    violations = []
    for path in targets:
        violations.extend(lint_file(path))
    for path, line, rule, message in violations:
        print(f"{path}:{line}: [{rule}] {message}")
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s) in "
              f"{len(targets)} file(s); suppress intentional ones with "
              f"// lint:allow(<rule>)", file=sys.stderr)
        return 1
    print(f"lint_invariants: {len(targets)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
