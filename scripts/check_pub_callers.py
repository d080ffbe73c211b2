#!/usr/bin/env python3
"""List the public items of the workspace crates that nothing calls.

    scripts/check_pub_callers.py

Scans the repo the script sits in, from any working directory: the
non-test part of every `crates/*/src` and `shims/*/src` file for
`pub fn/struct/enum/const/static/type/trait` items. An item has
a caller when its name appears, as a whole word on a line that is not a
`//` comment, on some other `.rs` line under `crates/`, `shims/`,
`src/`, `tests/`, `examples/`, `perfbench/src` or `perfbench/tests`.
Lines in the item's own file's `#[cfg(test)]` tail do not count, so an
item only its own unit tests call has none. Prints one
`path:line: kind name` line per uncalled item and exits 1 if there is
any; prints nothing and exits 0 otherwise.

The match is by name, not by path: a caller of another item with the
same name counts. The check is a floor against dead public API, not a
resolver.
"""
import collections
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ["crates", "shims", "src", "tests", "examples", "perfbench/src", "perfbench/tests"]
ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async)\s+)*"
    r"(fn|struct|enum|const|static|type|trait)\s+(?:mut\s+)?([A-Za-z_][A-Za-z0-9_]*)"
)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def rust_files():
    for top in SCAN_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d != "target"]
            for name in filenames:
                if name.endswith(".rs"):
                    yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def test_tail_start(lines):
    """Index of the first `#[cfg(test)]` that opens a module (the file's
    test tail), or len(lines). A `#[cfg(test)]` on a single helper item
    further up does not start the tail."""
    for i, line in enumerate(lines):
        if line.strip() == "#[cfg(test)]":
            following = next((l.strip() for l in lines[i + 1 :] if l.strip()), "")
            if following.startswith(("mod ", "pub mod ")):
                return i
    return len(lines)


def is_source(path):
    parts = path.split(os.sep)
    return len(parts) >= 3 and parts[0] in ("crates", "shims") and parts[2] == "src"


def main():
    items = []  # (path, line index, kind, name)
    # name -> {(path, line index, in the file's test tail)} of every use
    uses = collections.defaultdict(set)
    for path in sorted(rust_files()):
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            lines = f.read().splitlines()
        tail = test_tail_start(lines)
        for i, line in enumerate(lines):
            if line.lstrip().startswith("//"):
                continue
            for word in set(WORD.findall(line)):
                uses[word].add((path, i, i >= tail))
            m = ITEM.match(line)
            if m and i < tail and is_source(path):
                items.append((path, i, m.group(1), m.group(2)))
    uncalled = [
        (path, i, kind, name)
        for path, i, kind, name in items
        if not any(p != path or (j != i and not in_tail) for p, j, in_tail in uses[name])
    ]
    for path, i, kind, name in uncalled:
        print(f"{path}:{i + 1}: {kind} {name}")
    return 1 if uncalled else 0


if __name__ == "__main__":
    sys.exit(main())
