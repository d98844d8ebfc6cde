#!/usr/bin/env python3
"""Compare a fresh `wt_experiments --json all` run against the golden file.

Both files hold one JSON document per line. Integers, strings, booleans and
nulls must match exactly; floats must agree within 1e-12 relative, which
absorbs last-digit differences in the maths library across machines.

Usage: compare.py GOLDEN FRESH
Regenerate the golden file (for a change meant to move numbers) with
    ./target/release/wt_experiments --threads 2 --json all > tests/golden/wt_experiments_all.json
"""

import json
import sys

REL_TOL = 1e-12


def documents(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def diff(golden, fresh, path, out):
    if type(golden) is not type(fresh):
        out.append(f"{path}: type {type(golden).__name__} != {type(fresh).__name__}")
    elif isinstance(golden, dict):
        if golden.keys() != fresh.keys():
            out.append(f"{path}: keys {sorted(golden)} != {sorted(fresh)}")
        else:
            for key in golden:
                diff(golden[key], fresh[key], f"{path}.{key}", out)
    elif isinstance(golden, list):
        if len(golden) != len(fresh):
            out.append(f"{path}: length {len(golden)} != {len(fresh)}")
        else:
            for i, (g, f) in enumerate(zip(golden, fresh)):
                diff(g, f, f"{path}[{i}]", out)
    elif isinstance(golden, float):
        if abs(golden - fresh) > REL_TOL * max(abs(golden), abs(fresh)):
            out.append(f"{path}: {golden!r} != {fresh!r}")
    elif golden != fresh:
        out.append(f"{path}: {golden!r} != {fresh!r}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    golden, fresh = documents(sys.argv[1]), documents(sys.argv[2])
    out = []
    if len(golden) != len(fresh):
        out.append(f"document count {len(golden)} != {len(fresh)}")
    for i, (g, f) in enumerate(zip(golden, fresh)):
        diff(g, f, f"[{i}]", out)
    for line in out[:50]:
        print(line)
    if out:
        sys.exit(f"{len(out)} difference(s) from {sys.argv[1]}")
    print(f"{len(golden)} documents match {sys.argv[1]}")


if __name__ == "__main__":
    main()
