"""Compare the reports of two source trees over a fixed certify-all set.

    python tools/sweep.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository with its program under src/.
Take the parent from git without touching the working tree, for example
`mkdir P && git archive HEAD~1 | tar -x -C P`, or `git worktree add P
HEAD~1`.  Nothing is downloaded.

The set is 145 `certify-all` reports, one fiber each: every theta = m/n
with |m|, n <= 7, and inf, at g = 1 with h = 0 and with h = 1 (72 fibers
each), and theta = 0 at g = 3 (`--mode theta-zero --bound 10^12`).  Each
report runs in a fresh interpreter on the tree's own src/, two at a time.

`generated_at` and `output_path` are dropped from every report.  The
script prints the exit codes of both trees side by side, counted by pair,
and every invocation whose exit code, standard error or report differs.
It then counts the differing values per JSON path pattern, with each list
index written [*] and each integer key written * (for example
fibers[*].local.blanket.sample_counts.*, keyed by prime).
A path present on one side only counts as differing.  The exit code is 0
when nothing differs and 1 otherwise.
"""

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

DROPPED = {"generated_at", "output_path"}
WORKERS = 2


def invocations():
    """(label, argv) of the fixed set, in order."""
    thetas = sorted({Fraction(m, n) for n in range(1, 8) for m in range(-7, 8)})
    out = []
    for h in (0, 1):
        for theta in [str(t) for t in thetas] + ["inf"]:
            out.append((f"g=1 h={h} theta={theta}",
                        ["certify-all", "--g", "1", "--h", str(h), f"--theta={theta}"]))
    out.append(("g=3 theta-zero", ["certify-all", "--g", "3", "--h", "0",
                                   "--mode", "theta-zero", "--bound", str(10**12)]))
    return out


def run(tree, argv, out_path):
    """(exit code, stderr, report or None) of one CLI call in tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
    proc = subprocess.run([sys.executable, "-m", "hassecert.cli", *argv, "--out", out_path],
                          cwd=tree, env=env, capture_output=True, text=True)
    report = json.loads(Path(out_path).read_text()) if os.path.exists(out_path) else None
    return proc.returncode, proc.stderr, report


def flatten(obj, path=""):
    """(path, value) for every leaf of a JSON value, without the dropped keys."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key not in DROPPED:
                yield from flatten(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from flatten(value, f"{path}[{i}]")
    else:
        yield path, obj


def pattern(path):
    """The path with each list index written [*], and each key that is an
    integer, such as a prime, written *."""
    path = re.sub(r"\[\d+\]", "[*]", path)
    return re.sub(r"(^|\.)-?\d+(?=$|[.[])", r"\1*", path)


def differing_patterns(old, new):
    """Counter of path patterns over the leaves where two reports differ."""
    old, new = dict(flatten(old)), dict(flatten(new))
    missing = object()
    return Counter(pattern(path) for path in old.keys() | new.keys()
                   if old.get(path, missing) != new.get(path, missing))


def sweep(trees):
    """For each invocation: (label, per tree (exit code, stderr, report))."""
    calls = invocations()
    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        futures = [[pool.submit(run, tree, argv, os.path.join(tmp, f"{t}-{i}.json"))
                    for t, tree in enumerate(trees)] for i, (_, argv) in enumerate(calls)]
        return [(label, [f.result() for f in row])
                for (label, _), row in zip(calls, futures)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the parent's source tree")
    ap.add_argument("change", help="the change's source tree")
    args = ap.parse_args(argv)
    results = sweep([args.parent, args.change])
    exits, patterns, differing = Counter(), Counter(), 0
    for label, ((code0, err0, rep0), (code1, err1, rep1)) in results:
        exits[code0, code1] += 1
        found = differing_patterns(rep0, rep1)
        if err0 != err1:
            found["(stderr)"] += 1
        if code0 != code1 or found:
            differing += 1
            print(f"differs: {label}: exit {code0} -> {code1}, "
                  f"{sum(found.values())} values")
        patterns.update(found)
    print(f"{len(results)} invocations, {differing} differ")
    print("exit codes, parent -> change: " + ", ".join(
        f"{a} -> {b}: {n}" for (a, b), n in sorted(exits.items())))
    for name, n in sorted(patterns.items()):
        print(f"  {n:6d}  {name}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
