"""Compare the reports of two source trees over a fixed certify-all set.

    python tools/sweep.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository with its program under src/.
Take the parent from git without touching the working tree, for example
`mkdir P && git archive HEAD~1 | tar -x -C P`, or `git worktree add P
HEAD~1`.  Nothing is downloaded.

The set has two parts.  The first is 145 `certify-all` reports, one
fiber each, written with --out: every theta = m/n with |m|, n <= 7, and
inf, at g = 1 with h = 0 and with h = 1 (72 fibers each), and theta = 0
at g = 3 (`--mode theta-zero --bound 10^12`).  The second is 20 runs that
print to standard output, one per subcommand and exit path (see
printed_invocations): the default g = 1 grid through every subcommand
and with one sample per place, theta = 0 at g = 5, fibers whose models
at p = a are rescaled, a point search above a that sieves the surface's
slice x1 = 1, both refusal exits (fibers that fail, and sieves exhausted
at slots b, a and d), and a parallel run.  Each call runs in a
fresh interpreter on the tree's own src/, two at a time.

`generated_at` and `output_path` are dropped from every report, and
printed output is compared as JSON when it parses.  Each report's text,
the --out file or what the call printed, is also compared byte for byte
with the lines of those two keys removed, so a change of layout alone
(indentation, key order, escapes) differs too.  The script prints the
exit codes of both trees side by side, counted by pair, each tree's
line count of src/ and their difference, and every invocation whose exit
code, standard error or report differs.  Each module of src/ whose line
count changed follows the total, as `hassecert/arith.py 852 -> 832 (-20)`.
It then counts the differing values per JSON path pattern, with each list
index written [*] and each integer key written * (for example
fibers[*].local.blanket.sample_counts.*, keyed by prime); a text that
differs where the values agree counts once under (layout).
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
DROPPED_LINES = re.compile(r'^ *"(?:generated_at|output_path)": .*\n', re.MULTILINE)
WORKERS = 2


def invocations():
    """(label, argv) of the 145 one-fiber reports, in order."""
    thetas = sorted({Fraction(m, n) for n in range(1, 8) for m in range(-7, 8)})
    out = []
    for h in (0, 1):
        for theta in [str(t) for t in thetas] + ["inf"]:
            out.append((f"g=1 h={h} theta={theta}",
                        ["certify-all", "--g", "1", "--h", str(h), f"--theta={theta}"]))
    out.append(("g=3 theta-zero", ["certify-all", "--g", "3", "--h", "0",
                                   "--mode", "theta-zero", "--bound", str(10**12)]))
    return out


def printed_invocations():
    """(label, argv) of the 20 runs that print their result, in order: the
    default g = 1 grid (h = 0, height 1000) through certify-all at one and
    two jobs and with one sample per place (the delta image alone, no
    direct draw), and through each other fiber subcommand, g = 3 theta-zero,
    g = 5 theta = 0 through certify-all (the n = 6 chart, whose
    roots mod p have d = gcd(6, p - 1) = 6, and the d = 6 count walk), four
    g = 1 fibers with a power of a = 1753 in den(theta) at h = 0 and at
    h = 1 (the rescaled models at p = a, on both branches of
    admissible_model there), g = 5 instantiate, three quadruples sieved,
    point-search at height 1800 > a = 1753 (the surfaces' slices x1 = 0
    and x1 = 1, the only CLI run that sieves a slice x1 >= 1), and the
    refusals: g = 1, h = 1 fibers that fail (exit 1), g = 7
    theta-zero, whose sieve is exhausted at slot b (exit 2), and the g = 1
    sieve at bound 1000, exhausted at slot a, and at bound 2200 with three
    quadruples asked, exhausted at slot d (exit 2 each)."""
    return [
        ("certify-all grid --jobs 1", ["certify-all", "--jobs", "1"]),
        ("certify-all grid --jobs 2", ["certify-all", "--jobs", "2"]),
        ("certify-all grid --samples 1", ["certify-all", "--samples", "1"]),
        ("certify-all g=3 theta-zero", ["certify-all", "--g", "3", "--mode", "theta-zero",
                                        "--bound", str(10**12)]),
        ("certify-all g=5 h=1 theta=0", ["certify-all", "--g", "5", "--h", "1", "--theta", "0",
                                         "--bound", str(10**24)]),
        *((f"certify-all g=1 h={h} p = a fibers",
           ["certify-all", "--h", str(h), "--theta=1/1753,3/1753,1/3073009,5/127969"])
          for h in (0, 1)),
        ("certify-all g=1 h=1 height 100 (exit 1)",
         ["certify-all", "--h", "1", "--height", "100", "--theta=-3,-1/2,1/3,2,inf"]),
        ("certify-local grid", ["certify-local"]),
        ("certify-brauer grid", ["certify-brauer"]),
        ("point-search grid", ["point-search"]),
        ("point-search theta=1/2,2 height 1800",
         ["point-search", "--theta=1/2,2", "--height", "1800"]),
        ("instantiate grid", ["instantiate"]),
        ("instantiate g=5 h=1", ["instantiate", "--g", "5", "--h", "1",
                                 "--bound", str(10**24)]),
        ("j-report grid", ["j-report"]),
        ("sieve-params --count 3", ["sieve-params", "--count", "3"]),
        ("sieve-params --bound 1000 (exit 2)", ["sieve-params", "--bound", "1000"]),
        ("sieve-params --bound 2200 --count 3 (exit 2)",
         ["sieve-params", "--bound", "2200", "--count", "3"]),
        ("certify-all g=7 theta-zero (exit 2)", ["certify-all", "--g", "7",
                                                 "--mode", "theta-zero"]),
        ("certify-brauer g=1 h=1 theta=3/2 (exit 1)",
         ["certify-brauer", "--h", "1", "--theta", "3/2"]),
    ]


def module_lines(tree):
    """Lines of each Python file under the tree's src/, keyed by its path
    there (for example hassecert/arith.py)."""
    src = Path(tree, "src")
    return {path.relative_to(src).as_posix(): len(path.read_text().splitlines())
            for path in src.rglob("*.py")}


def run(tree, argv, out_path):
    """(exit code, stderr, report or None, text) of one CLI call in tree.
    With out_path None the report is what the call printed: its JSON value,
    or the text itself when it does not parse.  text is the report's text
    (the file, or what was printed) without the lines of the dropped keys,
    or None when no file was written."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
    out = [] if out_path is None else ["--out", out_path]
    proc = subprocess.run([sys.executable, "-m", "hassecert.cli", *argv, *out],
                          cwd=tree, env=env, capture_output=True, text=True)
    if out_path is None:
        text = proc.stdout
    else:
        text = Path(out_path).read_text() if os.path.exists(out_path) else None
    try:
        report = json.loads(text) if text else None
    except ValueError:
        report = text
    return proc.returncode, proc.stderr, report, text and DROPPED_LINES.sub("", text)


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
    """For each invocation, reports first: (label, per tree (exit code,
    stderr, report))."""
    calls = [(label, argv, True) for label, argv in invocations()]
    calls += [(label, argv, False) for label, argv in printed_invocations()]
    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        futures = [[pool.submit(run, tree, argv,
                                os.path.join(tmp, f"{t}-{i}.json") if to_file else None)
                    for t, tree in enumerate(trees)]
                   for i, (_, argv, to_file) in enumerate(calls)]
        return [(label, [f.result() for f in row])
                for (label, _, _), row in zip(calls, futures)]


def _change(old, new):
    return f"{old} -> {new} ({new - old:+d})"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the parent's source tree")
    ap.add_argument("change", help="the change's source tree")
    args = ap.parse_args(argv)
    results = sweep([args.parent, args.change])
    exits, patterns, differing = Counter(), Counter(), 0
    for label, ((code0, err0, rep0, text0), (code1, err1, rep1, text1)) in results:
        exits[code0, code1] += 1
        found = differing_patterns(rep0, rep1)
        if text0 != text1 and not found:
            found["(layout)"] += 1
        if err0 != err1:
            found["(stderr)"] += 1
        if code0 != code1 or found:
            differing += 1
            print(f"differs: {label}: exit {code0} -> {code1}, "
                  f"{sum(found.values())} values")
        patterns.update(found)
    print(f"{len(results)} invocations ({len(invocations())} reports, "
          f"{len(printed_invocations())} printed), {differing} differ")
    print("exit codes, parent -> change: " + ", ".join(
        f"{a} -> {b}: {n}" for (a, b), n in sorted(exits.items())))
    lines = [module_lines(tree) for tree in (args.parent, args.change)]
    print("src/ lines, parent -> change: " + _change(*(sum(m.values()) for m in lines)))
    for name in sorted(lines[0].keys() | lines[1].keys()):
        old, new = (m.get(name, 0) for m in lines)
        if old != new:
            print(f"  {name} {_change(old, new)}")
    for name, n in sorted(patterns.items()):
        print(f"  {n:6d}  {name}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
