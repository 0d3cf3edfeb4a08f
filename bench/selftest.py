"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

Runs run.main on small subsets of the real workloads, once clean and once
with each of three tamperings: a report digest that no longer matches the
parent commit's, a control search that returns an extra point, and one
that loses a point.  Each tampering must count its op as failed (ok_frac
below 1, so a failed share above 0) and make the exit code nonzero; the
clean run must pass.  Takes about ten seconds.
"""

import contextlib
import io
import json
import sys

import run
import workloads

BUILDERS = dict(workloads.WORKLOADS)


def subset(workload, kinds, tamper=None):
    """A builder for `workload` keeping only the named ops, with `tamper`
    applied to each kept op."""
    def build(seed):
        ops = [op for op in BUILDERS[workload](seed) if op.kind in kinds]
        for op in ops:
            if tamper:
                tamper(op)
        return ops
    return build


def wrong_digest(op):
    op.expect = "0" * 64


def extra_point(op):
    search = op.run
    op.run = lambda: search() + [(99, 1, 1, 1, 1)]


def missing_point(op):
    search = op.run
    op.run = lambda: search()[:-1]


CASES = [
    # (label, workload, kinds, tamper, should pass)
    ("clean", "point-search", {"control surface 1"}, None, True),
    ("tampered report digest", "grid-certify", {"fiber 0"}, wrong_digest, False),
    ("extra control point", "point-search", {"control surface 1"}, extra_point, False),
    ("missing control point", "point-search", {"control surface 1"}, missing_point, False),
]


def main():
    bad = []
    for label, workload, kinds, tamper, should_pass in CASES:
        workloads.WORKLOADS[workload] = subset(workload, kinds, tamper)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", workload, "--seed", "0",
                                 "--seconds", "0", "--trace", "0"])
        finally:
            workloads.WORKLOADS[workload] = BUILDERS[workload]
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        failed_frac = 1 - result["metrics"]["ok_frac"]["value"]
        passed = code == 0 and result["correct"] and result["failed"] == 0
        ok = passed if should_pass else (code != 0 and not result["correct"]
                                         and result["failed"] >= 1 and failed_frac > 0)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: exit {code}, "
              f"failed {result['failed']} of {result['attempted']}, "
              f"failed share {failed_frac:.2f}")
        if not ok:
            bad.append(label)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
