"""Benchmark of the hassecert certify pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  The
workloads are in workloads.py, the metric names and units in
BENCHMARK.json.  One process, one op at a time (a closed loop with a
single client), `--jobs 1` on every CLI call.

--trace 0 repeats the workload's ops in order until S seconds have passed
and at least one whole pass is done, then prints the end-to-end metrics.
The machine's speed drifts by tens of percent within seconds, so a fixed
reference computation runs for REF_BRACKET_S before and after every
timed step (each op and each set-up), never during one.  Times are
reported in seconds at reference speed: the step's measured seconds
times REF_CHUNK_S over the mean seconds of the chunks before and after
it.  The raw figures are printed beside them.
--trace 1 runs one pass in which every op runs twice back to back, once
untraced and once with boundary tracing (see tracing.py), in alternating
order.  It prints the per-layer metrics of the traced runs and the
tracing overhead, and writes the spans to .bench_out/.

Every op's output is checked; a failed check counts the op as failed and
makes the exit code 1.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = Path(".bench_out")
SETUP_REPEATS = 7
# nominal seconds of one reference chunk: about its median time on a
# 2-core x86-64 Linux machine under Python 3.11
REF_CHUNK_S = 0.04
# reference seconds before and after each step
REF_BRACKET_S = 0.15

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import COUNTS, RESULT_COUNTS, SPANS, Tracer  # noqa: E402

# ROADMAP's baseline: default grid at height 1000, and one fiber profiled
ROADMAP_STAGES = {"sieve": "< 0.001", "local certificates": "18.4",
                  "obstruction": "4.4", "curve search": "23.6",
                  "surface search": "19.3"}
ROADMAP_IS_PRIME_PER_FIBER = 7832


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def set_up(workload, seed):
    """Import hassecert afresh and generate the inputs; returns (seconds, ops)."""
    for name in [m for m in sys.modules if m == "hassecert" or m.startswith("hassecert.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("hassecert.cli")
    ops = workloads.WORKLOADS[workload](seed)
    return time.perf_counter() - start, ops


def cpu_seconds():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _reference_work():
    p, acc = 60013, 0
    for t in range(p):
        v = 0
        for c in (3, 1, 4, 1, 5):
            v = (v * t + c) % p
        acc += v
    n = 10**30 + 57
    for m in range(1, 13000):
        x = (m * m * n - 12345) * (m * n + 3)
        if x % 64 in (0, 1, 4, 9, 16, 17):
            acc += math.isqrt(x) & 1
    f = Fraction(0)
    for k in range(1, 450):
        f += Fraction(k, k * k + 1)
    return acc + f.numerator % 2


class Reference:
    """REF_BRACKET_S of chunks of a fixed mix of the program's kinds of
    work, in code the program never shares: a small-modulus polynomial
    loop, big-integer products with a square test, and Fraction sums."""

    def __init__(self):
        self.chunks, self.wall, self.cpu = 0, 0.0, 0.0
        start = time.perf_counter()
        while time.perf_counter() - start < REF_BRACKET_S:
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            _reference_work()
            self.wall += time.perf_counter() - t0
            self.cpu += cpu_seconds() - cpu0
            self.chunks += 1


def at_reference_speed(wall, cpu, *refs):
    """(wall, cpu) seconds scaled to a chunk time of REF_CHUNK_S."""
    nominal = sum(r.chunks for r in refs) * REF_CHUNK_S
    return wall * nominal / sum(r.wall for r in refs), cpu * nominal / sum(r.cpu for r in refs)


def run_op(index, op, tracer=None):
    """Time one op, then check it; returns a record dict."""
    if tracer is not None:
        tracer.op = index
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        raw, error = op.run(), None
    except Exception as e:  # noqa: BLE001 - a crashing op is a failed op
        raw, error = None, f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    if tracer is not None:
        tracer.op = None
    outcome = workloads.Outcome([error])
    if error is None:
        try:
            outcome = op.check(raw)
        except Exception as e:  # noqa: BLE001 - an unreadable output is a failure
            outcome = workloads.Outcome([f"check raised {type(e).__name__}: {e}"])
        if op.pinned and outcome.fingerprint != op.expect:
            outcome.problems.append(
                "output differs from the parent commit's recording"
                if op.expect is not None else "no recorded output to compare with")
    for problem in outcome.problems:
        print(f"FAILED {op.kind}: {problem}", file=sys.stderr)
    return {"kind": op.kind, "wall": wall, "cpu": cpu, "outcome": outcome}


class Bracketed:
    """Runs ops with reference chunks before and after each; the chunks
    after one op are also the chunks before the next."""

    def __init__(self):
        self.before = Reference()

    def run(self, index, op, tracer=None):
        r = run_op(index, op, tracer)
        after = Reference()
        r["ref_wall"], r["ref_cpu"] = at_reference_speed(
            r["wall"], r["cpu"], self.before, after)
        self.before = after
        return r


def kind_medians(records, key):
    """Each op kind's median, so that a run which repeats part of a pass
    still weighs every op of the pass once."""
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r[key])
    return [statistics.median(v) for v in by_kind.values()]


def measure(ops, seconds):
    """Ops in order until `seconds` have passed and one pass is done; adds
    each op's times at reference speed."""
    steps = Bracketed()
    records = []
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        records.append(steps.run(i, ops[i % len(ops)]))
        i += 1
    return records


def end_to_end(records, setup):
    """The end-to-end metrics, and under "raw." the same figures without
    the reference scaling, which are printed but not gated.  Times are
    taken per op kind (the median of its repeats) over one pass: ops_per_s
    is the pass's ops over its seconds, cpu_s the mean CPU seconds per op."""
    failed = sum(1 for r in records if r["outcome"].problems)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {"peak_rss_mb": rss_kb / 1024,
           "ok_frac": (len(records) - failed) / len(records)}
    for prefix, wall_key, cpu_key, setup_i in (("", "ref_wall", "ref_cpu", 1),
                                               ("raw.", "wall", "cpu", 0)):
        wall = kind_medians(records, wall_key)
        cpu = kind_medians(records, cpu_key)
        out[prefix + "setup_s"] = statistics.median(x[setup_i] for x in setup)
        out[prefix + "ops_per_s"] = len(wall) / sum(wall)
        out[prefix + "op_s_p50"] = statistics.median(wall)
        out[prefix + "cpu_s"] = sum(cpu) / len(cpu)
    return out


def per_layer(tracer, totals, records, overhead):
    self_s, incl, calls = totals
    out = dict.fromkeys(RESULT_COUNTS.values(), 0)
    for name, *_ in SPANS + COUNTS:
        out.update({name + ".s": 0.0, name + ".calls": 0, name + ".errors": 0})
    for name in incl:
        out[name + ".s"] = self_s[name]
        out[name + ".calls"] = calls[name]
    out.update(tracer.counts)
    reports = [r["outcome"].report for r in records if r["outcome"].report]
    tables = [e for rep in reports for f in rep["fibers"] if "obstruction" in f
              for e in f["obstruction"]["table"]]
    out["brauer.samples"] = sum(e["sample_count"] for e in tables)
    out["brauer.sampled_fallbacks"] = sum(e["method"] == "sampled" for e in tables)
    out["arith.factorize.unresolved"] = sum(
        len(f["local"]["critical"]["unresolved"])
        for rep in reports for f in rep["fibers"] if "local" in f)
    out["cli.report_bytes"] = sum(r["outcome"].report_bytes for r in records)
    out["trace.overhead_s"] = overhead
    return out


def print_baseline(tracer, totals):
    """The traced pass in the shape of ROADMAP's baseline table.  ROADMAP's
    numbers came from a profiler on the 16-fiber grid at height 1000;
    these come from boundary spans on this workload's inputs."""
    _, incl, calls = totals
    fibers = calls["cli.certify_fiber"]
    blanket = tracer.child_time("local.certify_all_local",
                                {"arith.count_points", "arith.sieve_primes_upto",
                                 "arith.factorize"})
    local = incl["local.certify_all_local"]
    share = f" (blanket spot-check {blanket:.3f} s, {blanket / local:.0%})" if local else ""
    rows = [
        ("sieve", incl["params.sieve_params"], ""),
        ("local certificates", local, share),
        ("obstruction", incl["brauer.obstruction_certificate"], ""),
        ("curve search", incl["search.curve_point_search"], ""),
        ("surface search", incl["search.surface_point_search"], ""),
    ]
    print("baseline  stage                 traced (s)   ROADMAP (s)")
    for stage, seconds, note in rows:
        print(f"baseline  {stage:<20}  {seconds:10.3f}   {ROADMAP_STAGES[stage]:>11}{note}")
    if fibers:
        per_fiber = tracer.counts["arith.is_prime.calls"] / fibers
        print(f"baseline  is_prime calls per fiber: {per_fiber:,.0f} over {fibers} "
              f"fibers (ROADMAP: {ROADMAP_IS_PRIME_PER_FIBER:,} for theta = 1/2 "
              "at height 1000)")


def traced_pass(ops, workload, seed):
    """One pass in which each op runs untraced and traced back to back,
    untraced first on even ops and traced first on odd ones; returns
    (records, per-layer metrics) with the metrics of the traced runs."""
    tracer = Tracer()
    steps = Bracketed()
    base, traced = [], []
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                base.append(steps.run(i, op))
                continue
            tracer.install()
            try:
                traced.append(steps.run(i, op, tracer))
            finally:
                tracer.uninstall()
    bad = tracer.check_nesting()
    if bad:
        raise RuntimeError(f"{len(bad)} spans are not nested in their parents")
    tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    untraced_s = sum(r["ref_wall"] for r in base)
    traced_s = sum(r["ref_wall"] for r in traced)
    # each op's own pair, so that the machine's drift over the pass cancels
    shares = sorted(t["ref_wall"] / u["ref_wall"] - 1 for u, t in zip(base, traced))
    overhead = statistics.median(shares) * untraced_s
    q1, _, q3 = statistics.quantiles(shares, n=4) if len(shares) > 1 else shares * 3
    print(f"trace: {len(tracer.spans)} spans; pass {traced_s:.3f} s traced, "
          f"{untraced_s:.3f} s untraced at reference speed (raw "
          f"{sum(r['wall'] for r in traced):.3f} s and {sum(r['wall'] for r in base):.3f} s)")
    if len(shares) < 4:
        verdict = "too few pairs to tell the overhead from noise"
    elif q1 <= 0 <= q3:
        verdict = "the quartiles straddle 0: within the noise of one op"
    else:
        verdict = "the quartiles lie on one side of 0"
    print(f"trace: overhead {overhead:+.3f} s per pass, the median of {len(shares)} "
          f"op pairs ({statistics.median(shares):+.1%}; quartiles {q1:+.1%} to "
          f"{q3:+.1%}); {verdict}")
    totals = tracer.totals()
    print_baseline(tracer, totals)
    return base + traced, per_layer(tracer, totals, traced, overhead)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "hassecert" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'hassecert'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    if args.workload not in workloads.SEEDED:
        print(f"{args.workload}: no input depends on the seed; seed {args.seed} "
              "changes nothing", file=sys.stderr)

    setup = []  # (raw seconds, seconds at reference speed)
    after = Reference()
    for _ in range(SETUP_REPEATS):
        before = after
        seconds, ops = set_up(args.workload, args.seed)
        after = Reference()
        setup.append((seconds, at_reference_speed(seconds, 0.0, before, after)[0]))
    import hassecert

    if not Path(hassecert.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported hassecert from {hassecert.__file__}, not ./src", file=sys.stderr)
        return 2

    if args.trace:
        records, values = traced_pass(ops, args.workload, args.seed)
        declared = spec["per_layer"]
    else:
        records = measure(ops, args.seconds)
        values = end_to_end(records, setup)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        raw = values.get("raw." + name)
        raw = f"   (raw {raw:.6g})" if raw is not None else ""
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}{raw}")
    failed = sum(1 for r in records if r["outcome"].problems)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
