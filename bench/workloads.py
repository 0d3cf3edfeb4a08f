"""The benchmark's workloads: seeded inputs, the timed operations, and the
checks that every output is correct.

A workload is a list of ops, one pass.  Each op is one unit of work timed
from outside: `run` is the timed call, `check` inspects its raw result
afterwards and returns an Outcome.  An op marked `pinned` must also
reproduce the fingerprint recorded from the parent commit in
expected.json (see record.py); a missing recording counts as a failure.

The runner imports hassecert afresh before each build, so set-up time
includes the import; hassecert is never imported here at module level.
"""

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

# every CLI report goes to this path, relative to the checkout root, so the
# output_path recorded inside the report is the same in every checkout
REPORT_PATH = ".bench_out/report.json"
GRID_HEIGHT = 100
SEARCH_HEIGHT = 1000
CONTROL_SURFACE_HEIGHT = 100


@dataclass
class Outcome:
    problems: list
    fingerprint: Any = None
    report: dict | None = None
    report_bytes: int = 0


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    pinned: bool = False
    expect: Any = field(default=None, repr=False)


def load_expected(workload):
    """The recorded fingerprints; none (so every pinned op fails) until
    record.py has written them."""
    path = Path(__file__).with_name("expected.json")
    if not path.exists():
        return {}
    return json.loads(path.read_text()).get(workload, {})


def _pin(ops, expected):
    for op in ops:
        if op.pinned:
            op.expect = expected.get(op.kind)
    return ops


# --------------------------------------------------------------------------
# input generation


def theta_key(s):
    return (1, 0) if s == "inf" else (0, Fraction(s))


def grid_thetas():
    """The README grid: 0, inf and m/n with |m| <= 3, 1 <= n <= 3."""
    vals = {Fraction(m, n) for n in range(1, 4) for m in range(-3, 4)}
    return sorted((str(v) for v in vals), key=theta_key) + ["inf"]


def height5_thetas():
    """Every theta of height max(|m|, n) <= 5, inf included: 40 values."""
    vals = {Fraction(m, n) for n in range(1, 6) for m in range(-5, 6)}
    return sorted((str(v) for v in vals), key=theta_key) + ["inf"]


# --------------------------------------------------------------------------
# report checks


def report_digest(report):
    """SHA-256 of the report without its timestamp, in the CLI's layout."""
    stable = {k: v for k, v in report.items() if k != "generated_at"}
    text = json.dumps(stable, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def fiber_problems(report, thetas):
    """Each fiber certified, invariant sum 1/2, half-valued support exactly
    at the place of a, and no rational points found."""
    problems = []
    a = report["params"]["a"]
    fibers = report["fibers"]
    if [f["theta"] for f in fibers] != thetas:
        problems.append(f"fibers {[f['theta'] for f in fibers]} != requested {thetas}")
    for f in fibers:
        t = f["theta"]
        if f.get("certified") is not True:
            problems.append(f"fiber {t} not certified at stage {f.get('stage')}: "
                            f"{f.get('error')}")
            continue
        obs = f["obstruction"]
        if obs["sum"] != "1/2":
            problems.append(f"fiber {t}: invariant sum {obs['sum']}")
        support = [e["place"] for e in obs["table"] if e["value"] == "1/2"]
        if support != [a]:
            problems.append(f"fiber {t}: half-valued support {support}, expected [{a}]")
        search = f["point_search"]
        if search["curve_points"] or search["surface_points"]:
            problems.append(f"fiber {t}: rational points found {search}")
    return problems


def _run_cli(argv):
    import hassecert.cli as cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _check_report_run(raw, thetas):
    code, err = raw
    problems = [] if code == 0 else [f"exit code {code}, expected 0: {err.strip()}"]
    path = Path(REPORT_PATH)
    data = path.read_bytes()
    path.unlink()
    report = json.loads(data)
    problems += fiber_problems(report, thetas)
    return Outcome(problems, report_digest(report), report, len(data))


# --------------------------------------------------------------------------
# point checks, independent of the program's own model code


def curve_point_problems(points, a, b, A, B, g):
    """a s^2 = b (t^(g+1) - A)(t^(g+1) - B) exactly; at infinity b/a = s^2."""
    a, b, A, B = (Fraction(x) for x in (a, b, A, B))
    bad = []
    for t, s in points:
        if t == "inf":
            ok = b / a == s * s
        else:
            tp = Fraction(t) ** (g + 1)
            ok = a * s * s == b * (tp - A) * (tp - B)
        if not ok:
            bad.append(f"({t}, {s}) is not on the curve")
    return bad


def surface_point_problems(points, a, b, A, B, C):
    """x^2 - a z^2 = -b (u - Av)(u - Bv) and x^2 - a y^2 = -a C^2 u v."""
    a, b, A, B, C = (Fraction(x) for x in (a, b, A, B, C))
    bad = []
    for x, y, z, u, v in points:
        q1 = x * x - a * z * z + b * (u - A * v) * (u - B * v)
        q2 = x * x - a * y * y + a * C * C * u * v
        if q1 != 0 or q2 != 0:
            bad.append(f"{(x, y, z, u, v)} is not on the surface")
    return bad


def _curve_fingerprint(points):
    return [[str(t), str(s)] for t, s in points]


def _surface_fingerprint(points):
    return [[str(c) for c in pt] for pt in points]


# --------------------------------------------------------------------------
# workloads


def grid_certify(seed):
    """certify-all --g 1 --h 0 through cli.main, one fiber per call.

    Seed 0 is the README grid and each report must match the parent
    commit's digest; other seeds draw 16 distinct thetas of height <= 5."""
    if seed == 0:
        thetas = grid_thetas()
    else:
        thetas = sorted(random.Random(seed).sample(height5_thetas(), 16), key=theta_key)
    ops = []
    for t in thetas:
        argv = ["certify-all", "--g", "1", "--h", "0", f"--theta={t}",
                "--height", str(GRID_HEIGHT), "--jobs", "1", "--out", REPORT_PATH]
        ops.append(Op(
            kind=f"fiber {t}",
            run=lambda argv=argv: _run_cli(argv),
            check=lambda raw, t=t: _check_report_run(raw, [t]),
            pinned=seed == 0,
        ))
    return _pin(ops, load_expected("grid-certify"))


CONTROL_CURVES = {  # (a, b, A, B, g): s^2 = (t^(g+1) - 1)(t^(g+1) - 4)
    "control curve g1": (1, 1, 1, 4, 1),
    "control curve g3": (1, 1, 1, 4, 3),
}
CONTROL_SURFACES = {  # (a, b, A, B, C), the synthetic surfaces of the test suite
    "control surface 1": (2, 1, 1, 4, 1),
    "control surface 2": (1, 1, 2, 3, 1),
}


def point_search(seed):
    """Curve and surface searches at height 1000 on 8 certified g = 1 grid
    fibers, which must come back empty, and on fixed control curves and
    surfaces, which must return exactly the parent commit's points.

    Every seed takes two fibers from each quarter of the sorted grid: the
    search cost differs from fiber to fiber by up to 1.8x, and this keeps
    the mix, and so the median, alike across seeds.  Seed 0 takes 0, 1/2,
    -3 and inf, and -1, -1/2, 1 and 2."""
    import hassecert as hc

    if seed == 0:
        thetas = ["-3", "-1", "-1/2", "0", "1/2", "1", "2", "inf"]
    else:
        grid, rng = grid_thetas(), random.Random(seed)
        thetas = [t for q in range(0, 16, 4)
                  for t in sorted(rng.sample(grid[q:q + 4], 2), key=theta_key)]
    params = hc.sieve_params(1, 0)[0]

    def empty(raw):
        return Outcome([] if raw == [] else [f"points on a certified fiber: {raw}"])

    ops = []
    for t in thetas:
        co = hc.fiber_coeffs(params, hc.Theta.parse(t))
        curve, surface = hc.build_curve(co), hc.build_surface(co)
        ops.append(Op(f"curve {t}",
                      lambda c=curve: hc.curve_point_search(c, SEARCH_HEIGHT), empty))
        ops.append(Op(f"surface {t}",
                      lambda s=surface: hc.surface_point_search(s, SEARCH_HEIGHT), empty))
    for kind, (a, b, A, B, g) in CONTROL_CURVES.items():
        curve = hc.HyperellipticCurve(a=Fraction(a), b=Fraction(b), A=Fraction(A),
                                      B=Fraction(B), genus=g)
        ops.append(Op(
            kind,
            lambda c=curve: hc.curve_point_search(c, SEARCH_HEIGHT),
            lambda raw, e=(a, b, A, B, g): Outcome(curve_point_problems(raw, *e),
                                                   _curve_fingerprint(raw)),
            pinned=True,
        ))
    for kind, (a, b, A, B, C) in CONTROL_SURFACES.items():
        surface = hc.DP4Surface(a=Fraction(a), b=Fraction(b), A=Fraction(A),
                                B=Fraction(B), C=Fraction(C), genus=1)
        ops.append(Op(
            kind,
            lambda s=surface: hc.surface_point_search(s, CONTROL_SURFACE_HEIGHT),
            lambda raw, e=(a, b, A, B, C): Outcome(surface_point_problems(raw, *e),
                                                   _surface_fingerprint(raw)),
            pinned=True,
        ))
    return _pin(ops, load_expected("point-search"))


def theta_zero(seed):
    """certify-all --mode theta-zero at g = 3 (bound 10^12, exit 0, the
    report pinned to the parent's digest) and at g = 7 (bound 10^8, exit 2
    with the parent's SieveExhausted message on slot b).  No input depends
    on the seed."""
    g3 = ["certify-all", "--g", "3", "--h", "0", "--mode", "theta-zero",
          "--bound", str(10**12), "--jobs", "1", "--out", REPORT_PATH]
    g7 = ["certify-all", "--g", "7", "--h", "0", "--mode", "theta-zero",
          "--bound", str(10**8), "--jobs", "1", "--out", REPORT_PATH]

    def refused(raw):
        code, err = raw
        problems = [] if code == 2 else [f"exit code {code}, expected 2"]
        if "slot 'b'" not in err:
            problems.append(f"no refusal on slot b: {err.strip()}")
        return Outcome(problems, err)

    ops = [
        Op("theta-zero g3", lambda: _run_cli(g3),
           lambda raw: _check_report_run(raw, ["0"]), pinned=True),
        Op("theta-zero g7", lambda: _run_cli(g7), refused, pinned=True),
    ]
    return _pin(ops, load_expected("theta-zero"))


WORKLOADS = {
    "grid-certify": grid_certify,
    "point-search": point_search,
    "theta-zero": theta_zero,
}

# the seed changes these workloads' inputs; theta-zero has none to change
SEEDED = {"grid-certify", "point-search"}

