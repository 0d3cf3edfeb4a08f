"""Command-line orchestration: parameter search, fiber certification,
point searches, j-invariant reports, and JSON I/O.

Every integer in the JSON surfaces is a decimal string, so reports survive
consumers with 64-bit integer parsers, except two small counts written as
JSON integers: the obstruction table's sample_count and the values of the
local blanket's sample_counts.  Reports are byte-stable across runs up to
the generated_at timestamp.
"""

import argparse
import concurrent.futures
import contextlib
import datetime
import functools
import json
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii

from . import __version__ as VERSION
from .arith import is_prime
from .brauer import obstruction_certificate
from .family import (
    Theta,
    build_curve,
    build_surface,
    check_nonvanishing,
    check_smooth_curve,
    check_smooth_surface,
    fiber_coeffs,
    frac_str,
    j_invariant,
)
from .local import certify_all_local
from .params import (ParamSet, SieveExhausted, full_family, json_int, json_keys,
                     json_typed, sieve_params, verify_conditions)
from .search import curve_point_search, surface_point_search

EXIT_OK = 0
EXIT_CERTIFICATION_FAILED = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


class RunRefused(Exception):
    """A run that ends without a report: exit 1 with one line on stderr."""


def default_theta_grid(num_max=3, den_max=3, include_zero=True,
                       include_infinity=True):
    """Every m/n with 0 < |m| <= num_max and 1 <= n <= den_max, plus 0 and
    inf unless excluded; sorted, inf last."""
    out = {Theta.of(m, n) for n in range(1, den_max + 1)
           for m in range(-num_max, num_max + 1) if m != 0}
    if include_zero:
        out.add(Theta.of(0))
    if include_infinity:
        out.add(Theta.infinity())
    return sorted(out, key=_theta_key)


def _theta_key(theta):
    if theta.is_infinity:
        return (1, 0, 0)
    return (0, theta.value, theta.value.denominator)


# Each integer setting of a run: its RunConfig field, which is also its
# config key, its flag, its least value and its help text.
Setting = namedtuple("Setting", "field flag least help")
SETTINGS = (
    Setting("g", "--g", 1, "curve genus, odd"),
    Setting("h", "--h", 0, "family exponent h"),
    Setting("height_bound", "--height", 1, "point-search height bound"),
    Setting("sample_count", "--samples", 1, "sampled points per place"),
    Setting("parallelism", "--jobs", 1, "worker processes"),
    Setting("sieve_bound", "--bound", 1, "sieve magnitude bound per slot"),
    Setting("sieve_count", "--count", 1, "number of quadruples to sieve"),
)


@dataclass
class RunConfig:
    g: int = 1
    h: int = 0
    mode: str = "full"  # "full" | "theta-zero"
    theta_list: list | None = None  # None: the mode's default thetas
    params: ParamSet | None = None
    sieve_bound: int = 10**7
    sieve_count: int = 1
    height_bound: int = 1000
    sample_count: int = 10
    parallelism: int = 1
    output_path: str | None = None

    def validate(self):
        if self.g < 1 or self.g % 2 == 0:
            raise ConfigError(f"g must be an odd positive integer, got {self.g}")
        for s in SETTINGS:
            if getattr(self, s.field) < s.least:
                raise ConfigError(f"{s.field} ({s.flag}) must be >= {s.least}, "
                                  f"got {getattr(self, s.field)}")
        if self.mode not in ("full", "theta-zero"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.theta_list is None:
            self.theta_list = (
                default_theta_grid() if self.mode == "full" else [Theta.of(0)]
            )
        if not self.theta_list:
            raise ConfigError("theta_list is empty")
        if self.mode == "full":
            if not full_family(self.g, self.h):
                raise ConfigError(
                    f"full-family mode needs (g+1) | (4h+2); got g={self.g}, h={self.h}"
                )
        else:
            nonzero = [t for t in self.theta_list if t.is_infinity or t.value != 0]
            if nonzero:
                raise ConfigError(
                    "theta-zero mode certifies only the fiber at 0; "
                    f"drop {[str(t) for t in nonzero]}"
                )
        return self

    @classmethod
    def from_json(cls, obj):
        """The config of a JSON object.  Each key must be known, theta_list
        and theta_grid exclude each other, and a theta_grid must give a
        theta (validate refuses an empty theta_list)."""
        json_keys(json_typed(obj, dict, "config"), CONFIG_KEYS, "config")
        cfg = cls()
        if "theta_list" in obj and "theta_grid" in obj:
            raise ValueError("theta_list and theta_grid exclude each other")
        if "theta_list" in obj:
            cfg.theta_list = [Theta.parse(json_typed(s, str, "theta_list entry"))
                              for s in json_typed(obj["theta_list"], list, "theta_list")]
        elif "theta_grid" in obj:
            spec = json_keys(json_typed(obj["theta_grid"], dict, "theta_grid"),
                             ("num_max", "den_max", "include_zero", "include_infinity"),
                             "theta_grid")
            num_max = json_int(spec.get("num_max", 3), "num_max")
            den_max = json_int(spec.get("den_max", 3), "den_max")
            if num_max < 0:
                raise ValueError(f"num_max must be >= 0, got {num_max}")
            if den_max < 1:
                raise ValueError(f"den_max must be >= 1, got {den_max}")
            cfg.theta_list = default_theta_grid(
                num_max, den_max,
                json_typed(spec.get("include_zero", True), bool, "include_zero"),
                json_typed(spec.get("include_infinity", True), bool, "include_infinity"))
            if not cfg.theta_list:
                raise ValueError("theta_grid gives no theta")
        if obj.get("params") is not None:
            cfg.params = ParamSet.from_json(json_typed(obj["params"], dict, "params"))
        for s in SETTINGS:
            if s.field in obj:
                setattr(cfg, s.field, json_int(obj[s.field], s.field))
        if "mode" in obj:
            cfg.mode = obj["mode"]
        if obj.get("output_path") is not None:
            cfg.output_path = json_typed(obj["output_path"], str, "output_path")
        return cfg

    def to_json(self):
        return {
            **{s.field: str(getattr(self, s.field)) for s in SETTINGS},
            "mode": self.mode,
            "theta_list": [str(t) for t in self.theta_list],
            "params": self.params.to_json() if self.params else None,
            "output_path": self.output_path,
        }


# a config file's keys: RunConfig's fields, and theta_grid for theta_list
CONFIG_KEYS = (*(f.name for f in fields(RunConfig)), "theta_grid")


def resolve_params(config):
    """The config's params, verified and for the run's g and h, or else the
    first sieved quadruple."""
    ps = config.params
    if ps is None:
        return sieve_params(config.g, config.h, bound=config.sieve_bound, count=1)[0]
    if (ps.g, ps.h) != (config.g, config.h):
        raise ConfigError(f"params are for g = {ps.g}, h = {ps.h}, "
                          f"but the run is for g = {config.g}, h = {config.h}")
    report = verify_conditions(ps)
    if not report.ok:
        raise ConfigError(f"explicit parameters fail verification: {report.failures()}")
    return ps


# The stages certify_fiber runs after build, nonvanishing and smoothness,
# keyed by subcommand.  Each stage subcommand prints one entry of the fiber
# record, named in SECTIONS; instantiate prints the "fiber" entry and
# j-report the "j_invariant" one.
STAGES = {
    "instantiate": (),
    "certify-local": ("local",),
    "certify-brauer": ("local", "brauer"),
    "certify-all": ("local", "brauer", "search", "j"),
    "point-search": ("search",),
    "j-report": ("j",),
}
SECTIONS = {
    "certify-local": "local",
    "certify-brauer": "obstruction",
    "point-search": "point_search",
}


@functools.cache
def _composite_slot(params):
    """The first slot of params, a to d or an omega0 entry, that is not a
    prime, as certify_fiber names it, or None.  Cached, so the fibers of
    one quadruple prove its primes once."""
    for slot, q in (*((f"parameter {s} =", getattr(params, s)) for s in "abcd"),
                    *(("omega0 entry", q) for q in params.omega0)):
        if q < 2 or not is_prime(q):
            return f"{slot} {q}"
    return None


def certify_fiber(params, theta, height_bound=1000, sample_count=10,
                  stages=STAGES["certify-all"]):
    """The per-fiber pipeline: build, nonvanishing, smoothness, then the
    given stages in order (local certificates, obstruction certificate,
    point searches, j-invariant).  A failed stage aborts the fiber (never
    the run) with the stage named; stage "done" means every stage passed.
    A caller's error raises before any stage runs: TypeError on a theta
    that is not a Theta, and ValueError naming the first slot, a to d or an
    omega0 entry, that is not a prime."""
    if not isinstance(theta, Theta):
        raise TypeError(f"theta must be a Theta, not {type(theta).__name__}")
    composite = _composite_slot(params)
    if composite:
        raise ValueError(f"{composite} is not prime")
    out = {"theta": str(theta), "certified": False, "stage": None}
    try:
        stage = "build"
        coeffs = fiber_coeffs(params, theta)
        out["fiber"] = coeffs.to_json()
        stage = "nonvanishing"
        check_nonvanishing(coeffs)
        curve = build_curve(coeffs)
        surface = build_surface(coeffs)
        stage = "smoothness"
        if not check_smooth_curve(curve):
            raise ArithmeticError("curve smoothness check failed")
        if not check_smooth_surface(surface):
            raise ArithmeticError("surface smoothness check failed")
        if "local" in stages:
            stage = "local-solvability"
            local = certify_all_local(curve)
            out["local"] = local.to_json()
            if not local.solvable_everywhere:
                raise ArithmeticError(f"local certification failed: {local.failures}")
        if "brauer" in stages:
            stage = "brauer-obstruction"
            obs = obstruction_certificate(surface, local, samples=sample_count)
            out["obstruction"] = obs.to_json()
            if not obs.conclusion:
                raise ArithmeticError(f"obstruction certificate incomplete: {obs.notes}")
        if "search" in stages:
            stage = "point-search"
            curve_pts = curve_point_search(curve, height_bound)
            surf_pts = surface_point_search(surface, height_bound)
            out["point_search"] = {
                "height": str(height_bound),
                "curve_points": [[str(t), frac_str(s)] for t, s in curve_pts],
                "surface_points": [[str(c) for c in pt] for pt in surf_pts],
            }
            if (curve_pts or surf_pts) and "brauer" in stages:
                raise ArithmeticError(
                    "rational points found on a certified fiber: the certificate is wrong"
                )
        if "j" in stages and params.g == 1:
            stage = "j-invariant"
            out["j_invariant"] = frac_str(j_invariant(coeffs))
        out["certified"] = True
        out["stage"] = "done"
    except Exception as e:  # noqa: BLE001 - the fiber report carries the reason
        out["stage"] = stage
        out["error"] = str(e)
    return out


def _certify_fibers(config, command):
    """The validated config's params, and one certify_fiber record per theta
    of the config, in order, with the subcommand's stages.

    Each distinct fiber is certified once, failed or not.  A finite theta
    enters its fiber only through X = a^(2h+1) theta^(g+1), so thetas with
    equal theta^(g+1) (theta and -theta at odd g) share A, B, C, D,
    den(theta) and every stage's work; inf is a key of its own.  Later
    thetas of a fiber get a copy of its first theta's record, theta fields
    rewritten.  No other field names theta: only NonvanishingError does, on
    C = 0 or D = 0, that is a^(2h+1) theta^(g+1) or (ab)^(2h+1) theta^(g+1)
    = 1, and on the quadruple resolve_params verifies both have odd
    valuation at the prime a (theta^(g+1) is a square)."""
    config.validate()
    params = resolve_params(config)
    task = functools.partial(certify_fiber, params, height_bound=config.height_bound,
                             sample_count=config.sample_count, stages=STAGES[command])
    thetas = config.theta_list
    first = {}
    rep = [first.setdefault(None if t.is_infinity else t.value ** (params.g + 1), i)
           for i, t in enumerate(thetas)]
    with _mapper(config.parallelism) as run:
        records = dict(zip(first.values(), run(task, [thetas[i] for i in first.values()])))
    return params, [records.get(i) or _retheta(records[r], thetas[i]) for i, r in enumerate(rep)]


@contextlib.contextmanager
def _mapper(jobs):
    """map, or a pool of jobs worker processes' map when jobs > 1."""
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(jobs) as pool:
            yield pool.map
    else:
        yield map


def _retheta(record, theta):
    """A fiber's record as the record of theta, another theta of the same
    fiber: theta, fiber.theta and obstruction.fiber.theta rewritten."""
    out = {**record, "theta": str(theta),
           "fiber": {**record["fiber"], "theta": theta.to_json()}}
    if "obstruction" in record:
        obs = record["obstruction"]
        out["obstruction"] = {**obs, "fiber": {**obs["fiber"], "theta": theta.to_json()}}
    return out


def run_certify(config):
    """Certify every fiber in the theta list; returns the report dict."""
    params, fibers = _certify_fibers(config, "certify-all")
    certified = sum(1 for f in fibers if f["certified"])
    return {
        "tool": "hassecert",
        "version": VERSION,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config.to_json(),
        "params": params.to_json(),
        "fibers": fibers,
        "summary": {
            "total": len(fibers),
            "certified": certified,
            "failed": len(fibers) - certified,
        },
    }


def report_j_invariants(config):
    """theta -> j table for genus 1, read off the fiber records.  Distinct
    fibers that all share one j are refused; theta and -theta give one
    fiber, since it depends on theta only through theta^(g+1)."""
    if config.g != 1:
        raise ConfigError("j-invariant reports need g = 1")
    params, fibers = _certify_fibers(config, "j-report")
    for f in fibers:
        if f["stage"] != "done":
            raise RunRefused(f"fiber {f['theta']} failed at stage {f['stage']}: {f['error']}")
    j_of_fiber = {tuple(f["fiber"]["coeffs"].values()): f["j_invariant"] for f in fibers}
    if len(j_of_fiber) >= 2 and len(set(j_of_fiber.values())) < 2:
        raise RunRefused(f"j-invariant failed to separate {len(j_of_fiber)} distinct fibers")
    rows = [{"theta": f["theta"], "j": f["j_invariant"]} for f in fibers]
    return {"params": params.to_json(), "rows": rows}


# --------------------------------------------------------------------------
# argument parsing


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--theta", action="append",
                    help="fiber parameter: m/n, inf or 0 (repeatable)")
    for s in SETTINGS:
        sp.add_argument(s.flag, type=int, dest=s.field, metavar=s.flag[2:].upper(),
                        help=s.help)
    sp.add_argument("--mode", choices=["full", "theta-zero"])
    sp.add_argument("--out", dest="output_path", metavar="PATH",
                    help="output path for the JSON report")


def _config_from_args(args):
    cfg = RunConfig()
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = RunConfig.from_json(json.load(fh))
        if args.theta:
            cfg.theta_list = [Theta.parse(x) for chunk in args.theta
                              for x in chunk.split(",")]
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"malformed input ({type(e).__name__}): {e}") from None
    for key in [s.field for s in SETTINGS] + ["mode", "output_path"]:
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg


def _check_writable(path):
    """Refuse an output path that cannot be written before any work runs.
    The probe opens it for appending, which changes no file, and removes
    a file it created, so a later refusal leaves nothing behind."""
    if not path:
        return
    existed = os.path.exists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as e:
        raise ConfigError(f"cannot write the output file: {e}") from None
    if not existed:
        os.remove(path)


def _json_text(value, indent="\n"):
    """json.dumps(value, indent=2, sort_keys=True) on the report's types:
    str, int, bool, None, lists, and dicts with str keys.  Any other value,
    a float or a subclass of str included, raises TypeError, and so does a
    key that is not a str or a subclass of one.  indent is the newline and
    indentation before the closing bracket."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if type(value) is dict:
        items = [encode_basestring_ascii(key) + ": " + _json_text(value[key], inner)
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if type(value) is list:
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    if type(value) is int:
        return str(value)
    raise TypeError(f"not a report value: {value!r}")


def _emit(payload, path):
    text = _json_text(payload)
    if not path:
        print(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as e:
        raise ConfigError(f"cannot write the output file: {e}") from None


@functools.cache
def _parser():
    """The argument parser, built once per process; parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="hassecert",
        description="certificates of Hasse principle violations for "
        "quadric-pair surfaces and hyperelliptic curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sieve-params", *STAGES):
        sp = sub.add_parser(name)
        _add_common(sp)
    return parser


def _attach_theta_values(argv):
    """argv with each "--theta -VALUE" joined into "--theta=-VALUE".

    argparse takes a separate argument that starts with "-" for an option
    unless it is a plain negative number, so "--theta -7/2" would stop at
    "expected one argument".  Joined, the value reaches Theta.parse, and a
    malformed one is a config error like any other theta."""
    out = []
    for arg in argv:
        if out and out[-1] == "--theta" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"--theta={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    args = _parser().parse_args(_attach_theta_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _config_from_args(args)
        _check_writable(cfg.output_path)
        if args.command == "sieve-params":
            cfg.validate()
            quads = sieve_params(cfg.g, cfg.h, bound=cfg.sieve_bound,
                                 count=cfg.sieve_count)
            _emit({"quadruples": [q.to_json() for q in quads]}, cfg.output_path)
            return EXIT_OK
        if args.command == "j-report":
            _emit(report_j_invariants(cfg), cfg.output_path)
            return EXIT_OK
        if args.command == "certify-all":
            out = run_certify(cfg)
            fibers = out["fibers"]
        else:
            # the certify-all pipeline cut after the subcommand's stage
            _, fibers = _certify_fibers(cfg, args.command)
            if args.command == "instantiate":
                _emit({"fibers": [f["fiber"] for f in fibers]}, cfg.output_path)
                return EXIT_OK
            key = SECTIONS[args.command]
            results = []
            for f in fibers:
                if key in f:
                    # point-search prints the height once, beside the results
                    section = {k: v for k, v in f[key].items() if k != "height"}
                    results.append({"theta": f["theta"], **section})
                else:
                    results.append({"theta": f["theta"], "stage": f["stage"],
                                    "error": f["error"]})
            out = {"results": results}
            if key == "point_search":
                out["height"] = str(cfg.height_bound)
        _emit(out, cfg.output_path)
        ok = all(f["stage"] == "done" for f in fibers)
        return EXIT_OK if ok else EXIT_CERTIFICATION_FAILED
    except (ConfigError, SieveExhausted) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except RunRefused as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return EXIT_CERTIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
