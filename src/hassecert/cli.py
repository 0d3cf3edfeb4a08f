"""Command-line orchestration: parameter search, fiber certification,
point searches, j-invariant reports, and JSON I/O.

Every integer in the JSON surfaces is a decimal string, so reports survive
consumers with 64-bit integer parsers.  Reports are byte-stable across
runs up to the generated_at timestamp.
"""

import argparse
import concurrent.futures
import datetime
import functools
import json
import sys
from dataclasses import dataclass, field

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
from .params import ParamSet, SieveExhausted, json_int, sieve_params, verify_conditions
from .search import curve_point_search, surface_point_search

VERSION = "0.1.0"

EXIT_OK = 0
EXIT_CERTIFICATION_FAILED = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


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


@dataclass
class RunConfig:
    g: int = 1
    h: int = 0
    mode: str = "full"  # "full" | "theta-zero"
    theta_list: list = field(default_factory=list)
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
        if self.h < 0:
            raise ConfigError("h must be nonnegative")
        if self.mode not in ("full", "theta-zero"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not self.theta_list:
            self.theta_list = (
                default_theta_grid() if self.mode == "full" else [Theta.of(0)]
            )
        if self.mode == "full":
            if self.g % 4 != 1:
                raise ConfigError(
                    f"full-family mode needs g = 1 mod 4 (for (g+1) | (4h+2)); got g = {self.g}"
                )
            if (4 * self.h + 2) % (self.g + 1) != 0:
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
        if self.height_bound < 1:
            raise ConfigError("height bound must be >= 1")
        if self.sample_count < 1:
            raise ConfigError("sample count must be >= 1")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        return self

    @classmethod
    def from_json(cls, obj):
        _json_typed(obj, dict, "config")
        cfg = cls()
        if "theta_list" in obj:
            cfg.theta_list = [Theta.parse(_json_typed(s, str, "theta_list entry"))
                              for s in _json_typed(obj["theta_list"], list, "theta_list")]
        elif "theta_grid" in obj:
            spec = _json_typed(obj["theta_grid"], dict, "theta_grid")
            cfg.theta_list = default_theta_grid(
                json_int(spec.get("num_max", 3), "num_max"),
                json_int(spec.get("den_max", 3), "den_max"),
                _json_typed(spec.get("include_zero", True), bool, "include_zero"),
                _json_typed(spec.get("include_infinity", True), bool, "include_infinity"))
        if "params" in obj and obj["params"] is not None:
            cfg.params = ParamSet.from_json(obj["params"])
        for key in ("g", "h", "sieve_bound", "sieve_count", "height_bound",
                    "sample_count", "parallelism"):
            if key in obj:
                setattr(cfg, key, json_int(obj[key], key))
        if "mode" in obj:
            cfg.mode = obj["mode"]
        if obj.get("output_path") is not None:
            cfg.output_path = _json_typed(obj["output_path"], str, "output_path")
        return cfg

    def to_json(self):
        return {
            "g": str(self.g),
            "h": str(self.h),
            "mode": self.mode,
            "theta_list": [str(t) for t in self.theta_list],
            "params": self.params.to_json() if self.params else None,
            "sieve_bound": str(self.sieve_bound),
            "sieve_count": str(self.sieve_count),
            "height_bound": str(self.height_bound),
            "sample_count": str(self.sample_count),
            "parallelism": str(self.parallelism),
            "output_path": self.output_path,
        }


# the JSON types a config field is checked against, as a refusal names them
_JSON_TYPES = {bool: "true or false", str: "a string", list: "an array", dict: "an object"}


def _json_typed(value, kind, name):
    """value when it has the JSON type kind, else ValueError naming the field."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def resolve_params(config):
    if config.params is not None:
        ps = config.params
        if ps.g != config.g or ps.h != config.h:
            ps = ParamSet(a=ps.a, b=ps.b, c=ps.c, d=ps.d, omega0=ps.omega0,
                          g=config.g, h=config.h)
        report = verify_conditions(ps)
        if not report.ok:
            raise ConfigError(f"explicit parameters fail verification: {report.failures()}")
        return ps
    return sieve_params(config.g, config.h, bound=config.sieve_bound, count=1)[0]


# The stages certify_fiber runs after build, nonvanishing and smoothness,
# keyed by subcommand.  Each stage subcommand prints one entry of the fiber
# record, named in SECTIONS.
STAGES = {
    "certify-all": ("local", "brauer", "search", "j"),
    "certify-local": ("local",),
    "certify-brauer": ("local", "brauer"),
    "point-search": ("search",),
}
SECTIONS = {
    "certify-local": "local",
    "certify-brauer": "obstruction",
    "point-search": "point_search",
}


def certify_fiber(params, theta, height_bound=1000, sample_count=10,
                  stages=STAGES["certify-all"]):
    """The per-fiber pipeline: build, nonvanishing, smoothness, then the
    given stages in order (local certificates, obstruction certificate,
    point searches, j-invariant).  A failed stage aborts the fiber (never
    the run) with the stage named; stage "done" means every stage passed."""
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
            obs = obstruction_certificate(curve, surface, local, samples=sample_count)
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


def _fiber_task(args):
    params_json, theta_str, height, samples, command = args
    params = ParamSet.from_json(params_json)
    return certify_fiber(params, Theta.parse(theta_str), height, samples,
                         stages=STAGES[command])


def _certify_fibers(config, params, command):
    """One fiber record per theta of the config, in order."""
    tasks = [
        (params.to_json(), str(theta), config.height_bound, config.sample_count, command)
        for theta in config.theta_list
    ]
    if config.parallelism > 1:
        with concurrent.futures.ProcessPoolExecutor(config.parallelism) as pool:
            return list(pool.map(_fiber_task, tasks))
    return [_fiber_task(t) for t in tasks]


def run_certify(config):
    """Certify every fiber in the theta list; returns the report dict."""
    config.validate()
    params = resolve_params(config)
    fibers = _certify_fibers(config, params, "certify-all")
    certified = sum(1 for f in fibers if f["certified"])
    report = {
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
    return report


def report_j_invariants(config):
    """theta -> j table for genus 1; exact values, distinctness asserted."""
    config.validate()
    if config.g != 1:
        raise ConfigError("j-invariant reports need g = 1")
    params = resolve_params(config)
    rows = []
    values = set()
    for theta in config.theta_list:
        j = j_invariant(fiber_coeffs(params, theta))
        rows.append({"theta": str(theta), "j": frac_str(j)})
        values.add(j)
    if len(config.theta_list) >= 2 and len(values) < 2:
        raise ArithmeticError("j-invariant failed to separate two fibers")
    return {"params": params.to_json(), "rows": rows}


# --------------------------------------------------------------------------
# argument parsing


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--g", type=int)
    sp.add_argument("--h", type=int)
    sp.add_argument("--theta", action="append",
                    help="fiber parameter: m/n, inf or 0 (repeatable)")
    sp.add_argument("--height", type=int)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--jobs", type=int)
    sp.add_argument("--bound", type=int, help="sieve magnitude bound per slot")
    sp.add_argument("--count", type=int, help="number of quadruples to sieve")
    sp.add_argument("--mode", choices=["full", "theta-zero"])
    sp.add_argument("--out", help="output path for the JSON report")


# command-line flag -> RunConfig field it overrides (besides --theta)
_FLAG_FIELDS = (
    ("g", "g"), ("h", "h"), ("height", "height_bound"), ("samples", "sample_count"),
    ("jobs", "parallelism"), ("bound", "sieve_bound"), ("count", "sieve_count"),
    ("mode", "mode"), ("out", "output_path"),
)


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
    for flag, key in _FLAG_FIELDS:
        if getattr(args, flag) is not None:
            setattr(cfg, key, getattr(args, flag))
    return cfg


def _emit(payload, path):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


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
    for name in ("sieve-params", "instantiate", "certify-local", "certify-brauer",
                 "certify-all", "point-search", "j-report"):
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
        if args.command == "sieve-params":
            cfg.validate()
            quads = sieve_params(cfg.g, cfg.h, bound=cfg.sieve_bound,
                                 count=cfg.sieve_count)
            _emit({"quadruples": [q.to_json() for q in quads]}, cfg.output_path)
            return EXIT_OK
        if args.command == "instantiate":
            cfg.validate()
            params = resolve_params(cfg)
            fibers = [fiber_coeffs(params, t).to_json() for t in cfg.theta_list]
            _emit({"fibers": fibers}, cfg.output_path)
            return EXIT_OK
        if args.command == "j-report":
            _emit(report_j_invariants(cfg), cfg.output_path)
            return EXIT_OK
        if args.command in SECTIONS:
            # the certify-all pipeline cut after the subcommand's stage
            cfg.validate()
            fibers = _certify_fibers(cfg, resolve_params(cfg), args.command)
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
        # certify-all
        report = run_certify(cfg)
        _emit(report, cfg.output_path)
        failed = report["summary"]["failed"]
        return EXIT_OK if failed == 0 else EXIT_CERTIFICATION_FAILED
    except (ConfigError, SieveExhausted) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
