import json
import math
from fractions import Fraction

import pytest

import hassecert.cli as cli
from hassecert.cli import (
    ConfigError,
    RunConfig,
    certify_fiber,
    default_theta_grid,
    main,
    report_j_invariants,
    run_certify,
)
from hassecert.arith import is_rational_square
from hassecert.family import (
    DP4Surface,
    HyperellipticCurve,
    Theta,
    build_curve,
    build_surface,
    fiber_coeffs,
)
from hassecert.params import sieve_params
from hassecert.search import curve_point_search, rational_point_search, surface_point_search


PARAMS = sieve_params(1, 0, bound=10**7, count=1)[0]


# Oracle: the unsieved searches, which run the exact tests on every
# candidate.  The sieved searches must return exactly their lists.


def _oracle_is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def _oracle_curve_points(curve, height):
    found = []
    for n in range(1, height + 1):
        for m in range(-height, height + 1):
            if math.gcd(m, n) != 1:
                continue
            t = Fraction(m, n)
            s = is_rational_square(curve.chart_value("st", t))
            if s is not None:
                found.append((t, s))
    lead = is_rational_square(curve.b / curve.a)
    if lead is not None:
        found.append(("inf", lead))
    return found


def _oracle_surface_points(surface, height):
    a, b, A, B, C = surface.a, surface.b, surface.A, surface.B, surface.C
    a_i, b_i = int(a), int(b)
    q = A.denominator * B.denominator // math.gcd(A.denominator, B.denominator)
    pA, pB = int(A * q), int(B * q)
    gamma, nu = C.numerator, C.denominator
    a_forces = a_i > 1 and nu % a_i != 0
    x_step = a_i if a_forces else 1
    found = set()

    def check(u, v):
        for x1 in range(height // x_step + 1):
            x = x_step * x1
            if a_forces:
                My = a_i * x1 * x1 * nu * nu + gamma * gamma * u * v
            else:
                num = x * x * nu * nu + a_i * gamma * gamma * u * v
                if num % a_i:
                    continue
                My = num // a_i
            if not _oracle_is_square(My):
                continue
            ry = math.isqrt(My)
            if ry % nu or ry // nu > height:
                continue
            Nz = x * x * q * q + b_i * (u * q - pA * v) * (u * q - pB * v)
            if Nz % a_i or not _oracle_is_square(Nz // a_i):
                continue
            rz = math.isqrt(Nz // a_i)
            if rz % q == 0 and rz // q <= height:
                found.add((x, ry // nu, rz // q, u, v))

    check(1, 0)
    for v in range(1, height + 1):
        for u in range(-height, height + 1):
            check(u, v)
    return sorted(found)


def test_control_curve_points():
    control = HyperellipticCurve(a=Fraction(1), b=Fraction(1),
                                 A=Fraction(1), B=Fraction(4), genus=1)
    pts = curve_point_search(control, 10)
    ts = {t for t, s in pts if t != "inf"}
    assert {Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)} <= ts
    for t, s in pts:
        if t != "inf":
            assert control.chart_value("st", t) == s * s


def test_search_rejects_zero_height():
    control = HyperellipticCurve(a=Fraction(1), b=Fraction(1),
                                 A=Fraction(1), B=Fraction(4), genus=1)
    with pytest.raises(ValueError):
        curve_point_search(control, 0)
    with pytest.raises(TypeError):
        rational_point_search(object(), 10)


def test_certified_fiber_is_empty():
    co = fiber_coeffs(PARAMS, Theta.of(0))
    assert curve_point_search(build_curve(co), 150) == []
    assert surface_point_search(build_surface(co), 150) == []


def test_surface_search_finds_synthetic_points():
    # x^2 - 2 z^2 = -(u - v)(u - 4v), x^2 - 2 y^2 = -2 u v
    # (x,y,z,u,v) = (0, 1, 0, 1, 1): q1: 0 - 0 = -(0)(-3) = 0 ok;
    # q2: 0 - 2 = -2           ok
    surf = DP4Surface(a=Fraction(2), b=Fraction(1), A=Fraction(1),
                      B=Fraction(4), C=Fraction(1), genus=1)
    pts = surface_point_search(surf, 5)
    assert (0, 1, 0, 1, 1) in pts


def test_surface_search_nonzero_x():
    # a = 1: x is unconstrained; (2, 4, 2, 6, 2) solves
    # x^2 - z^2 = -(u-2v)(u-3v) and x^2 - y^2 = -uv
    surf = DP4Surface(a=Fraction(1), b=Fraction(1), A=Fraction(2),
                      B=Fraction(3), C=Fraction(1), genus=1)
    pts = surface_point_search(surf, 10)
    assert (2, 4, 2, 6, 2) in pts
    for x, y, z, u, v in pts:
        q1, q2 = surf.quadric_residuals((x, y, z, u, v))
        assert q1 == 0 and q2 == 0


ORACLE_HEIGHT = 60


# the 16 grid fibers at g = 1, then the g = 3 theta-zero fiber
@pytest.mark.parametrize("g, theta", [(1, str(t)) for t in default_theta_grid()] + [(3, "0")])
def test_sieved_search_matches_oracle_on_fibers(g, theta):
    params = PARAMS if g == 1 else sieve_params(3, 0, bound=10**12, count=1)[0]
    co = fiber_coeffs(params, Theta.parse(theta))
    curve, surface = build_curve(co), build_surface(co)
    assert curve_point_search(curve, ORACLE_HEIGHT) == _oracle_curve_points(curve, ORACLE_HEIGHT)
    assert surface_point_search(surface, ORACLE_HEIGHT) == \
        _oracle_surface_points(surface, ORACLE_HEIGHT)


CONTROL_CURVES = {
    "g1": HyperellipticCurve(a=Fraction(1), b=Fraction(1), A=Fraction(1), B=Fraction(4), genus=1),
    "g3": HyperellipticCurve(a=Fraction(1), b=Fraction(1), A=Fraction(1), B=Fraction(4), genus=3),
    # a b = 9/4 is not an integer; b/a = 1/4 gives the points at infinity
    "ab-9/4": HyperellipticCurve(a=Fraction(3), b=Fraction(3, 4), A=Fraction(1), B=Fraction(4),
                                 genus=1),
    # a b = 3/2: the square class needs den(ab); (t, s) = (0, 3) is a point
    "ab-3/2": HyperellipticCurve(a=Fraction(1), b=Fraction(3, 2), A=Fraction(2), B=Fraction(3),
                                 genus=1),
    # A = 1/4 puts q = 4 into the chart value
    "q4": HyperellipticCurve(a=Fraction(1), b=Fraction(1), A=Fraction(1, 4), B=Fraction(9),
                             genus=1),
}


@pytest.mark.parametrize("name", sorted(CONTROL_CURVES))
def test_sieved_search_matches_oracle_on_control_curves(name):
    curve = CONTROL_CURVES[name]
    expected = _oracle_curve_points(curve, ORACLE_HEIGHT)
    assert expected
    assert curve_point_search(curve, ORACLE_HEIGHT) == expected


CONTROL_SURFACES = {
    # a = 2 forces x = 2 x1
    "a2-forced": DP4Surface(a=Fraction(2), b=Fraction(1), A=Fraction(1), B=Fraction(4),
                            C=Fraction(1), genus=1),
    # a = 1: x runs over every integer
    "a1": DP4Surface(a=Fraction(1), b=Fraction(1), A=Fraction(2), B=Fraction(3),
                     C=Fraction(1), genus=1),
    # a = 2 divides den(C) = 2, so x is not forced and a must divide num
    "a2-unforced": DP4Surface(a=Fraction(2), b=Fraction(1), A=Fraction(1), B=Fraction(4),
                              C=Fraction(1, 2), genus=1),
    # q = 2 and den(C) = 3
    "q2": DP4Surface(a=Fraction(1), b=Fraction(2), A=Fraction(1, 2), B=Fraction(3),
                     C=Fraction(2, 3), genus=1),
}


@pytest.mark.parametrize("name", sorted(CONTROL_SURFACES))
def test_sieved_search_matches_oracle_on_control_surfaces(name):
    surface = CONTROL_SURFACES[name]
    expected = _oracle_surface_points(surface, ORACLE_HEIGHT)
    assert expected
    assert surface_point_search(surface, ORACLE_HEIGHT) == expected


def test_default_grid():
    grid = default_theta_grid()
    assert Theta.of(0) in grid and Theta.infinity() in grid
    assert Theta.of(1, 2) in grid and Theta.of(-3) in grid
    vals = [str(t) for t in grid]
    assert len(vals) == len(set(vals))
    assert len(grid) == 16


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(g=2).validate()
    with pytest.raises(ConfigError):
        RunConfig(g=3, mode="full").validate()
    with pytest.raises(ConfigError):
        RunConfig(g=3, h=1, mode="theta-zero",
                  theta_list=[Theta.of(1)]).validate()
    cfg = RunConfig(g=3, mode="theta-zero").validate()
    assert [str(t) for t in cfg.theta_list] == ["0"]
    cfg5 = RunConfig(g=5, h=1, mode="full")
    cfg5.validate()  # 6 | 6


def test_config_json_roundtrip():
    cfg = RunConfig(g=1, h=0, theta_list=[Theta.of(0), Theta.of(1, 2)],
                    height_bound=50, sample_count=3).validate()
    loaded = RunConfig.from_json(cfg.to_json())
    assert loaded.g == 1 and loaded.height_bound == 50
    assert [str(t) for t in loaded.theta_list] == ["0", "1/2"]


def test_certify_fiber_reports_stage_on_failure(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cli, "check_smooth_surface", lambda surface: False)
        out = certify_fiber(PARAMS, Theta.of(0), height_bound=20, sample_count=2)
    assert not out["certified"] and out["stage"] == "smoothness"
    assert out["error"] == "surface smoothness check failed"
    assert "fiber" in out and "local" not in out

    def broken(*args, **kwargs):
        raise ArithmeticError("no invariant table")

    with monkeypatch.context() as m:
        m.setattr(cli, "obstruction_certificate", broken)
        out = certify_fiber(PARAMS, Theta.of(0), height_bound=20, sample_count=2)
    assert not out["certified"] and out["stage"] == "brauer-obstruction"
    assert out["error"] == "no invariant table"
    assert out["local"]["solvable_everywhere"] is True
    assert "obstruction" not in out and "point_search" not in out


def test_found_points_refute_only_after_obstruction(monkeypatch):
    monkeypatch.setattr(cli, "curve_point_search",
                        lambda curve, height: [(Fraction(1), Fraction(2))])
    out = certify_fiber(PARAMS, Theta.of(0), height_bound=20,
                        stages=cli.STAGES["point-search"])
    assert out["stage"] == "done"
    assert out["point_search"]["curve_points"] == [["1", "2/1"]]
    out = certify_fiber(PARAMS, Theta.of(0), height_bound=20, sample_count=2)
    assert out["stage"] == "point-search"
    assert out["error"].startswith("rational points found")


def test_run_certify_and_determinism():
    cfg = RunConfig(g=1, h=0, theta_list=[Theta.of(0), Theta.of(1)],
                    height_bound=30, sample_count=2)
    r1 = run_certify(cfg)
    cfg2 = RunConfig(g=1, h=0, theta_list=[Theta.of(0), Theta.of(1)],
                     height_bound=30, sample_count=2)
    r2 = run_certify(cfg2)
    r1.pop("generated_at")
    r2.pop("generated_at")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["summary"] == {"total": 2, "certified": 2, "failed": 0}


def test_parallel_serial_equivalence():
    thetas = [Theta.of(0), Theta.of(2)]
    serial = RunConfig(g=1, h=0, theta_list=list(thetas), height_bound=20,
                       sample_count=2, parallelism=1)
    parallel = RunConfig(g=1, h=0, theta_list=list(thetas), height_bound=20,
                         sample_count=2, parallelism=2)
    r1 = run_certify(serial)
    r2 = run_certify(parallel)
    r1.pop("generated_at")
    r2.pop("generated_at")
    r1["config"].pop("parallelism")
    r2["config"].pop("parallelism")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_j_report():
    cfg = RunConfig(g=1, h=0, theta_list=[Theta.of(0), Theta.of(1)])
    rep = report_j_invariants(cfg)
    assert len(rep["rows"]) == 2
    assert rep["rows"][0]["j"] != rep["rows"][1]["j"]
    with pytest.raises(ConfigError):
        report_j_invariants(RunConfig(g=5, h=1, theta_list=[Theta.of(0)]))


def test_cli_exit_codes(tmp_path, capsys):
    # config error -> 2
    assert main(["certify-all", "--g", "3", "--h", "0"]) == 2
    # clean run -> 0, report written
    out = tmp_path / "r.json"
    code = main(["certify-all", "--g", "1", "--h", "0", "--theta", "0",
                 "--height", "20", "--samples", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 0
    # round-trip: the report re-parses into equal structures
    assert json.loads(json.dumps(report)) == report


def test_cli_exit_one_on_certification_failure(tmp_path):
    # the (g,h) = (1,1) fiber at theta = 3/2 has a coefficient numerator
    # with a probable-prime cofactor above the deterministic primality
    # bound, so its critical set stays incomplete and certification fails
    out = tmp_path / "fail.json"
    code = main(["certify-all", "--g", "1", "--h", "1", "--theta", "3/2",
                 "--height", "10", "--samples", "2", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 1
    fiber = report["fibers"][0]
    assert fiber["stage"] == "local-solvability"
    assert "unresolved" in fiber["error"]


def test_cli_sieve_and_point_search(tmp_path):
    out = tmp_path / "q.json"
    assert main(["sieve-params", "--g", "1", "--h", "0", "--count", "2",
                 "--out", str(out)]) == 0
    quads = json.loads(out.read_text())["quadruples"]
    assert len(quads) == 2 and quads[0]["a"] == "1753"
    out2 = tmp_path / "p.json"
    assert main(["point-search", "--g", "1", "--h", "0", "--theta", "0",
                 "--height", "20", "--out", str(out2)]) == 0
    res = json.loads(out2.read_text())["results"]
    assert res[0]["curve_points"] == []


STAGE_THETAS = [Theta.of(0), Theta.of(1, 2), Theta.infinity()]


def test_stage_subcommands_print_certify_fiber_sections(tmp_path):
    # each stage subcommand prints, per theta, the entry of the full
    # certify-all fiber record that its stage produces
    fibers = [certify_fiber(PARAMS, t, height_bound=300, sample_count=2)
              for t in STAGE_THETAS]
    assert all(f["stage"] == "done" for f in fibers)
    theta_args = ["--theta", ",".join(str(t) for t in STAGE_THETAS)]
    for command, key in [("certify-local", "local"),
                         ("certify-brauer", "obstruction"),
                         ("point-search", "point_search")]:
        out = tmp_path / f"{command}.json"
        code = main([command, "--g", "1", "--h", "0", *theta_args, "--height", "300",
                     "--samples", "2", "--out", str(out)])
        assert code == 0, command
        printed = json.loads(out.read_text())
        expected = []
        for f in fibers:
            section = dict(f[key])
            if command == "point-search":
                assert printed["height"] == section.pop("height") == "300"
            expected.append({"theta": f["theta"], **section})
        assert printed["results"] == expected, command


def test_certify_brauer_names_failed_local_stage(tmp_path):
    out = tmp_path / "brauer.json"
    code = main(["certify-brauer", "--g", "1", "--h", "1", "--theta", "3/2",
                 "--samples", "2", "--out", str(out)])
    assert code == 1
    (result,) = json.loads(out.read_text())["results"]
    assert result["theta"] == "3/2"
    assert result["stage"] == "local-solvability"
    assert "unresolved" in result["error"]


def test_certify_local_checks_smoothness(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "check_smooth_surface", lambda surface: False)
    out = tmp_path / "local.json"
    code = main(["certify-local", "--g", "1", "--h", "0", "--theta", "0",
                 "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["results"] == [{
        "theta": "0",
        "stage": "smoothness",
        "error": "surface smoothness check failed",
    }]
