import functools
import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from hassecert.arith import Place, factorize, frac_mod, padic_val
from hassecert.cli import default_theta_grid
from hassecert.family import (
    DP4Surface,
    HyperellipticCurve,
    Theta,
    build_curve,
    build_surface,
    fiber_coeffs,
    integral_model,
)
from hassecert.local import (
    CriticalSet,
    ResidueContext,
    SamplerBudgetExceeded,
    Witness,
    certify_all_local,
    certify_local_curve,
    critical_places,
    delta_surface_point,
    sample_surface_points,
    _blanket_check,
    _root_witness,
    _scan_fp_point,
    _try_power,
)
from hassecert.params import sieve_params
from oracles import (
    F_poly,
    Polynomial,
    _eval_int,
    cleared_chart_poly,
    decide_qp_charts,
    decide_qp_points,
    decide_real_points,
    default_depth_bound,
    f_poly,
    find_smooth_fp_point,
    residue_quadrics as _residue_quadrics,
    scan_fp_point_dense,
)


PARAMS = sieve_params(1, 0, bound=10**7, count=1)[0]
PARAMS_H1 = sieve_params(1, 1, bound=10**7, count=1)[0]
CO_0 = fiber_coeffs(PARAMS, Theta.of(0))
CURVE_0 = build_curve(CO_0)


# ----- oracle: exhaustive enumeration mod p^k with the lifting criterion ----

def _sq_table(p, k):
    m = p**k
    best = {}
    for s in range(m):
        key = s * s % m
        v = padic_val(s, p) if s else k
        if key not in best or v < best[key]:
            best[key] = v
    return best


def oracle_qp(curve_model, p, k):
    """True / False / None by exhaustive residue enumeration on both charts."""
    m = p**k
    sq = _sq_table(p, k)
    any_partial = False
    any_congruence = False
    for chart in ("st", "ST"):
        H, _ = cleared_chart_poly(curve_model, chart)
        Hp = [i * c for i, c in enumerate(H)][1:]
        for t in range(m):
            v = _eval_int(H, t) % m
            if v in sq:
                any_congruence = True
                if 2 * sq[v] < k:
                    return True
                if v == 0:
                    dv = _eval_int(Hp, t) % m
                    dvv = padic_val(dv, p) if dv else k
                    if 2 * dvv < k:
                        return True
                any_partial = True
    if not any_congruence:
        return False
    return None if any_partial else False


# ----- generic decision procedure --------------------------------------------

def test_decide_trivial_cases():
    # s^2 = t^2 - 1 over Q_5: t = 1 gives an exact root
    f = Polynomial([-1, 0, 1])
    F = f.reversed_coeffs(3)
    verdict, center = decide_qp_charts(f, F, 5)
    assert verdict is True

    # s^2 = 5 over Q_5: constant odd valuation
    c = Polynomial([5])
    verdict, _ = decide_qp_charts(c, c, 5)
    assert verdict is False


def test_decide_rejects_p2():
    with pytest.raises(ValueError):
        decide_qp_charts(Polynomial([1, 1]), Polynomial([1, 1]), 2)


def test_chart_completeness_point_only_at_infinity():
    # (t^2-3)(t^2-5) over Q_3: no affine Z_3 point, but T = 0 works
    curve = HyperellipticCurve(a=Fraction(1), b=Fraction(1),
                               A=Fraction(3), B=Fraction(5), genus=1)
    verdict, wit = decide_qp_points(curve, 3)
    assert verdict is True
    assert wit.chart == "ST"
    assert wit.verify(curve)
    # and the affine chart alone has no solution (the second slot is a
    # constant with odd valuation, refuted immediately)
    v_affine = decide_qp_charts(f_poly(curve), Polynomial([3]), 3)[0]
    assert v_affine is False


def test_decide_negative_case_and_depth_stability():
    # 3(t^2-3)(t^2-5) over Q_3 has no points on either chart
    curve = HyperellipticCurve(a=Fraction(1), b=Fraction(3),
                               A=Fraction(3), B=Fraction(5), genus=1)
    verdict, _ = decide_qp_points(curve, 3)
    assert verdict is False
    # no-false-negative: deeper exploration cannot flip a refutation
    for extra in (2, 4):
        f, F = f_poly(curve), F_poly(curve)
        bound = default_depth_bound(f, 3) + extra
        assert decide_qp_charts(f, F, 3, depth_bound=bound)[0] is False


def test_decide_agrees_with_oracle_on_fiber_primes():
    for theta in (Theta.of(0), Theta.of(1), Theta.of(1, 2)):
        curve = build_curve(fiber_coeffs(PARAMS, theta))
        for p in (3, 5, 7, 11, 13):
            model = integral_model(curve, p)
            got, wit = decide_qp_points(model, p)
            expected = oracle_qp(model, p, 4)
            assert expected is True, (str(theta), p)
            assert got is True
            assert wit.verify(model)


def test_decide_agrees_with_oracle_synthetic_sweep():
    # small synthetic curves, both solvable and not
    cases = []
    for A in (1, 2, 3, 5, 7, 15):
        for B in (2, 4, 5, 9):
            if A == B:
                continue
            for b in (1, 3, 5):
                cases.append((b, A, B))
    for p in (3, 5):
        for b, A, B in cases:
            curve = HyperellipticCurve(a=Fraction(1), b=Fraction(b),
                                       A=Fraction(A), B=Fraction(B), genus=1)
            got, wit = decide_qp_points(curve, p)
            expected = oracle_qp(curve, p, 4)
            if expected is None:
                continue
            assert got == expected, (p, b, A, B)
            if got and wit is not None:
                assert wit.verify(curve)


# ----- real place -------------------------------------------------------------

def test_real_positive_lead():
    ok, wit = decide_real_points(CURVE_0)
    assert ok and wit is not None
    assert CURVE_0.chart_value("st", wit.t_real) > 0


def test_real_strictly_negative():
    # -(t^2+1)^2 - 1: coefficients -2, 0, -2, 0, -1
    curve = HyperellipticCurve(a=Fraction(1), b=Fraction(-1),
                               A=Fraction(-1), B=Fraction(-2), genus=1)
    # f = -(t^2+1)(t^2+2) < 0 everywhere
    ok, _ = decide_real_points(curve)
    assert ok is False


def test_real_touching_zero():
    # f = -(t^2-1)^2 attains 0 at t = 1
    curve = HyperellipticCurve(a=Fraction(1), b=Fraction(-1),
                               A=Fraction(1), B=Fraction(1), genus=1)
    ok, wit = decide_real_points(curve)
    assert ok is True
    if wit is not None:
        assert curve.chart_value("st", wit.t_real) >= 0


@pytest.mark.parametrize("L", [-1, -3])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_real_negative_lead_sweep(L, g):
    # f = L (t^n - A)(t^n - B) with L < 0 and n = g + 1 is >= 0 exactly where
    # t^n lies between A and B: for even n iff max(A, B) >= 0, for odd n always
    values = (-4, -1, 0, 1, 16)
    for A in values:
        for B in values:
            if A == B:
                continue
            curve = HyperellipticCurve(a=Fraction(1), b=Fraction(L),
                                       A=Fraction(A), B=Fraction(B), genus=g)
            ok, wit = decide_real_points(curve)
            assert ok is (max(A, B) >= 0 or g % 2 == 0), (A, B)
            if wit is not None:
                assert curve.chart_value("st", wit.t_real) >= 0, (A, B)


# ----- critical set -----------------------------------------------------------

def test_critical_places_theta_zero():
    # at theta = 0: A = b c^2 d, B = c (bcd + 2) and D = -1, so the set is
    # {2} ∪ omega0 ∪ {a, b, c, d} ∪ primes(bcd + 2), each for stated reasons
    a, b, c, d = PARAMS.a, PARAMS.b, PARAMS.c, PARAMS.d
    assert (CO_0.A, CO_0.B, CO_0.D) == (b * c * c * d, c * (b * c * d + 2), -1)
    extra, unresolved = factorize(b * c * d + 2)
    assert not unresolved
    crit = critical_places(CURVE_0)
    assert crit.complete
    assert crit.places[0].is_real and crit.provenance["real"] == ["archimedean place"]
    expected = {2} | set(PARAMS.omega0) | {a, b, c, d} | set(extra)
    assert set(crit.primes()) == expected
    assert len(crit.primes()) == len(expected)
    for q in expected:
        reasons = ["divides 2ab"] * (q == 2)
        reasons += ["member of omega0"] * (q in PARAMS.omega0)
        reasons += [f"equals parameter {name}" for name, v in zip("abcd", (a, b, c, d))
                    if v == q]
        reasons += ["divides num(A)"] * (q in (b, c, d))
        reasons += ["divides num(B)"] * (q == c or q in extra)
        assert sorted(crit.provenance[q]) == sorted(reasons), q


def test_critical_places_theta_denominator():
    curve = build_curve(fiber_coeffs(PARAMS, Theta.of(1, 7)))
    crit = critical_places(curve)
    assert 7 in set(crit.primes())
    assert any("den(theta)" in r for r in crit.provenance[7])


# ----- certificates ------------------------------------------------------------

def test_certificate_methods_match_the_case_analysis():
    # the theta = 0 fiber: place 2 via ab-square, place a via the
    # (g+1)-power of A = bc^2d = 1 mod a, place b via the t = 0 disc
    cert2 = certify_local_curve(CURVE_0, Place.finite(2))
    assert cert2.solvable and cert2.method == "ab-square"
    cert_a = certify_local_curve(CURVE_0, Place.finite(PARAMS.a))
    assert cert_a.solvable and cert_a.method == "g+1-power"
    cert_b = certify_local_curve(CURVE_0, Place.finite(PARAMS.b))
    assert cert_b.solvable and cert_b.method.startswith("case-analysis")
    # the reduced disc value at b is 2 c^3 d / a times a square
    from hassecert.arith import legendre

    val = 2 * PARAMS.c**3 * PARAMS.d * pow(PARAMS.a, -1, PARAMS.b)
    assert legendre(val, PARAMS.b) == 1


def test_certify_all_local_theta_zero():
    res = certify_all_local(CURVE_0)
    assert res.solvable_everywhere
    assert not res.failures
    assert res.blanket.ok
    assert len(res.blanket.sampled_primes) == 20
    for pl, cert in res.certificates.items():
        assert cert.solvable is True


def test_blanket_inclusion_fails_without_a_prime_of_num_D():
    # theta = 1: D = ab - 1; drop one of its primes from the critical set
    # and the inclusion of num(D) must read False
    curve = build_curve(fiber_coeffs(PARAMS, Theta.of(1)))
    crit = critical_places(curve)
    base = {2, PARAMS.a, PARAMS.b, PARAMS.c, *PARAMS.omega0}
    q = max(p for p in factorize(curve.coeffs.D.numerator)[0] if p not in base)
    assert q in crit.primes()
    inclusion = "the critical set contains 2, a, b, c, omega0 and every prime dividing " \
        "num(D) and den(theta)"
    full = _blanket_check(curve, crit)
    assert full.ok and f"{inclusion}: True" in full.statements
    dropped = CriticalSet(places=[pl for pl in crit.places if pl != Place.finite(q)],
                          provenance=crit.provenance)
    blanket = _blanket_check(curve, dropped)
    assert not blanket.ok and f"{inclusion}: False" in blanket.statements


# the finite and the real synthetic curve of the oracle tests above: neither
# has a local point at the place, and no lemma applies there
NO_LEMMA = [
    (HyperellipticCurve(a=Fraction(1), b=Fraction(3), A=Fraction(3), B=Fraction(5),
                        genus=1), Place.finite(3)),
    (HyperellipticCurve(a=Fraction(1), b=Fraction(-1), A=Fraction(-1), B=Fraction(-2),
                        genus=1), Place.real()),
]


@pytest.mark.parametrize("curve, place", NO_LEMMA, ids=["p=3", "real"])
def test_place_without_a_lemma_is_refused(curve, place):
    cert = certify_local_curve(curve, place)
    assert cert.solvable is None and cert.method == "refused"
    assert cert.witness is None
    assert cert.notes == f"refused: no local lemma applies at {place}"
    assert cert.to_json()["solvable"] is None
    # the oracles agree that no lemma was missed: there is no local point
    if place.is_real:
        assert decide_real_points(curve)[0] is False
    else:
        assert decide_qp_points(curve, place.p)[0] is False


def test_refused_place_fails_the_fiber(monkeypatch):
    # with the disc-center lemma taken away, place b of the theta = 0 fiber
    # has no lemma left: certify_all_local lists the refusal as a failure
    from hassecert import local

    place = Place.finite(PARAMS.b)
    assert certify_local_curve(CURVE_0, place).method == "case-analysis(disc-center)"
    monkeypatch.setattr(local, "_try_center_probe", lambda curve, place: None)
    res = certify_all_local(CURVE_0)
    assert not res.solvable_everywhere
    assert res.failures == [(place, "refused", f"refused: no local lemma applies at {place}")]
    assert res.certificates[place].solvable is None


def test_tampered_witness_fails_the_fiber(monkeypatch):
    # one sqrt witness with sigma + 1 no longer squares to H(t_center):
    # certify_all_local's re-verification lists the place as a failure,
    # and the fiber stops at local-solvability with the place named
    from hassecert import cli, local

    res = certify_all_local(CURVE_0)
    place = next(pl for pl in res.critical.places
                 if res.certificates[pl].witness.kind == "sqrt" and not pl.is_real)
    method = res.certificates[place].method
    certify = local.certify_local_curve

    def tamper(curve, pl):
        cert = certify(curve, pl)
        if pl == place:
            cert.witness = replace(cert.witness, sigma=cert.witness.sigma + 1)
        return cert

    monkeypatch.setattr(local, "certify_local_curve", tamper)
    res = certify_all_local(CURVE_0)
    assert not res.solvable_everywhere
    assert res.failures == [(place, method, "witness failed re-verification")]
    out = cli.certify_fiber(PARAMS, Theta.of(0), height_bound=20, sample_count=2)
    assert out["certified"] is False and out["stage"] == "local-solvability"
    assert out["error"] == f"local certification failed: {res.failures}"
    assert f"Place(p={place.p})" in out["error"]


@pytest.mark.parametrize("target", [2, 5, None], ids=["2", "5", "real"])
def test_witness_filed_under_another_place_fails_the_fiber(monkeypatch, target):
    # Witness.verify reads the witness's own prime, never the place: at
    # theta = 0 every model is the fiber, so place 3's witness re-verifies
    # on the model of any other place; certify_all_local fails it there
    from hassecert import local

    place = Place(target)
    certify = local.certify_local_curve
    witness = certify(CURVE_0, Place.finite(3)).witness
    assert witness.prime == 3 and witness.verify(certify(CURVE_0, place).model)

    def refile(curve, pl):
        cert = certify(curve, pl)
        if pl == place:
            cert.witness = witness
        return cert

    monkeypatch.setattr(local, "certify_local_curve", refile)
    res = certify_all_local(CURVE_0)
    assert not res.solvable_everywhere
    assert res.failures == [(place, res.certificates[place].method,
                             "witness failed re-verification")]


def test_spot_check_count_outside_the_window_fails_the_fiber(monkeypatch):
    # a blanket count outside the Hasse-Weil window raises, naming the
    # spot-check prime, and the fiber stops at local-solvability
    from hassecert import cli, local

    q = _blanket_check(CURVE_0, critical_places(CURVE_0)).sampled_primes[0]
    count = local.count_points_hyperelliptic
    monkeypatch.setattr(local, "count_points_hyperelliptic",
                        lambda h, g, p: 0 if p == q else count(h, g, p))
    with pytest.raises(ArithmeticError, match=f"escaped the Hasse-Weil window at {q}$"):
        certify_all_local(CURVE_0)
    out = cli.certify_fiber(PARAMS, Theta.of(0), height_bound=20, sample_count=2)
    assert out["certified"] is False and out["stage"] == "local-solvability"
    assert out["error"] == f"spot-check count 0 escaped the Hasse-Weil window at {q}"


def test_power_lemma_doubles_its_precision(monkeypatch):
    # a = 1, b = 2, A = 3, B = 3 + 11^10 at p = 11: ab = 2 is not a square
    # mod 11, 11^10 divides A - B, and 3 = 5^2 mod 11.  At precision 8 the
    # root of A gives v(H) = 16 = 2 v(H'), no margin; at 16 it gives
    # v(H) = 26 > 2 v(H') = 20
    from hassecert import local

    curve = HyperellipticCurve(a=Fraction(1), b=Fraction(2), A=Fraction(3),
                               B=Fraction(3 + 11**10), genus=1)
    precisions = []
    root = local.hensel_nth_root

    def record(u, n, p, prec):
        precisions.append(prec)
        return root(u, n, p, prec)

    monkeypatch.setattr(local, "hensel_nth_root", record)
    cert = certify_local_curve(curve, Place.finite(11))
    assert cert.method == "g+1-power"
    assert precisions == [8, 16]
    wit = cert.witness
    assert (wit.kind, wit.chart, wit.val, wit.mu) == ("root", "st", 26, 10)
    assert wit.verify(cert.model)
    # the recorded margin data is checked too
    assert not replace(wit, val=0, mu=99).verify(cert.model)
    assert not replace(wit, mu=wit.mu + 1).verify(cert.model)


@pytest.mark.parametrize("g, A, p, u", [(1, 3, 7, 3), (3, 4 * 13**4, 13, 4)],
                         ids=["g1-non-square", "g3-square-not-fourth-power"])
def test_power_lemma_declines_a_unit_part_that_is_no_power(monkeypatch, g, A, p, u):
    # 3 is not a square mod 7; 4 = 2^2 is a square mod 13 but not a fourth
    # power (those are 1, 3 and 9), so v_13(A) = 4 passes and the root of
    # the unit part does not exist: the lemma declines after one root call
    from hassecert import local

    curve = HyperellipticCurve(a=Fraction(1), b=Fraction(2), A=Fraction(A),
                               B=Fraction(A + 1), genus=g)
    calls = []
    root = local.hensel_nth_root

    def record(*args):
        calls.append((args, root(*args)))
        return calls[-1][1]

    monkeypatch.setattr(local, "hensel_nth_root", record)
    assert _try_power(curve, Place.finite(p)) is None
    assert calls == [((u, g + 1, p, 8), None)]


def test_sqrt_witness_val_is_checked():
    # a sqrt witness whose recorded v_p(H(t_center)) is wrong fails
    # re-verification, though sigma still squares to H(t_center)
    res = certify_all_local(CURVE_0)
    certs = [c for pl, c in res.certificates.items()
             if not pl.is_real and c.witness.kind == "sqrt"]
    assert certs
    for cert in certs:
        wit = cert.witness
        assert wit.verify(cert.model)
        assert not replace(wit, val=wit.val + 5).verify(cert.model)


def test_every_grid_witness_verifies():
    # val and mu recorded by the certifier match the recomputed ones at
    # every place of the default grid
    for theta in default_theta_grid():
        res = certify_all_local(build_curve(fiber_coeffs(PARAMS, theta)))
        assert res.failures == [], theta
        for cert in res.certificates.values():
            assert cert.witness.verify(cert.model), (theta, cert.place)


def test_certify_all_local_rejects_bad_mode():
    g3 = sieve_params(3, 0, bound=10**12, count=1)[0]
    curve = build_curve(fiber_coeffs(g3, Theta.of(1)))
    with pytest.raises(ValueError):
        certify_all_local(curve)


def test_witnesses_verify_and_serialize():
    res = certify_all_local(CURVE_0)
    for pl, cert in res.certificates.items():
        j = cert.to_json()
        assert j["place"] == str(pl)
        model = CURVE_0 if pl.is_real else integral_model(CURVE_0, pl.p)
        assert cert.witness.verify(model)


@pytest.mark.parametrize("theta", ["0", "1/3", "3/2", "1/1753", "-2/3073009"])
def test_witness_reverification_from_json_alone(theta, tmp_path):
    # an external consumer must be able to confirm a witness with nothing
    # but the report's fields.  The place's model has the fiber's coeffs
    # A, B scaled by p^((2g+2)l) where v_p(theta) = -l < 0, and is the
    # fiber itself elsewhere; its chart is
    #   H(t) = m^2 (c0 + c_n t^n + c_2n t^(2n)),  n = g + 1,
    # with (c0, c_n, c_2n) = (b/a) (AB, -(A+B), 1) on chart "st", c0 and
    # c_2n swapped on chart "ST", and m the lcm of their denominators.
    # a sqrt witness has sigma^2 = H(t_center) mod p^precision past the
    # Hensel margin, a root witness v_p(H(t_center)) > 2 v_p(H'(t_center))
    from hassecert.cli import main

    out = tmp_path / "report.json"
    assert main(["certify-all", "--g", "1", "--h", "0", f"--theta={theta}",
                 "--height", "10", "--out", str(out)]) == 0
    record = json.loads(out.read_text())["fibers"][0]
    fiber, local = record["fiber"], record["local"]
    a, b = (Fraction(int(fiber["params"][k])) for k in "ab")
    A0, B0 = (Fraction(fiber["coeffs"][k]) for k in "AB")
    n = int(fiber["genus"]) + 1
    den = int(fiber["theta"]["den"])
    checked = rescaled = 0
    for entry in local["certificates"]:
        data = entry["witness"]
        if data["kind"] not in ("sqrt", "root"):
            continue
        p = int(data["prime"])
        t_center = int(data["t_center"])
        l = 0
        while den % p ** (l + 1) == 0:
            l += 1
        scale = Fraction(p) ** (2 * n * l)
        A, B = scale * A0, scale * B0
        lead = b / a
        c = [lead * A * B, -lead * (A + B), lead]
        if data["chart"] == "ST":
            c.reverse()
        m = math.lcm(*(x.denominator for x in c))
        h = [int(x * m * m) for x in c]
        V = h[0] + (h[1] + h[2] * t_center**n) * t_center**n
        assert V != 0
        if data["kind"] == "sqrt":
            sigma, prec = int(data["sigma"]), int(data["precision"])
            assert (sigma * sigma - V) % p**prec == 0
            assert prec > padic_val(V, p) + 2 * (p == 2)  # the Hensel margin
        else:
            dV = n * t_center ** (n - 1) * (h[1] + 2 * h[2] * t_center**n)
            assert dV != 0 and padic_val(V, p) > 2 * padic_val(dV, p)
        checked += 1
        rescaled += l > 0
    assert checked >= 2
    assert rescaled == (den > 1)  # each den here is a prime power


def _closed_form_cases():
    """(model, centers, certificate) at every finite critical place of the
    16 g = 1, h = 0 grid fibers and of the g = 3 theta = 0 fiber: the
    place's p-integral model, t in range(-5, 6) and the witness center."""
    g3 = sieve_params(3, 0, bound=10**12, count=1)[0]
    fibers = [(PARAMS, theta) for theta in default_theta_grid()] + [(g3, Theta.of(0))]
    for params, theta in fibers:
        curve = build_curve(fiber_coeffs(params, theta))
        res = certify_all_local(curve)
        for place in res.critical.places:
            if place.is_real:
                continue
            cert = res.certificates[place]
            centers = list(range(-5, 6)) + [cert.witness.t_center]
            yield integral_model(curve, place.p), centers, cert


def test_closed_form_chart_matches_dense_oracle():
    # the cleared triple and its closed-form (H, H') agree with the dense
    # cleared chart polynomial and its derivative, on both charts, and the
    # F_p scan finds the residue the dense scan finds
    rescaled = scanned = 0
    for model, centers, cert in _closed_form_cases():
        p = cert.place.p
        rescaled += model.lam != 1
        for chart in ("st", "ST"):
            _, m = model.cleared(chart)
            H, m_dense = cleared_chart_poly(model, chart)
            Hp = [i * c for i, c in enumerate(H)][1:]
            assert m == m_dense, (p, chart)
            for t in centers:
                assert model.chart_values(chart, t) == (_eval_int(H, t), _eval_int(Hp, t)), (p, t)
        if p != 2 and (p < 10**4 or cert.method in ("good-reduction-hw", "fp-smooth-lift")):
            assert _scan_fp_point(model, p, ("st", "ST")) == scan_fp_point_dense(model, p), p
            scanned += 1
    assert rescaled > 0 and scanned > 0


def test_witness_at_a_prime_of_ab_is_the_one_term_scan():
    # where p divides num(A) num(B) the reversed chart reduces to
    # a S^2 = b (1 - r T^(g+1)); every fp-smooth-lift certificate there, on
    # the g = 1 grids, has its witness on that chart at the first T where
    # the reference scan finds a smooth point
    primes_of = functools.cache(lambda n: set(factorize(n)[0]))
    checked = 0
    for h in (0, 1):
        params = sieve_params(1, h, bound=10**7, count=1)[0]
        for theta in default_theta_grid():
            co = fiber_coeffs(params, theta)
            curve = build_curve(co)
            for p in sorted(primes_of(co.A.numerator) | primes_of(co.B.numerator)):
                cert = certify_local_curve(curve, Place.finite(p))
                model = cert.model
                vA, vB = padic_val(model.A, p), padic_val(model.B, p)
                if cert.method != "fp-smooth-lift" or vA == vB == 0:
                    continue
                r = frac_mod(model.B if vA > 0 else model.A, p)
                _, T = find_smooth_fp_point(frac_mod(model.a, p), frac_mod(model.b, p),
                                            r, 1, p)
                assert (cert.witness.chart, cert.witness.t_center) == ("ST", T), (h, theta, p)
                checked += 1
    assert checked > 50


def test_root_margin_is_strict():
    # s^2 = (t^2 - A)(t^2 - B) at t = 1 over Q_5 with B = -9: A = -4 puts
    # v(H(1)) = v(50) = 2 on the margin 2 v(H'(1)) = 2 v(30), so no root
    # witness; A = -24 gives v(250) = 3 > 2 v(70) = 2.  Witness.verify and
    # the witness builder must agree on both sides of the margin.
    for A, accepted in ((-4, False), (-24, True)):
        curve = HyperellipticCurve(a=Fraction(1), b=Fraction(1), A=Fraction(A),
                                   B=Fraction(-9), genus=1)
        wit = _root_witness(curve, "st", 5, 1)
        assert (wit is not None) == accepted
        claimed = Witness(kind="root", chart="st", prime=5, t_center=1,
                          val=2 + accepted, mu=1)
        assert claimed.verify(curve) == accepted


# ----- surface points -----------------------------------------------------------

def test_delta_surface_points_verify():
    surface = build_surface(CO_0)
    res = certify_all_local(CURVE_0)
    from hassecert.family import admissible_model

    for pl in res.critical.places:
        cert = res.certificates[pl]
        if pl.is_real:
            pt = delta_surface_point(surface, pl, cert, None)
            assert pt[3] is not None
            continue
        model = admissible_model(surface, pl.p)
        ctx = ResidueContext.of(model, pl.p)
        pt = delta_surface_point(model, pl, cert, ctx)
        q1, q2 = _residue_quadrics(model, pt, pl.p, ctx.prec)
        assert q1 == 0 and q2 == 0


@pytest.mark.parametrize("theta", ["1/2", "1/3", "-2/3", "3/2", "inf", "1/1753", "1/3073009"])
def test_delta_images_at_primes_of_den_theta(theta):
    # the witness at a prime of den(theta) (at a for theta = inf) lives on
    # the integral model, and the image is read on the pair of it and the
    # admissible model; at p = a = 1753, for inf, 1/a and 1/a^2 at h = 0
    # and 1, mu = lambda_curve / lambda_surface is not 1, and these cover
    # both p = a branches of admissible_model (k > 0 and k < 0)
    from hassecert.brauer import certify_invariant, evaluate_invariant_at_point
    from hassecert.family import admissible_model

    th = Theta.parse(theta)
    for params in (PARAMS, PARAMS_H1):
        co = fiber_coeffs(params, th)
        curve, surface = build_curve(co), build_surface(co)
        primes = [params.a] if th.is_infinity else factorize(th.value.denominator)[0]
        for p in primes:
            place = Place.finite(p)
            model = admissible_model(surface, p)
            ctx = ResidueContext.of(model, p)
            cert = certify_local_curve(curve, place)
            assert (cert.model.lam / model.lam != 1) == (p == params.a), (params.h, p)
            pt = delta_surface_point(model, place, cert, ctx)
            assert _residue_quadrics(model, pt, p, ctx.prec) == (0, 0)
            value = certify_invariant(model, place).value
            assert evaluate_invariant_at_point(model, pt, place, ctx) == value


def test_exact_witness_delta_image_on_a_surface_without_coeffs():
    # the control pair a = 2, b = 1, A = 1, B = 4, C = 1, built without
    # FamilyCoeffs: at p = 3 the (g+1)-th power lemma lands on the exact
    # root t = 1, and its delta image, read with the model's own C, passes
    # the quadrics
    F = Fraction
    curve = HyperellipticCurve(a=F(2), b=F(1), A=F(1), B=F(4), genus=1)
    surface = DP4Surface(a=F(2), b=F(1), A=F(1), B=F(4), C=F(1), genus=1)
    place = Place.finite(3)
    cert = certify_local_curve(curve, place)
    assert cert.method == "g+1-power"
    assert (cert.witness.kind, cert.witness.t_center) == ("exact", 1)
    ctx = ResidueContext.of(surface, 3)
    pt = delta_surface_point(surface, place, cert, ctx)
    assert _residue_quadrics(surface, pt, 3, ctx.prec) == (0, 0)


def test_good_reduction_failures_raise(monkeypatch):
    # a count outside the Hasse-Weil window, or no liftable residue, is a
    # broken argument: it raises instead of falling through to later paths
    from hassecert import local

    place = Place.finite(11)
    assert certify_local_curve(CURVE_0, place).method == "good-reduction-hw"
    monkeypatch.setattr(local, "count_points_hyperelliptic", lambda f, g, p: 0)
    with pytest.raises(ArithmeticError, match="escaped the Hasse-Weil window at 11"):
        certify_local_curve(CURVE_0, place)
    monkeypatch.undo()
    monkeypatch.setattr(local, "_scan_fp_point", lambda model, p, charts: None)
    with pytest.raises(ArithmeticError, match="no liftable residue"):
        certify_local_curve(CURVE_0, place)


def test_good_reduction_above_the_count_cap_cites_hasse_weil():
    # above COUNT_CAP no count is made: the certificate rests on the
    # Hasse-Weil bound, and its witness still re-verifies
    from hassecert.local import COUNT_CAP

    curve = HyperellipticCurve(a=Fraction(1), b=Fraction(2), A=Fraction(1), B=Fraction(2),
                               genus=1)
    place = Place.finite(200_003)
    assert place.p > COUNT_CAP
    cert = certify_local_curve(curve, place)
    assert cert.solvable and cert.method == "fp-smooth-lift"
    assert cert.hypotheses[-1] == "p too large to count; existence via the Hasse-Weil bound"
    assert cert.witness.verify(integral_model(curve, place.p))


def test_sampler_points_satisfy_quadrics():
    # theta = 0: the fiber is its own admissible model at every p
    surface = build_surface(CO_0)
    for p in (11, PARAMS.c, PARAMS.a):
        ctx = ResidueContext.of(surface, p)
        pts = sample_surface_points(surface, Place.finite(p), 5, ctx, seed=1)
        assert len(pts) == 5
        for pt in pts:
            q1, q2 = _residue_quadrics(surface, pt, p, ctx.prec)
            assert q1 % ctx.pk1 == 0
            assert q2 % ctx.pk1 == 0
    real_pts = sample_surface_points(surface, Place.real(), 3, None, seed=1)
    assert len(real_pts) == 3


def test_sampler_budget_error(monkeypatch):
    from hassecert import local

    monkeypatch.setattr(local, "SAMPLER_BUDGET", 5)
    surface = build_surface(CO_0)
    ctx = ResidueContext.of(surface, 11)
    with pytest.raises(SamplerBudgetExceeded):
        sample_surface_points(surface, Place.finite(11), 10**6, ctx)


# ----- the residue context ---------------------------------------------------

@pytest.mark.parametrize("theta, p", [
    ("0", 2), ("0", PARAMS.a), ("0", PARAMS.c), ("1/2", 2), ("1/3", 3), ("-2/3", 3),
    ("inf", 2), ("inf", PARAMS.a), ("inf", PARAMS.c),
])
def test_residue_context_matches_model_and_callers(theta, p):
    # 2, the place of a (v_p(a) = 1), primes of den(theta) and theta = inf:
    # the context holds the model's own residues, its quadrics are the
    # oracle's at the delta image and the sampled points, and every point
    # evaluates to the certified value
    from hassecert.arith import frac_mod, legendre, square_class
    from hassecert.brauer import certify_invariant, evaluate_invariant_at_point
    from hassecert.family import admissible_model
    from hassecert.local import _working_precision

    th = Theta.parse(theta)
    co = fiber_coeffs(PARAMS, th)
    curve, surface = build_curve(co), build_surface(co)
    model = admissible_model(surface, p)
    place = Place.finite(p)
    ctx = ResidueContext.of(model, p)
    prec = _working_precision(model, p)
    assert (ctx.p, ctx.prec, ctx.pk, ctx.pk1, ctx.m) == (
        p, prec, p**prec, p ** (prec - 1), p ** (prec + 2))
    assert (ctx.rooter.p, ctx.rooter.prec) == (p, prec)
    margin = 3 if p == 2 else 1
    assert ctx.deepest == prec - 1 - margin
    assert ctx.coeffs == tuple(frac_mod(getattr(model, k), ctx.m) for k in "abABC")
    alpha, unit = square_class(model.a, p)
    assert ctx.a_val == alpha == padic_val(model.a, p)
    assert ctx.a_char == (unit % 8 if p == 2 else legendre(unit, p))
    assert ctx.a_inv * frac_mod(model.a / p ** max(0, alpha), ctx.m) % ctx.m == 1
    if p == PARAMS.a:
        assert alpha == 1

    pts = sample_surface_points(model, place, 9, ctx)
    delta = delta_surface_point(model, place, certify_local_curve(curve, place), ctx)
    value = certify_invariant(model, place).value
    for pt in [delta] + pts:
        assert ctx.quadrics(pt) == _residue_quadrics(model, pt, p, ctx.prec)
        assert evaluate_invariant_at_point(model, pt, place, ctx) == value


def test_precision_error_reads_the_context_precision():
    # a point is a bare tuple and its context alone knows the precision: a
    # sampled point evaluates in its context, and an indeterminate point is
    # refused at the context's precision; the real place has no context,
    # and its refusal names no precision
    from hassecert.brauer import PrecisionError, evaluate_invariant_at_point

    place = Place.finite(PARAMS.c)
    surface = build_surface(CO_0)
    ctx = ResidueContext.of(surface, PARAMS.c)
    (pt,) = sample_surface_points(surface, place, 1, ctx)
    assert evaluate_invariant_at_point(surface, pt, place, ctx) is not None
    with pytest.raises(PrecisionError) as err:
        evaluate_invariant_at_point(surface, (0, 0, 0, 0, 0), place, ctx)
    assert str(err.value) == (f"every slot representation is indeterminate at {place} "
                              f"to precision {ctx.prec}")
    with pytest.raises(PrecisionError) as err:
        evaluate_invariant_at_point(surface, (0, 0, 0, 0, 0), Place.real(), None)
    assert str(err.value) == "every slot representation is indeterminate at real"


@pytest.mark.parametrize("p", [2, 3, 5, 73, 1753, 6671001769760072149, 1598673339833924063])
def test_squareness_pretest_predicts_residue_sqrt(p):
    # the rooter's test is exact for every residue not divisible by
    # p^(prec-1): it passes a residue iff its value is a square in Q_p
    # (even valuation, and a unit part that is a square mod p, or 1 mod 8
    # at p = 2), and the lift then gives the oracle's root.  A residue
    # divisible by p^(prec-1), zero included, is refused.  The large primes
    # are critical primes of the g = 1, h = 0 fibers theta = 3/5 (p = 5
    # mod 8) and theta = 4/3 (p = 7 mod 8).
    import random

    from hassecert.arith import ResidueRooter
    from oracles import exact_padic_sqrt

    rng = random.Random(p)
    prec = 6
    m, pk1 = p ** (prec + 2), p ** (prec - 1)
    rooter = ResidueRooter(p, prec)
    passed = 0
    for v in range(prec - 1):
        for _ in range(40):
            r = rng.randrange(1, p ** (prec + 2 - v)) * p**v % m
            if r % p ** (v + 1) == 0:
                continue
            unit = r // p**v
            square = v % 2 == 0 and (unit % 8 == 1 if p == 2
                                     else pow(unit, (p - 1) // 2, p) == 1)
            token = rooter.test(r)
            assert (token is not None) == square, (r, p)
            want = exact_padic_sqrt(r, p, prec)
            assert (want is not None) == square, (r, p)
            if token is not None:
                assert rooter.lift(token) == want, (r, p)
                passed += 1
    assert passed >= 10
    assert rooter.test(0) is None and rooter.test(pk1) is None
    assert rooter.test(p**prec) is None  # even valuation, but deep
    if p == 2:
        # 3 is not 1 mod 8: rejected before any lift
        assert rooter.test(3) is None


def test_config_grid_spec():
    from hassecert.cli import RunConfig

    cfg = RunConfig.from_json({
        "g": "1", "h": "0",
        "theta_grid": {"num_max": "2", "den_max": "1", "include_infinity": False},
    })
    names = [str(t) for t in cfg.theta_list]
    assert names == ["-2", "-1", "0", "1", "2"]
