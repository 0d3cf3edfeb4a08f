from fractions import Fraction

import pytest

from hassecert.arith import Place, factorize, padic_val
from hassecert.family import (
    HyperellipticCurve,
    Theta,
    build_curve,
    build_surface,
    fiber_coeffs,
    integral_model,
)
from hassecert.local import (
    CriticalSet,
    SamplerBudgetExceeded,
    Witness,
    certify_all_local,
    certify_local_curve,
    cleared_chart_poly,
    critical_places,
    delta_surface_point,
    sample_surface_points,
    _blanket_check,
    _eval_int,
    _residue_quadrics,
    _root_witness,
)
from hassecert.params import sieve_params
from hassecert.polynomials import Polynomial
from oracles import (
    decide_qp_charts,
    decide_qp_points,
    decide_real_points,
    default_depth_bound,
)


PARAMS = sieve_params(1, 0, bound=10**7, count=1)[0]
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
    v_affine = decide_qp_charts(curve.f_poly(), Polynomial([3]), 3)[0]
    assert v_affine is False


def test_decide_negative_case_and_depth_stability():
    # 3(t^2-3)(t^2-5) over Q_3 has no points on either chart
    curve = HyperellipticCurve(a=Fraction(1), b=Fraction(3),
                               A=Fraction(3), B=Fraction(5), genus=1)
    verdict, _ = decide_qp_points(curve, 3)
    assert verdict is False
    # no-false-negative: deeper exploration cannot flip a refutation
    for extra in (2, 4):
        f, F = curve.f_poly(), curve.F_poly()
        bound = default_depth_bound(f, 3) + extra
        assert decide_qp_charts(f, F, 3, depth_bound=bound)[0] is False


def test_decide_agrees_with_oracle_on_fiber_primes():
    for theta in (Theta.of(0), Theta.of(1), Theta.of(1, 2)):
        curve = build_curve(fiber_coeffs(PARAMS, theta))
        for p in (3, 5, 7, 11, 13):
            model, _ = integral_model(curve, p)
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
    full = _blanket_check(curve, crit, sample_count=1)
    assert full.ok and f"{inclusion}: True" in full.statements
    dropped = CriticalSet(places=[pl for pl in crit.places if pl != Place.finite(q)],
                          provenance=crit.provenance)
    blanket = _blanket_check(curve, dropped, sample_count=1)
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
    res = certify_all_local(CURVE_0, sample_count=1)
    assert not res.solvable_everywhere
    assert res.failures == [(place, "refused", f"refused: no local lemma applies at {place}")]
    assert res.certificates[place].solvable is None


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
        model = CURVE_0 if pl.is_real else integral_model(CURVE_0, pl.p)[0]
        assert cert.witness.verify(model)


def test_witness_reverification_from_json_alone():
    # an external consumer must be able to confirm a sqrt witness with
    # nothing but the serialized fields and the model's chart polynomial
    res = certify_all_local(CURVE_0)
    checked = 0
    for pl, cert in res.certificates.items():
        w = cert.witness
        if w is None or pl.is_real or w.kind != "sqrt":
            continue
        data = w.to_json()
        p = int(data["prime"])
        sigma = int(data["sigma"])
        prec = int(data["precision"])
        t_center = int(data["t_center"])
        model, _ = integral_model(CURVE_0, p)
        H, _ = cleared_chart_poly(model, data["chart"])
        V = _eval_int(H, t_center)
        assert (sigma * sigma - V) % p**prec == 0
        assert V != 0 and prec > padic_val(V, p)  # the Hensel margin
        checked += 1
    assert checked >= 2


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
            pt = delta_surface_point(surface, CURVE_0, pl, cert)
            assert pt.coords[3] is not None
            continue
        model, _ = admissible_model(surface, pl.p, CO_0.theta)
        pt = delta_surface_point(model, CURVE_0, pl, cert)
        q1, q2 = _residue_quadrics(model, pt, pl.p, pt.prec)
        assert q1 == 0 and q2 == 0


@pytest.mark.parametrize("theta", ["1/2", "1/3", "-2/3", "3/2"])
def test_delta_images_at_primes_of_den_theta(theta):
    # the witness at a prime of den(theta) lives on the integral model;
    # on its reversed chart T scales by 1/t_mult and S does not change
    from hassecert.brauer import certify_invariant, evaluate_invariant_at_point
    from hassecert.family import admissible_model

    th = Theta.parse(theta)
    co = fiber_coeffs(PARAMS, th)
    curve, surface = build_curve(co), build_surface(co)
    for p in factorize(th.value.denominator)[0]:
        place = Place.finite(p)
        model, _ = admissible_model(surface, p, th)
        pt = delta_surface_point(model, curve, place, certify_local_curve(curve, place))
        assert _residue_quadrics(model, pt, p, pt.prec) == (0, 0)
        value = certify_invariant(surface, place, th).value
        assert evaluate_invariant_at_point(model, pt, place) == value


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
    monkeypatch.setattr(local, "_scan_fp_point", lambda model, p: None)
    with pytest.raises(ArithmeticError, match="no liftable residue"):
        certify_local_curve(CURVE_0, place)


def test_sampler_points_satisfy_quadrics():
    surface = build_surface(CO_0)
    for p in (11, PARAMS.c, PARAMS.a):
        pts = sample_surface_points(surface, Place.finite(p), 5, seed=1)
        assert len(pts) == 5
        for pt in pts:
            q1, q2 = _residue_quadrics(surface, pt, p, pt.prec)
            assert q1 % p ** (pt.prec - 1) == 0
            assert q2 % p ** (pt.prec - 1) == 0
    real_pts = sample_surface_points(surface, Place.real(), 3, seed=1)
    assert len(real_pts) == 3


def test_sampler_budget_error():
    surface = build_surface(CO_0)
    with pytest.raises(SamplerBudgetExceeded):
        sample_surface_points(surface, Place.finite(11), 10**6, budget=5)


def test_config_grid_spec():
    from hassecert.cli import RunConfig

    cfg = RunConfig.from_json({
        "g": "1", "h": "0",
        "theta_grid": {"num_max": "2", "den_max": "1", "include_infinity": False},
    })
    names = [str(t) for t in cfg.theta_list]
    assert names == ["-2", "-1", "0", "1", "2"]
