import random
from fractions import Fraction

import pytest

from hassecert.arith import factorize, padic_val
from hassecert.family import (
    DP4Surface,
    FamilyCoeffs,
    HyperellipticCurve,
    NonvanishingError,
    Theta,
    admissible_model,
    build_curve,
    build_surface,
    check_nonvanishing,
    check_smooth_curve,
    check_smooth_surface,
    delta_coords,
    fiber_coeffs,
    integral_model,
    j_invariant,
    smoothness_quartic,
)
from hassecert.params import ParamSet, sieve_params
from oracles import (
    F_poly,
    evaluate,
    f_poly,
    quadric_residuals,
    rederived_admissible_model,
    rederived_fiber_coeffs,
    rederived_integral_model,
)


PARAMS = sieve_params(1, 0, bound=10**7, count=1)[0]
PARAMS_H1 = sieve_params(1, 1, bound=10**7, count=1)[0]


def F(*args):
    return Fraction(*args)


def test_theta_parse():
    assert Theta.parse("inf").is_infinity
    assert Theta.parse("-3/2").value == F("-3/2")
    assert str(Theta.of(22, 7)) == "22/7"
    assert Theta.from_json(Theta.of(1, 3).to_json()) == Theta.of(1, 3)


def test_coeffs_theta_zero():
    a, b, c, d = PARAMS.a, PARAMS.b, PARAMS.c, PARAMS.d
    co = fiber_coeffs(PARAMS, Theta.of(0))
    assert co.A == b * c * c * d
    assert co.B == b * c * c * d + 2 * c
    assert co.C == -1
    assert co.D == -1


def test_coeffs_theta_infinity():
    a, b = PARAMS.a, PARAMS.b
    h = PARAMS.h
    co = fiber_coeffs(PARAMS, Theta.infinity())
    assert co.D == F(a) ** (2 * h + 1) * F(b) ** (2 * h + 1)
    assert co.C == F(a) ** (2 * h + 1)


def test_coeffs_invariant_random_theta():
    rng = random.Random(21)
    c = PARAMS.c
    for _ in range(40):
        th = Theta.of(rng.randrange(-100, 101), rng.randrange(1, 101))
        co = fiber_coeffs(PARAMS, th)
        assert co.B - co.A == 2 * c * co.D**2
        check_nonvanishing(co)


@pytest.mark.parametrize("g, h", [(1, 0), (1, 1), (3, 0), (5, 1), (5, 4)])
def test_fiber_coeffs_match_the_two_branch_formula(g, h):
    # fiber_coeffs reads every fiber, theta = infinity included, off
    # X = a^(2h+1) theta^(g+1); it equals the formula with infinity as a
    # branch of its own.  The quadruple need not be verified here
    ps = ParamSet(a=17, b=13, c=5, d=7, omega0=(3,), g=g, h=h)
    thetas = [Theta.of(0), Theta.infinity(), Theta.of(1, ps.a), Theta.of(3, ps.a**2)]
    thetas += [Theta.of(s * m, n) for m in range(1, 6) for n in range(1, 6) for s in (1, -1)]
    for th in thetas:
        co = fiber_coeffs(ps, th)
        got = (co.A, co.B, co.C, co.D)
        assert got == rederived_fiber_coeffs(ps, th), (g, h, th)
        assert all(type(x) is Fraction for x in got)


def test_nonvanishing_names_symbol():
    co = FamilyCoeffs(A=F(1), B=F(2), C=F(3), D=F(0), theta=Theta.of(0), params=PARAMS)
    with pytest.raises(NonvanishingError) as ei:
        check_nonvanishing(co)
    assert ei.value.symbol == "D"


def test_build_curve_theta_zero_polynomial():
    co = fiber_coeffs(PARAMS, Theta.of(0))
    curve = build_curve(co)
    f = f_poly(curve)
    # f(t) = (b/a)(t^2 - A)(t^2 - B) for g = 1
    a, b = F(PARAMS.a), F(PARAMS.b)
    t = F(5, 3)
    assert evaluate(f, t) == (b / a) * (t * t - co.A) * (t * t - co.B)
    assert curve.chart_value("st", t) == evaluate(f, t)
    # chart consistency: F is the reversal of f, so the ST triple is the st
    # triple with c0 and c_2n swapped
    Fp = F_poly(curve)
    assert list(Fp.coeffs) == list(reversed(f.coeffs))
    for chart, dense in (("st", f), ("ST", Fp)):
        h, m = curve.cleared(chart)
        assert tuple(F(c, m * m) for c in h) == dense.coeffs[::2]
    T = F(2, 7)
    assert evaluate(Fp, T) == T**4 * evaluate(f, 1 / T)
    assert curve.chart_value("ST", T) == evaluate(Fp, T)


def test_smoothness_random_theta_and_special_fibers():
    rng = random.Random(22)
    thetas = [Theta.of(0), Theta.infinity()]
    for _ in range(25):
        thetas.append(Theta.of(rng.randrange(-100, 101), rng.randrange(1, 101)))
    for ps in (PARAMS, PARAMS_H1):
        for th in thetas:
            co = fiber_coeffs(ps, th)
            check_nonvanishing(co)
            assert check_smooth_curve(build_curve(co))
            assert check_smooth_surface(build_surface(co))


def test_smooth_curve_rejects_equal_AB():
    cv = HyperellipticCurve(a=F(1), b=F(1), A=F(2), B=F(2), genus=1)
    assert not check_smooth_curve(cv)


def test_smooth_surface_rejects_constructed_quartic_zero():
    # pick a, b, C, B-A freely, then solve for A zeroing the quartic
    a, b, C, delta = F(3), F(5), F(2), F(7)
    A = -(b**2 * delta**2 + 2 * a * b * C**2 * delta + a**2 * C**4) / (4 * a * b * C**2)
    B = A + delta
    assert smoothness_quartic(a, b, A, B, C) == 0
    surf = DP4Surface(a=a, b=b, A=A, B=B, C=C, genus=1)
    assert not check_smooth_surface(surf)
    # nudging A restores smoothness
    surf2 = DP4Surface(a=a, b=b, A=A + 1, B=B, C=C, genus=1)
    assert check_smooth_surface(surf2)


def test_delta_residual_identity():
    # on the image of delta, the second quadric vanishes identically and
    # the first reduces to -a times the curve-chart residual, so genuine
    # curve points (residual zero) map to genuine surface points: on the
    # fiber pair (mu = 1), and on the (integral_model, admissible_model)
    # pair at p = a, read through mu = lambda_curve / lambda_surface, a
    # positive integer other than 1 on each of these fibers: theta = inf,
    # and both p = a branches, k > 0 (1/a and 1/a^2 at h = 0, 1/a^2 at
    # h = 1) and k < 0 (1/a at h = 1)
    rng = random.Random(23)
    a = PARAMS.a
    pairs = []
    for th in (Theta.of(2, 3), Theta.of(0), Theta.infinity()):
        co = fiber_coeffs(PARAMS, th)
        pairs.append((build_curve(co), build_surface(co), 1))
    for ps in (PARAMS, PARAMS_H1):
        for th in (Theta.infinity(), Theta.of(1, a), Theta.of(1, a * a)):
            co = fiber_coeffs(ps, th)
            curve, surf = integral_model(build_curve(co), a), admissible_model(build_surface(co), a)
            mu = curve.lam / surf.lam
            assert mu != 1 and mu.denominator == 1 and mu > 0, (ps.h, th)
            for val in (curve.A, curve.B, surf.A, surf.B, surf.C):
                assert padic_val(val, a) >= 0, (ps.h, th)
            pairs.append((curve, surf, mu))
    for curve, surf, mu in pairs:
        for _ in range(10):
            t = F(rng.randrange(-50, 51), rng.randrange(1, 20))
            s = F(rng.randrange(-50, 51), rng.randrange(1, 20))
            for chart in ("st", "ST"):
                pt = delta_coords(chart, s, t, surf.C, surf.genus, mu)
                q1, q2 = quadric_residuals(surf, pt)
                assert q2 == 0
                assert q1 == -surf.a * (s * s - curve.chart_value(chart, t))


def test_j_invariant_A_minus_B_is_1728():
    co = FamilyCoeffs(A=F(3), B=F(-3), C=F(1), D=F(1), theta=Theta.of(0), params=PARAMS)
    assert j_invariant(co) == 1728


def test_j_invariant_against_cross_ratio_oracle():
    # independent oracle: for s^2 = (t^2-A)(t^2-B) with square A, B the
    # four roots are rational and j = 256 (L^2-L+1)^3 / (L^2 (L-1)^2) with
    # L the cross-ratio of the roots
    from hassecert.arith import is_rational_square

    for A, B in ((F(4), F(1)), (F(9), F(4)), (F(25), F(1)), (F(9, 4), F(1, 4))):
        rA, rB = is_rational_square(A), is_rational_square(B)
        r1, r2, r3, r4 = rA, -rA, rB, -rB
        lam = (r1 - r3) * (r2 - r4) / ((r1 - r4) * (r2 - r3))
        oracle = 256 * (lam * lam - lam + 1) ** 3 / (lam * lam * (lam - 1) ** 2)
        co = FamilyCoeffs(A=A, B=B, C=F(1), D=F(1), theta=Theta.of(0), params=PARAMS)
        assert j_invariant(co) == oracle, (A, B)


def test_j_invariant_distinct_on_fibers():
    j0 = j_invariant(fiber_coeffs(PARAMS, Theta.of(0)))
    j1 = j_invariant(fiber_coeffs(PARAMS, Theta.of(1)))
    assert j0 != j1


def test_j_invariant_rejections():
    g3 = sieve_params(3, 0, bound=10**12, count=1)[0]
    co3 = fiber_coeffs(g3, Theta.of(0))
    with pytest.raises(ValueError):
        j_invariant(co3)
    bad = FamilyCoeffs(A=F(1), B=F(1), C=F(1), D=F(0), theta=Theta.of(0), params=PARAMS)
    with pytest.raises(ZeroDivisionError):
        j_invariant(bad)


def _slot_transports_by_lam(surf, model, u, v):
    # the fiber's (u : v) is (u : v / lam^2) on the model, where the slot
    # b(u - Av)/v is lam^2, a square, times the fiber's
    vm = v / model.lam**2
    slot_model = model.b * (u - model.A * vm) / vm
    slot_orig = surf.b * (u - surf.A * v) / v
    return slot_orig == slot_model / model.lam**2


def test_integral_model_identity_when_integral():
    co = fiber_coeffs(PARAMS, Theta.of(3))
    curve = build_curve(co)
    model = integral_model(curve, 7)
    assert model.lam == 1 and model.A == co.A


def test_integral_model_clears_denominator():
    p = 7
    co = fiber_coeffs(PARAMS, Theta.of(1, p))
    curve = build_curve(co)
    model = integral_model(curve, p)
    lam = model.lam

    assert lam == p ** (PARAMS.g + 1)
    assert padic_val(model.A, p) >= 0
    assert padic_val(model.B, p) >= 0
    assert model.A != model.B
    # round trip: the model point (s, t) is the fiber point
    # (s / lam^2, t / p^2), and the residuals differ by lam^4
    t_model = F(3)
    s_model = F(5)
    lhs = s_model**2 - model.chart_value("st", t_model)
    t_orig = t_model / p**2
    s_orig = s_model / lam**2
    rhs = s_orig**2 - curve.chart_value("st", t_orig)
    assert rhs == lhs / lam**4


def test_admissible_model_theta_zero_identity():
    co = fiber_coeffs(PARAMS, Theta.of(0))
    surf = build_surface(co)
    for p in (2, PARAMS.a, PARAMS.b, PARAMS.c, 11):
        model = admissible_model(surf, p)
        assert model == surf and model.lam == 1


def test_admissible_model_infinity_dot():
    a, b, c, d = PARAMS.a, PARAMS.b, PARAMS.c, PARAMS.d
    h = PARAMS.h
    co = fiber_coeffs(PARAMS, Theta.infinity())
    surf = build_surface(co)
    model = admissible_model(surf, 11)
    assert model.A == a + F(b) ** (4 * h + 3) * c * c * d
    assert model.C == 1
    assert model.lam == F(1, a ** (2 * h + 1))
    assert _slot_transports_by_lam(surf, model, F(9), F(4))


def test_admissible_model_clears_theta_denominator():
    p = 11
    th = Theta.of(3, p)
    co = fiber_coeffs(PARAMS, th)
    surf = build_surface(co)
    model = admissible_model(surf, p)
    for val in (model.A, model.B, model.C):
        assert padic_val(val, p) >= 0
    assert model.A != model.B
    assert model.lam == p ** (PARAMS.g + 1)
    assert _slot_transports_by_lam(surf, model, F(9), F(4))


def test_admissible_model_at_a_negative_valuation():
    a = PARAMS.a
    for l, ps in ((1, PARAMS), (1, PARAMS_H1), (2, PARAMS_H1)):
        th = Theta.of(3, a**l)
        co = fiber_coeffs(ps, th)
        surf = build_surface(co)
        model = admissible_model(surf, a)
        for val in (model.A, model.B, model.C):
            assert padic_val(val, a) >= 0, (l, ps.h, val)
        assert model.A != model.B
        k = (ps.g + 1) * l - (2 * ps.h + 1)
        assert model.lam == (a**k if k > 0 else 1), (l, ps.h)
        assert _slot_transports_by_lam(surf, model, F(10), F(3))


def test_scaled_models_match_the_rederived_models():
    # every local model is the fiber scaled by one lambda; it equals, field
    # by field and lambda included, the model rebuilt from the family
    # formulas with p^l (or a power of a) cleared out of theta
    seen = {"curve rescaled": 0, "surface rescaled": 0, "p = a, k < 0": 0, "p = a, k > 0": 0}
    for g, h, bound in ((1, 0, 10**7), (1, 1, 10**7), (1, 2, 10**7), (3, 0, 10**12)):
        ps = sieve_params(g, h, bound=bound, count=1)[0]
        a, b, c, d = ps.a, ps.b, ps.c, ps.d
        dens = (1, 2, 3, 4, 5, 7, 9, 12, 25, 49, a, a * a, 2 * a, 3 * a**3, b, c * d)
        thetas = {Theta.infinity()} | {Theta.of(m, n) for m in range(-6, 7) for n in dens}
        for th in thetas:
            co = fiber_coeffs(ps, th)
            curve, surface = build_curve(co), build_surface(co)
            den = 1 if th.is_infinity else th.value.denominator
            for p in {2, 3, 5, 7, 11, a, b, c, d} | set(factorize(den)[0]):
                model = integral_model(curve, p)
                assert model == rederived_integral_model(curve, p), (th, p)
                seen["curve rescaled"] += model.lam != 1
                model = admissible_model(surface, p)
                ref = rederived_admissible_model(surface, p, th)
                assert model == ref, (g, h, th, p)
                seen["surface rescaled"] += model.lam != 1
                if p == a and not th.is_infinity and padic_val(th.value, a) < 0:
                    k = (g + 1) * -padic_val(th.value, a) - (2 * h + 1)
                    seen["p = a, k < 0" if k < 0 else "p = a, k > 0"] += 1
    assert all(seen.values()), seen
