"""The direct surface sampler against an exact-rational oracle of the same
draw, its draw helper against randrange, and the residue square root and
_exact_padic_sqrt against the inverting Hensel oracle."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from hassecert import local
from hassecert.arith import Place, ResidueRooter, factorize, frac_mod, padic_val
from hassecert.family import Theta, admissible_model, build_curve, build_surface, fiber_coeffs
from hassecert.local import (
    SAMPLER_BUDGET,
    ResidueContext,
    SamplerBudgetExceeded,
    _exact_padic_sqrt,
    _randbelow,
    _working_precision,
    critical_places,
    sample_surface_points,
)
from hassecert.params import sieve_params
from oracles import exact_padic_sqrt
from oracles import residue_quadrics as _residue_quadrics


PARAMS_G1 = sieve_params(1, 0, bound=10**7, count=1)[0]
PARAMS_G3 = sieve_params(3, 0, bound=10**12, count=1)[0]


# ----- oracle: every square built as an exact Fraction ----------------------

def oracle_sample(surface_model, place, n, seed=0, budget=SAMPLER_BUDGET):
    """The finite-place draw on exact rationals: the same randrange calls in
    the same order, u on the chart v = 1 and each square an exact Fraction
    rooted by the exact_padic_sqrt oracle, each point checked by
    _residue_quadrics."""
    rng = random.Random(seed)
    a, b, A, B, C = (surface_model.a, surface_model.b, surface_model.A,
                     surface_model.B, surface_model.C)
    out = []
    p = place.p
    va = max(0, int(padic_val(a, p)))
    prec = _working_precision(surface_model, p)
    pk = p**prec
    trials = 0
    while len(out) < n:
        trials += 1
        if trials > budget:
            raise SamplerBudgetExceeded(f"oracle exceeded {budget} trials at {place}")
        if va == 0 and padic_val(C, p) == 0:
            # the second quadric with v = 1, solved for u
            x = rng.randrange(pk)
            y = rng.randrange(pk)
            u = Fraction(a * y * y - x * x) / (a * C * C)
            if u == 0 or padic_val(u, p) > 0:
                continue
            z2 = (x * x + b * (u - A) * (u - B)) / a
            z = exact_padic_sqrt(z2, p, prec)
            if z is None:
                continue
            coords = (x, y, z % pk, frac_mod(u, pk), 1)
        elif va == 0:
            u = rng.randrange(1, pk)
            v = rng.randrange(1, pk)
            y = rng.randrange(pk)
            if u % p == 0 or v % p == 0:
                continue
            x2 = a * (Fraction(y) ** 2 - C * C * u * v)
            x = exact_padic_sqrt(x2, p, prec)
            if x is None:
                continue
            z2 = Fraction(y) ** 2 - C * C * u * v + b * (u - A * v) * (u - B * v) / a
            z = exact_padic_sqrt(z2, p, prec)
            if z is None:
                continue
            coords = (x % pk, y % pk, z % pk, u % pk, v % pk)
        elif va == 1:
            u1 = rng.randrange(1, pk)
            x1 = rng.randrange(pk)
            u = A + p * u1
            phi = Fraction(p * u1)
            psi = u - B
            x2 = Fraction(p) ** 2 * x1 * x1
            z2 = (x2 + b * phi * psi) / a
            z = exact_padic_sqrt(z2, p, prec)
            if z is None:
                continue
            y2 = (x2 + a * C * C * u) / a
            y = exact_padic_sqrt(y2, p, prec)
            if y is None:
                continue
            coords = ((p * x1) % pk, y % pk, z % pk, frac_mod(u, pk), 1)
        else:
            raise ValueError(f"oracle does not handle v_p(a) = {va}")
        q1, q2 = _residue_quadrics(surface_model, coords, p, prec)
        if q1 % p ** (prec - 1) or q2 % p ** (prec - 1):
            continue
        out.append(coords)
    return out


# ----- the sampler draws exactly the oracle's points ------------------------

def _sample(model, place, n, seed=0):
    """The sampler's n points at a finite place, drawn in the model's
    ResidueContext."""
    return sample_surface_points(model, place, n, ResidueContext.of(model, place.p), seed)


def _height5_thetas():
    vals = sorted({Fraction(m, n) for n in range(1, 6) for m in range(-5, 6)})
    return [str(v) for v in vals] + ["inf"]


CASES = [(1, t) for t in _height5_thetas()] + [(3, "0")]


@pytest.mark.parametrize("g, theta", CASES)
def test_sampler_matches_exact_oracle(g, theta):
    # every finite critical place of the fiber, with the pipeline's draw
    # (seed 0, 9 points beside the delta image) and a second seed
    params = PARAMS_G1 if g == 1 else PARAMS_G3
    th = Theta.parse(theta)
    co = fiber_coeffs(params, th)
    curve, surface = build_curve(co), build_surface(co)
    primes = critical_places(curve).primes()
    # the required kinds of place are all present: 2, the place of a (where
    # the model has v_p(a) = 1) and every prime of den(theta)
    assert 2 in primes and params.a in primes
    if not th.is_infinity:
        assert set(factorize(th.value.denominator)[0]) <= set(primes)
    for p in primes:
        place = Place.finite(p)
        model = admissible_model(surface, p)
        if p == params.a:
            assert padic_val(model.a, p) == 1
        for seed, n in ((0, 9), (1, 3)):
            got = _sample(model, place, n, seed=seed)
            assert got == oracle_sample(model, place, n, seed=seed), (theta, p, seed)


@pytest.mark.parametrize("scale", [4, 5, 7])
def test_sampler_matches_exact_oracle_when_a_over_p_is_not_one(scale):
    # the fibers' models at the place of a have a = p exactly; scaling a by
    # a unit (4, and the non-squares 5 and 7 mod p) exercises the division
    # by a / p
    p = PARAMS_G1.a
    model = admissible_model(build_surface(fiber_coeffs(PARAMS_G1, Theta.of(0))), p)
    model = replace(model, a=model.a * scale)
    assert padic_val(model.a, p) == 1
    place = Place.finite(p)
    got = _sample(model, place, 9)
    assert got == oracle_sample(model, place, 9)


def test_a_point_off_the_quadrics_is_a_sampler_bug(monkeypatch):
    # every point is built to satisfy the quadrics, so a lifted root that
    # is off by one raises at once, naming the place, rather than ending
    # the trial
    lift = ResidueRooter.lift
    monkeypatch.setattr(ResidueRooter, "lift", lambda self, token: lift(self, token) + 1)
    co = fiber_coeffs(PARAMS_G1, Theta.of(0))
    curve, surface = build_curve(co), build_surface(co)
    for p in critical_places(curve).primes():
        place = Place.finite(p)
        with pytest.raises(ArithmeticError, match=f"misses the quadrics .* at {place}"):
            _sample(admissible_model(surface, p), place, 9)


@pytest.mark.parametrize("n", [2**8, 3**8, 1753**6, 6671001769760072149**6])
def test_randbelow_draws_the_integers_of_randrange(n):
    # the sampler's draw helper gives randrange's integers and leaves the
    # generator in randrange's state, so the oracle's draws are its draws
    for seed in range(4):
        rng, ref = random.Random(seed), random.Random(seed)
        bits = rng.getrandbits
        for _ in range(100):
            assert _randbelow(bits, n) == ref.randrange(n)
            assert 1 + _randbelow(bits, n - 1) == ref.randrange(1, n)
        assert rng.getstate() == ref.getstate()


def test_one_square_test_per_trial_where_u_is_solved(monkeypatch):
    # on the g = 1 theta = 0 fiber C = -1, so every place but the place of a
    # solves the second quadric for u: a trial draws x and y, then tests z^2
    # at most once, and lifts only after a passing test; at the place of a
    # (v_p(a) = 1) a trial tests up to two squares before it lifts.  Each
    # lifted root squares to the trial's exact z^2 mod p^prec.
    log = []

    def counting_randbelow(getrandbits, n):
        r = _randbelow(getrandbits, n)
        log.append(("draw", r))
        return r

    class CountingRooter(ResidueRooter):
        __slots__ = ()

        def test(self, r):
            token = super().test(r)
            log.append(("test", token is not None))
            return token

        def lift(self, token):
            root = super().lift(token)
            log.append(("lift", root))
            return root

    monkeypatch.setattr(local, "_randbelow", counting_randbelow)
    monkeypatch.setattr(local, "ResidueRooter", CountingRooter)
    th = Theta.of(0)
    co = fiber_coeffs(PARAMS_G1, th)
    curve, surface = build_curve(co), build_surface(co)
    for p in critical_places(curve).primes():
        model = admissible_model(surface, p)
        a, b, A, B, C = model.a, model.b, model.A, model.B, model.C
        pk = p ** _working_precision(model, p)
        log.clear()
        pts = _sample(model, Place.finite(p), 9)
        # two draws open each trial on either shape, since C = -1 is a unit
        trials = []
        for kind, value in log:
            if kind == "draw":
                if not trials or len(trials[-1][0]) == 2:
                    trials.append(([], []))
                assert not trials[-1][1], (p, trials[-1])
                trials[-1][0].append(value)
            else:
                trials[-1][1].append((kind, value))
        max_tests = 2 if p == PARAMS_G1.a else 1
        tests = lifts = 0
        for draws, events in trials:
            verdicts = [v for k, v in events if k == "test"]
            roots = [v for k, v in events if k == "lift"]
            assert len(verdicts) <= max_tests and len(roots) <= max_tests, (p, events)
            # every lift follows the trial's tests, all of which passed
            if roots:
                assert events[:max_tests] == [("test", True)] * max_tests, (p, events)
            if roots and p != PARAMS_G1.a:
                x, y = draws
                u = Fraction(a * y * y - x * x) / (a * C * C)
                z2 = (x * x + b * (u - A) * (u - B)) / a
                assert [z * z % pk for z in roots] == [frac_mod(z2, pk)], (p, draws)
            tests += len(verdicts)
            lifts += len(roots)
        assert len(pts) == 9
        for pt in pts:
            x, y, z, u, v = pt
            assert v == 1, (p, pt)
            if p != PARAMS_G1.a:
                assert u % p, (p, pt)
        if p == 2:
            # 18 trials, 9 of them with u even, make 9 tests and 9 lifts
            # for 9 points, where the two-square draw made 57 first-square
            # tests and 18 lifts
            assert (len(trials), tests, lifts) == (18, 9, 9)


# sha256 of repr([(p, coords, prec) for each point]) over the critical
# places in order: the draws of a sampler whose rooter read the exact
# value of each residue divisible by p^(prec-1); refusing those residues
# outright must leave every draw as it was
PINNED_DRAWS = {
    "0": "d2b377aa4d2d67da3e1752f0b9e09d52df51c81ae675785fd8ef3de388f6ac78",
    "1/3": "72625a2a74fe0fd18d407d4fe93fd6c4877c4f6eca89c9790bc9098f7ff8ec6a",
}


@pytest.mark.parametrize("theta", sorted(PINNED_DRAWS))
def test_sampler_draws_are_pinned(theta):
    # the pipeline's draw (seed 0, 9 points) at every critical place of a
    # g = 1, h = 0 fiber gives the recorded points, so a change to the
    # rooter or the trial shapes that moves a draw shows here
    co = fiber_coeffs(PARAMS_G1, Theta.parse(theta))
    curve, surface = build_curve(co), build_surface(co)
    digest = hashlib.sha256()
    for p in critical_places(curve).primes():
        model = admissible_model(surface, p)
        ctx = ResidueContext.of(model, p)
        pts = sample_surface_points(model, Place.finite(p), 9, ctx)
        digest.update(repr([(p, pt, ctx.prec) for pt in pts]).encode())
    assert digest.hexdigest() == PINNED_DRAWS[theta]


def test_cases_include_theta_inf_and_den_theta_primes():
    thetas = [t for g, t in CASES if g == 1]
    assert len(thetas) == 40 and "inf" in thetas
    assert any(Fraction(t).denominator > 1 for t in thetas if t != "inf")
    assert (3, "0") in CASES


@pytest.mark.parametrize("theta, p", [("1", 2), ("1", 3), ("-1", 73)])
def test_cases_reach_places_that_keep_the_two_square_draw(theta, p):
    # the oracle cases reach places with v_p(a) = 0 and p | C, where u
    # cannot be solved for and the sampler draws u, v and y; p = 2 among them
    assert (1, theta) in CASES
    co = fiber_coeffs(PARAMS_G1, Theta.parse(theta))
    assert p in critical_places(build_curve(co)).primes()
    model = admissible_model(build_surface(co), p)
    assert padic_val(model.a, p) == 0 and padic_val(model.C, p) > 0


# ----- the residue square root ----------------------------------------------

def _residue_sqrt(r, p, prec):
    """The sampler's verdict and root for one residue r = x mod p^(prec+2)."""
    rooter = ResidueRooter(p, prec)
    token = rooter.test(r)
    return None if token is None else rooter.lift(token)


def _p_integral(rng, p, v):
    """A random rational of valuation exactly v, denominator prime to p."""
    num = rng.randrange(1, 10**6)
    while num % p == 0:
        num = rng.randrange(1, 10**6)
    den = rng.randrange(1, 10**3)
    while den % p == 0:
        den = rng.randrange(1, 10**3)
    return Fraction(rng.choice((-1, 1)) * num * p**v, den)


@pytest.mark.parametrize("p", [2, 3, 5, 73])
def test_residue_sqrt_matches_exact(p):
    rng = random.Random(p)
    for prec in (6, 7, 9):
        m = p ** (prec + 2)
        for v in range(prec + 1):
            for _ in range(30):
                x = _p_integral(rng, p, v)
                want = exact_padic_sqrt(x, p, prec)
                assert _residue_sqrt(frac_mod(x, m), p, prec) == want, (x, p, prec)
                assert _exact_padic_sqrt(x, p, prec) == want, (x, p, prec)


@pytest.mark.parametrize("p", [2, 7])
def test_residue_sqrt_zero_and_deep_values(p):
    prec = 6
    m = p ** (prec + 2)
    # an exact zero is refused: its residue does not tell it from a deep
    # nonzero value
    assert _residue_sqrt(0, p, prec) is None
    assert _exact_padic_sqrt(0, p, prec) is None
    # nonzero values that vanish mod p^(prec-1) are too deep: None, even
    # when the residue itself is 0
    for x in (Fraction(p ** (prec - 1)), Fraction(p ** (prec + 2), 3), Fraction(p ** (prec + 4))):
        assert _residue_sqrt(frac_mod(x, m), p, prec) is None
        assert _exact_padic_sqrt(x, p, prec) is None
    # a value that is not p-integral has no residue
    assert _exact_padic_sqrt(Fraction(1, p * p), p, prec) is None
