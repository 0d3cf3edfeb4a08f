from fractions import Fraction

import pytest

from hassecert import brauer
from hassecert.arith import Place, hilbert_symbol
from hassecert.brauer import (
    HALF,
    ZERO,
    PrecisionError,
    certify_invariant,
    evaluate_invariant_at_point,
    obstruction_certificate,
    sample_invariant,
)
from hassecert.family import (
    DP4Surface,
    Theta,
    admissible_model,
    build_curve,
    build_surface,
    fiber_coeffs,
)
from hassecert.local import (
    ResidueContext,
    SamplerBudgetExceeded,
    certify_all_local,
    certify_local_curve,
    critical_places,
    delta_surface_point,
    sample_surface_points,
    slot_terms,
)
from hassecert.params import sieve_params
from oracles import count_fraction_constructions, padic_val, slot_fractions


PARAMS = sieve_params(1, 0, bound=10**7, count=1)[0]
CO_0 = fiber_coeffs(PARAMS, Theta.of(0))
CURVE_0 = build_curve(CO_0)
SURFACE_0 = build_surface(CO_0)


def test_invariant_zero_where_a_is_square():
    # at the real place and at 2, a is a local square: value 0 regardless
    for place in (Place.real(), Place.finite(2)):
        cert = certify_invariant(SURFACE_0, place)
        assert cert.value == ZERO
        assert cert.method == "prop-square"
        assert cert.rigorous


def test_invariant_half_exactly_at_a():
    cert = certify_invariant(SURFACE_0, Place.finite(PARAMS.a))
    assert cert.value == HALF
    assert cert.method == "prop-a"
    assert cert.rigorous
    texts = [t for t, ok in cert.hypothesis_trace]
    assert any("B - A is not a square" in t for t in texts)
    assert all(ok for _, ok in cert.hypothesis_trace)


def test_invariant_at_c_via_prop_c():
    cert = certify_invariant(SURFACE_0, Place.finite(PARAMS.c))
    assert cert.value == ZERO
    assert cert.method == "prop-c"
    # c^-2 A = bd must be a nonsquare mod c, and so must a
    from hassecert.arith import legendre

    assert legendre(PARAMS.b * PARAMS.d, PARAMS.c) == -1
    assert legendre(PARAMS.a, PARAMS.c) == -1


def test_invariant_at_infinity_fiber():
    co = fiber_coeffs(PARAMS, Theta.infinity())
    surface = build_surface(co)
    cert = certify_invariant(admissible_model(surface, PARAMS.a), Place.finite(PARAMS.a))
    assert cert.value == HALF and cert.method == "prop-a"
    cert_c = certify_invariant(admissible_model(surface, PARAMS.c), Place.finite(PARAMS.c))
    assert cert_c.value == ZERO and cert_c.method == "prop-c"


def _delta_and_ctx(curve, model, place):
    """The delta image of the curve's witness at a finite place, and the
    model's ResidueContext it lies in."""
    ctx = ResidueContext.of(model, place.p)
    return delta_surface_point(model, place, certify_local_curve(curve, place), ctx), ctx


def test_sampled_values_agree_with_certified():
    for p in (PARAMS.a, PARAMS.c, 11):
        place = Place.finite(p)
        model = admissible_model(SURFACE_0, p)
        cert = certify_invariant(model, place)
        delta, ctx = _delta_and_ctx(CURVE_0, model, place)
        assert sample_invariant(model, place, delta, 10, ctx) == [cert.value] * 10, p


def _grid_thetas():
    """The 16-fiber README grid: 0, inf and m/n with |m| <= 3, 1 <= n <= 3."""
    vals = sorted({Fraction(m, n) for n in range(1, 4) for m in range(-3, 4)})
    return [str(v) for v in vals] + ["inf"]


def _oracle_symbols(model, point, place, ctx):
    """The Fraction Hilbert symbols (a, r)_p over the slot fractions r of
    oracles.slot_fractions at the point's residues (u, v) whose square
    class the residues fix (terms of valuation at most ctx.deepest)."""
    reps = slot_fractions(model, point[3], point[4], place.p, ctx.deepest)
    return {hilbert_symbol(model.a, r, place) for r in reps if r is not None}


def test_representation_independence_on_samples():
    # at every finite critical place of the grid, every determined slot
    # gives the same Fraction Hilbert symbol, and the integer evaluation
    # agrees with it
    places_seen = 0
    for theta in _grid_thetas():
        th = Theta.parse(theta)
        co = fiber_coeffs(PARAMS, th)
        surface = build_surface(co)
        for p in critical_places(build_curve(co)).primes():
            place = Place.finite(p)
            model = admissible_model(surface, p)
            ctx = ResidueContext.of(model, p)
            for pt in sample_surface_points(model, place, 8, ctx, seed=5):
                reps = slot_fractions(model, pt[3], pt[4], p, ctx.deepest)
                assert len([r for r in reps if r is not None]) >= 2 or p != PARAMS.a
                symbols = _oracle_symbols(model, pt, place, ctx)
                assert len(symbols) == 1, (theta, p)
                value = evaluate_invariant_at_point(model, pt, place, ctx)
                assert value == (ZERO if symbols.pop() == 1 else HALF), (theta, p)
            places_seen += 1
    assert places_seen >= 16 * 6


@pytest.mark.parametrize("g, theta", [(1, t) for t in _grid_thetas()] + [(3, "0")])
def test_parity_read_matches_the_general_formula(monkeypatch, g, theta):
    # at every finite critical place, at the delta image and the 9 draws:
    # each slot term's symbol ctx.symbol(t) is the Fraction Hilbert symbol
    # (a, t)_p of the exact term, None exactly where the term's valuation
    # exceeds ctx.deepest, and the value is the one the determinate slot
    # fractions' symbols give; places where p is odd and v_p(a) even, and
    # places where not, are both reached
    params = PARAMS if g == 1 else sieve_params(3, 0, bound=10**12, count=1)[0]
    co = fiber_coeffs(params, Theta.parse(theta))
    evaluate, evaluations = brauer.evaluate_invariant_at_point, []

    def recording_evaluate(model, point, place, ctx):
        value = evaluate(model, point, place, ctx)
        evaluations.append((model, point, place, ctx, value))
        return value

    monkeypatch.setattr(brauer, "evaluate_invariant_at_point", recording_evaluate)
    obs = obstruction_certificate(build_surface(co), certify_all_local(build_curve(co)))
    assert obs.conclusion
    finite = [e for e in evaluations if not e[2].is_real]
    places = {place for _, _, place, _, _ in finite}
    assert len(finite) == 10 * len(places) == 10 * (len(obs.table) - 1)
    parity_points = 0
    for model, point, place, ctx, value in finite:
        p, (u, v) = place.p, point[3:]
        exact = slot_terms(model.a, model.b, model.A, model.B, Fraction(u), Fraction(v))
        residues = slot_terms(*ctx.coeffs[:4], u, v)
        for ts, rs in zip(exact, residues):
            for t, r in zip(ts, rs):
                fixed = t != 0 and padic_val(t, p) <= ctx.deepest
                want = hilbert_symbol(model.a, t, place) if fixed else None
                assert ctx.symbol(r) == want, (theta, p)
        symbols = _oracle_symbols(model, point, place, ctx)
        parity_points += p != 2 and ctx.a_val % 2 == 0
        assert len(symbols) == 1 and value == (ZERO if symbols == {1} else HALF), (theta, p)
    assert 0 < parity_points < len(finite)


def _general_outcome(evaluate, *args):
    """An evaluation's value, or the class of the error it raises."""
    try:
        return evaluate(*args)
    except PrecisionError:
        return PrecisionError
    except ArithmeticError:
        return ArithmeticError


def _general_invariant(model, point, place, ctx):
    """evaluate_invariant_at_point read off the Fraction Hilbert symbols of
    the determinate slot fractions, at every finite place."""
    symbols = _oracle_symbols(model, point, place, ctx)
    if not symbols:
        raise PrecisionError
    if len(symbols) != 1:
        raise ArithmeticError
    return ZERO if symbols == {1} else HALF


def _off_surface_outcomes(model, p, seed):
    """The outcome classes of the evaluation at 2,000 seeded residue points
    (0, 0, 0, u, v) at p, each asserted to be the Fraction oracle's; u and
    v carry p-powers up to p^(prec-1), so every outcome is reached."""
    import random

    rng = random.Random(seed)
    place = Place.finite(p)
    ctx = ResidueContext.of(model, p)
    outcomes = set()
    for _ in range(2000):
        u, v = (rng.randrange(ctx.pk) * p ** rng.randrange(ctx.prec) % ctx.pk
                for _ in range(2))
        point = (0, 0, 0, u, v)
        outcome = _general_outcome(evaluate_invariant_at_point, model, point, place, ctx)
        assert outcome == _general_outcome(_general_invariant, model, point, place, ctx)
        outcomes.add(outcome)
    return ctx, outcomes


def test_parity_read_matches_the_general_symbol_off_the_surface():
    # at c, a is a non-square unit, so an odd term valuation reads -1;
    # (u, v) off the surface also reach the disagreement and the
    # indeterminate point, which both paths refuse
    ctx, outcomes = _off_surface_outcomes(admissible_model(SURFACE_0, PARAMS.c), PARAMS.c, 35)
    assert ctx.a_val % 2 == 0 and ctx.a_char == -1
    assert outcomes == {ZERO, HALF, ArithmeticError, PrecisionError}


def _synthetic_model(a):
    """A genus-1 surface model with the given a, at which p = 2 reads the
    symbol's units mod 8; on the fiber a = 1 mod 8 is a 2-adic square."""
    return DP4Surface(a=Fraction(a), b=Fraction(7), A=Fraction(1), B=Fraction(-1),
                      C=Fraction(1), genus=1)


@pytest.mark.parametrize("model, p, a_class", [
    (admissible_model(SURFACE_0, PARAMS.a), PARAMS.a, (1, 1)),
    (_synthetic_model(3), 2, (0, 3)),
    (_synthetic_model(5), 2, (0, 5)),
    (_synthetic_model(6), 2, (1, 3)),
], ids=["a", "2-a3", "2-a5", "2-a6"])
def test_term_symbols_match_the_general_symbol_off_the_surface(model, p, a_class):
    # at p = a, v_p(a) = 1, so each term's symbol reads the Legendre symbol
    # of the term's unit part; at p = 2 the formula reads units mod 8 and,
    # for a = 6, an odd valuation of a
    ctx, outcomes = _off_surface_outcomes(model, p, 36)
    assert (ctx.a_val, ctx.a_char) == a_class
    assert outcomes == {ZERO, HALF, ArithmeticError, PrecisionError}


def _real_oracle(surface, u, v):
    """The old real-place evaluation: the Fraction Hilbert symbols
    (a, num/den)_real over the defined slot fractions."""
    reps = slot_fractions(surface, u, v)
    return reps, {hilbert_symbol(surface.a, r, Place.real()) for r in reps if r is not None}


def test_real_evaluation_uses_exact_slots():
    # at the real sampler's points of every default-grid fiber, the value
    # read off signs is the one the slot fractions' Hilbert symbols give
    real, checked = Place.real(), 0
    for theta in _grid_thetas():
        surface = build_surface(fiber_coeffs(PARAMS, Theta.parse(theta)))
        for pt in sample_surface_points(surface, real, 5, None, seed=2):
            _, symbols = _real_oracle(surface, pt[3], pt[4])
            assert symbols == {1}, theta  # a > 0 on every fiber
            assert evaluate_invariant_at_point(surface, pt, real, None) == ZERO
            checked += 1
    assert checked == 16 * 5


def test_real_evaluation_with_negative_a():
    # a = -1: every slot at the real point x = y = 1, z = sqrt 2,
    # (u, v) = (1, 2) is negative, so the value is 1/2; at (2, -1), off the
    # surface, the slots' signs disagree and the error shows the place, the
    # terms and each term's symbol
    surface = DP4Surface(a=Fraction(-1), b=Fraction(1), A=Fraction(1), B=Fraction(-1),
                         C=Fraction(1), genus=1)
    real = Place.real()
    on = (None, Fraction(1), None, Fraction(1), Fraction(2))
    reps, symbols = _real_oracle(surface, Fraction(1), Fraction(2))
    assert None not in reps and symbols == {-1}
    assert evaluate_invariant_at_point(surface, on, real, None) == HALF
    off = (None, Fraction(1), None, Fraction(2), Fraction(-1))
    reps, symbols = _real_oracle(surface, Fraction(2), Fraction(-1))
    assert reps == [-3, 1, Fraction(3, 2), Fraction(-1, 2)] and symbols == {1, -1}
    with pytest.raises(ArithmeticError) as err:
        evaluate_invariant_at_point(surface, off, real, None)
    assert str(err.value) == (
        "representations disagree at real: terms (numerators, denominators) "
        "((Fraction(3, 1), Fraction(-1, 1)), (Fraction(-1, 1), Fraction(2, 1))) "
        "have symbols ((1, -1), (-1, 1))")


def _finite_places_of_theta_half():
    """(model, place, delta image, context) at each finite critical place
    of the g = 1, theta = 1/2 fiber."""
    co = fiber_coeffs(PARAMS, Theta.of(1, 2))
    curve, surface = build_curve(co), build_surface(co)
    cases = []
    for p in critical_places(curve).primes():
        model, place = admissible_model(surface, p), Place.finite(p)
        cases.append((model, place, *_delta_and_ctx(curve, model, place)))
    return cases


def test_finite_sampling_builds_no_fraction(monkeypatch):
    # once a place's ResidueContext is built, drawing and evaluating its
    # sampled points is integer arithmetic only (g = 1, theta = 1/2)
    cases = _finite_places_of_theta_half()
    built = count_fraction_constructions(monkeypatch)
    for model, place, delta, ctx in cases:
        values = sample_invariant(model, place, delta, 10, ctx)
        assert len(values) == 10 and len(set(values)) == 1
    assert len(cases) >= 6 and built == []


def test_precision_error_on_degenerate_point():
    place = Place.finite(PARAMS.c)
    ctx = ResidueContext.of(SURFACE_0, PARAMS.c)
    with pytest.raises(PrecisionError):
        evaluate_invariant_at_point(SURFACE_0, (0, 0, 0, 0, 0), place, ctx)


def test_sampling_builds_no_rooter(monkeypatch):
    # each place's ResidueRooter is built once, by ResidueContext.of: the
    # sampler draws with the context's, for n = 10 and for n = 1, where it
    # draws nothing (g = 1, theta = 1/2)
    from hassecert import local

    cases = _finite_places_of_theta_half()
    rooter, built = local.ResidueRooter, []

    def counting_rooter(p, prec):
        built.append(p)
        return rooter(p, prec)

    monkeypatch.setattr(local, "ResidueRooter", counting_rooter)
    for model, place, delta, ctx in cases:
        for n in (10, 1):
            assert len(sample_invariant(model, place, delta, n, ctx)) == n
    assert len(cases) >= 6 and built == []
    for model, place, _, _ in cases:
        ResidueContext.of(model, place.p)
    assert built == [place.p for _, place, _, _ in cases]


def test_sample_invariant_rejects_zero_count():
    real = Place.real()
    delta = delta_surface_point(SURFACE_0, real, certify_local_curve(CURVE_0, real), None)
    with pytest.raises(ValueError, match="sample count must be >= 1"):
        sample_invariant(SURFACE_0, real, delta, 0, None)


def test_sampled_fallback_marked_non_rigorous():
    # synthetic coefficients outside the family: a non-square mod 5,
    # B - A divisible by 5, and C divisible by 5 defeat every branch, so
    # the place is refused; no value is read off samples
    surf = DP4Surface(a=Fraction(3), b=Fraction(1), A=Fraction(1),
                      B=Fraction(51), C=Fraction(5), genus=1,
                      coeffs=CO_0)
    cert = certify_invariant(surf, Place.finite(5))
    assert cert.method == "refused"
    assert cert.value is None
    assert not cert.rigorous
    assert cert.warning.startswith("refused: ")
    assert cert.sample_count == 0
    assert ["p does not divide C", False] in cert.to_json()["hypotheses"]
    assert cert.to_json()["value"] is None


def test_each_place_builds_its_model_and_context_once(monkeypatch):
    # obstruction_certificate is the only builder of the local models and
    # residue contexts: one of each per finite critical place, passed to
    # the branch, the delta image, the sampler and every evaluation
    from hassecert import brauer, family, local

    co = fiber_coeffs(PARAMS, Theta.of(1, 2))
    curve, surface = build_curve(co), build_surface(co)
    res = certify_all_local(curve)
    model_of, ctx_of = family.admissible_model, local.ResidueContext.of.__func__
    built = {"model": [], "ctx": []}

    def counting_model(surface, p):
        built["model"].append(p)
        return model_of(surface, p)

    def counting_ctx(cls, model, p):
        built["ctx"].append(p)
        return ctx_of(cls, model, p)

    for module in (family, brauer):
        monkeypatch.setattr(module, "admissible_model", counting_model)
    monkeypatch.setattr(local.ResidueContext, "of", classmethod(counting_ctx))
    assert obstruction_certificate(surface, res).conclusion
    primes = res.critical.primes()
    assert len(primes) >= 6
    assert sorted(built["model"]) == sorted(built["ctx"]) == sorted(primes)


def test_one_sample_is_the_delta_image_alone(monkeypatch, tmp_path):
    # --samples 1 confirms each value at the delta image of the curve's
    # witness alone: the sampler is asked for no point, and every table
    # entry counts one sample
    import json

    from hassecert import brauer, cli

    sample = brauer.sample_surface_points
    asked = []

    def recording(model, place, n, ctx, seed=0):
        asked.append(n)
        return sample(model, place, n, ctx, seed)

    monkeypatch.setattr(brauer, "sample_surface_points", recording)
    report = tmp_path / "report.json"
    code = cli.main(["certify-all", "--g", "1", "--h", "0", "--theta=0,1/2,inf",
                     "--height", "20", "--samples", "1", "--out", str(report)])
    assert code == 0
    fibers = json.loads(report.read_text())["fibers"]
    entries = [e for fiber in fibers for e in fiber["obstruction"]["table"]]
    assert len(fibers) == 3 and len(entries) >= 3 * 7
    assert all(e["sample_count"] == 1 and e["samples_consistent"] for e in entries)
    assert asked and set(asked) == {0}


def test_refused_place_fails_the_fiber(monkeypatch, tmp_path):
    # one refused place: no conclusion, an incomplete certificate whose
    # notes name the place, and the fiber stops at brauer-obstruction
    import json

    from hassecert import brauer, cli

    refused = Place.finite(PARAMS.c)
    certify = brauer.certify_invariant

    def refuse_at_c(model, place):
        if place == refused:
            return brauer._refused(place, [], "test refusal")
        return certify(model, place)

    monkeypatch.setattr(brauer, "certify_invariant", refuse_at_c)
    res = certify_all_local(CURVE_0)
    obs = obstruction_certificate(SURFACE_0, res, samples=2)
    assert obs.conclusion is False and obs.complete is False
    assert f"invariant at {refused} refused: test refusal" in obs.notes
    assert obs.total == HALF  # the refused place adds nothing
    entry = next(e for e in obs.to_json()["table"] if e["place"] == str(refused))
    assert entry["value"] is None and entry["method"] == "refused"

    out = cli.certify_fiber(PARAMS, Theta.of(0), height_bound=20, sample_count=2)
    assert out["certified"] is False
    assert out["stage"] == "brauer-obstruction"
    assert f"invariant at {refused} refused" in out["error"]

    report = tmp_path / "report.json"
    code = cli.main(["certify-all", "--g", "1", "--h", "0", "--theta", "0",
                     "--height", "20", "--samples", "2", "--out", str(report)])
    assert code == cli.EXIT_CERTIFICATION_FAILED
    (fiber,) = json.loads(report.read_text())["fibers"]
    assert fiber["stage"] == "brauer-obstruction"


@pytest.mark.parametrize("target, error", [
    ("delta_surface_point", ArithmeticError("delta image failed in a test")),
    ("sample_surface_points", SamplerBudgetExceeded("sampler budget spent in a test")),
])
def test_sampling_failures_fail_the_fiber(monkeypatch, target, error):
    # a failed delta image or a sampler shortfall is never dropped: the
    # fiber stops at brauer-obstruction with the message
    from hassecert import brauer, cli

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(brauer, target, fail)
    out = cli.certify_fiber(PARAMS, Theta.of(0), height_bound=20, sample_count=2)
    assert out["certified"] is False
    assert out["stage"] == "brauer-obstruction"
    assert out["error"] == str(error)


def _flip_samples_at(monkeypatch, place, which):
    """Make the sampled invariant at place read 1/2 - value on the points
    whose index in their table's two samples (0 the delta image) is in
    which."""
    from hassecert import brauer

    evaluate = brauer.evaluate_invariant_at_point
    seen = []

    def flip(model, point, pl, ctx):
        value = evaluate(model, point, pl, ctx)
        if pl != place:
            return value
        seen.append(point)
        return HALF - value if (len(seen) - 1) % 2 in which else value

    monkeypatch.setattr(brauer, "evaluate_invariant_at_point", flip)


def _obstruction_failure(error):
    """certify_fiber at theta = 0 stops at brauer-obstruction, its error
    naming the failed check."""
    from hassecert import cli

    out = cli.certify_fiber(PARAMS, Theta.of(0), height_bound=20, sample_count=2)
    assert out["certified"] is False and out["stage"] == "brauer-obstruction"
    assert out["error"].startswith("obstruction certificate incomplete: ")
    assert error in out["error"]


def test_disagreeing_samples_fail_the_fiber(monkeypatch):
    # the second point at c reads 1/2 beside the delta image's 0
    place = Place.finite(PARAMS.c)
    _flip_samples_at(monkeypatch, place, {1})
    obs = obstruction_certificate(SURFACE_0, certify_all_local(CURVE_0), samples=2)
    assert obs.conclusion is False and not obs.table[place].samples_consistent
    assert obs.notes == f"samples disagree among themselves at {place}"
    assert "Tate-Shafarevich" not in obs.notes
    _obstruction_failure(f"samples disagree among themselves at {place}")


def test_contradicting_samples_fail_the_fiber(monkeypatch):
    # every point at c reads 1/2, consistently, against the certified 0
    place = Place.finite(PARAMS.c)
    _flip_samples_at(monkeypatch, place, {0, 1})
    obs = obstruction_certificate(SURFACE_0, certify_all_local(CURVE_0), samples=2)
    assert obs.conclusion is False and obs.table[place].samples_consistent
    assert obs.table[place].value == ZERO and obs.total == HALF
    assert obs.notes == f"sampled value 1/2 contradicts certified 0 at {place}"
    assert "Tate-Shafarevich" not in obs.notes
    _obstruction_failure(f"sampled value 1/2 contradicts certified 0 at {place}")


def test_support_other_than_a_fails_the_fiber(monkeypatch):
    # a certified 0 at a leaves the half-valued support empty
    from dataclasses import replace

    from hassecert import brauer

    certify = brauer.certify_invariant
    place = Place.finite(PARAMS.a)

    def zero_at_a(model, pl):
        cert = certify(model, pl)
        return replace(cert, value=ZERO) if pl == place else cert

    monkeypatch.setattr(brauer, "certify_invariant", zero_at_a)
    obs = obstruction_certificate(SURFACE_0, certify_all_local(CURVE_0), samples=2)
    assert obs.conclusion is False and obs.total == ZERO
    error = f"invariant support [] is not exactly the place of a = {PARAMS.a}"
    contradiction = f"sampled value 1/2 contradicts certified 0 at {place}"
    assert obs.notes == f"{contradiction}; {error}"
    assert "Tate-Shafarevich" not in obs.notes
    _obstruction_failure(error)


def test_obstruction_certificate_theta_zero():
    res = certify_all_local(CURVE_0)
    obs = obstruction_certificate(SURFACE_0, res)
    assert obs.conclusion and obs.complete
    assert obs.total == HALF
    support = [pl for pl, c in obs.table.items() if c.value == HALF]
    assert support == [Place.finite(PARAMS.a)]
    for pl, cert in obs.table.items():
        assert cert.sample_count >= 10
        assert cert.samples_consistent
    j = obs.to_json()
    assert j["sum"] == "1/2"
    assert j["conclusion"] is True
    assert "Tate-Shafarevich" in obs.notes


def test_obstruction_requires_local_solvability():
    res = certify_all_local(CURVE_0)
    res.solvable_everywhere = False
    with pytest.raises(ValueError):
        obstruction_certificate(SURFACE_0, res)


def test_sum_invariance_25_random_thetas():
    import random

    rng = random.Random(9)
    seen = set()
    while len(seen) < 25:
        th = Theta.of(rng.randrange(-12, 13), rng.randrange(1, 5))
        seen.add(th)
    for th in sorted(seen, key=str):
        co = fiber_coeffs(PARAMS, th)
        curve, surface = build_curve(co), build_surface(co)
        res = certify_all_local(curve)
        assert res.solvable_everywhere, str(th)
        obs = obstruction_certificate(surface, res, samples=3)
        assert obs.total == HALF and obs.conclusion, str(th)


def test_every_small_theta_certifies_with_support_exactly_at_a():
    # the reach at g = 1, h = 0: every theta = m/n with |m| <= 6 and
    # 1 <= n <= 6, and theta = inf, certifies through the whole pipeline
    from hassecert import cli

    thetas = {Theta.of(m, n) for m in range(-6, 7) for n in range(1, 7)}
    thetas.add(Theta.infinity())
    assert len(thetas) == 48
    for th in sorted(thetas, key=str):
        out = cli.certify_fiber(PARAMS, th, height_bound=20)
        assert out["certified"] and out["stage"] == "done", (str(th), out.get("error"))
        obs = out["obstruction"]
        assert obs["sum"] == "1/2" and obs["conclusion"], str(th)
        support = [row["place"] for row in obs["table"] if row["value"] == "1/2"]
        assert support == [str(Place.finite(PARAMS.a))], str(th)
