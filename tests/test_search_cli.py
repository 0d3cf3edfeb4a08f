import functools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
from hassecert.arith import is_rational_square, sieve_primes_upto
from hassecert.family import (
    DP4Surface,
    HyperellipticCurve,
    Theta,
    build_curve,
    build_surface,
    fiber_coeffs,
)
from hassecert.params import ParamSet, omega0_for_genus, sieve_params
import hassecert.search as search
from hassecert.search import SIEVE_MODULI, curve_point_search, surface_point_search
from oracles import curve_sieve_pattern, quadric_residuals, surface_sieve_pattern, window_mask


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


def _oracle_root(num, den):
    """sqrt(num / den) when it is an integer, else None (den < 0 when
    a < 0)."""
    if num % den or num // den < 0:
        return None
    r = math.isqrt(num // den)
    return r if r * r == num // den else None


def _oracle_surface_points(surface, height):
    """Every (x, y, z, u, v) on both quadrics with 0 <= x, y, z <= height and
    (u, v) = (1, 0) or |u| <= height, 1 <= v <= height: a brute force over
    x that assumes no rule forcing a | x.  From the quadrics,
    a nu^2 y^2 = x^2 nu^2 + a gamma^2 u v and
    a q^2 z^2 = x^2 q^2 + b (uq - pA v)(uq - pB v)."""
    a, b, A, B, C = surface.a, surface.b, surface.A, surface.B, surface.C
    a_i, b_i = int(a), int(b)
    q = A.denominator * B.denominator // math.gcd(A.denominator, B.denominator)
    pA, pB = int(A * q), int(B * q)
    gamma, nu = C.numerator, C.denominator
    found = []

    def check(u, v):
        y_off = a_i * gamma * gamma * u * v
        z_off = b_i * (u * q - pA * v) * (u * q - pB * v)
        for x in range(height + 1):
            y = _oracle_root(x * x * nu * nu + y_off, a_i * nu * nu)
            if y is None or y > height:
                continue
            z = _oracle_root(x * x * q * q + z_off, a_i * q * q)
            if z is not None and z <= height:
                assert quadric_residuals(surface, (x, y, z, u, v)) == (0, 0)
                found.append((x, y, z, u, v))

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
        q1, q2 = quadric_residuals(surf, (x, y, z, u, v))
        assert q1 == 0 and q2 == 0


ORACLE_HEIGHT = 60


# the 16 grid fibers at g = 1, then the g = 3 theta-zero fiber
FIBERS = [(1, str(t)) for t in default_theta_grid()] + [(3, "0")]


def _fiber(g, theta):
    params = PARAMS if g == 1 else sieve_params(3, 0, bound=10**12, count=1)[0]
    return fiber_coeffs(params, Theta.parse(theta))


@pytest.mark.parametrize("g, theta", FIBERS)
def test_sieved_search_matches_oracle_on_fibers(g, theta):
    co = _fiber(g, theta)
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
    # a = 4 is not squarefree, so 4 | x^2 does not give 4 | x: the points
    # include (x, y, z, u, v) = (6, 1, 6, -2, 4), and 7 of the 9 of a4-AB23
    # at height 6 have 4 not dividing x
    "a4": DP4Surface(a=Fraction(4), b=Fraction(1), A=Fraction(1), B=Fraction(4),
                     C=Fraction(1), genus=1),
    "a4-AB23": DP4Surface(a=Fraction(4), b=Fraction(1), A=Fraction(2), B=Fraction(3),
                          C=Fraction(1), genus=1),
    # a = 6 shares 2 with den(C) = 2: (3, 2, 0, 5, 2) has x = 3
    "a6-nu2": DP4Surface(a=Fraction(6), b=Fraction(1), A=Fraction(1), B=Fraction(4),
                         C=Fraction(1, 2), genus=1),
}


@pytest.mark.parametrize("name", sorted(CONTROL_SURFACES))
def test_sieved_search_matches_oracle_on_control_surfaces(name):
    surface = CONTROL_SURFACES[name]
    expected = _oracle_surface_points(surface, ORACLE_HEIGHT)
    assert expected
    assert surface_point_search(surface, ORACLE_HEIGHT) == expected


# The x = 0 slice runs through the section curve s^2 = (b/a)(t^2 - A)(t^2 - B)
# at height isqrt(height) (the lemma in search.surface_point_search).  The
# brute force, which scans every u and v at x = 0, must agree on seeded
# random surfaces: forced and unforced x, q > 1, den(C) > 1, b = 0 (every t
# on the section) and a > height (the x = 0 slice is the whole search).
LEMMA_A = (-3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 18, 1753)
LEMMA_B = (-1, 0, 1, 2, 3, 5, 73)


def _lemma_surfaces(seed, count):
    rng = random.Random(seed)

    def frac(nonzero=False):
        while True:
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            if x or not nonzero:
                return x

    for _ in range(count):
        A = frac()
        B = frac()
        while B == A:
            B = frac()
        surface = DP4Surface(a=Fraction(rng.choice(LEMMA_A)), b=Fraction(rng.choice(LEMMA_B)),
                             A=A, B=B, C=frac(nonzero=True), genus=1)
        yield surface, rng.randint(1, 40)


@pytest.mark.parametrize("seed", range(6))
def test_x_zero_slice_matches_oracle_on_random_surfaces(seed):
    section_points = 0
    for surface, height in _lemma_surfaces(seed, 25):
        expected = _oracle_surface_points(surface, height)
        assert surface_point_search(surface, height) == expected, (surface, height)
        section_points += sum(x == 0 and v > 0 for x, _, _, _, v in expected)
    # the seeds reach the x = 0 slice, not only its (1, 0) row
    assert section_points


def test_fiber_surface_below_a_builds_only_the_section_sieve(monkeypatch):
    # at height 1000 < a = 1753 the slice x = 0 is the whole search: one
    # sieve, the section curve's at height isqrt(1000) = 31.  So also at
    # theta = 1/1753, where a divides den(C) (the second lemma)
    built = []
    sieve_class = search._Sieve

    def recording(height, direct, *rest):
        built.append((height, *rest))
        return sieve_class(height, direct, *rest)

    monkeypatch.setattr(search, "_Sieve", recording)
    for theta in (Theta.of(1, 2), Theta.of(1, 1753)):
        built.clear()
        surface = build_surface(fiber_coeffs(PARAMS, theta))
        assert (surface.C.denominator % PARAMS.a == 0) == (theta.value.denominator == PARAMS.a)
        assert surface_point_search(surface, 1000) == []
        assert built == [(31, 1, 2)], theta


# a prime a that divides den(C) and exceeds the height forces x = 0 (the
# second lemma in search.surface_point_search): seeded surfaces with
# den(C) = a^k nu', k = 1 or 2, at heights below a, against the brute force
# over every x
DIVIDING_A = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _a_divides_nu_surfaces(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        a = rng.choice(DIVIDING_A)
        A = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        B = A
        while B == A:
            B = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        gamma = rng.choice([g for g in range(-9, 10) if g % a])
        nu = a ** rng.randint(1, 2) * rng.randint(1, 3)
        surface = DP4Surface(a=Fraction(a), b=Fraction(rng.choice(LEMMA_B)), A=A, B=B,
                             C=Fraction(gamma, nu), genus=1)
        yield surface, rng.randint(1, min(a - 1, 30))


@pytest.mark.parametrize("seed", range(6))
def test_a_dividing_den_c_above_the_height_matches_oracle(seed):
    points = 0
    for surface, height in _a_divides_nu_surfaces(seed, 50):
        expected = _oracle_surface_points(surface, height)
        assert all(x == 0 for x, *_ in expected)
        assert surface_point_search(surface, height) == expected, (surface, height)
        points += len(expected)
    assert points


def test_searches_refuse_a_zero_a():
    curve = HyperellipticCurve(a=Fraction(0), b=Fraction(1), A=Fraction(1), B=Fraction(4),
                               genus=1)
    with pytest.raises(ValueError, match="curve search expects a nonzero a"):
        curve_point_search(curve, 5)
    surface = DP4Surface(a=Fraction(0), b=Fraction(1), A=Fraction(1), B=Fraction(4),
                         C=Fraction(1), genus=1)
    with pytest.raises(ValueError, match="surface search expects a nonzero a"):
        surface_point_search(surface, 5)


def test_surface_search_refuses_a_zero_c():
    # at C = 0 the surface is a cone: the second quadric no longer makes
    # u v a square at x = 0, and the section curve misses points
    surface = DP4Surface(a=Fraction(2), b=Fraction(1), A=Fraction(1), B=Fraction(4),
                         C=Fraction(0), genus=1)
    with pytest.raises(ValueError, match="surface search expects a nonzero C"):
        surface_point_search(surface, 5)


# The sieve's residue patterns against the oracles' residue-by-residue
# loops, at every key mod every modulus: every unit and non-unit outer
# coordinate, and for the surfaces every x1 residue.
MASK_CURVES = {
    **CONTROL_CURVES,
    # q = 4 and den(ab) = 2 at g = 5
    "g5-q4-ab3/2": HyperellipticCurve(a=Fraction(1), b=Fraction(3, 2), A=Fraction(1, 4),
                                      B=Fraction(9), genus=5),
    "fiber-g1": build_curve(fiber_coeffs(PARAMS, Theta.of(0))),
}
MASK_SURFACES = {
    name: CONTROL_SURFACES[name] for name in ("a2-forced", "a2-unforced", "q2", "a6-nu2")
} | {
    # a = 3 forces x = 3 x1 with q = 2 and den(C) = 5
    "forced-q2-nu5": DP4Surface(a=Fraction(3), b=Fraction(2), A=Fraction(1, 2), B=Fraction(3),
                                C=Fraction(2, 5), genus=1),
    "fiber-g1": build_surface(fiber_coeffs(PARAMS, Theta.of(Fraction(1, 2)))),
}


def _sieve_of(monkeypatch, search_fn, obj, height=1):
    """The sieve that search_fn(obj, height) builds over the window of
    numerators -height, ..., height, with its pattern builder.  A surface
    search also sieves its x = 0 section at height isqrt(height), so at
    height >= 2 this picks out the sieve of its slices x1 >= 1."""
    sieves = []
    sieve_class = search._Sieve

    def recording(height, direct, *rest):
        sieves.append(sieve_class(height, direct, *rest))
        return sieves[-1]

    monkeypatch.setattr(search, "_Sieve", recording)
    search_fn(obj, height)
    (sieve,) = [s for s in sieves if s.height == height]
    return sieve


@pytest.mark.parametrize("name", sorted(MASK_CURVES))
def test_curve_sieve_patterns_match_oracle(monkeypatch, name):
    curve = MASK_CURVES[name]
    sieve = _sieve_of(monkeypatch, curve_point_search, curve)
    for M in SIEVE_MODULI:
        for n in range(M):
            assert sieve.pattern(M, n, 0) == curve_sieve_pattern(curve, n, M), (M, n)


@pytest.mark.parametrize("name", sorted(MASK_SURFACES))
def test_surface_sieve_patterns_match_oracle(monkeypatch, name):
    # at height 2a every surface has a slice x1 >= 1, forced x = a x1 or not
    surface = MASK_SURFACES[name]
    sieve = _sieve_of(monkeypatch, surface_point_search, surface, 2 * int(surface.a))
    for M in SIEVE_MODULI:
        for v in range(M):
            for x1 in range(M):
                assert sieve.pattern(M, v, x1) == surface_sieve_pattern(surface, v, x1, M), \
                    (M, v, x1)


# a = 97 forces x = 97 x1, so at height 1000 this surface sieves its slices
# x1 = 1, ..., 10 beside its section; it has no point of height <= 1000
SIEVING_SURFACE = DP4Surface(a=Fraction(97), b=Fraction(5), A=Fraction(2), B=Fraction(3),
                             C=Fraction(1), genus=1)


def _base_builds(monkeypatch, search_fn, obj, height, points=0):
    """The direct pattern builds (M, d, z) of the last sieve that
    search_fn(obj, height) builds (as in _search_work), after asserting
    that it finds that many points (by default none).  Each sieve keeps its
    own base patterns."""
    sieves = []

    def counting(direct):
        calls = []
        sieves.append(calls)

        def counted(M, sq, d, z):
            calls.append((M, d, z))
            return direct(M, sq, d, z)

        return counted

    sieve_class = search._Sieve
    with monkeypatch.context() as m:
        m.setattr(search, "_Sieve",
                  lambda height, direct, *rest: sieve_class(height, counting(direct), *rest))
        assert len(search_fn(obj, height)) == points
    return sieves[-1]


@pytest.mark.parametrize("search_fn, build", [(curve_point_search, build_curve),
                                              (surface_point_search, build_surface)])
def test_fiber_search_builds_each_base_pattern_once(monkeypatch, search_fn, build):
    """At height 1000 a pattern is built residue by residue only for the
    outer coordinates (d, 0), d a divisor of M, each at most once: never
    more than one build per non-unit key, plus the unit base.  A surface
    with slices x1 >= 1 builds each (d, z) at most once."""
    calls = _base_builds(monkeypatch, search_fn, build(fiber_coeffs(PARAMS, Theta.of(0))), 1000)
    assert calls and len(set(calls)) == len(calls)
    for M, d, z in calls:
        assert M % d == 0 and z == 0
    for M in SIEVE_MODULI:
        non_units = sum(math.gcd(w, M) > 1 for w in range(M))
        assert sum(c[0] == M for c in calls) <= 1 + non_units
    if search_fn is surface_point_search:
        calls = _base_builds(monkeypatch, search_fn, SIEVING_SURFACE, 1000)
        assert len(set(calls)) == len(calls)
        assert all(M % d == 0 and 0 <= z < M for M, d, z in calls)
        # the surface's own sieve built these, not the section's (z = 0)
        assert any(z for *_, z in calls)


class _Tally(list):
    """A window-mask cache that counts its lookups and its builds."""

    def __init__(self, masks, counts):
        super().__init__(masks)
        self.counts = counts

    def __getitem__(self, key):
        self.counts["lookups"] += 1
        return super().__getitem__(key)

    def __setitem__(self, key, mask):
        self.counts["masks"] += 1
        super().__setitem__(key, mask)


def _search_work(monkeypatch, search_fn, obj, height, rank=None):
    """search_fn(obj, height) with the work of its last sieve counted: the
    output, the sieve's modulus order at the end, the survivors of every
    window, and the mask lookups, window-mask builds and base-pattern
    builds.  The last sieve is the curve's, or the surface's for its slices
    x1 >= 1 when it has them, else its x = 0 section's.  rank True or False
    forces every sieve's ranking decision; False keeps SIEVE_MODULI order."""
    sieves = []
    with monkeypatch.context() as m:
        if rank is not None:
            m.setattr(search._Sieve, "_ranking_pays", lambda self: rank)

        class Recording(search._Sieve):
            def __init__(self, height, direct, *rest):
                self.counts = counts = {"lookups": 0, "masks": 0, "bases": 0}
                self.windows_seen = []

                def counted(*args):
                    counts["bases"] += 1
                    return direct(*args)

                super().__init__(height, counted, *rest)
                self.masks = [(M, slots, _Tally(masks, counts), *rest)
                              for M, slots, masks, *rest in self.masks]
                sieves.append(self)

            def survivors(self, w, z=0):
                self.windows_seen.append((w, z, super().survivors(w, z)))
                return self.windows_seen[-1][2]

        m.setattr(search, "_Sieve", Recording)
        out = search_fn(obj, height)
    sieve = sieves[-1]
    return out, [M for M, *_ in sieve.masks], sieve.windows_seen, sieve.counts


@pytest.mark.parametrize("g, theta", FIBERS)
def test_ranked_sieve_matches_ascending_order(monkeypatch, g, theta):
    # at height 1000, ranked or not by the sieve's own choice or ranked by
    # force, every window keeps the survivors of SIEVE_MODULI order, and so
    # every output does; every fiber's surface sieves only its section below
    # height a, so the surface sieve runs on SIEVING_SURFACE
    co = _fiber(g, theta)
    for search_fn, obj in ((curve_point_search, build_curve(co)),
                           (surface_point_search, build_surface(co)),
                           (surface_point_search, SIEVING_SURFACE)):
        runs = {rank: _search_work(monkeypatch, search_fn, obj, 1000, rank)
                for rank in (None, True, False)}
        out, order, windows, _ = runs[False]
        if obj is SIEVING_SURFACE:
            assert any(z for _, z, _ in windows)
        assert order == list(SIEVE_MODULI)
        assert runs[True][1] != order
        for rank in (None, True):
            assert runs[rank][2] == windows
            assert runs[rank][0] == out


def test_ranking_cuts_lookups_at_height_1000(monkeypatch):
    # a fiber's surface sieves no slice x1 >= 1 below height a = 1753, so
    # the surface half runs on SIEVING_SURFACE
    co = fiber_coeffs(PARAMS, Theta.of(1, 2))
    for search_fn, obj, ascending, most in ((curve_point_search, build_curve(co), 14_718, 7_500),
                                            (surface_point_search, SIEVING_SURFACE, 60_629,
                                             12_500)):
        out, order, _, counts = _search_work(monkeypatch, search_fn, obj, 1000)
        plain_out, _, _, plain_counts = _search_work(monkeypatch, search_fn, obj, 1000,
                                                     rank=False)
        assert order != list(SIEVE_MODULI)
        assert out == plain_out == []
        assert plain_counts["lookups"] == ascending
        assert counts["lookups"] <= most


@pytest.mark.parametrize("theta", [str(t) for t in default_theta_grid()])
def test_height_100_searches_build_no_extra_base_patterns(monkeypatch, theta):
    # with few windows, ranking would build base patterns and masks that
    # the ascending scan never needs; the fiber's surface sieves only its
    # section, so the surface sieve runs on the a = 2 controls, forced
    # x = 2 x1 or not
    co = fiber_coeffs(PARAMS, Theta.parse(theta))
    controls = (CONTROL_SURFACES["a2-forced"], CONTROL_SURFACES["a2-unforced"])
    for search_fn, obj in ((curve_point_search, build_curve(co)),
                           (surface_point_search, build_surface(co)),
                           *((surface_point_search, surface) for surface in controls)):
        *_, windows, counts = _search_work(monkeypatch, search_fn, obj, 100)
        *_, plain_counts = _search_work(monkeypatch, search_fn, obj, 100, rank=False)
        if obj in controls:
            assert any(z for _, z, _ in windows)
        assert counts["bases"] <= plain_counts["bases"]
        assert counts["masks"] <= plain_counts["masks"]


@pytest.mark.parametrize("height", [1, 2, 7, 100, 1000])
def test_window_masks_match_shift_doubling_oracle(height):
    # one multiply by the repunit lays each pattern over the window as the
    # oracle's rotate-and-double does, for every modulus and every class
    # that a window reaches
    def direct(M, sq, d, z):
        # residue 0 always passes, so no AND empties and every modulus builds
        return bytes(r == 0 or (r * r + d) % 5 < 2 for r in range(M))

    sieve = search._Sieve(height, direct)
    for w in range(1, height + 1):
        sieve.survivors(w)
    width = 2 * height + 1
    for M, slots, masks, *_ in sieve.masks:
        for w in range(1, min(M, height) + 1):
            assert masks[slots[w % M]] == window_mask(sieve.pattern(M, w, 0), M, -height, width)


@pytest.mark.parametrize("name", ["g1", "g3", "g5-q4-ab3/2", "fiber-g1", "fiber-g3"])
def test_curve_survivors_match_per_residue_oracle(monkeypatch, name):
    # with one mask per class of n^(g+1) mod M, every window still ANDs the
    # masks that the oracle builds residue by residue for its own n
    curve = build_curve(_fiber(3, "0")) if name == "fiber-g3" else MASK_CURVES[name]
    height = 150
    width = 2 * height + 1
    _, _, windows, _ = _search_work(monkeypatch, curve_point_search, curve, height)
    assert [n for n, *_ in windows] == list(range(1, height + 1))
    for n, _, alive in windows:
        expected = (1 << width) - 1
        for M in SIEVE_MODULI:
            expected &= window_mask(curve_sieve_pattern(curve, n, M), M, -height, width)
        assert alive == expected, n


@pytest.mark.parametrize("name", ["a1", "a2-unforced"])
def test_surface_survivors_match_per_residue_oracle(monkeypatch, name):
    # with one mask slot per class of x1^2 mod M, every window (v, x1) of
    # the slices' sieve still ANDs the masks that the oracle builds residue
    # by residue for its own v and x1; x1 runs to 40, past the moduli up
    # to 37, so distinct residues of x1 share slots
    surface = CONTROL_SURFACES[name]
    height = 40
    width = 2 * height + 1
    _, _, windows, _ = _search_work(monkeypatch, surface_point_search, surface, height)
    box = range(1, height + 1)
    assert [(v, x1) for v, x1, _ in windows] == [(v, x1) for v in box for x1 in box]

    @functools.cache
    def mask(M, v, x1):
        return window_mask(surface_sieve_pattern(surface, v, x1, M), M, -height, width)

    for v, x1, alive in windows:
        expected = (1 << width) - 1
        for M in SIEVE_MODULI:
            expected &= mask(M, v % M, x1 % M)
        assert alive == expected, (v, x1)


def test_surface_keeps_one_slot_and_base_per_square_class(monkeypatch):
    # the surface's patterns read x1 only through x1^2 mod M: each residue
    # of v keeps one mask slot per square class, 237 over SIEVE_MODULI where
    # one per residue of x1 would be 511, and a call builds each base
    # pattern once per (M, d, z^2 mod M)
    a1 = CONTROL_SURFACES["a1"]
    sieve = _sieve_of(monkeypatch, surface_point_search, a1, 100)
    assert sum(len(masks) // M for M, _, masks, *_ in sieve.masks) == 237
    for surface, height, points in ((a1, 100, 507), (SIEVING_SURFACE, 1000, 0)):
        calls = _base_builds(monkeypatch, surface_point_search, surface, height, points)
        keys = [(M, d, z * z % M) for M, d, z in calls]
        assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("name, lookups, masks, bases", [("a1", 52_839, 4_965, 406),
                                                         ("a2-forced", 19_340, 1_612, 248)])
def test_surface_sieve_work_at_height_100(monkeypatch, name, lookups, masks, bases):
    # keyed by the square class of x1, the slices' sieve makes the lookups
    # of one slot per residue of x1, which built 7,136 masks and 865 base
    # patterns on a1, and 2,355 and 408 on a2-forced
    *_, counts = _search_work(monkeypatch, surface_point_search, CONTROL_SURFACES[name], 100,
                              rank=False)
    assert counts == {"lookups": lookups, "masks": masks, "bases": bases}


def test_curve_builds_one_mask_per_power_class(monkeypatch):
    # a curve search keeps one mask slot per class of n^(g+1) mod M: 237
    # slots at g = 1 and 180 at g = 3, where one per residue would be 511
    assert sum(max(search._power_classes(M, 2)) + 1 for M in SIEVE_MODULI) == 237
    assert sum(max(search._power_classes(M, 4)) + 1 for M in SIEVE_MODULI) == 180
    curve = build_curve(fiber_coeffs(PARAMS, Theta.of(1, 2)))
    *_, plain = _search_work(monkeypatch, curve_point_search, curve, 1000, rank=False)
    assert plain["lookups"] == 14_718 and plain["masks"] <= 237
    for obj, height, most in ((curve, 1000, 237), (curve, 100, 214),
                              (build_curve(_fiber(3, "0")), 1000, 180)):
        *_, counts = _search_work(monkeypatch, curve_point_search, obj, height)
        assert counts["masks"] <= most, (height, counts)


def test_import_builds_no_modulus_tables():
    root = Path(__file__).resolve().parent.parent
    code = ("import hassecert, hassecert.cli, hassecert.search as s; "
            "assert s._modulus_constants.cache_info().currsize == 0; "
            "assert s._power_classes.cache_info().currsize == 0")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run([sys.executable, "-c", code], check=True, cwd=root, env=env, timeout=60)
    # the probe can see a build
    search._modulus_constants(9)
    assert search._modulus_constants.cache_info().currsize > 0


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
    with pytest.raises(ConfigError, match=r"^full-family mode needs \(g\+1\) \| \(4h\+2\); "
                                          r"got g=3, h=0$"):
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
    # every key the config echo writes is one from_json reads, params included
    cfg = RunConfig(params=PARAMS, output_path="r.json").validate()
    assert RunConfig.from_json(cfg.to_json()) == cfg


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


def test_certify_fiber_refuses_a_theta_that_is_not_a_theta(monkeypatch):
    # a caller's error raises before any stage runs; it is never read as a
    # fiber that failed to certify
    built = []
    monkeypatch.setattr(cli, "fiber_coeffs", lambda *args: built.append(args))
    for theta in ("1/2", Fraction(1, 2), None):
        with pytest.raises(TypeError) as err:
            certify_fiber(PARAMS, theta, height_bound=20, sample_count=2)
        assert str(err.value) == f"theta must be a Theta, not {type(theta).__name__}"
    assert built == []


@pytest.mark.parametrize("params, slot", [
    (ParamSet(72667, 1483, 1889, 2767, (3,), 1, 0), "parameter a = 72667"),
    (ParamSet(PARAMS.a, PARAMS.b, PARAMS.c, 146061, (3,), 1, 0), "parameter d = 146061"),
    (ParamSet(PARAMS.a, PARAMS.b, -5, PARAMS.d, (3,), 1, 0), "parameter c = -5"),
    (ParamSet(PARAMS.a, PARAMS.b, PARAMS.c, PARAMS.d, (3, 9), 1, 0), "omega0 entry 9"),
], ids=["a", "d", "negative-c", "omega0"])
def test_certify_fiber_refuses_a_slot_that_is_not_prime(monkeypatch, params, slot):
    # 72667 = 1483 7^2 and 146061 = 3 48687: a caller's params, refused with
    # the slot named before any stage runs rather than read as a failed
    # local stage that names no place
    built = []
    monkeypatch.setattr(cli, "fiber_coeffs", lambda *args: built.append(args))
    with pytest.raises(ValueError) as err:
        certify_fiber(params, Theta.of(0), height_bound=20, sample_count=2)
    assert str(err.value) == f"{slot} is not prime"
    assert built == []


def test_planted_points_are_found_and_never_certified():
    # a = b puts (S, T) = (1, 0) on every fiber, so the curve search finds
    # the point above t = inf at height 1, and certify_fiber must stop
    # before the search, at a named local or invariant failure
    rng = random.Random(25)
    primes = [q for q in sieve_primes_upto(3000) if q > 3]
    thetas = [Theta.parse(t) for t in ("0", "1", "1/2", "-3", "inf", "2/3")]
    stages = set()
    for _ in range(10):
        a, c, d = rng.sample(primes, 3)
        params = ParamSet(a, a, c, d, (3,), 1, 0)
        for theta in thetas:
            assert ("inf", 1) in curve_point_search(build_curve(fiber_coeffs(params, theta)), 1)
            out = certify_fiber(params, theta, height_bound=20, sample_count=2)
            assert out["certified"] is False, (params, theta)
            assert out["stage"] in ("local-solvability", "brauer-obstruction"), out["error"]
            stages.add(out["stage"])
    assert stages == {"local-solvability", "brauer-obstruction"}


@pytest.mark.parametrize("k", [2, 3])
def test_planted_points_with_a_square_multiple_of_b(monkeypatch, k):
    # a = k^2 b puts (S, T) = (1/k, 0) on every fiber, found at height 1;
    # a = 292 and 657 are not prime, so certify_fiber refuses the slot
    # before any stage runs
    params = ParamSet(k * k * 73, 73, 5, 146059, (3,), 1, 0)
    theta = Theta.of(1, 2)
    curve = build_curve(fiber_coeffs(params, theta))
    assert curve_point_search(curve, 1) == [("inf", Fraction(1, k))]
    built = []
    monkeypatch.setattr(cli, "fiber_coeffs", lambda *args: built.append(args))
    with pytest.raises(ValueError) as err:
        certify_fiber(params, theta, height_bound=1)
    assert str(err.value) == f"parameter a = {k * k * 73} is not prime"
    assert built == []


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


@pytest.mark.parametrize("change, cond", [
    ({"a": "15"}, "i.a-prime"),
    ({"a": str(10**25 + 1)}, "i.a-prime"),
    ({"omega0": ["3", "9"]}, "i.omega0-9-prime"),
])
def test_cli_config_with_non_prime_params_exits_2(tmp_path, capsys, change, cond):
    params = {"a": "1753", "b": "73", "c": "5", "d": "146059", "omega0": ["3"],
              "g": "1", "h": "0", **change}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g": 1, "h": 0, "params": params}))
    assert main(["certify-all", "--config", str(cfg), "--theta", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: explicit parameters fail verification: [")
    assert cond in err


@pytest.mark.parametrize("argv, config", [
    (["--theta=1/0"], None),
    (["--theta=abc"], None),
    (["--theta", "-x/2"], None),  # a separate value that starts with "-"
    (["--config", "CFG"], '{"g": "x"}'),
    (["--config", "CFG"], '{"theta_list": ["1/0"]}'),
    (["--config", "CFG"], None),  # no such file
], ids=["theta-1/0", "theta-abc", "theta-separate-negative", "config-g", "config-theta",
        "config-missing"])
def test_cli_malformed_input_exits_2(tmp_path, capsys, argv, config):
    # malformed input is a config error (exit 2, one line), never a
    # traceback or exit 1, which is kept for a failed certification
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(config)
    argv = [str(cfg) if x == "CFG" else x for x in argv]
    assert main(["certify-all", "--g", "1", "--h", "0", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed input (") and err.count("\n") == 1


@pytest.mark.parametrize("theta", ["-7/2", "-1/3,2"])
def test_cli_negative_theta_as_separate_argument(capsys, theta):
    # argparse reads a separate "-7/2" as an option; the CLI must take it
    # as the value of --theta, as it does "--theta=-7/2"
    reports = []
    for theta_args in ([f"--theta={theta}"], ["--theta", theta]):
        assert main(["certify-all", "--g", "1", "--h", "0", *theta_args,
                     "--height", "20", "--samples", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["generated_at"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert [f["theta"] for f in reports[0]["fibers"]] == theta.split(",")


PARAMS_JSON = {"a": "1753", "b": "73", "c": "5", "d": "146059", "omega0": ["3"],
               "g": "1", "h": "0"}


@pytest.mark.parametrize("config, field", [
    ({"g": 1.9}, "g"),
    ({"height_bound": 20.7}, "height_bound"),
    ({"sample_count": True}, "sample_count"),
    ({"sieve_bound": "1e7"}, "sieve_bound"),
    ({"h": " 0"}, "h"),
    ({"params": {**PARAMS_JSON, "a": 1753.9}}, "a"),
    ({"params": {**PARAMS_JSON, "omega0": [3.0]}}, "omega0"),
    ({"theta_grid": {"num_max": 2.5}}, "num_max"),
    ({"theta_grid": {"den_max": "1.0"}}, "den_max"),
    ({"theta_grid": {"include_zero": "false"}}, "include_zero"),
    ({"theta_grid": {"include_infinity": 0}}, "include_infinity"),
    ({"theta_list": [5]}, "theta_list entry"),
    ({"theta_list": "12"}, "theta_list"),
    ({"theta_grid": 5}, "theta_grid"),
    ({"output_path": 7}, "output_path"),
    ([], "config"),
    ({"params": {**PARAMS_JSON, "omega0": "35"}}, "omega0"),
    ({"params": {**PARAMS_JSON, "omega0": "3"}}, "omega0"),
    ({"params": ["1753", "73", "5", "146059"]}, "params"),
])
def test_cli_config_fields_must_be_integers_and_booleans(tmp_path, capsys, config, field):
    # an integer field takes a JSON integer or a decimal-integer string and
    # a flag a JSON boolean; a float is never truncated and "false" is
    # never true.  theta entries and output_path are strings, theta_list and
    # omega0 arrays, and theta_grid, params and the config itself objects.
    # Each violation is a config error, exit 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g": 1, "h": 0, **config} if isinstance(config, dict) else config))
    assert main(["instantiate", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed input (") and err.count("\n") == 1
    assert f"{field} must be" in err


MALFORMED = "malformed input (ValueError): "


@pytest.mark.parametrize("config, message", [
    ({"heigth": 5}, MALFORMED + "unknown key 'heigth' in config"),
    ({"theta_grid": {"num_max": 1, "den": 2}}, MALFORMED + "unknown key 'den' in theta_grid"),
    ({"params": {**PARAMS_JSON, "e": "7"}}, MALFORMED + "unknown key 'e' in params"),
    ({"theta_list": []}, "theta_list is empty"),
    ({"theta_grid": {"num_max": 0, "include_zero": False, "include_infinity": False}},
     MALFORMED + "theta_grid gives no theta"),
    ({"theta_grid": {"num_max": -2}}, MALFORMED + "num_max must be >= 0, got -2"),
    ({"theta_grid": {"den_max": 0}}, MALFORMED + "den_max must be >= 1, got 0"),
    ({"theta_list": ["1"], "theta_grid": {}},
     MALFORMED + "theta_list and theta_grid exclude each other"),
])
def test_cli_config_refuses_unknown_keys_and_empty_theta_sets(tmp_path, capsys, config, message):
    # a misspelt key, a theta set that gives no theta and two theta keys
    # at once are config errors, never a silent fallback to the defaults
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g": 1, "h": 0, **config}))
    out = tmp_path / "o.json"
    assert main(["instantiate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_an_empty_theta_list_is_refused_in_code_too():
    # a RunConfig built in code with theta_list=[] runs no fiber silently
    with pytest.raises(ConfigError, match="theta_list is empty"):
        cli._certify_fibers(RunConfig(theta_list=[]), "instantiate")


@pytest.mark.parametrize("argv, field", [
    (["--count", "0"], "sieve_count"),
    (["--count", "-2"], "sieve_count"),
    (["--height", "0"], "height_bound"),
    (["--jobs", "0"], "parallelism"),
])
def test_cli_settings_below_their_least_value_exit_2(capsys, argv, field):
    # every integer setting is range-checked from the one settings table
    assert main(["sieve-params", "--g", "1", "--h", "0", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field} ({argv[0]}) must be >= ")
    assert err.count("\n") == 1


def test_cli_params_for_another_genus_exit_2(tmp_path, capsys):
    # a config's params are certified only for their own g and h, never
    # rebuilt for the run's
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {**PARAMS_JSON, "g": "5", "h": "1"}}))
    assert main(["instantiate", "--config", str(cfg), "--theta", "0"]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: params are for g = 5, h = 1, "
                   "but the run is for g = 1, h = 0\n")


def test_cli_certifies_genus_5_through_explicit_params(tmp_path, monkeypatch):
    # AC1's first g = 5, h = 1 quadruple, given as the config's params:
    # resolve_params verifies it and sieves nothing, and theta = 0
    # certifies end to end with the fiber record of the sieved run
    g5 = {"a": "82957914004081763089", "b": "23616331489", "c": "107",
          "d": "75831858899179651581527", "g": "5", "h": "1",
          "omega0": [str(q) for q in omega0_for_genus(5)]}
    sieved = tmp_path / "sieved.json"
    assert main(["certify-all", "--g", "5", "--h", "1", "--theta", "0",
                 "--bound", str(10**24), "--out", str(sieved)]) == 0
    expected = json.loads(sieved.read_text())
    assert expected["params"] == g5

    def no_sieve(*args, **kwargs):
        raise AssertionError("explicit params must not be sieved")

    monkeypatch.setattr(cli, "sieve_params", no_sieve)
    cfg, out = tmp_path / "cfg.json", tmp_path / "explicit.json"
    cfg.write_text(json.dumps({"g": 5, "h": 1, "theta_list": ["0"], "params": g5}))
    assert main(["certify-all", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    (fiber,) = report["fibers"]
    assert fiber["stage"] == "done" and fiber["certified"] is True
    obstruction = fiber["obstruction"]
    assert obstruction["sum"] == "1/2"
    assert [e["place"] for e in obstruction["table"] if e["value"] == "1/2"] == [g5["a"]]
    assert len(fiber["local"]["critical"]["places"]) == 33
    assert report["fibers"] == expected["fibers"]


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["certify-all", "--g", "1", "--h", "0", "--theta", "0",
                 "--height", "10", "--samples", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write the output file: ")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("command", ["certify-all", "certify-local", "point-search",
                                     "instantiate", "j-report"])
def test_cli_unwritable_out_runs_no_fiber(tmp_path, capsys, monkeypatch, command):
    # the output path is checked before the run, so no fiber is certified
    # for a report that could not be written
    def never(*args, **kwargs):
        raise AssertionError("a fiber ran")

    monkeypatch.setattr(cli, "certify_fiber", never)
    out = tmp_path / "missing" / "r.json"
    assert main([command, "--g", "1", "--h", "0", "--theta", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write the output file: ")
    assert err.count("\n") == 1 and not out.exists()


def test_cli_refusal_after_the_out_check_leaves_no_file(tmp_path, capsys):
    # the check's probe removes the file it made, and a refused run writes
    # none; an existing file is left as it was
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {**PARAMS_JSON, "g": "5", "h": "1"}}))
    out = tmp_path / "r.json"
    assert main(["certify-all", "--config", str(cfg), "--theta", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: params are for g = 5")
    assert not out.exists()
    out.write_text("earlier report\n")
    assert main(["certify-all", "--config", str(cfg), "--theta", "0", "--out", str(out)]) == 2
    assert out.read_text() == "earlier report\n"


def test_cli_j_report_theta_and_minus_theta_share_a_fiber(tmp_path):
    # at odd g the fiber depends on theta only through theta^(g+1)
    out = tmp_path / "j.json"
    assert main(["j-report", "--g", "1", "--h", "0", "--theta", "1,-1",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["theta"] for r in rows] == ["1", "-1"]
    assert rows[0]["j"] == rows[1]["j"]


def test_certify_fiber_records_of_theta_and_minus_theta_differ_only_in_theta():
    # at odd g the fiber depends on theta only through theta^(g+1), so on
    # the 7 +- pairs of the default g = 1 grid the certify_fiber records at
    # height 100 are equal once their three theta fields are swapped
    grid = {str(t): t for t in default_theta_grid()}
    pairs = [(grid[s], grid["-" + s]) for s in grid if "-" + s in grid]
    assert len(pairs) == 7
    for theta, minus in pairs:
        plus_rec = certify_fiber(PARAMS, theta, height_bound=100)
        minus_rec = certify_fiber(PARAMS, minus, height_bound=100)
        assert plus_rec["certified"] and plus_rec != minus_rec
        num = str(theta.value.numerator)
        assert minus_rec["theta"] == "-" + plus_rec["theta"]
        assert minus_rec["fiber"]["theta"]["num"] == "-" + num
        assert minus_rec["obstruction"]["fiber"]["theta"]["num"] == "-" + num
        minus_rec["theta"] = plus_rec["theta"]
        minus_rec["fiber"]["theta"]["num"] = num
        minus_rec["obstruction"]["fiber"]["theta"]["num"] = num
        assert minus_rec == plus_rec, str(theta)


class _CallLog:
    """cli.certify_fiber through a log: each call appends its theta to a
    file, so calls in worker processes are counted too.  Picklable, and it
    calls the function this module imported."""

    def __init__(self, path):
        self.path = str(path)

    def __call__(self, params, theta, **kwargs):
        with open(self.path, "a") as fh:
            fh.write(f"{theta}\n")
        return certify_fiber(params, theta, **kwargs)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_certify_all_certifies_each_distinct_fiber_once(tmp_path, monkeypatch, jobs):
    # the 16-theta default grid holds 9 fibers: 0, inf and 7 +- pairs; each
    # is certified once, and every record is the one certify_fiber gives
    log, out = tmp_path / "calls", tmp_path / "r.json"
    monkeypatch.setattr(cli, "certify_fiber", _CallLog(log))
    assert main(["certify-all", "--g", "1", "--h", "0", "--height", "20",
                 "--jobs", jobs, "--out", str(out)]) == 0
    calls = log.read_text().split()
    grid = default_theta_grid()
    assert len(grid) == 16 and len(calls) == len(set(calls)) == 9
    assert {abs(Fraction(t)) for t in calls if t != "inf"} == {
        abs(t.value) for t in grid if not t.is_infinity}
    fibers = json.loads(out.read_text())["fibers"]
    expected = [certify_fiber(PARAMS, t, height_bound=20) for t in grid]
    assert fibers == json.loads(json.dumps(expected))


def test_failed_fiber_thetas_are_certified_on_their_own(tmp_path, monkeypatch):
    # a failed record is never copied to the fiber's other theta
    log = tmp_path / "calls"
    monkeypatch.setattr(cli, "certify_fiber", _CallLog(log))
    monkeypatch.setattr(cli, "check_smooth_curve", lambda curve: False)
    cfg = RunConfig(g=1, h=0, theta_list=[Theta.of(1, 2), Theta.of(-1, 2), Theta.of(1)])
    fibers = run_certify(cfg)["fibers"]
    assert log.read_text().split() == ["1/2", "1", "-1/2"]
    assert [(f["theta"], f["fiber"]["theta"]["num"], f["stage"]) for f in fibers] == [
        ("1/2", "1", "smoothness"), ("-1/2", "-1", "smoothness"), ("1", "1", "smoothness")]


def test_cli_j_report_refuses_distinct_fibers_with_one_j(monkeypatch, capsys):
    monkeypatch.setattr(cli, "j_invariant", lambda coeffs: Fraction(1728))
    assert main(["j-report", "--g", "1", "--h", "0", "--theta", "0,1,-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "j-report: j-invariant failed to separate 2 distinct fibers\n"


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


def test_cli_reused_parser_keeps_no_theta_between_calls(tmp_path):
    # main parses with one parser per process; --theta appends, so each
    # call must start from an empty list, not from the previous call's
    assert cli._parser() is cli._parser()
    runs = [(["--theta", "0", "--theta", "1/2"], ["0", "1/2"]),
            (["--theta", "inf"], ["inf"]),
            ([], [str(t) for t in default_theta_grid()])]
    for i, (theta_args, expected) in enumerate(runs):
        out = tmp_path / f"fibers{i}.json"
        assert main(["instantiate", "--g", "1", "--h", "0", *theta_args,
                     "--out", str(out)]) == 0
        fibers = json.loads(out.read_text())["fibers"]
        assert [str(Theta.from_json(f["theta"])) for f in fibers] == expected


STAGE_THETAS = [Theta.of(0), Theta.of(1, 2), Theta.infinity()]


def test_stage_subcommands_print_certify_fiber_sections(tmp_path):
    # each stage subcommand prints, per theta, the entry of the full
    # certify-all fiber record that its stage produces; instantiate prints
    # the "fiber" entries and j-report the "j_invariant" ones
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
    out = tmp_path / "instantiate.json"
    assert main(["instantiate", "--g", "1", "--h", "0", *theta_args, "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"fibers": [f["fiber"] for f in fibers]}
    out = tmp_path / "j-report.json"
    assert main(["j-report", "--g", "1", "--h", "0", *theta_args, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rows"] == [
        {"theta": f["theta"], "j": f["j_invariant"]} for f in fibers]


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


# ----- the report writer ---------------------------------------------------

WRITER_RUNS = [[command] for command in ("certify-all", "certify-local", "certify-brauer",
                                         "point-search", "instantiate", "j-report",
                                         "sieve-params")]
# a failed fiber record: theta = 3/2 at h = 1 stops at local solvability
FAILED_FIBER_RUN = ["certify-all", "--h", "1", "--theta", "3/2", "--height", "10",
                    "--samples", "2"]


def _emitted(monkeypatch, capsys, argv):
    """(exit code, the one payload the run emitted, the text it printed)."""
    payloads, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload, path: (payloads.append(payload),
                                                             emit(payload, path))[1])
    code = main(argv)
    (payload,) = payloads
    return code, payload, capsys.readouterr().out


@pytest.mark.parametrize("argv", WRITER_RUNS + [FAILED_FIBER_RUN],
                         ids=[argv[0] for argv in WRITER_RUNS] + ["failed-fiber"])
def test_report_text_is_the_stdlib_layout(monkeypatch, capsys, argv):
    # indent 2, sorted keys and ASCII escapes: the text of
    # json.dumps(payload, indent=2, sort_keys=True), byte for byte
    code, payload, out = _emitted(monkeypatch, capsys, argv)
    assert code == (1 if argv is FAILED_FIBER_RUN else 0)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if argv is FAILED_FIBER_RUN:
        assert payload["fibers"][0]["stage"] == "local-solvability"


def test_report_file_is_the_stdlib_layout(monkeypatch, capsys, tmp_path):
    out = tmp_path / "grid.json"
    code, payload, printed = _emitted(monkeypatch, capsys, ["certify-all", "--out", str(out)])
    assert code == 0 and printed == ""
    assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_report_writer_edge_values():
    values = [[], {}, [[], {}], {"b": [None, True, False], "a": {"y": -7, "x": 10**30}},
              {"quote": '"\\\n\t', "accents": "déjà θ \U0001d11e", "": ""},
              {_Name("key"): _Name("value")[:2]}]  # a str-subclass key is written
    for value in values:
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


class _Name(str):
    pass


@pytest.mark.parametrize("payload", [{"x": 1.5}, {"fibers": [{"ok": [0.0]}]}, {3: "a"},
                                     {"a": {"b": {None: "c"}}}, {"t": ("a",)},
                                     {"name": _Name("a")}],
                         ids=["float", "nested-float", "int-key", "none-key", "tuple",
                              "str-subclass"])
def test_report_writer_refuses_other_types(tmp_path, payload):
    out = tmp_path / "r.json"
    with pytest.raises(TypeError):
        cli._emit(payload, str(out))
    assert not out.exists()
