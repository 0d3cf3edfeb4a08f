import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hassecert import arith
from hassecert.arith import (
    INF,
    FpPoint,
    Place,
    count_points_hyperelliptic,
    factorize,
    find_smooth_fp_point,
    frac_mod,
    hensel_nth_root,
    hensel_sqrt,
    hilbert_symbol,
    hilbert_symbol_units,
    is_local_square,
    is_prime,
    is_rational_square,
    legendre,
    padic_val,
    sieve_primes_upto,
    square_residues,
    sqrt_mod,
    MR_DETERMINISTIC_BOUND,
)
from hassecert.family import Theta, build_curve, fiber_coeffs
from hassecert.local import certify_all_local
from hassecert.params import sieve_params
from hassecert.polynomials import Polynomial
from oracles import discriminant


# ----- independent oracles -------------------------------------------------

def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def squares_mod(p):
    return {x * x % p for x in range(1, p)}


def exhaustive_sqrt_candidates(a, m):
    return sorted(r for r in range(m) if r * r % m == a % m)


def exhaustive_hilbert(a, b, p, k=6):
    """(a,b)_p by primitive-solution search of ax^2 + by^2 = z^2 mod p^k."""
    m = p**k
    for x in range(m):
        for y in range(m):
            rhs = (a * x * x + b * y * y) % m
            z = math.isqrt(rhs)
            for cand in {z % m, (z + 1) % m}:
                if cand * cand % m == rhs and (x % p or y % p or cand % p):
                    return 1
            for cand in range(m):
                if cand * cand % m == rhs and (x % p or y % p or cand % p):
                    return 1
    return -1


def exhaustive_hilbert_small(a, b, p, k):
    """Same as above but organised for speed: tabulate squares mod p^k."""
    m = p**k
    sq = {}
    for z in range(m):
        sq.setdefault(z * z % m, []).append(z)
    for x in range(m):
        for y in range(m):
            rhs = (a * x * x + b * y * y) % m
            for z in sq.get(rhs, []):
                if x % p or y % p or z % p:
                    return 1
    return -1


def double_loop_count(f, g, p):
    """Oracle point count: both charts, explicit double loop over (s, t)."""
    def ev(coeffs, t):
        v = 0
        for c in reversed(coeffs):
            v = (v * t + c) % p
        return v

    F = list(reversed(f))
    affine = sum(1 for t in range(p) for s in range(p) if s * s % p == ev(f, t))
    inf_chart = sum(1 for s in range(p) if s * s % p == ev(F, 0))
    return affine + inf_chart


def single_loop_count(f, p):
    """Oracle point count for large p: one pass over t, Euler's criterion
    for each value, plus the points above t = infinity."""
    def points_over(v):
        v %= p
        return 1 if v == 0 else 2 if pow(v, (p - 1) // 2, p) == 1 else 0

    count = points_over(f[-1])
    for t in range(p):
        v = 0
        for c in reversed(f):
            v = (v * t + c) % p
        count += points_over(v)
    return count


# ----- is_prime -------------------------------------------------------------

def test_is_prime_trivial():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_against_trial_division():
    for n in range(2000):
        assert is_prime(n) == trial_division_is_prime(n), n
    assert is_prime(1753) == trial_division_is_prime(1753) == True


def test_is_prime_rejects_above_deterministic_bound():
    with pytest.raises(ValueError):
        is_prime(MR_DETERMINISTIC_BOUND)
    with pytest.raises(ValueError):
        is_prime(-1)


# psi_12, the least strong pseudoprime to the twelve prime bases up to 37
# (Sorenson-Webster 2017): base 41 is what exposes it
PSI_12 = 318_665_857_834_031_151_167_461
PSI_12_FACTORS = (399_165_290_221, 798_330_580_441)


def test_is_prime_rejects_psi_12():
    assert PSI_12 == PSI_12_FACTORS[0] * PSI_12_FACTORS[1]
    assert PSI_12 < MR_DETERMINISTIC_BOUND
    assert not is_prime(PSI_12)
    assert all(is_prime(p) for p in PSI_12_FACTORS)
    assert factorize(PSI_12) == (dict.fromkeys(PSI_12_FACTORS, 1), [])


# ----- the prime guard ------------------------------------------------------

PRIME_TAKERS = [
    ("padic_val", lambda p: padic_val(3, p)),
    ("Place.finite", Place.finite),
    ("legendre", lambda p: legendre(2, p)),
    ("sqrt_mod", lambda p: sqrt_mod(2, p)),
    ("hensel_sqrt", lambda p: hensel_sqrt(2, p, 3)),
    ("hilbert_symbol_units", lambda p: hilbert_symbol_units(0, 2, 1, 3, p)),
    ("count_points_hyperelliptic",
     lambda p: count_points_hyperelliptic([1, 0, 0, 0, 1], 1, p)),
    ("find_smooth_fp_point", lambda p: find_smooth_fp_point(1, 1, 1, 1, p)),
]


@pytest.mark.parametrize("name, call", PRIME_TAKERS, ids=[n for n, _ in PRIME_TAKERS])
@pytest.mark.parametrize("p", [9, 15, 1])
def test_prime_guard_rejects_non_primes_every_time(name, call, p):
    for _ in range(2):  # a cached composite would pass the second call
        with pytest.raises(ValueError):
            call(p)


def test_legendre_rejects_two_after_two_is_proved():
    assert padic_val(8, 2) == 3
    for _ in range(2):
        with pytest.raises(ValueError):
            legendre(1, 2)


def test_prime_guard_proves_each_prime_once(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "_PROVED_PRIMES", set())
    monkeypatch.setattr(arith, "is_prime", counting_is_prime)
    p = 1_000_003
    for x in range(1, 1001):
        assert padic_val(x * p, p) == 1
    for _ in range(100):
        assert Place.finite(p).p == p
        assert legendre(4, p) == 1
    assert calls == [p]


def test_no_module_imports_private_arith_names():
    src = Path(arith.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "arith.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == "arith")
                or node.module == "hassecert.arith"
            ):
                offenders += [(path.name, a.name) for a in node.names
                              if a.name.startswith("_")]
    assert offenders == []


# ----- legendre -------------------------------------------------------------

def test_legendre_examples():
    for p in (3, 7, 11, 1753):
        assert legendre(1, p) == 1
    assert squares_mod(7) == {1, 2, 4}
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1
    assert legendre(14, 7) == 0


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 8)
    with pytest.raises(ValueError):
        legendre(3, 15)


def test_legendre_matches_square_sets():
    for p in (3, 5, 7, 11, 13, 17):
        sq = squares_mod(p)
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in sq else -1)


def test_legendre_multiplicative_fuzz():
    rng = random.Random(1)
    for _ in range(500):
        p = rng.choice((3, 5, 7, 11, 13, 101, 1753))
        a = rng.randrange(1, 10**6)
        b = rng.randrange(1, 10**6)
        if a % p == 0 or b % p == 0:
            continue
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


# ----- sqrt_mod -------------------------------------------------------------

def test_sqrt_mod_examples():
    assert sqrt_mod(0, 7) == 0
    assert sqrt_mod(2, 7) == 3  # canonical choice among {3, 4}
    assert exhaustive_sqrt_candidates(2, 7) == [3, 4]
    assert sqrt_mod(3, 7) is None


def test_sqrt_mod_exhaustive_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 29, 41):
        for a in range(p):
            r = sqrt_mod(a, p)
            cands = exhaustive_sqrt_candidates(a, p)
            if not cands:
                assert r is None
            else:
                assert r == min(cands)


def test_sqrt_mod_large_prime():
    p = 10**9 + 7
    for a in (2, 3, 5, 123456789):
        r = sqrt_mod(a, p)
        if r is not None:
            assert r * r % p == a % p
            assert r <= p // 2


# ----- padic_val ------------------------------------------------------------

def test_padic_val_examples():
    assert padic_val(1, 7) == 0
    assert padic_val(Fraction(8, 3), 2) == 3
    assert padic_val(Fraction(50, 49), 7) == -2
    assert padic_val(0, 5) == INF


def test_padic_val_additive_fuzz():
    rng = random.Random(2)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7, 13))
        x = Fraction(rng.randrange(-999, 1000) or 1, rng.randrange(1, 1000))
        y = Fraction(rng.randrange(-999, 1000) or 1, rng.randrange(1, 1000))
        assert padic_val(x * y, p) == padic_val(x, p) + padic_val(y, p)


# ----- is_local_square -------------------------------------------------------

def test_is_local_square_examples():
    for place in (Place.real(), Place.finite(2), Place.finite(5), Place.finite(1753)):
        assert is_local_square(1, place)
    assert is_local_square(17, Place.finite(2))
    assert not is_local_square(2, Place.finite(5))
    assert not is_local_square(-4, Place.real())
    assert is_local_square(Fraction(9, 4), Place.real())
    with pytest.raises(ValueError):
        is_local_square(0, Place.real())


def test_is_local_square_vs_hensel():
    # a unit is a local square at odd p iff a square root exists mod p^3
    for p in (3, 5, 7):
        for a in range(1, p**3):
            if a % p == 0:
                continue
            expected = any(r * r % p**3 == a for r in range(p**3))
            assert is_local_square(a, Place.finite(p)) == expected


# ----- hensel_sqrt ----------------------------------------------------------

def test_hensel_sqrt_examples():
    assert hensel_sqrt(1, 7, 4) == 1
    assert hensel_sqrt(2, 7, 2) == 10
    assert exhaustive_sqrt_candidates(2, 49) == [10, 39]
    assert hensel_sqrt(3, 7, 5) is None


def test_hensel_sqrt_agrees_with_exhaustive():
    for p in (3, 5, 7, 11, 13):
        for k in (1, 2, 3):
            m = p**k
            for a in range(1, m):
                if a % p == 0:
                    continue
                r = hensel_sqrt(a, p, k)
                cands = exhaustive_sqrt_candidates(a, m)
                if is_local_square(a, Place.finite(p)):
                    assert r is not None and r * r % m == a
                    assert r == min(c for c in cands)
                else:
                    assert r is None


def test_hensel_sqrt_two_adic():
    for k in (3, 4, 5, 8):
        for a in (1, 9, 17, 25, 41):
            r = hensel_sqrt(a, 2, k)
            assert r is not None and r * r % 2**k == a % 2**k
    assert hensel_sqrt(3, 2, 4) is None
    assert hensel_sqrt(5, 2, 4) is None


def test_hensel_sqrt_rejects_non_unit():
    with pytest.raises(ValueError):
        hensel_sqrt(Fraction(7), 7, 2)
    with pytest.raises(ValueError):
        hensel_sqrt(14, 7, 2)


def test_hensel_sqrt_int_residue_matches_fraction():
    # an int is read as a unit residue: any representative mod p^k (mod 8
    # at least, at p = 2) gives the root of the exact rational
    rng = random.Random(11)
    for p in (2, 3, 5, 73):
        for k in (1, 2, 3, 5, 8):
            for _ in range(40):
                x = Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**3))
                if padic_val(x, p) != 0:
                    continue
                want = hensel_sqrt(x, p, k)
                for m in (p ** max(k, 3), p ** (k + 2)):
                    r = frac_mod(x, m)
                    assert hensel_sqrt(r, p, k) == want, (x, p, k, m)
                    assert hensel_sqrt(r + 5 * m, p, k) == want


# ----- hensel_nth_root -------------------------------------------------------

def test_hensel_nth_root_examples():
    assert hensel_nth_root(10, 1, 7, 2) == 10
    assert hensel_nth_root(1, 4, 5, 3) == 1
    assert hensel_nth_root(2, 3, 5, 1) == 3  # 3^3 = 27 = 2 mod 5
    assert {x for x in range(5) if pow(x, 3, 5) == 2} == {3}


def test_hensel_nth_root_exhaustive():
    # p = 11 hits the prime-root extraction with 5 | p-1; p = 19 has
    # 9 | p-1, exercising the two-digit subgroup descent for r = 3
    for p in (3, 5, 7, 11, 13, 19):
        for n in (2, 3, 4, 5, 6):
            if n % p == 0:
                continue
            for k in (1, 2):
                m = p**k
                for a in range(1, m):
                    if a % p == 0:
                        continue
                    roots = [x for x in range(m) if pow(x, n, m) == a]
                    r = hensel_nth_root(a, n, p, k)
                    if roots:
                        assert r in roots
                    else:
                        assert r is None


def test_hensel_nth_root_two_adic_odd_exponent():
    for k in (1, 2, 3, 6):
        for a in (1, 3, 5, 7, 9, 15):
            r = hensel_nth_root(a, 3, 2, k)
            assert pow(r, 3, 2**k) == a % 2**k


def test_hensel_nth_root_rejects_p_dividing_n():
    with pytest.raises(ValueError):
        hensel_nth_root(2, 5, 5, 2)


# ----- hilbert_symbol --------------------------------------------------------

def test_hilbert_symbol_pinned_values():
    assert hilbert_symbol(1, 17, Place.finite(3)) == 1
    assert hilbert_symbol(2, 5, Place.finite(5)) == -1
    assert hilbert_symbol(-1, -1, Place.real()) == -1
    assert hilbert_symbol(-1, -1, Place.finite(2)) == -1


def test_hilbert_symbol_exhaustive_oracle_at_2():
    # mod 2^6 primitive-solution search as oracle
    cases = [(-1, -1), (-1, 3), (2, 3), (3, 5), (-2, -5), (2, 2), (-1, 2)]
    for a, b in cases:
        assert hilbert_symbol(a, b, Place.finite(2)) == exhaustive_hilbert_small(
            a % 64, b % 64, 2, 6
        ), (a, b)


def test_hilbert_symbol_exhaustive_oracle_odd():
    for p in (3, 5):
        for a in (1, 2, 3, 5, 7, p, 2 * p):
            for b in (1, 2, 3, 5, 7, p, 3 * p):
                assert hilbert_symbol(a, b, Place.finite(p)) == exhaustive_hilbert_small(
                    a % p**3, b % p**3, p, 3
                ), (a, b, p)


@pytest.mark.parametrize("p, k", [(2, 6), (3, 3), (5, 3), (7, 2)])
def test_hilbert_kernel_entry_points_against_exhaustive(p, k):
    # (p^alpha u, p^beta v)_p through the Fraction entry point and the
    # integer kernel, for every unit class (mod 8 at 2) and valuation 0, 1
    m = p**k
    units = (1, 3, 5, 7) if p == 2 else range(1, p)
    for alpha in (0, 1):
        for beta in (0, 1):
            for u in units:
                for v in units:
                    a, b = p**alpha * u, p**beta * v
                    want = exhaustive_hilbert_small(a % m, b % m, p, k)
                    assert hilbert_symbol(a, b, Place.finite(p)) == want, (a, b, p)
                    assert hilbert_symbol(Fraction(a, 9 if p != 3 else 4), b,
                                          Place.finite(p)) == want
                    assert hilbert_symbol_units(alpha, u, beta, v, p) == want
                    # only the class matters: other unit representatives,
                    # valuations shifted by 2
                    assert hilbert_symbol_units(alpha - 2, u + 8 * p, beta + 2,
                                                v + 8 * p * p, p) == want


def test_hilbert_kernel_rejects_non_units():
    with pytest.raises(ValueError):
        hilbert_symbol_units(0, 5, 1, 3, 5)
    with pytest.raises(ValueError):
        hilbert_symbol_units(0, 3, 1, 4, 2)


def test_hilbert_symbol_rejects_zero():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, Place.real())


def test_hilbert_product_formula_fuzz():
    rng = random.Random(3)
    for _ in range(200):
        a = Fraction(rng.randrange(-9999, 10000) or 1, rng.randrange(1, 10000))
        b = Fraction(rng.randrange(-9999, 10000) or 1, rng.randrange(1, 10000))
        support = {2}
        n = 2 * a.numerator * a.denominator * b.numerator * b.denominator
        f, unresolved = factorize(n)
        assert not unresolved
        support |= set(f)
        prod = hilbert_symbol(a, b, Place.real())
        for p in sorted(support):
            prod *= hilbert_symbol(a, b, Place.finite(p))
        assert prod == 1, (a, b)


def test_hilbert_bilinearity_fuzz():
    rng = random.Random(4)
    places = [Place.real(), Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(7)]
    for _ in range(1000):
        v = rng.choice(places)
        a = Fraction(rng.randrange(-999, 1000) or 1, rng.randrange(1, 1000))
        b1 = Fraction(rng.randrange(-999, 1000) or 1, rng.randrange(1, 1000))
        b2 = Fraction(rng.randrange(-999, 1000) or 1, rng.randrange(1, 1000))
        lhs = hilbert_symbol(a, b1 * b2, v)
        rhs = hilbert_symbol(a, b1, v) * hilbert_symbol(a, b2, v)
        assert lhs == rhs


def test_hilbert_a_minus_a():
    rng = random.Random(5)
    for _ in range(100):
        a = Fraction(rng.randrange(-999, 1000) or 1, rng.randrange(1, 1000))
        for v in (Place.real(), Place.finite(2), Place.finite(5)):
            assert hilbert_symbol(a, -a, v) == 1


# ----- point counting --------------------------------------------------------

def test_count_points_conic():
    # genus 0, f = t^2 - 1 over F_5: a smooth conic has p + 1 points
    assert count_points_hyperelliptic([-1, 0, 1], 0, 5) == 6
    assert double_loop_count([-1, 0, 1], 0, 5) == 6


def test_count_points_quartic_oracle():
    f = [1, 0, 0, 0, 1]  # t^4 + 1, genus 1
    assert count_points_hyperelliptic(f, 1, 5) == double_loop_count(f, 1, 5)


OFF_THE_POWERS = r"t\^\(g\+1\)"


def _refused_or_powers(rng, g, p):
    """A random dense f of degree 2g+2 must be refused when a coefficient
    off the powers t^(g+1) is nonzero; returns a separable f = q(t^(g+1))
    and its count."""
    f = [rng.randrange(p) for _ in range(2 * g + 2)] + [rng.randrange(1, p)]
    if any(c for i, c in enumerate(f) if i % (g + 1)):
        with pytest.raises(ValueError, match=OFF_THE_POWERS):
            count_points_hyperelliptic(f, g, p)
    while True:
        f = _powers_supported(rng, g, p)
        try:
            return f, count_points_hyperelliptic(f, g, p)
        except ValueError as e:
            assert "not separable" in str(e)


def test_count_points_oracle_many():
    rng = random.Random(6)
    for p in (5, 7, 11, 13):
        for _ in range(8):
            g = rng.choice((0, 1))
            f, n = _refused_or_powers(rng, g, p)
            assert n == double_loop_count(f, g, p)


def test_count_points_hasse_weil_window():
    rng = random.Random(7)
    for p in (29, 101, 211):
        for g in (1, 2):  # g = 2 has odd n = 3
            for _ in range(3):
                f, n = _refused_or_powers(rng, g, p)
                assert n == single_loop_count(f, p)
                # |n - (p+1)| <= 2g sqrt(p), checked by integer squaring
                d = abs(n - (p + 1))
                assert d * d <= 4 * g * g * p


def test_count_points_rejects_nonseparable():
    with pytest.raises(ValueError):
        count_points_hyperelliptic([0, 0, 1], 0, 5)  # t^2: double root


def _powers_supported(rng, g, p, c0=None, lead=None):
    """A random dense f = c0 + c_n t^n + c_2n t^2n with n = g + 1."""
    n = g + 1
    f = [0] * (2 * n + 1)
    f[0] = rng.randrange(p) if c0 is None else c0
    f[n] = rng.randrange(p)
    f[2 * n] = rng.randrange(1, p) if lead is None else lead
    return f


def _non_square(p):
    return next(x for x in range(2, p) if legendre(x, p) == -1)


# Every d = gcd(g + 1, p - 1) that an odd prime p can give: g = 3 gives 4
# at p = 1 mod 4 and 2 at p = 3 mod 4; g = 5 gives 6 at p = 1 mod 6 and 2
# at p = 5 mod 6.
_ALL_D = {0: {1}, 1: {2}, 3: {2, 4}, 5: {2, 6}}


@pytest.mark.parametrize("g", sorted(_ALL_D))
def test_count_points_over_powers_small_primes(g):
    rng = random.Random(11 + g)
    seen_d = set()
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53, 61, 73):
        cases = [_powers_supported(rng, g, p) for _ in range(2)]
        cases.append(_powers_supported(rng, g, p, lead=_non_square(p)))
        cases.append(_powers_supported(rng, g, p))
        cases[-1][g + 1] = 0  # c_n = 0
        if g == 0:
            cases.append(_powers_supported(rng, g, p, c0=0))
        for f in cases:
            try:
                n = count_points_hyperelliptic(f, g, p)
            except ValueError:
                continue  # not separable mod p
            assert n == double_loop_count(f, g, p), (f, g, p)
            seen_d.add(math.gcd(g + 1, p - 1))
    assert seen_d == _ALL_D[g]


@pytest.mark.parametrize("g, p, d", [
    (0, 50_021, 1), (1, 50_023, 2), (3, 60_013, 4), (3, 70_019, 2),
    (5, 70_009, 6), (5, 80_039, 2),
])
def test_count_points_over_powers_large_primes(g, p, d):
    assert math.gcd(g + 1, p - 1) == d
    rng = random.Random(p)
    f = _powers_supported(rng, g, p, c0=0 if g == 0 else None, lead=_non_square(p))
    assert count_points_hyperelliptic(f, g, p) == single_loop_count(f, p)


@pytest.mark.parametrize("p", [5, 7, 50_023])
def test_count_points_over_powers_rejects_nonseparable(p):
    with pytest.raises(ValueError, match="not separable"):
        count_points_hyperelliptic([1, 0, -2, 0, 1], 1, p)  # (t^2 - 1)^2


@pytest.mark.parametrize("g, p", [(1, 13), (3, 29), (5, 37), (1, 50_023), (5, 70_009)])
def test_count_points_one_coefficient_off_the_powers(g, p):
    # a separable f = q(t^(g+1)) is counted; one nonzero coefficient at an
    # index not divisible by g + 1 puts f outside that form, and it is refused
    rng = random.Random(g * p)
    while True:
        f = _powers_supported(rng, g, p)
        try:
            n = count_points_hyperelliptic(f, g, p)
            break
        except ValueError as e:
            assert "not separable" in str(e)
    oracle = double_loop_count(f, g, p) if p < 100 else single_loop_count(f, p)
    assert n == oracle
    f[rng.choice([i for i in range(1, 2 * g + 2) if i % (g + 1)])] = rng.randrange(1, p)
    with pytest.raises(ValueError, match=OFF_THE_POWERS):
        count_points_hyperelliptic(f, g, p)


@pytest.mark.parametrize("g", [0, 1, 2, 3, 5])
def test_count_points_separability_matches_the_discriminant(g):
    # f = q(t^n), n = g + 1, is refused as not separable exactly when
    # disc(f) = 0 mod p (the leading coefficient is a unit); cases force a
    # double root of q, c0 = 0, and p | n (p = 3 at g = 2 and g = 5)
    rng = random.Random(100 + g)
    n = g + 1
    seen = set()
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        cases = [_powers_supported(rng, g, p) for _ in range(4)]
        cases.append(_powers_supported(rng, g, p, c0=0))
        for r in (0, rng.randrange(1, p)):  # q = c (u - r)^2
            c = rng.randrange(1, p)
            f = [0] * (2 * n + 1)
            f[0], f[n], f[2 * n] = c * r * r % p, -2 * c * r % p, c
            cases.append(f)
        for f in cases:
            disc = discriminant(Polynomial(f))
            assert disc.denominator == 1
            separable = disc.numerator % p != 0
            if not separable:
                seen.add("p | n" if n % p == 0 else "c0 = 0" if n > 1 and f[0] == 0
                         else "double root")
                with pytest.raises(ValueError, match="not separable"):
                    count_points_hyperelliptic(f, g, p)
            else:
                assert count_points_hyperelliptic(f, g, p) == single_loop_count(f, p)
    expected = {"c0 = 0", "double root"} if g else {"double root"}
    assert seen == expected | ({"p | n"} if n % 3 == 0 else set())


def _ec_order_of(f, p):
    """arith._ec_order on the curve Y^2 = X^3 + c2 X^2 + c0 c4 X of the even
    quartic f = c0 + c2 t^2 + c4 t^4."""
    return arith._ec_order(f[2] % p, f[0] * f[4] % p, p)


# Primes in (5*10^4, 10^5): 50,021, 70,001 and 99,989 are 1 mod 4; 50,023,
# 80,039 and 99,991 are 3 mod 4.
@pytest.mark.parametrize("p, c2_zero, lead_square", [
    (50_021, False, True), (50_023, False, False), (70_001, True, False),
    (80_039, True, True), (99_989, False, False), (99_991, False, True),
])
def test_genus1_even_quartics_large_primes(p, c2_zero, lead_square):
    rng = random.Random(p)
    while True:
        f = _powers_supported(rng, 1, p, lead=None if lead_square else _non_square(p))
        if lead_square:
            f[4] = f[4] ** 2 % p
        if c2_zero:
            f[2] = 0
        try:
            n = count_points_hyperelliptic(f, 1, p)
            break
        except ValueError:
            continue
    oracle = single_loop_count(f, p)
    assert n == oracle
    assert _ec_order_of(f, p) == oracle  # decided by the order search, not the walk


# #E at either end of the Hasse interval [p + 1 - isqrt(4p), p + 1 + isqrt(4p)]:
# within 7 of the top at p = 1277 and 1723, within 2 of the bottom at p = 1069
# and 2243.
@pytest.mark.parametrize("p, f, n", [
    (1277, [586, 0, 765, 0, 202], 1346), (1723, [1218, 0, 642, 0, 194], 1800),
    (1069, [514, 0, 667, 0, 561], 1006), (2243, [1881, 0, 1441, 0, 1721], 2152),
])
def test_genus1_orders_at_the_ends_of_the_hasse_interval(p, f, n):
    assert single_loop_count(f, p) == n
    assert _ec_order_of(f, p) == n
    assert count_points_hyperelliptic(f, 1, p) == n


# The first point leaves more than one candidate in the Hasse interval.  At
# p = 61 and 1259 the second point alone decides; at p = 59 and 1021 neither
# of the first two does, and only their intersection leaves one candidate
# (p = 59: {48, 60, 72} and {54, 72}; p = 1021: {972, 1053} and {972, 1080}).
@pytest.mark.parametrize("p, f, n", [
    (61, [53, 0, 55, 0, 18], 76), (1259, [1182, 0, 910, 0, 275], 1308),
    (59, [41, 0, 54, 0, 20], 72), (1021, [365, 0, 446, 0, 765], 972),
])
def test_genus1_order_decided_by_a_later_point(monkeypatch, p, f, n):
    assert single_loop_count(f, p) == n
    assert _ec_order_of(f, p) == n
    assert count_points_hyperelliptic(f, 1, p) == n
    monkeypatch.setattr(arith, "_EC_ORDER_POINTS", 1)
    assert _ec_order_of(f, p) is None


# No point tried leaves a single candidate (the group exponent has several
# multiples in the Hasse interval), so the walk counts.
@pytest.mark.parametrize("p, f, n", [
    (373, [327, 0, 239, 0, 238], 348), (2689, [1685, 0, 1011, 0, 610], 2624),
])
def test_genus1_undecided_order_falls_back_to_the_walk(p, f, n):
    assert _ec_order_of(f, p) is None
    assert single_loop_count(f, p) == n
    assert count_points_hyperelliptic(f, 1, p) == n


# ----- find_smooth_fp_point ---------------------------------------------------

def test_find_smooth_point_genus0():
    pt = find_smooth_fp_point(1, 1, 1, 0, 5)
    s, t = pt.coords
    assert (s * s - (1 - t)) % 5 == 0


def test_find_smooth_point_genus1():
    pt = find_smooth_fp_point(1, 2, 1, 1, 7)
    s, t = pt.coords
    assert (1 * s * s - 2 * (1 - pow(t, 2, 7))) % 7 == 0
    # smoothness: not both Jacobian entries zero
    assert (2 * s) % 7 != 0 or (2 * 2 * 1 * t) % 7 != 0


def test_find_smooth_point_existence_sweep():
    for p in (5, 7, 11, 13):
        for a in (1, 2, 3):
            for b in (1, 2):
                for r in (1, 2, 3):
                    for g in (0, 1) if p > 4 else (0,):
                        if p <= 4 * g * g:
                            continue
                        pt = find_smooth_fp_point(a, b, r, g, p)
                        s, t = pt.coords
                        assert (a * s * s - b * (1 - r * pow(t, g + 1, p))) % p == 0


# ----- misc -------------------------------------------------------------------

def test_sieve_primes():
    assert sieve_primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_factorize_roundtrip():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randrange(2, 10**12)
        f, unresolved = factorize(n)
        assert not unresolved
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_square_residues():
    for m in (1, 2, 8, 9, 11, 25, 49, 53, 64):
        sq = square_residues(m)
        assert len(sq) == m
        assert {r for r in range(m) if sq[r]} == {x * x % m for x in range(m)}


def test_is_rational_square():
    assert is_rational_square(Fraction(9, 4)) == Fraction(3, 2)
    assert is_rational_square(2) is None
    assert is_rational_square(Fraction(-1)) is None
    assert is_rational_square(0) == 0


# ----- the blanket spot-check on real fibers ----------------------------------

@pytest.mark.parametrize("g, bound, theta", [(1, 10**7, Fraction(1, 2)), (3, 10**12, 0)])
def test_blanket_counts_on_real_fibers(g, bound, theta):
    # theta = 1/2 at g = 1, and the g = 3 theta-zero fiber
    params = sieve_params(g, 0, bound=bound, count=1)[0]
    curve = build_curve(fiber_coeffs(params, Theta.of(theta)))
    counts = certify_all_local(curve).blanket.sample_counts
    assert len(counts) == 20
    for q in sorted(counts)[::8]:  # three of the twenty primes
        assert counts[q] == single_loop_count(curve.f_poly().mod_p(q), q), q


@pytest.mark.parametrize("theta", [Theta.of(1, 2), Theta.infinity()])
def test_blanket_genus1_counts_are_curve_orders(monkeypatch, theta):
    # every g = 1 fiber's f is an even quartic mod each blanket prime, and the
    # order search decides all twenty counts: the walk, which starts with a
    # square_residues table, never runs
    def no_walk(p):
        raise AssertionError(f"the walk ran at p = {p}")

    params = sieve_params(1, 0, bound=10**7, count=1)[0]
    curve = build_curve(fiber_coeffs(params, theta))
    monkeypatch.setattr(arith, "square_residues", no_walk)
    counts = certify_all_local(curve).blanket.sample_counts
    monkeypatch.undo()
    assert len(counts) == 20
    for q, n in counts.items():
        f = curve.f_poly().mod_p(q)
        assert f[1] == f[3] == 0, q
        assert _ec_order_of(f, q) == n, q
    for q in sorted(counts)[::8]:  # three of the twenty primes
        assert counts[q] == single_loop_count(curve.f_poly().mod_p(q), q), q
