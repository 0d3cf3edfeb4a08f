import math
import random
from fractions import Fraction

import pytest

from hassecert.arith import (
    INF,
    FpPoint,
    Place,
    count_points_hyperelliptic,
    factorize,
    find_smooth_fp_point,
    hensel_nth_root,
    hensel_sqrt,
    hilbert_symbol,
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


def test_count_points_oracle_many():
    rng = random.Random(6)
    for p in (5, 7, 11, 13):
        for _ in range(8):
            g = rng.choice((0, 1))
            while True:
                f = [rng.randrange(p) for _ in range(2 * g + 2)] + [rng.randrange(1, p)]
                try:
                    n = count_points_hyperelliptic(f, g, p)
                    break
                except ValueError:
                    continue
            assert n == double_loop_count(f, g, p)


def test_count_points_hasse_weil_window():
    rng = random.Random(7)
    for p in (29, 101, 211):
        for _ in range(5):
            g = rng.choice((1, 2))
            if p <= 4 * g * g:
                continue
            while True:
                f = [rng.randrange(p) for _ in range(2 * g + 2)] + [rng.randrange(1, p)]
                try:
                    n = count_points_hyperelliptic(f, g, p)
                    break
                except ValueError:
                    continue
            # |n - (p+1)| <= 2g sqrt(p), checked by integer squaring
            d = abs(n - (p + 1))
            assert d * d <= 4 * g * g * p


def test_count_points_rejects_nonseparable():
    with pytest.raises(ValueError):
        count_points_hyperelliptic([0, 0, 1], 0, 5)  # t^2: double root


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
