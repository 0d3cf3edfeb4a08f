import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hassecert import arith
from hassecert.arith import (
    INF,
    Place,
    count_points_hyperelliptic,
    factorize,
    frac_mod,
    hensel_nth_root,
    hilbert_symbol,
    hilbert_symbol_char,
    is_local_square,
    is_prime,
    is_rational_square,
    legendre,
    padic_val,
    sieve_primes_upto,
    square_class,
    square_residues,
    sqrt_mod,
    unit_character,
    unit_part,
    MR_DETERMINISTIC_BOUND,
)
from hassecert.family import HyperellipticCurve, Theta, build_curve, fiber_coeffs
from hassecert.local import _blanket_check, _scan_fp_point, certify_all_local, critical_places
from hassecert.params import sieve_params
import oracles
from oracles import (
    Polynomial,
    chart_triple,
    count_fraction_constructions,
    discriminant,
    f_poly,
    find_smooth_fp_point,
    inverting_hensel_sqrt,
    legendre_first_sqrt_mod,
    trial_division_factorize,
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


def hensel_sqrt(a, p, k):
    """The rooter's root of the p-adic unit a mod p^k, k >= 2, or None: a is
    an exact rational or an int residue, read by arith.ResidueRooter(p, k)
    through its class mod p^(k+2)."""
    if not isinstance(a, int):
        a = frac_mod(Fraction(a), p ** (k + 2))
    rooter = arith.ResidueRooter(p, k)
    token = rooter.test(a % p ** (k + 2))
    return None if token is None else rooter.lift(token)


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


# ----- the psi_t prefix of bases ---------------------------------------------

def _strong_probable_prime(n, base):
    """The strong-probable-prime test of the odd n > base to one base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _thirteen_base_verdict(n):
    """is_prime's verdict with all thirteen bases on every n."""
    if n < 2:
        return False
    for p in arith._SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return not arith._sprp_composite(n, arith._MR_BASES)


def test_psi_table_entries_are_strong_pseudoprimes_to_their_bases():
    # psi_t passes the first t bases and some later base exposes it, so a
    # typo in the table reads as a failure here, not as a composite that
    # is_prime lets through
    psi = (*arith._MR_PSI, MR_DETERMINISTIC_BOUND)
    assert len(psi) == len(arith._MR_BASES) == 13
    assert list(psi) == sorted(psi)
    for t, n in enumerate(psi, start=1):
        bases = arith._MR_BASES[:t]
        assert n % 2 == 1 and all(_strong_probable_prime(n, b) for b in bases), t
        if t < 13:
            assert not all(_strong_probable_prime(n, b) for b in arith._MR_BASES), t
            assert not is_prime(n), t
    assert arith._MR_PSI[11] == PSI_12


def test_is_prime_agrees_with_thirteen_bases_below_two_hundred_thousand():
    primes = set(sieve_primes_upto(200_000))
    for n in range(200_000):
        assert is_prime(n) == _thirteen_base_verdict(n) == (n in primes), n


def test_is_prime_agrees_with_thirteen_bases_on_random_n():
    # bit lengths drawn uniformly, so every band [psi_(t-1), psi_t) is hit
    rng = random.Random(35)
    top = MR_DETERMINISTIC_BOUND.bit_length()
    seen_primes = 0
    for _ in range(10_000):
        k = rng.randrange(2, top + 1)
        n = rng.randrange(1 << (k - 1), min(1 << k, MR_DETERMINISTIC_BOUND)) | 1
        verdict = is_prime(n)
        assert verdict == _thirteen_base_verdict(n), n
        seen_primes += verdict
    assert seen_primes > 100


# ----- the prime guard ------------------------------------------------------

PRIME_TAKERS = [
    ("padic_val", lambda p: padic_val(3, p)),
    ("Place.finite", Place.finite),
    ("legendre", lambda p: legendre(2, p)),
    ("sqrt_mod", lambda p: sqrt_mod(2, p)),
    ("hensel_sqrt", lambda p: hensel_sqrt(2, p, 3)),
    ("ResidueRooter", lambda p: arith.ResidueRooter(p, 6)),
    ("hilbert_symbol_char",
     lambda p: hilbert_symbol_char(0, unit_character(2, p), 1, 3, p)),
    ("count_points_hyperelliptic",
     lambda p: count_points_hyperelliptic((1, 0, 1), 1, p)),
]


@pytest.mark.parametrize("name, call", PRIME_TAKERS, ids=[n for n, _ in PRIME_TAKERS])
@pytest.mark.parametrize("p", [9, 15, 1])
def test_prime_guard_rejects_non_primes_every_time(name, call, p):
    for _ in range(2):  # a cached composite would pass the second call
        with pytest.raises(ValueError):
            call(p)


@pytest.mark.parametrize("p", [9, 15, 1])
def test_hilbert_character_form_rejects_non_primes_every_time(p):
    # the character form reads no Legendre symbol at an even alpha, so it
    # must guard p itself
    for _ in range(2):
        with pytest.raises(ValueError):
            arith.unit_character(2, p)
        with pytest.raises(ValueError):
            arith.hilbert_symbol_char(0, 1, 1, 2, p)


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


@pytest.mark.parametrize("p", [257, 7681, 12289, 65537])
def test_sqrt_mod_exhaustive_at_high_two_power_primes(p):
    # p - 1 = 2^8, 2^9 * 15, 2^12 * 3, 2^16: Tonelli-Shanks runs its longest
    # loops, with its constants built from the least non-residue
    squares = {x * x % p for x in range(p)}
    for a in range(p):
        r = sqrt_mod(a, p)
        if a in squares:
            assert r * r % p == a and r <= p // 2, (a, p)
        else:
            assert r is None, (a, p)
    z = next(k for k in range(2, p) if legendre(k, p) == -1)
    q, s, c = arith._tonelli_constants(p)
    assert q % 2 == 1 and q << s == p - 1 and c == pow(z, q, p)


# 60-bit primes: 3 mod 8 (s = 1), 5 mod 8 (s = 2), 1 mod 8 with s = 5 and
# s = 6, for p - 1 = q 2^s with q odd
SIXTY_BIT_PRIMES = (576460752303423619, 576460752303423733, 576460752303423649,
                    576460752303426241)


def test_sqrt_mod_large_prime():
    assert all(is_prime(p) and p.bit_length() == 60 for p in SIXTY_BIT_PRIMES)
    assert [((p - 1) & (1 - p)).bit_length() - 1 for p in SIXTY_BIT_PRIMES] == [1, 2, 5, 6]
    for p in (10**9 + 7, *SIXTY_BIT_PRIMES):
        nones = 0
        for a in (2, 3, 5, 7, 11, 13, 123456789):
            r = sqrt_mod(a, p)
            assert r == legendre_first_sqrt_mod(a, p), (a, p)
            if r is not None:
                assert r * r % p == a % p
                assert r <= p // 2
            nones += r is None
        assert 0 < nones < 7, p


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 257, 65537, *SIXTY_BIT_PRIMES])
def test_sqrt_kernels_match_the_earlier_kernels(p):
    # one exponentiation per root and no inverse per lift step give the
    # roots of the legendre-first sqrt_mod and the inverting Hensel lift,
    # None for every non-residue included
    rng = random.Random(p)
    residues = 0
    for _ in range(60):
        a = rng.randrange(1, p)
        r = sqrt_mod(a, p)
        assert r == legendre_first_sqrt_mod(a, p), (a, p)
        residues += r is not None
        for k in range(2, 13):
            x = a + p * rng.randrange(p**k)
            assert hensel_sqrt(x, p, k) == inverting_hensel_sqrt(x, p, k), (x, p, k)
        x = Fraction(a + p * rng.randrange(p**3), rng.randrange(1, p))
        assert hensel_sqrt(x, p, 5) == inverting_hensel_sqrt(x, p, 5), (x, p)
    assert 0 < residues < 60


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


# ----- the integer kernels against their Fraction oracles ---------------------

BIG_PRIME = 10**12 + 39


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return ("ValueError", str(e))


def _rationals(p):
    """ints (0 and negatives included) and Fractions with p in the
    numerator, in the denominator, or in neither."""
    rng = random.Random(p)
    xs = [0, 1, -1, p, -p, 7 * p**5, -11 * p**3, 12, -30, 2**10 * 3**4 * 1753,
          Fraction(5 * p**4, 7), Fraction(-3, 5 * p**2), Fraction(7 * p, 99),
          Fraction(-(p**6), 13), Fraction(10, 21), Fraction(-1, p), Fraction(p**9, 1)]
    for _ in range(40):
        e = rng.randrange(-4, 5)
        num = rng.randrange(-10**6, 10**6) or 1
        den = rng.randrange(1, 10**6)
        xs.append(Fraction(num * p ** max(e, 0), den * p ** max(-e, 0)))
    return xs


@pytest.mark.parametrize("p", [2, 3, 1753, BIG_PRIME])
def test_primitives_match_their_fraction_oracles(p):
    assert is_prime(BIG_PRIME)
    for x in _rationals(p):
        assert padic_val(x, p) == oracles.padic_val(x, p), x
        for m in (p, p**3, 8, 9, 1753 * 3):
            assert _outcome(frac_mod, x, m) == _outcome(oracles.frac_mod, x, m), (x, m)
        if x != 0:
            assert unit_part(x, p) == oracles.unit_part(x, p), x
            assert square_class(x, p) == oracles.square_class(x, p), x
    assert padic_val(0, p) == INF
    # a non-invertible denominator is refused with the oracle's message
    x = Fraction(1, 3 * p)
    assert _outcome(frac_mod, x, p)[0] == "ValueError"
    assert _outcome(frac_mod, x, p) == _outcome(oracles.frac_mod, x, p)


@pytest.mark.parametrize("p", [1, 9, 15, 1753 * 1759])
def test_primitives_refuse_non_primes_as_their_oracles_do(p):
    for x in (0, 6, -p, Fraction(5, 9 * p)):
        for name in ("padic_val", "unit_part", "square_class"):
            new = _outcome(getattr(arith, name), x, p)
            assert new == ("ValueError", f"{p} is not prime")
            assert new == _outcome(getattr(oracles, name), x, p)


@pytest.mark.parametrize("p", [2, 3, 1753, BIG_PRIME])
def test_square_class_and_unit_part_refuse_zero(p):
    # both are defined only for x != 0, and refuse zero as is_local_square
    # does; a non-prime p is still refused first
    for x in (0, Fraction(0)):
        assert _outcome(square_class, x, p) == ("ValueError", "square_class expects x != 0")
        assert _outcome(unit_part, x, p) == ("ValueError", "unit_part expects x != 0")
        assert _outcome(is_local_square, x, Place.finite(p))[0] == "ValueError"
    assert _outcome(square_class, 0, 9) == _outcome(unit_part, 0, 9) == \
        ("ValueError", "9 is not prime")


def test_primitives_build_no_fraction(monkeypatch):
    # the kernel reads numerator and denominator as ints: no Fraction is
    # built for any int or Fraction argument, except the one unit_part must
    # return when x / p^v is neither x itself nor an int
    cases = [(p, x) for p in (2, 3, 1753) for x in _rationals(p) if x != 0]
    others = [Fraction(3, 5), -7, Fraction(-22, 9)]
    x0, unit = Fraction(5 * 3**4, 7), Fraction(5, 7)
    built = count_fraction_constructions(monkeypatch)
    for p, x in cases:
        place = Place.finite(p)
        padic_val(x, p)
        square_class(x, p)
        is_local_square(x, place)
        is_local_square(x, Place.real())
        if x.denominator % p:
            frac_mod(x, p**4)
        for y in others:
            hilbert_symbol(x, y, place)
            hilbert_symbol(y, x, Place.real())
        if padic_val(x, p) == 0 or x.denominator == 1:  # x itself, or an int
            unit_part(x, p)
    assert built == []
    assert unit_part(x0, 3) == unit
    assert built == [(5, 7)]


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


# ----- the rooter's Hensel square root (hensel_sqrt above) -------------------

def test_hensel_sqrt_examples():
    assert hensel_sqrt(1, 7, 4) == 1
    assert hensel_sqrt(2, 7, 2) == 10
    assert exhaustive_sqrt_candidates(2, 49) == [10, 39]
    assert hensel_sqrt(3, 7, 5) is None


def test_hensel_sqrt_agrees_with_exhaustive():
    for p in (3, 5, 7, 11, 13):
        for k in (2, 3):
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


def test_hensel_sqrt_int_residue_matches_fraction():
    # an int is read as a unit residue: any representative mod p^k (mod 8
    # at least, at p = 2) gives the root of the exact rational
    rng = random.Random(11)
    for p in (2, 3, 5, 73, SIXTY_BIT_PRIMES[2]):
        for k in (2, 3, 5, 8):
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
    # p = 11 has 5 | p-1, and p = 19 has 9 | p-1, a two-digit
    # Pohlig-Hellman log for r = 3.  The root is the least one mod p,
    # lifted: the g+1-power witness's t_center depends on that
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
                        assert r % p == min(x % p for x in roots)
                    else:
                        assert r is None


@pytest.mark.parametrize("p", [97, 193, 257, 433, 487, 577, 1297, 251, 401, 7681])
def test_least_root_mod_p_matches_brute_force(p):
    # p - 1 = 2^5 3, 2^6 3, 2^8, 2^4 3^3, 2 3^5, 2^6 3^2, 2^4 3^4, 2 5^3,
    # 2^4 5^2 and 2^9 3 5: Pohlig-Hellman logs of three or more digits for
    # r = 2, 3 and 5, at every d = gcd(n, p - 1) that n reaches
    for n in (2, 3, 4, 5, 6, 8, 10):
        least = {}
        for x in range(p - 1, 0, -1):
            least[pow(x, n, p)] = x
        for a in range(1, p):
            assert hensel_nth_root(a, n, p, 1) == least.get(a), (a, n, p)


def test_least_non_power_matches_brute_force():
    # the least z > 1 of each search in arith.py: a non-r-th power for each
    # prime r | p - 1 (r = 2 gives the non-residue), and a primitive root
    def order(z, p):
        e, x = 1, z
        while x != 1:
            e, x = e + 1, x * z % p
        return e

    for p in sieve_primes_upto(300)[1:]:
        primes = sorted(factorize(p - 1)[0])
        assert primes[0] == 2
        for r in primes:
            powers = {pow(x, r, p) for x in range(1, p)}
            want = next(z for z in range(2, p) if z not in powers)
            assert arith._least_non_power(p, (r,)) == want, (p, r)
        want = next(z for z in range(2, p) if order(z, p) == p - 1)
        assert arith._least_non_power(p, primes) == want, p


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
                    chi = unit_character(u, p)
                    assert hilbert_symbol_char(alpha, chi, beta, v, p) == want
                    # only the class matters: other unit representatives,
                    # valuations shifted by 2
                    assert hilbert_symbol_char(alpha - 2, unit_character(u + 8 * p, p),
                                               beta + 2, v + 8 * p * p, p) == want


def test_hilbert_kernel_is_bimultiplicative_in_its_second_argument():
    # the invariant evaluation reads (a, num/den)_p as the product of the
    # terms' symbols (a, num)_p (a, den)_p; the one formula must give the
    # product for the product and for the quotient of any two classes
    rng = random.Random(36)
    for p in (2, 3, 5, 7, 11, 13):
        m = 8 if p == 2 else p
        units = [u for u in range(1, 8 * p) if u % p]
        for alpha in range(-2, 4):
            for chi in ((1, 3, 5, 7) if p == 2 else (1, -1)):
                for _ in range(40):
                    (b1, v1), (b2, v2) = ((rng.randrange(-3, 4), rng.choice(units))
                                          for _ in range(2))
                    want = (hilbert_symbol_char(alpha, chi, b1, v1, p)
                            * hilbert_symbol_char(alpha, chi, b2, v2, p))
                    assert hilbert_symbol_char(alpha, chi, b1 + b2, v1 * v2, p) == want
                    quotient = v1 * pow(v2, -1, m) % m
                    assert hilbert_symbol_char(alpha, chi, b1 - b2, quotient, p) == want


def test_hilbert_kernel_rejects_non_units():
    with pytest.raises(ValueError):
        hilbert_symbol_char(0, unit_character(5, 5), 1, 3, 5)
    with pytest.raises(ValueError):
        hilbert_symbol_char(0, unit_character(3, 2), 1, 4, 2)


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
    assert count_points_hyperelliptic((-1, 0, 1), 0, 5) == 6
    assert double_loop_count([-1, 0, 1], 0, 5) == 6


def test_count_points_quartic_oracle():
    f = [1, 0, 0, 0, 1]  # t^4 + 1, genus 1
    assert count_points_hyperelliptic(chart_triple(f, 1), 1, 5) == double_loop_count(f, 1, 5)


def _separable_powers(rng, g, p):
    """A random separable f = q(t^(g+1)) mod p, dense, and its count."""
    while True:
        f = _powers_supported(rng, g, p)
        try:
            return f, count_points_hyperelliptic(chart_triple(f, g), g, p)
        except ValueError as e:
            assert "not separable" in str(e)


def test_count_points_oracle_many():
    rng = random.Random(6)
    for p in (5, 7, 11, 13):
        for _ in range(8):
            g = rng.choice((0, 1))
            f, n = _separable_powers(rng, g, p)
            assert n == double_loop_count(f, g, p)


def test_count_points_hasse_weil_window():
    rng = random.Random(7)
    for p in (29, 101, 211):
        for g in (1, 2):  # g = 2 has odd n = 3
            for _ in range(3):
                f, n = _separable_powers(rng, g, p)
                assert n == single_loop_count(f, p)
                # |n - (p+1)| <= 2g sqrt(p), checked by integer squaring
                d = abs(n - (p + 1))
                assert d * d <= 4 * g * g * p


def test_count_points_rejects_nonseparable():
    with pytest.raises(ValueError):
        count_points_hyperelliptic((0, 0, 1), 0, 5)  # t^2: double root


def test_count_points_rejects_a_vanishing_leading_coefficient():
    # c_2n = 0 mod p drops the degree below 2g + 2: refused, not counted
    with pytest.raises(ValueError, match="exact degree"):
        count_points_hyperelliptic((1, 1, 5), 1, 5)


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


_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53, 61, 73)


def _small_prime_cases(g, p, rng):
    """Random f = q(t^(g+1)) mod p, with a non-square leading coefficient,
    c_n = 0 and (at g = 0) c0 = 0 among them."""
    cases = [_powers_supported(rng, g, p) for _ in range(2)]
    cases.append(_powers_supported(rng, g, p, lead=_non_square(p)))
    cases.append(_powers_supported(rng, g, p))
    cases[-1][g + 1] = 0  # c_n = 0
    if g == 0:
        cases.append(_powers_supported(rng, g, p, c0=0))
    return cases


@pytest.mark.parametrize("g", sorted(_ALL_D))
def test_count_points_over_powers_small_primes(g):
    rng = random.Random(11 + g)
    seen_d = set()
    for p in _SMALL_PRIMES:
        for f in _small_prime_cases(g, p, rng):
            try:
                n = count_points_hyperelliptic(chart_triple(f, g), g, p)
            except ValueError:
                continue  # not separable mod p
            assert n == double_loop_count(f, g, p), (f, g, p)
            seen_d.add(math.gcd(g + 1, p - 1))
    assert seen_d == _ALL_D[g]


_LARGE_PRIMES = [
    (0, 50_021, 1), (1, 50_023, 2), (3, 60_013, 4), (3, 70_019, 2),
    (5, 70_009, 6), (5, 80_039, 2),
]


def _large_prime_case(g, p):
    return _powers_supported(random.Random(p), g, p, c0=0 if g == 0 else None,
                             lead=_non_square(p))


@pytest.mark.parametrize("g, p, d", _LARGE_PRIMES)
def test_count_points_over_powers_large_primes(g, p, d):
    assert math.gcd(g + 1, p - 1) == d
    f = _large_prime_case(g, p)
    assert count_points_hyperelliptic(chart_triple(f, g), g, p) == single_loop_count(f, p)


def _count_ec_order_calls(monkeypatch):
    """Wrap arith._ec_order in a call counter; returns the list of calls."""
    calls, ec_order = [], arith._ec_order

    def counted(a2, a4, p):
        calls.append(p)
        return ec_order(a2, a4, p)

    monkeypatch.setattr(arith, "_ec_order", counted)
    return calls


def _count_square_residues(monkeypatch):
    """Wrap arith.square_residues, the walk's first step, in a recorder;
    returns the list of moduli it was built for."""
    built, square_residues = [], arith.square_residues
    monkeypatch.setattr(arith, "square_residues", lambda m: built.append(m) or square_residues(m))
    return built


def _kappa_class(f, g, p):
    """The class of kappa = c0/c_2n mod p = 1 mod 4, for f = q(t^(g+1))."""
    n = g + 1
    kappa = f[0] * pow(f[2 * n], -1, p) % p
    if pow(kappa, (p - 1) // 2, p) != 1:
        return "non-square"
    return "square" if pow(kappa, (p - 1) // 4, p) != 1 else "fourth power"


_KAPPA_CLASSES = ("non-square", "square", "fourth power")


def test_order_search_runs_exactly_when_d_is_2(monkeypatch):
    # count_points_hyperelliptic asks the elliptic-curve order search at
    # d = gcd(g + 1, p - 1) = 2, and at d = 4 exactly when kappa = c0/c_2n is
    # a square: once for E, and once more for E_mu when kappa is a fourth
    # power and E's order was decided.  Never at d = 6 or for a non-square
    # kappa.
    ec_order = arith._ec_order
    calls = _count_ec_order_calls(monkeypatch)
    seen = set()
    cases = []
    for g in (1, 3, 5):
        rng = random.Random(11 + g)
        cases += [(g, p, f) for p in _SMALL_PRIMES for f in _small_prime_cases(g, p, rng)]
    cases += [(g, p, _large_prime_case(g, p)) for g, p, _ in _LARGE_PRIMES if g]
    for g, p, f in cases:
        calls.clear()
        try:
            n = count_points_hyperelliptic(chart_triple(f, g), g, p)
        except ValueError:
            assert calls == [], (f, g, p)
            continue  # not separable mod p
        d = math.gcd(g + 1, p - 1)
        kappa = _kappa_class(f, g, p) if d == 4 else None
        seen.add((g, d, kappa))
        if d == 2 or kappa == "square":
            expected = [p]
        elif kappa == "fourth power":
            decided = ec_order(f[g + 1], f[0] * f[2 * g + 2] % p, p) is not None
            expected = [p, p] if decided else [p]
        else:
            expected = []
        assert calls == expected, (f, g, p)
        oracle = double_loop_count(f, g, p) if p < 100 else single_loop_count(f, p)
        assert n == oracle, (f, g, p)
    assert seen == ({(g, d, None) for g in (1, 3, 5) for d in _ALL_D[g] if d != 4}
                    | {(3, 4, kappa) for kappa in _KAPPA_CLASSES})


@pytest.mark.parametrize("g, p", [(3, 70_019), (5, 80_039)])
def test_undecided_order_at_higher_genus_falls_back_to_the_walk(monkeypatch, g, p):
    assert math.gcd(g + 1, p - 1) == 2
    f = _large_prime_case(g, p)
    monkeypatch.setattr(arith, "_ec_order", lambda a2, a4, p: None)
    assert count_points_hyperelliptic(chart_triple(f, g), g, p) == single_loop_count(f, p)


def _d4_case(rng, g, p, kappa_class):
    """A random separable f = q(t^(g+1)) mod p whose kappa is in the class."""
    n = g + 1
    while True:
        f = _powers_supported(rng, g, p, c0=rng.randrange(1, p))
        if (f[n] ** 2 - 4 * f[0] * f[2 * n]) % p and _kappa_class(f, g, p) == kappa_class:
            return f


# p < 100 with d = gcd(g + 1, p - 1) = 4: p = 1 mod 4 at g = 3, p = 5 mod 8 at
# g = 7
_D4_SMALL_PRIMES = {3: (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97),
                    7: (5, 13, 29, 37, 53, 61)}


@pytest.mark.parametrize("g", sorted(_D4_SMALL_PRIMES))
@pytest.mark.parametrize("kappa_class", _KAPPA_CLASSES)
def test_d4_count_small_primes(g, kappa_class):
    rng = random.Random(f"{g} {kappa_class}")
    for p in _D4_SMALL_PRIMES[g]:
        assert math.gcd(g + 1, p - 1) == 4
        for _ in range(2):
            f = _d4_case(rng, g, p, kappa_class)
            n = count_points_hyperelliptic(chart_triple(f, g), g, p)
            assert n == double_loop_count(f, g, p), (f, p)


@pytest.mark.parametrize("g, p", [(3, 50_021), (3, 50_033), (7, 50_021), (7, 50_053)])
@pytest.mark.parametrize("kappa_class", _KAPPA_CLASSES)
def test_d4_count_large_primes(monkeypatch, g, p, kappa_class):
    # the order search decides every square kappa, so the walk, which starts
    # with a square_residues table, runs exactly for a non-square kappa
    assert math.gcd(g + 1, p - 1) == 4
    f = _d4_case(random.Random(p + g), g, p, kappa_class)
    built = _count_square_residues(monkeypatch)
    assert count_points_hyperelliptic(chart_triple(f, g), g, p) == single_loop_count(f, p)
    assert built == ([p] if kappa_class == "non-square" else [])


@pytest.mark.parametrize("g, p", [(3, 50_033), (7, 50_021)])
@pytest.mark.parametrize("kappa_class, undecided", [
    ("square", 1), ("fourth power", 1), ("fourth power", 2)])
def test_undecided_order_at_d4_falls_back_to_the_walk(monkeypatch, g, p, kappa_class,
                                                       undecided):
    # the order search is undecided on its first call (E) or its second (E_mu)
    f = _d4_case(random.Random(p + g), g, p, kappa_class)
    calls, ec_order = [], arith._ec_order

    def flaky(a2, a4, p):
        calls.append(p)
        return None if len(calls) == undecided else ec_order(a2, a4, p)

    monkeypatch.setattr(arith, "_ec_order", flaky)
    assert count_points_hyperelliptic(chart_triple(f, g), g, p) == single_loop_count(f, p)
    assert calls == [p] * undecided


def test_singular_e_mu_raises(monkeypatch):
    # under separability E_mu is smooth; a root lam of kappa with
    # a + 2 lam = 0 (possible only if sqrt_mod were wrong) must raise, not walk
    g, p = 3, 50_033
    f = _d4_case(random.Random(p), g, p, "fourth power")
    inv = pow(f[8], -1, p)
    kappa, bad_lam = f[0] * inv % p, -f[4] * inv * pow(2, -1, p) % p
    monkeypatch.setattr(arith, "sqrt_mod", lambda x, p: bad_lam if x % p == kappa else 1)
    monkeypatch.setattr(arith, "_ec_order", lambda a2, a4, p: p + 1)
    with pytest.raises(ArithmeticError, match="singular"):
        count_points_hyperelliptic(chart_triple(f, g), g, p)


def _walked_triple(rng, g, p, roots_in_h):
    """A triple (c0, c_n, c_2n) mod p that the row walk counts: d =
    gcd(g + 1, p - 1) is not 2, and at d = 4 kappa = c0/c_2n is a
    non-square.  q = c_2n (u - r1)(u - r2) has roots_in_h of its roots in H,
    the d-th powers of F_p^*, or q has no root (a non-square discriminant)
    when roots_in_h is None."""
    d = math.gcd(g + 1, p - 1)
    in_h = lambda r: pow(r, (p - 1) // d, p) == 1
    while True:
        c2n = rng.randrange(1, p)
        if roots_in_h is None:
            c0, cn = rng.randrange(1, p), rng.randrange(p)
            if legendre(cn * cn - 4 * c0 * c2n, p) != -1:
                continue
        else:
            r1, r2 = rng.randrange(1, p), rng.randrange(1, p)
            if r1 == r2 or in_h(r1) + in_h(r2) != roots_in_h:
                continue
            c0, cn = c2n * r1 * r2 % p, -c2n * (r1 + r2) % p
        if d != 4 or legendre(c0 * c2n, p) == -1:
            return c0, cn, c2n


def _dense(triple, g):
    """The dense f = c0 + c_n t^n + c_2n t^(2n), n = g + 1, of a triple."""
    n = g + 1
    f = [0] * (2 * n + 1)
    f[0], f[n], f[2 * n] = triple
    return f


# p < 100 with d = gcd(g + 1, p - 1) = g + 1, so that the walk counts: p = 1
# mod 4 at g = 3, p = 1 mod 6 at g = 5, p = 1 mod 8 at g = 7
_WALK_SMALL_PRIMES = {3: (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97),
                      5: (7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97),
                      7: (17, 41, 73, 89, 97)}


@pytest.mark.parametrize("g", sorted(_WALK_SMALL_PRIMES))
def test_row_walk_small_primes(monkeypatch, g):
    # the walk reads H = <z^d> in rows of w = ceil(sqrt(|H|)) elements, the
    # last one cut; each q splits with 0, 1 or 2 roots in H (each root in
    # H is one zero term) or has no root
    rng = random.Random(f"row walk {g}")
    built = _count_square_residues(monkeypatch)
    shapes = set()
    for p in _WALK_SMALL_PRIMES[g]:
        d = math.gcd(g + 1, p - 1)
        assert d == g + 1
        size = (p - 1) // d
        width = math.isqrt(size - 1) + 1
        shapes.add("one" if size == 1 else "cut" if size % width else "full")
        for roots_in_h in (0, 1, 2, None):
            if roots_in_h == 2 and (d == 4 or size < 2):
                continue  # both roots in H make kappa a square or coincide
            for _ in range(2):
                triple = _walked_triple(rng, g, p, roots_in_h)
                built.clear()
                n = count_points_hyperelliptic(triple, g, p)
                assert built == [p], (triple, p)
                assert n == double_loop_count(_dense(triple, g), g, p), (triple, p)
    # |H| = 1 at p = 5 (g = 3) and p = 7 (g = 5)
    assert shapes == ({"one", "cut", "full"} if g < 7 else {"cut", "full"})


@pytest.mark.parametrize("roots_in_h", [0, 1, None])
def test_row_walk_large_prime(monkeypatch, roots_in_h):
    # d = 4 at 50,021 with a non-square kappa: |H| = 12,505 in 112 rows,
    # the last one 73 long
    g, p = 3, 50_021
    triple = _walked_triple(random.Random(p), g, p, roots_in_h)
    built = _count_square_residues(monkeypatch)
    assert count_points_hyperelliptic(triple, g, p) == single_loop_count(_dense(triple, g), p)
    assert built == [p]


@pytest.mark.parametrize("p", [5, 7, 50_023])
def test_count_points_over_powers_rejects_nonseparable(p):
    with pytest.raises(ValueError, match="not separable"):
        count_points_hyperelliptic((1, -2, 1), 1, p)  # (t^2 - 1)^2


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
                    count_points_hyperelliptic(chart_triple(f, g), g, p)
            else:
                count = count_points_hyperelliptic(chart_triple(f, g), g, p)
                assert count == single_loop_count(f, p)
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
            n = count_points_hyperelliptic(chart_triple(f, 1), 1, p)
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
    assert count_points_hyperelliptic(chart_triple(f, 1), 1, p) == n


# The first point leaves more than one candidate in the Hasse interval.  At
# p = 61 and 1259 the second point alone decides (p = 61: 48, 52, ..., 76,
# then 76; p = 1259: 1200, 1212, ..., 1320, then 1308); at p = 59 and 1021
# neither of the first two does, and only their intersection leaves one
# candidate (p = 59: {48, 72} and {54, 72}; p = 1021: {960, 1020, 1080} and
# {972, 1008, 1044, 1080}).
@pytest.mark.parametrize("p, f, n", [
    (61, [41, 0, 48, 0, 12], 76), (1259, [23, 0, 1189, 0, 437], 1308),
    (59, [45, 0, 2, 0, 48], 72), (1021, [719, 0, 940, 0, 343], 1080),
])
def test_genus1_order_decided_by_a_later_point(monkeypatch, p, f, n):
    assert single_loop_count(f, p) == n
    assert _ec_order_of(f, p) == n
    assert count_points_hyperelliptic(chart_triple(f, 1), 1, p) == n
    monkeypatch.setattr(arith, "_EC_ORDER_POINTS", 1)
    assert _ec_order_of(f, p) is None


# No point tried leaves a single candidate (the group exponent has several
# multiples in the Hasse interval), so the walk counts.
@pytest.mark.parametrize("p, f, n", [
    (373, [291, 0, 82, 0, 53], 384), (2689, [1685, 0, 1011, 0, 610], 2624),
])
def test_genus1_undecided_order_falls_back_to_the_walk(p, f, n):
    assert _ec_order_of(f, p) is None
    assert single_loop_count(f, p) == n
    assert count_points_hyperelliptic(chart_triple(f, 1), 1, p) == n


def _two_torsion(a2, a4, p):
    """#E[2](F_p) for E: Y^2 = X^3 + a2 X^2 + a4 X, by its roots in F_p."""
    return 1 + sum(1 for x in range(p) if x * (x * (x + a2) + a4) % p == 0)


def _first_small_order(a2, a4, p):
    """The order of 2P or 4P (by #E[2]) for the first point P with x >= 1
    outside E[2], when it is at most 8; else None."""
    t = _two_torsion(a2, a4, p)
    for x in range(1, p):
        rhs = x * (x * (x + a2) + a4) % p
        if rhs and pow(rhs, (p - 1) // 2, p) == 1:
            R = P = (x, next(y for y in range(p) if y * y % p == rhs))
            for _ in range(t - 1):
                R = arith._ec_add(R, P, a2, a4, p)
            Q, order = R, 1
            while Q is not None and order <= 8:
                Q, order = arith._ec_add(Q, R, a2, a4, p), order + 1
            return order if Q is None else None
    return None


def test_genus1_order_matches_the_character_sum():
    # whenever the order search decides, it gives p + 1 + sum_x chi(x^3 +
    # a2 x^2 + a4 x), on every smooth curve of the slice: all (a2, a4) for
    # p <= 13, and a2 in {0, 1, 2, p - 1} for the other p <= 97.  The slice
    # holds full 2-torsion, and first points P whose multiple R = t P
    # (t = #E[2]) is O, a point of E[2] (y = 0: both signs match), or of
    # order 3 to 8, so that R's multiples repeat within the baby steps.
    seen, decided, total = set(), 0, 0
    for p in sieve_primes_upto(97)[1:]:
        chi = [0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in range(1, p)]
        a2s = range(p) if p <= 13 else (0, 1, 2, p - 1)
        for a2 in a2s:
            for a4 in range(1, p):
                if (a2 * a2 - 4 * a4) % p == 0:
                    continue  # singular
                n = p + 1 + sum(chi[x * (x * (x + a2) + a4) % p] for x in range(p))
                order = arith._ec_order(a2, a4, p)
                total += 1
                if order is None:
                    continue
                decided += 1
                assert order == n, (a2, a4, p)
                if p in (3, 5, 7):
                    seen.add(f"p = {p}")
                if _two_torsion(a2, a4, p) == 4:
                    seen.add("full 2-torsion")
                small = _first_small_order(a2, a4, p)
                if small:
                    seen.add("R = O" if small == 1 else "R in E[2]" if small == 2
                             else "R of order 3 to 8")
    assert seen == {"p = 3", "p = 5", "p = 7", "full 2-torsion", "R = O", "R in E[2]",
                    "R of order 3 to 8"}
    assert decided > 0.8 * total, (decided, total)


# Group operations (_ec_add calls, doublings included) that one order
# search spends: t = 2 at p = 50,023, t = 4 at p = 50,021, and the p = 1021
# and p = 59 curves above, which need a second point.
@pytest.mark.parametrize("p, f, t, ops", [
    (50_023, [1, 0, 1, 0, 3], 2, 51), (50_021, [1, 0, 1, 0, 3], 4, 43),
    (1021, [719, 0, 940, 0, 343], 4, 46), (59, [45, 0, 2, 0, 48], 2, 28),
])
def test_genus1_order_search_group_operations(monkeypatch, p, f, t, ops):
    assert _two_torsion(f[2], f[0] * f[4] % p, p) == t
    adds, ec_add = [], arith._ec_add
    monkeypatch.setattr(arith, "_ec_add", lambda *args: adds.append(1) or ec_add(*args))
    assert _ec_order_of(f, p) == single_loop_count(f, p)
    assert len(adds) == ops


# ----- the one-term scan at a prime of AB ----------------------------------

def _scanned_point(a, b, r, g, p):
    """(S, T, kind): local._scan_fp_point on the reversed chart of a curve
    with A = 0 and B = r, which is a S^2 = b (1 - r T^(g+1)); S = 0 at a
    root, else the root sqrt_mod gives."""
    curve = HyperellipticCurve(a=Fraction(a), b=Fraction(b), A=Fraction(0),
                               B=Fraction(r), genus=g)
    chart, t, kind = _scan_fp_point(curve, p, ("ST",))
    assert chart == "ST"
    if kind == "root":
        return 0, t, kind
    return sqrt_mod(b * (1 - r * pow(t, g + 1, p)) * pow(a, -1, p), p), t, kind


def test_find_smooth_point_genus0():
    s, t, _ = _scanned_point(1, 1, 1, 0, 5)
    assert (s * s - (1 - t)) % 5 == 0


def test_find_smooth_point_genus1():
    s, t, _ = _scanned_point(1, 2, 1, 1, 7)
    assert (1 * s * s - 2 * (1 - pow(t, 2, 7))) % 7 == 0
    # smoothness: not both Jacobian entries zero
    assert (2 * s) % 7 != 0 or (2 * 2 * 1 * t) % 7 != 0


def test_find_smooth_point_existence_sweep():
    # the scan finds a smooth point wherever the hypotheses hold, and it is
    # the reference scan's first point
    for p in (5, 7, 11, 13):
        for a in (1, 2, 3):
            for b in (1, 2):
                for r in (1, 2, 3):
                    for g in (0, 1) if p > 4 else (0,):
                        if p <= 4 * g * g:
                            continue
                        s, t, kind = _scanned_point(a, b, r, g, p)
                        assert (a * s * s - b * (1 - r * pow(t, g + 1, p))) % p == 0
                        assert (kind == "root") == (s == 0)
                        assert (s, t) == find_smooth_fp_point(a, b, r, g, p)


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


def test_factorize_matches_trial_division(monkeypatch):
    # the gcd against the trial primes' product finds the same factors as
    # dividing by every trial prime, with the trial primes first and in
    # increasing order; cofactors beyond the trial bound go on to rho
    rho_inputs = []
    rho = arith._brent_rho

    def record(n, budget):
        rho_inputs.append(n)
        return rho(n, budget)

    monkeypatch.setattr(arith, "_brent_rho", record)
    cases = [0, 1, -1, -360, 2**40, 9973**3, -(9973**3), 10007, -2 * 10007**2,
             3**5 * 9973 * 10007, 9967 * 9973, 2**3 * 10007 * 10009,
             (10**6 + 3) * (10**6 + 33), -(10**6 + 3) * 7**3]
    for n in cases:
        factors, unresolved = factorize(n)
        assert unresolved == []
        assert factors == trial_division_factorize(n), n
        trial = [q for q in factors if q < 10_000]
        assert list(factors)[:len(trial)] == sorted(trial), n
    assert 10007 * 10009 in rho_inputs and (10**6 + 3) * (10**6 + 33) in rho_inputs


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

def _real_fiber(g, bound, theta):
    params = sieve_params(g, 0, bound=bound, count=1)[0]
    return build_curve(fiber_coeffs(params, Theta.of(theta)))


@pytest.mark.parametrize("g, bound, theta", [(1, 10**7, Fraction(1, 2)), (3, 10**12, 0)])
def test_blanket_counts_on_real_fibers(g, bound, theta):
    # theta = 1/2 at g = 1, and the g = 3 theta-zero fiber.  The sampled
    # primes are those that Random(0) draws from every prime below 10^5
    # above 4g^2 and outside the critical set, in order
    curve = _real_fiber(g, bound, theta)
    local = certify_all_local(curve)
    crit_primes = set(local.critical.primes())
    pool = [q for q in sieve_primes_upto(100_000)
            if q not in crit_primes and q > 4 * g * g]
    assert any(4 * g * g < q < 100_000 for q in crit_primes)
    assert local.blanket.sampled_primes == sorted(random.Random(0).sample(pool, 20))
    counts = local.blanket.sample_counts
    assert len(counts) == 20
    for q in sorted(counts)[::8]:  # three of the twenty primes
        assert counts[q] == single_loop_count(f_poly(curve).mod_p(q), q), q


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
        f = f_poly(curve).mod_p(q)
        assert f[1] == f[3] == 0, q
        assert _ec_order_of(f, q) == n, q
    for q in sorted(counts)[::8]:  # three of the twenty primes
        assert counts[q] == single_loop_count(f_poly(curve).mod_p(q), q), q


# The g = 3 theta-zero fiber's blanket primes with d = gcd(4, q - 1) = 4, by
# the class of kappa = c0/c_2n mod q: a square at the first six, a
# non-square at the last three.
_THETA_ZERO_SPLIT = {44537, 48437, 66697, 85037, 90217, 99761}
_THETA_ZERO_WALKED = {20369, 58057, 81533}


def test_blanket_theta_zero_walks_only_where_kappa_is_a_non_square(monkeypatch):
    # the walk, which starts with a square_residues table, runs at exactly
    # the three d = 4 primes with a non-square kappa; the order search
    # decides the other seventeen counts
    curve = _real_fiber(3, 10**12, 0)
    crit = critical_places(curve)
    built = _count_square_residues(monkeypatch)
    counts = _blanket_check(curve, crit).sample_counts
    monkeypatch.undo()
    assert sorted(built) == sorted(_THETA_ZERO_WALKED)
    assert {q for q in counts if q % 4 == 1} == _THETA_ZERO_SPLIT | _THETA_ZERO_WALKED
    for q in _THETA_ZERO_SPLIT | _THETA_ZERO_WALKED:
        kappa = _kappa_class(f_poly(curve).mod_p(q), 3, q)
        assert (kappa == "non-square") == (q in _THETA_ZERO_WALKED), q
    # three of the six split counts, and the three walked ones
    for q in sorted(_THETA_ZERO_SPLIT)[::2] + sorted(_THETA_ZERO_WALKED):
        assert counts[q] == single_loop_count(f_poly(curve).mod_p(q), q), q


def test_blanket_counts_do_not_depend_on_the_order_search(monkeypatch):
    # the g = 3 theta-zero fiber's report records the same twenty counts
    # whether the order search decides the d = 2 primes and the six d = 4
    # primes with a square kappa, or the walk decides them all
    curve = _real_fiber(3, 10**12, 0)
    crit = critical_places(curve)
    calls = _count_ec_order_calls(monkeypatch)
    searched = _blanket_check(curve, crit).sample_counts
    assert set(calls) == {q for q in searched if q % 4 == 3} | _THETA_ZERO_SPLIT
    monkeypatch.setattr(arith, "_ec_order", lambda a2, a4, p: None)
    assert _blanket_check(curve, crit).sample_counts == searched
