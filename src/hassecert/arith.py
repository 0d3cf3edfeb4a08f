"""Exact modular and p-adic arithmetic primitives.

Everything works on plain ints and fractions.Fraction.  No floating point
enters any computation; the single float in the module is math.inf, used
as the valuation of zero (it is only ever compared, never computed with).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

# The strong-probable-prime test to the first 13 prime bases is
# deterministic below psi_13 = MR_DETERMINISTIC_BOUND (Sorenson-Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).  The
# bases up to 37 alone stop at psi_12 = 318,665,857,834,031,151,167,461,
# itself a strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

INF = math.inf


def is_prime(n):
    """Deterministic primality test for 0 <= n < MR_DETERMINISTIC_BOUND.

    Raises ValueError above the bound: probabilistic verdicts are never
    allowed to leak into certificates.
    """
    if n < 0:
        raise ValueError("is_prime expects n >= 0")
    if n >= MR_DETERMINISTIC_BOUND:
        raise ValueError(
            "n exceeds the deterministic strong-probable-prime bound "
            f"{MR_DETERMINISTIC_BOUND}"
        )
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return not _sprp_composite(n)


def _check_odd_prime(p):
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def _legendre_unchecked(a, p):
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def legendre(a, p):
    """Legendre symbol (a|p) in {-1, 0, +1}; p must be an odd prime."""
    _check_odd_prime(p)
    return _legendre_unchecked(a, p)


def sqrt_mod(a, p):
    """Tonelli-Shanks square root of a mod the odd prime p.

    Returns the canonical representative in [0, p/2], or None when a is a
    non-residue.
    """
    _check_odd_prime(p)
    return _sqrt_mod_unchecked(a, p)


def _sqrt_mod_unchecked(a, p):
    a %= p
    if a == 0:
        return 0
    if _legendre_unchecked(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _legendre_unchecked(z, p) != -1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def padic_val(x, p):
    """p-adic valuation of an int or Fraction; math.inf for x = 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if x == 0:
        return INF
    if isinstance(x, Fraction):
        return _int_val(x.numerator, p) - _int_val(x.denominator, p)
    return _int_val(x, p)


def _int_val(n, p):
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def unit_part(x, p):
    """x / p^v_p(x) as an exact Fraction (x nonzero)."""
    v = padic_val(x, p)
    return Fraction(x) / Fraction(p) ** v


def frac_mod(x, m):
    """Reduce a Fraction (or int) with denominator invertible mod m."""
    x = Fraction(x)
    if math.gcd(x.denominator, m) != 1:
        raise ValueError(f"denominator of {x} not invertible mod {m}")
    return x.numerator * pow(x.denominator, -1, m) % m


@dataclass(frozen=True)
class Place:
    """A place of Q: a finite prime or the real absolute value."""

    p: int | None = None  # None encodes the real place

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @classmethod
    def real(cls):
        return cls(None)

    @classmethod
    def finite(cls, p):
        return cls(p)

    @property
    def is_real(self):
        return self.p is None

    def __str__(self):
        return "real" if self.is_real else str(self.p)

    def sort_key(self):
        # real place first, then finite places by p
        return (0, 0) if self.is_real else (1, self.p)


def is_local_square(x, place):
    """True iff the nonzero rational x is a square in the completion at place."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("is_local_square expects x != 0")
    if place.is_real:
        return x > 0
    p = place.p
    v = padic_val(x, p)
    if v % 2 != 0:
        return False
    u = unit_part(x, p)
    if p == 2:
        return frac_mod(u, 8) == 1
    return _legendre_unchecked(frac_mod(u, p), p) == 1


def hensel_sqrt(a, p, k):
    """Square root of a mod p^k for a p-adic unit a, canonical in [0, p^k/2].

    Returns None when a is not a square in Q_p.  At p = 2 the unit square
    criterion is a = 1 mod 8; lifting proceeds bit by bit since the usual
    Newton step degenerates there.
    """
    if k < 1:
        raise ValueError("precision k must be >= 1")
    a = Fraction(a)
    if padic_val(a, p) != 0:
        raise ValueError("hensel_sqrt expects a p-adic unit (factor out even powers first)")
    if not is_local_square(a, Place.finite(p)):
        return None
    pk = p**k
    if p == 2:
        if k <= 2:
            return 1
        am = frac_mod(a, 1 << (k + 1))
        r = 1
        for i in range(3, k):
            if (r * r - am) % (1 << (i + 1)) != 0:
                r += 1 << (i - 1)
        r %= pk
        return min(r, pk - r)
    r = _sqrt_mod_unchecked(frac_mod(a, p), p)
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        mod = p**prec
        r = (r + frac_mod(a, mod) * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    r %= pk
    return min(r, pk - r)


def _prime_factors(n):
    out = []
    q = 2
    while q * q <= n:
        while n % q == 0:
            out.append(q)
            n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _amm_prime_root(a, r, p):
    """One r-th root of a mod p for an odd prime r dividing p-1.

    Adleman-Manders-Miller; assumes a is an r-th power residue mod p.
    """
    s, t = 0, p - 1
    while t % r == 0:
        t //= r
        s += 1
    z = 2
    while pow(z, (p - 1) // r, p) == 1:
        z += 1
    g = pow(z, t, p)  # order r^s
    zeta = pow(g, r ** (s - 1), p)  # primitive r-th root of unity
    alpha = pow(r, -1, t) if t > 1 else 0
    x = pow(a, alpha, p)
    b = pow(x, r, p) * pow(a, -1, p) % p  # lies in <g>, exponent divisible by r
    h = 1
    rs = r**s
    for i in range(1, s):
        d = pow(b, r ** (s - 1 - i), p)
        j, acc = 0, 1
        while acc != d:
            acc = acc * zeta % p
            j += 1
            if j >= r:
                raise ArithmeticError("digit extraction failed; a is not an r-th power")
        if j:
            b = b * pow(g, (rs - j) * r**i % rs, p) % p
            h = h * pow(g, (rs - j) * r ** (i - 1) % rs, p) % p
    return x * h % p


def _all_prime_roots(a, r, p):
    """All r-th roots of a mod p for prime r (p odd, p != r, p ∤ a)."""
    a %= p
    if r == 2:
        r0 = _sqrt_mod_unchecked(a, p)
        return [] if r0 is None else sorted({r0, (p - r0) % p})
    if (p - 1) % r != 0:
        return [pow(a, pow(r, -1, p - 1), p)]
    if pow(a, (p - 1) // r, p) != 1:
        return []
    r0 = _amm_prime_root(a, r, p)
    z = 2
    while pow(z, (p - 1) // r, p) == 1:
        z += 1
    zeta = pow(z, (p - 1) // r, p)
    roots, y = set(), r0
    for _ in range(r):
        roots.add(y)
        y = y * zeta % p
    return sorted(roots)


def _nth_root_mod_p(a, n, p):
    """The smallest x with x^n = a mod p, or None (p odd prime, p ∤ an).

    Peels one prime factor of n at a time, keeping every intermediate root
    (a residue can fail to have an r-th root along one branch yet succeed
    along another, e.g. x^4 = 2 mod 7 via the square root 4 but not 3).
    """
    candidates = {a % p}
    for r in _prime_factors(n):
        nxt = set()
        for c in candidates:
            nxt.update(_all_prime_roots(c, r, p))
        if not nxt:
            return None
        candidates = nxt
    return min(candidates)


def hensel_nth_root(a, n, p, k):
    """r with r^n = a mod p^k for a p-adic unit a, or None.

    Requires p ∤ n and n >= 1.  Existence is decided by the residue test
    a^((p-1)/gcd(n, p-1)) = 1 mod p (odd p); the root is lifted by Newton
    iteration, which is nondegenerate because p ∤ n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % p == 0:
        raise ValueError("hensel_nth_root requires p not dividing n")
    a = Fraction(a)
    if padic_val(a, p) != 0:
        raise ValueError("hensel_nth_root expects a p-adic unit")
    pk = p**k
    if n == 1:
        return frac_mod(a, pk)
    if p == 2:
        # n is odd here, so x -> x^n is a bijection on the 2-adic units
        lam = 1 if k == 1 else (2 if k == 2 else 1 << (k - 2))
        expo = pow(n, -1, lam) if lam > 1 else 1
        return pow(frac_mod(a, pk), expo, pk)
    a1 = frac_mod(a, p)
    e = math.gcd(n, p - 1)
    if pow(a1, (p - 1) // e, p) != 1:
        return None
    r = _nth_root_mod_p(a1, n, p)
    if r is None:
        return None
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        mod = p**prec
        fr = (pow(r, n, mod) - frac_mod(a, mod)) % mod
        dr = n * pow(r, n - 1, mod) % mod
        r = (r - fr * pow(dr, -1, mod)) % mod
    return r % pk


def _two_unit_eps(u):
    return ((u - 1) // 2) % 2


def _two_unit_omega(u):
    return ((u * u - 1) // 8) % 2


def hilbert_symbol(a, b, place):
    """Hilbert symbol (a,b)_v in {+1,-1} for nonzero rationals a, b."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert_symbol expects nonzero arguments")
    if place.is_real:
        return -1 if (a < 0 and b < 0) else 1
    p = place.p
    alpha, beta = padic_val(a, p), padic_val(b, p)
    u, v = unit_part(a, p), unit_part(b, p)
    if p == 2:
        um, vm = frac_mod(u, 8), frac_mod(v, 8)
        exp = (
            _two_unit_eps(um) * _two_unit_eps(vm)
            + alpha * _two_unit_omega(vm)
            + beta * _two_unit_omega(um)
        )
        return -1 if exp % 2 else 1
    lu = _legendre_unchecked(frac_mod(u, p), p)
    lv = _legendre_unchecked(frac_mod(v, p), p)
    eps = ((p - 1) // 2) % 2
    sign = (-1) ** (alpha * beta * eps) * lu**beta * lv**alpha
    return 1 if sign > 0 else -1


def _poly_gcd_deg_mod(f, g, p):
    """Degree of gcd(f, g) over F_p for dense int coefficient lists."""
    f = [c % p for c in f]
    g = [c % p for c in g]

    def deg(h):
        d = len(h) - 1
        while d >= 0 and h[d] == 0:
            d -= 1
        return d

    while True:
        df, dg = deg(f), deg(g)
        if dg < 0:
            return df
        if df < 0:
            return dg
        if df < dg:
            f, g = g, f
            continue
        inv = pow(g[dg], -1, p)
        while deg(f) >= dg:
            dfc = deg(f)
            coef = f[dfc] * inv % p
            for i in range(dg + 1):
                f[dfc - dg + i] = (f[dfc - dg + i] - coef * g[i]) % p
        f, g = g, f


def square_residues(m):
    """The squares mod m, 0 included: a bytes table of length m whose entry
    r is 1 iff r = x^2 mod m for some integer x."""
    sq = bytearray(m)
    for x in range(m // 2 + 1):
        sq[x * x % m] = 1
    return bytes(sq)


def count_points_hyperelliptic(f_mod_p, g, p):
    """Number of F_p-points of the smooth projective hyperelliptic model
    s^2 = f(t), deg f = 2g+2, glued with its reversed chart.

    f_mod_p is the dense coefficient list (low to high) reduced mod p.
    The count is the affine chart plus the two (or zero) points above
    t = infinity, which exist iff the leading coefficient is a square.
    Naive O(p) loop with a precomputed square table.
    """
    _check_odd_prime(p)
    f = [c % p for c in f_mod_p]
    if len(f) != 2 * g + 3 or f[-1] == 0:
        raise ValueError("f must have exact degree 2g+2 mod p")
    fprime = [(i * c) % p for i, c in enumerate(f)][1:]
    if _poly_gcd_deg_mod(f, fprime, p) > 0:
        raise ValueError("f is not separable mod p")
    sq = square_residues(p)
    count = 0
    for t in range(p):
        v = 0
        for c in reversed(f):
            v = (v * t + c) % p
        if v == 0:
            count += 1
        elif sq[v]:
            count += 2
    if sq[f[-1]]:
        count += 2
    return count


@dataclass(frozen=True)
class FpPoint:
    """An affine point mod p on one of the two hyperelliptic charts."""

    chart: str  # "st" (s^2 = f(t)) or "ST" (the reversed chart)
    coords: tuple  # (s, t) or (S, T) residues
    modulus: int


def find_smooth_fp_point(a, b, r, g, p):
    """A smooth F_p-point on a S^2 = b (1 - r T^(g+1)) for p > 4g^2.

    Scans T = 0, 1, ... testing whether b(1 - rT^(g+1))/a is a square;
    existence is guaranteed under the stated hypotheses, so exhausting the
    scan signals corrupted input and raises.
    """
    _check_odd_prime(p)
    if p <= 4 * g * g:
        raise ValueError("requires p > 4g^2")
    if (g + 1) % p == 0:
        raise ValueError("requires p not dividing g+1")
    a, b, r = a % p, b % p, r % p
    if a == 0 or b == 0 or r == 0:
        raise ValueError("a, b, r must be nonzero mod p")
    inv_a = pow(a, -1, p)
    for t in range(p):
        val = b * (1 - r * pow(t, g + 1, p)) % p * inv_a % p
        if val == 0:
            # then rT^(g+1) = 1, so T != 0 and the Jacobian row is nonzero
            return FpPoint("ST", (0, t), p)
        s = _sqrt_mod_unchecked(val, p)
        if s is not None:
            return FpPoint("ST", (s, t), p)
    raise ArithmeticError(
        "no smooth point found; hypotheses p > 4g^2 and a,b,r != 0 must have been violated"
    )


def sieve_primes_upto(n):
    """All primes <= n by Eratosthenes."""
    if n < 2:
        return []
    s = bytearray([1]) * (n + 1)
    s[0] = s[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if s[i]:
            s[i * i :: i] = b"\x00" * len(s[i * i :: i])
    return [i for i in range(2, n + 1) if s[i]]


_TRIAL_PRIMES = sieve_primes_upto(10_000)


def _brent_rho(n, budget):
    """One nontrivial factor of composite odd n, or None if budget exhausted.

    Deterministic: cycles through fixed polynomial offsets.
    """
    for c in range(1, 20):
        y, m = 2, 128
        g_, r, q = 1, 1, 1
        x = ys = y
        it = 0
        while g_ == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g_ == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g_ = math.gcd(q, n)
                k += m
                it += m
                if it > budget:
                    return None
            r *= 2
        if g_ == n:
            g_ = 1
            while g_ == 1:
                ys = (ys * ys + c) % n
                g_ = math.gcd(abs(x - ys), n)
        if g_ != n:
            return g_
    return None


def _sprp_composite(n):
    """True only with a compositeness witness among _MR_BASES (n odd,
    n > 41); False means strong probable prime, a proof of primality only
    below MR_DETERMINISTIC_BOUND."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return True
    return False


def factorize(n, rho_budget=4_000_000):
    """Factor |n| into primes: returns (dict prime -> exponent, unresolved).

    unresolved lists cofactors that could not be certified: composites
    whose splitting exceeded the rho budget, and probable primes above the
    deterministic primality bound.  Callers must treat those as incomplete
    coverage.
    """
    n = abs(n)
    factors = {}
    unresolved = []
    if n <= 1:
        return factors, unresolved
    for p in _TRIAL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        if n == 1:
            return factors, unresolved
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < MR_DETERMINISTIC_BOUND:
            if is_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
        elif not _sprp_composite(m):
            # probable prime too large to certify deterministically
            unresolved.append(m)
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend([root, root])
            continue
        d = _brent_rho(m, rho_budget)
        if d is None:
            unresolved.append(m)
            continue
        stack.extend([d, m // d])
    return factors, unresolved


def is_rational_square(x):
    """Exact test: is the Fraction (or int) x a square in Q?  Returns the
    nonnegative square root or None."""
    x = Fraction(x)
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None
