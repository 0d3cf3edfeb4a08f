"""Exact modular and p-adic arithmetic primitives.

Everything reads ints and Fractions through numerator and denominator.
No floating point enters any computation; the single float in the
module is math.inf, used as the valuation of zero (it is only ever
compared, never computed with).

Every function or constructor that takes a prime p proves it once per
process, through one guard, _require_prime; a non-prime p raises
ValueError on every call.
"""

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

# psi_t, the least composite that is a strong pseudoprime to the first t
# prime bases (OEIS A014233; Sorenson and Webster, Math. Comp. 86, 2017):
# below psi_t the first t bases of _MR_BASES decide primality.  _MR_PSI
# lists psi_1..psi_12, and psi_13 is MR_DETERMINISTIC_BOUND.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
           3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
           3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
           3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461)
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

INF = math.inf


def is_prime(n):
    """Deterministic primality test for 0 <= n < MR_DETERMINISTIC_BOUND.

    Trial division by the primes up to 53, then the strong-probable-prime
    test to the first t prime bases of _MR_BASES, t the least with n <
    psi_t, which no composite below psi_t passes (Sorenson and Webster,
    "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017);
    psi_13 = MR_DETERMINISTIC_BOUND is about 3.3 * 10^24.  Raises
    ValueError above the bound: probabilistic verdicts are never allowed
    to leak into certificates.
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
    return not _sprp_composite(n, _MR_BASES[:bisect.bisect_right(_MR_PSI, n) + 1])


_PROVED_PRIMES = set()  # moduli proved prime in this process; never a composite


def _require_prime(p, odd=False):
    """Raise ValueError unless p is a prime (an odd one if odd is set)."""
    if p not in _PROVED_PRIMES:
        if not is_prime(p):
            raise ValueError(f"{p} is not {'an odd ' if odd else ''}prime")
        _PROVED_PRIMES.add(p)
    if odd and p == 2:
        raise ValueError("2 is not an odd prime")


def legendre(a, p):
    """Legendre symbol (a|p) in {-1, 0, +1}; p must be an odd prime."""
    _require_prime(p, odd=True)
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def _least_non_power(p, qs):
    """The least z > 1 with z^((p-1)/q) != 1 mod p for every prime q in qs
    (p an odd prime, each q dividing p - 1): the least non-residue for
    qs = (2,), the least non-r-th power for (r,), and the least primitive
    root when qs holds every prime of p - 1."""
    z = 2
    while any(pow(z, (p - 1) // q, p) == 1 for q in qs):
        z += 1
    return z


@functools.cache
def _tonelli_constants(p):
    """(q, s, c) for a proved odd prime p: p - 1 = q 2^s with q odd, and c =
    z^q mod p for the least non-residue z, or c = 1 when s = 1, where no
    Tonelli-Shanks step runs."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    return q, s, pow(_least_non_power(p, (2,)), q, p) if s > 1 else 1


def _sqrt_unit(a, p, q, s, c):
    """(r, y) with r^2 = a and r y = 1 mod p, or None when the unit a mod p
    is a non-residue; (q, s, c) = _tonelli_constants(p).  No guard runs.

    One exponentiation w = a^((q-1)/2) decides and roots: r = w a and t = w r
    = a^q, and Euler's criterion a^((p-1)/2) = t^(2^(s-1)) = 1 costs only
    squarings.  Tonelli-Shanks keeps r^2 = a t and y = r / a (initially w)
    while it drives t to 1, so y ends as the inverse root without an
    inverse; s = 1 (p = 3 mod 4) is the case where no step runs.
    """
    w = pow(a, (q - 1) >> 1, p)
    r = w * a % p
    t = w * r % p
    e = t
    for _ in range(s - 1):
        e = e * e % p
    if e != 1:
        return None
    y, m = w, s
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r, y = t * c % p, r * b % p, y * b % p
    return r, y


def sqrt_mod(a, p):
    """Square root of a mod the odd prime p by Tonelli-Shanks, decided and
    rooted with one exponentiation (see _sqrt_unit).

    Returns the canonical representative in [0, p/2], or None when a is a
    non-residue.
    """
    _require_prime(p, odd=True)
    a %= p
    if a == 0:
        return 0
    ry = _sqrt_unit(a, p, *_tonelli_constants(p))
    if ry is None:
        return None
    r = ry[0]
    return min(r, p - r)


def _split(x, p):
    """(v, n, d) with x = p^v n/d and p dividing neither n nor d, for an int
    or Fraction x; (math.inf, 0, 1) for x = 0."""
    _require_prime(p)
    n, d = x.numerator, x.denominator
    if n == 0:
        return INF, 0, 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v, n, d


def padic_val(x, p):
    """p-adic valuation of an int or Fraction; math.inf for x = 0."""
    return _split(x, p)[0]


def unit_part(x, p):
    """x / p^v_p(x) (x nonzero): x itself when v_p(x) = 0, else an int when
    the quotient is one and a Fraction otherwise."""
    v, n, d = _split(x, p)
    if n == 0:
        raise ValueError("unit_part expects x != 0")
    return x if v == 0 else n if d == 1 else Fraction(n, d)


def frac_mod(x, m):
    """Reduce a Fraction (or int) with denominator invertible mod m."""
    n, d = x.numerator, x.denominator
    if d == 1:
        return n % m
    if math.gcd(d, m) != 1:
        raise ValueError(f"denominator of {x} not invertible mod {m}")
    return n * pow(d, -1, m) % m


@dataclass(frozen=True)
class Place:
    """A place of Q: a finite prime or the real absolute value."""

    p: int | None = None  # None encodes the real place

    def __post_init__(self):
        if self.p is not None:
            _require_prime(self.p)

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


def square_class(x, p):
    """(v_p(x), unit part of x mod p, mod 8 at p = 2) for a nonzero rational
    x: the data that fixes the class of x in Q_p* / Q_p*^2."""
    v, n, d = _split(x, p)
    if n == 0:
        raise ValueError("square_class expects x != 0")
    m = 8 if p == 2 else p
    return v, n * pow(d, -1, m) % m


def is_local_square(x, place):
    """True iff the nonzero rational x is a square in the completion at place."""
    if x.numerator == 0:
        raise ValueError("is_local_square expects x != 0")
    if place.is_real:
        return x.numerator > 0
    p = place.p
    v, u = square_class(x, p)
    if v % 2 != 0:
        return False
    if p == 2:
        return u == 1
    return legendre(u, p) == 1


def _lift_sqrt(a, y, p, k):
    """The canonical root of the unit a mod p^k at odd p, from y with a y^2
    = 1 mod p.  Newton on the inverse root, y <- y (3 - a y^2) / 2, doubles
    the precision of a y^2 = 1 at each step and needs no inverse (1/2 mod
    p^j is (p^j + 1) / 2); the root is a y."""
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        mod = p**prec
        y = y * (3 - a * y * y) * ((mod + 1) // 2) % mod
    pk = p**k
    r = a * y % pk
    return min(r, pk - r)


def _sqrt_two_adic(a, k):
    """The canonical root of the odd a mod 2^k, or None unless a = 1 mod 8."""
    if a % 8 != 1:
        return None
    if k <= 2:
        return 1
    r = 1
    for i in range(3, k):
        if (r * r - a) % (1 << (i + 1)) != 0:
            r += 1 << (i - 1)
    pk = 1 << k
    r %= pk
    return min(r, pk - r)


class ResidueRooter:
    """Square roots of p-integral values x read off their residues r = x mod
    p^(prec+2), with p proved and its constants read once, at construction.

    test(r) is None when x is not a square in Q_p or r = 0 mod p^(prec-1),
    else a token: v = v_p(x) must be even, and the unit part a square mod
    p (one exponentiation, _sqrt_unit, which also gives the inverse root)
    or 1 mod 8 at p = 2.  lift(token) is then the root p^(v/2) w mod
    p^prec, w the canonical root of the unit part mod p^(prec-v), in
    [0, p^(prec-v)/2].  Below p^(prec-1) the residue fixes v, and the unit
    part is known mod p^(prec+2-v), enough for the lift and for the mod 8
    test.  A residue that is 0 mod p^(prec-1), an exact zero included, is
    refused: it fixes neither v nor whether x is a square.
    """

    __slots__ = ("p", "prec", "pk", "pk1", "tonelli")

    def __init__(self, p, prec):
        _require_prime(p)
        self.p, self.prec = p, prec
        self.pk, self.pk1 = p**prec, p ** (prec - 1)
        self.tonelli = None if p == 2 else _tonelli_constants(p)

    def test(self, r):
        if r % self.pk1 == 0:
            return None
        p = self.p
        v = 0
        while r % p == 0:
            r //= p
            v += 1
        if v % 2:
            return None
        if p == 2:
            return (v, r, None) if r % 8 == 1 else None
        ry = _sqrt_unit(r % p, p, *self.tonelli)
        return None if ry is None else (v, r, ry[1])

    def lift(self, token):
        v, unit, y = token
        p, k = self.p, self.prec - v
        root = _sqrt_two_adic(unit, k) if p == 2 else _lift_sqrt(unit, y, p, k)
        return p ** (v // 2) * root % self.pk


@functools.cache
def _root_constants(p, n):
    """The constants of _nth_root_mod_p for the odd prime p and n: d, s,
    d^-1 mod t, k, gamma, the d-th roots of unity and, per prime q of d,
    (q, qe, m, gamma^-m, crt, table): qe the q-part of s, m = s/qe, crt = 1
    mod qe and 0 mod m, and table the log of each power of gamma^(s/q)."""
    d = math.gcd(n, p - 1)
    parts = {q: math.gcd(p - 1, q ** (p - 1).bit_length()) for q in factorize(d)[0]}
    s = math.prod(parts.values())
    gamma = pow(_least_non_power(p, tuple(parts)), (p - 1) // s, p)
    logs = [(q, qe, s // qe, pow(gamma, -(s // qe), p), s // qe * pow(s // qe, -1, qe),
             {pow(gamma, s // q * i, p): i for i in range(q)}) for q, qe in parts.items()]
    zeta = pow(gamma, s // d, p)
    return (d, s, pow(d, -1, (p - 1) // s), pow(n // d, -1, (p - 1) // d), gamma,
            logs, [pow(zeta, i, p) for i in range(d)])


def _nth_root_mod_p(a, n, p):
    """The least x with x^n = a mod p, or None (p an odd prime, p ∤ an).

    F_p^* is cyclic.  With d = gcd(n, p - 1), a is an n-th power iff
    a^((p-1)/d) = 1, and then the roots are x0 zeta^i, 0 <= i < d, for one
    root x0 and any zeta of order d.  Write p - 1 = s t, s the part on the
    primes of d, so gcd(d, t) = 1: gamma = z^t spans the subgroup of order
    s, z = _least_non_power(p, primes of d).  y = a^(d^-1 mod t) leaves
    b = a y^-d in <gamma>, and b = gamma^L with L read digit by digit per
    prime power of s (Pohlig-Hellman) and joined by CRT; d | L, since b is
    a d-th power.  So w = y gamma^(L/d) has w^d = a, and x0 = w^k for
    k = (n/d)^-1 mod (p-1)/d, which exists as gcd(n/d, (p-1)/d) = 1.
    zeta = gamma^(s/d).  The constants are read once per (p, n).
    """
    a %= p
    d, s, e, k, gamma, logs, unity = _root_constants(p, n)
    if pow(a, (p - 1) // d, p) != 1:
        return None
    y = pow(a, e, p)
    b = a * pow(y, -d, p) % p
    L = 0
    for q, qe, m, inverse, crt, table in logs:
        bq, x, qj = pow(b, m, p), 0, 1  # bq = (gamma^m)^(L - x) as x gathers L mod qe
        while qj < qe:
            i = table[pow(bq, qe // (qj * q), p)]
            bq, x, qj = bq * pow(inverse, i * qj, p) % p, x + i * qj, qj * q
        L += x * crt
    x0 = pow(y * pow(gamma, L % s // d, p), k, p)
    return min(x0 * u % p for u in unity)


def hensel_nth_root(a, n, p, k):
    """r with r^n = a mod p^k for a p-adic unit a, or None.

    Requires p ∤ n and n >= 1.  At odd p the root mod p is the least one
    (_nth_root_mod_p, None when there is none), lifted by Newton
    iteration, which is nondegenerate because p ∤ n and keeps r mod p.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % p == 0:
        raise ValueError("hensel_nth_root requires p not dividing n")
    a = Fraction(a)
    if padic_val(a, p) != 0:
        raise ValueError("hensel_nth_root expects a p-adic unit")
    pk = p**k
    if p == 2:
        # n is odd here, so x -> x^n is a bijection on the 2-adic units
        lam = 1 if k == 1 else (2 if k == 2 else 1 << (k - 2))
        expo = pow(n, -1, lam) if lam > 1 else 1
        return pow(frac_mod(a, pk), expo, pk)
    r = _nth_root_mod_p(frac_mod(a, p), n, p)
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


def unit_character(u, p):
    """What a Hilbert symbol at p reads of the p-adic unit residue u: u mod 8
    at p = 2, the Legendre symbol (u|p) at odd p."""
    _require_prime(p)
    if u % p == 0:
        raise ValueError("unit_character expects a p-adic unit")
    return u % 8 if p == 2 else legendre(u, p)


def hilbert_symbol_char(alpha, chi, beta, v, p):
    """Hilbert symbol (p^alpha u, p^beta v)_p in {+1,-1}, with u given by
    its character chi = unit_character(u, p) and v as an int unit residue
    (only v mod p, mod 8 at p = 2, matters).  The one formula behind
    hilbert_symbol; at odd p it reads (v|p) only when alpha is odd, so a
    caller holding a fixed first argument's character pays no
    exponentiation at an even alpha."""
    _require_prime(p)
    if v % p == 0:
        raise ValueError("hilbert_symbol_char expects a p-adic unit v")
    if p == 2:
        odd = (_two_unit_eps(chi) * _two_unit_eps(v)
               + alpha * _two_unit_omega(v) + beta * _two_unit_omega(chi))
    else:
        odd = alpha * beta * ((p - 1) // 2)
        if beta % 2 and chi == -1:
            odd += 1
        if alpha % 2 and legendre(v, p) == -1:
            odd += 1
    return -1 if odd % 2 else 1


def hilbert_symbol(a, b, place):
    """Hilbert symbol (a,b)_v in {+1,-1} for nonzero rationals a, b."""
    if a.numerator == 0 or b.numerator == 0:
        raise ValueError("hilbert_symbol expects nonzero arguments")
    if place.is_real:
        return -1 if (a.numerator < 0 and b.numerator < 0) else 1
    p = place.p
    alpha, u = square_class(a, p)
    return hilbert_symbol_char(alpha, unit_character(u, p), *square_class(b, p), p)


def square_residues(m):
    """The squares mod m, 0 included: a bytes table of length m whose entry
    r is 1 iff r = x^2 mod m for some integer x."""
    sq = bytearray(m)
    for x in range(m // 2 + 1):
        sq[x * x % m] = 1
    return bytes(sq)


def _ec_add(P, Q, a2, a4, p):
    """P + Q on Y^2 = X^3 + a2 X^2 + a4 X over F_p; None is the point at
    infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - a2 - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(n, P, a2, a4, p):
    """n P for n >= 1, by double-and-add from the top bit."""
    R = P
    for bit in bin(n)[3:]:
        R = _ec_add(R, R, a2, a4, p)
        if bit == "1":
            R = _ec_add(R, P, a2, a4, p)
    return R


_EC_ORDER_POINTS = 4  # points tried before _ec_order gives up


def _ec_order(a2, a4, p):
    """#E(F_p) for a smooth E: Y^2 = X^3 + a2 X^2 + a4 X, or None.

    #E lies in the Hasse interval [lo, hi] = [p+1 - isqrt(4p), p+1 +
    isqrt(4p)] and kills every point.  It is also a multiple of
    t = #E[2](F_p): t = 4 when a2^2 - 4 a4 is a nonzero square mod p, and
    t = 2 otherwise.  Proof: E[2] is O, (0, 0) and the (r, 0) for the roots
    r of X^2 + a2 X + a4, which are distinct and nonzero because E is
    smooth; it is a subgroup, so Lagrange gives t | #E.

    So #E = t k with k in [k_lo, k_hi] = [ceil(lo/t), floor(hi/t)].  For
    the points P with x = 1, 2, ... outside E[2], which t P would send to
    O, baby-step giant-step (Mestre; Cohen, A Course in Computational
    Algebraic Number Theory, 7.4) searches k on R = t P, with the
    known-torsion and +- tricks of generic order computation (Sutherland,
    Order Computations in Generic Groups, MIT thesis, 2007).  The baby
    steps j R, 0 <= j <= m, are keyed by x, with O under its own key.
    The giant centres c = k_lo + m + i (2m+1) step by
    (2m+1) R = m R + (m+1) R, read off the baby list.  c R = +-j R exactly
    when the x-coordinates agree, and the y-coordinate tells the sign
    (both signs when y = 0): c R = j R kills k = c - j, and c R = -j R
    kills k = c + j.  Each centre covers 2m + 1 values of k, so for the
    K = k_hi - k_lo + 1 values in range m is about sqrt(K/2), where a
    search of every N in [lo, hi] takes m about sqrt(hi - lo).

    Invariant: the kill set of each point holds every k in [k_lo, k_hi]
    with k R = O, points of small order included, because every j with
    j R = +-c R is listed under c R's key.  #E/t is in each kill set, so
    it survives their intersection, and when one k survives, #E = t k.
    None after _EC_ORDER_POINTS points.
    """
    w = math.isqrt(4 * p)
    lo, hi = max(1, p + 1 - w), p + 1 + w
    t = 4 if legendre(a2 * a2 - 4 * a4, p) == 1 else 2
    k_lo, k_hi = -(-lo // t), hi // t
    m = math.isqrt((k_hi - k_lo + 1) // 2) + 1
    survivors, tried = None, 0
    for x in range(1, p):
        y = sqrt_mod(x * (x * (x + a2) + a4), p)
        if not y:  # no point with this x, or a point of E[2]
            continue
        R = _ec_mul(t, (x, y), a2, a4, p)
        baby, jR = {}, None
        for j in range(m + 1):
            xj, yj = jR or (None, None)  # O is keyed by None
            baby.setdefault(xj, []).append((j, yj))
            mR, jR = jR, _ec_add(jR, R, a2, a4, p)
        step = _ec_add(mR, jR, a2, a4, p)  # (2m+1) R
        c, G, kills = k_lo + m, _ec_mul(k_lo + m, R, a2, a4, p), set()
        while True:
            xg, yg = G or (None, None)
            for j, yj in baby.get(xg, ()):
                if yj == yg:  # c R = j R
                    kills.add(c - j)
                if yg is None or (yj + yg) % p == 0:  # c R = -j R
                    kills.add(c + j)
            c += 2 * m + 1
            if c - m > k_hi:
                break
            G = _ec_add(G, step, a2, a4, p)
        kills = {k for k in kills if k <= k_hi}
        survivors = kills if survivors is None else survivors & kills
        if len(survivors) == 1:
            return t * survivors.pop()
        tried += 1
        if tried == _EC_ORDER_POINTS:
            break
    return None


def _split_count(c0, cn, c2n, d, p):
    """#{s^2 = q(t^d)}(F_p) for d = 2 or 4 as elliptic-curve orders, by the
    lemmas in count_points_hyperelliptic, or None where they do not apply
    (d = 4 and c0 c_2n a non-square) or _ec_order is undecided."""
    if d == 4 and legendre(c0 * c2n, p) != 1:
        return None
    count = _ec_order(cn, c0 * c2n % p, p)
    if count is None or d == 2:
        return count
    inv = pow(c2n, -1, p)
    lam = sqrt_mod(c0 * inv, p)
    mu = sqrt_mod(lam, p)
    if mu is None:  # chi(lam) = -1: T = 0
        return count
    a = cn * inv % p
    if (a + 2 * lam) * (a - 2 * lam) % p == 0:
        raise ArithmeticError(f"E_mu is singular mod {p} although f is separable")
    order = _ec_order(4 * mu % p, (a + 2 * lam) % p, p)
    if order is None:
        return None
    return count + 2 * legendre(c2n, p) * (order - p - 1)


def count_points_hyperelliptic(q, g, p):
    """Number of F_p-points of the smooth projective hyperelliptic model
    s^2 = f(t), deg f = 2g+2, glued with its reversed chart, for
    f = q(t^n) with n = g+1 and q(u) = c0 + c_n u + c_2n u^2, as every
    fiber's f = (b/a)(t^n - A)(t^n - B) is.

    q is the triple (c0, c_n, c_2n) of integers, read mod p.  A c_2n that
    vanishes mod p raises ValueError, and so does an f that is not
    separable mod p.  f = q(t^n) is separable mod p iff p does not divide
    n, c_n^2 - 4 c0 c_2n != 0 and (for n >= 2) c0 != 0.  Proof:
    f' = n t^(n-1) q'(t^n), so f' = 0 when p | n.  Otherwise a common root
    of f and f' (over the algebraic closure) is either t = 0 with c0 = 0
    (n >= 2), or a t != 0 where t^n is a double root of q.  Conversely, for
    n >= 2, c0 = 0 makes t^n divide f, and a double root u0 of q gives the
    common roots t^n = u0.

    The count is the affine chart plus the two (or zero) points above
    t = infinity, which exist iff the leading coefficient is a square.
    Each affine t adds 1 + chi(f(t)), chi the quadratic character.

    The count depends on n only through d = gcd(n, p-1).  On the cyclic
    group F_p^* the maps t -> t^n and t -> t^d have the same image, the
    subgroup of index d generated by z^d for a primitive root z, and every
    fiber of each has d elements.  So
        sum_{t != 0} (1 + chi(q(t^n))) = sum_{t != 0} (1 + chi(q(t^d)))
                                       = d * sum_{u in <z^d>} (1 + chi(q(u))),
    while the t = 0 term depends only on c0 and the points at infinity
    only on c_2n.  Hence #{s^2 = q(t^n)}(F_p) = #{s^2 = q(t^d)}(F_p).

    When d = 2 (every odd p at g = 1; p = 3 mod 4 at g = 3; p = 5 mod 6 at
    g = 5) the right side is the even quartic c0 + c_n t^2 + c_2n t^4, and
    its count is the order of the elliptic curve
    E: Y^2 = X^3 + c_n X^2 + c0 c_2n X.  Each u != 0 is t^2 for 1 + chi(u)
    values of t, and a separable quadratic has sum_u chi(q(u)) = -chi(c_2n),
    so the t = 0 term and the points at infinity cancel against it and
        count = p + 1 + sum_u chi(u q(u)) = #E(F_p)
    under X = c_2n u, Y = c_2n y.  Separability of f gives c0 != 0 and
    c_n^2 - 4 c0 c_2n != 0, so E is smooth, and _ec_order finds #E as the
    one N in the Hasse interval that kills every point tried.  E is
    2-isogenous to the Jacobian of the quartic; the proof uses only the
    character sum.

    When d = 4 (p = 1 mod 4 at g = 3, p = 5 mod 8 at g = 7) the count
    still splits into elliptic-curve orders when kappa = c0/c_2n is a
    square mod p.  Each w != 0 is t^2 for 1 + chi(w) values of t, so
        #{s^2 = q(t^4)} = #{s^2 = q(t^2)} + T = #E + T,
        T = sum_{u != 0} chi(u q(u^2)) = chi(c_2n) sum_{u != 0} chi(u) h(u),
    with h(u) = chi(u^4 + a u^2 + kappa) and a = c_n/c_2n.  Here p = 1 mod 4,
    so chi(-1) = 1 and both square roots of kappa have the same character.
    Let lam^2 = kappa.
      - chi(lam) = -1.  u -> lam/u permutes F_p^*, and since
        (lam/u)^4 + a (lam/u)^2 + kappa = kappa (u^4 + a u^2 + kappa)/u^4
        and chi(lam/u) = -chi(u), it negates each summand.  So T = -T = 0.
      - lam = mu^2.  Put v = u + lam/u.  Then u^4 + a u^2 + kappa =
        u^2 (v^2 + a - 2 lam) and u (v + 2 mu) = (u + mu)^2, so chi(u) =
        chi(v + 2 mu) unless u = -mu, and h(u) = k(v) with
        k(v) = chi(v^2 + a - 2 lam).  Each v is v(u) for
        1 + chi(v - 2 mu) chi(v + 2 mu) values of u, so
            sum_{u != 0} chi(u) h(u)
              = sum_v (1 + chi(v - 2 mu) chi(v + 2 mu)) chi(v + 2 mu) k(v)
                + chi(-mu) k(-2 mu)
              = sum_v (chi(v + 2 mu) + chi(v - 2 mu)) k(v),
        because chi(v + 2 mu)^2 = 1 except at v = -2 mu, where the
        chi(v - 2 mu) term chi(-4 mu) k(-2 mu) is the added term.  Under
        X = v - 2 mu, (v - 2 mu)(v^2 + a - 2 lam) is
        X^3 + 4 mu X^2 + (a + 2 lam) X, so the chi(v - 2 mu) sum is
        #E_mu - p - 1 for E_mu: Y^2 = X^3 + 4 mu X^2 + (a + 2 lam) X.  The
        chi(v + 2 mu) sum is the same for E_-mu, which X -> -X maps to the
        twist of E_mu by chi(-1) = 1.  So T = 2 chi(c_2n) (#E_mu - p - 1).
        E_mu is smooth iff a + 2 lam != 0 and 4 (2 lam - a) != 0, that is
        a^2 != 4 kappa, which is c_n^2 != 4 c0 c_2n: separability again.
    When kappa is a non-square, when d is neither 2 nor 4, and whenever
    _ec_order is undecided, the walk over u in H = <z^d> (the middle sum of
    the n -> d identity above) counts, with step = z^d and N = |H| =
    (p-1)/d.  It reads u = a x in rows: x runs over one baby list
    S = [step^j, j < w] with w = ceil(sqrt(N)), a over the giants
    step^(i w), and the last row is cut to the N - i w elements left, so
    each u in H is read exactly once.  a^-1 is stepped once per row by the
    giant's inverse step^-w.
    Lemma: chi(a^2) = 1 for every a != 0, so when the discriminant
    c_n^2 - 4 c0 c_2n is a square mod p, with roots r1, r2 of q (one
    sqrt_mod), q(a x) = c_2n a^2 (x - r1 a^-1)(x - r2 a^-1) and the
    multiplicativity of chi give
        chi(q(a x)) = chi(c_2n) chi(x - s1) chi(x - s2),  s_i = r_i a^-1.
    Every fiber's triple splits: its roots are A and B.  A split row reads
    sq[x - s1] ^ sq[x - s2] over S, sq the squares mod p (0 included) as
    bytes of length p, so a negative index x - s wraps mod p: each term is
    1 exactly when the two characters differ.  A term with x = s_i is a
    zero of q(a x), which adds 1, not 1 + chi; r1 != r2, so at most one
    s_i is x, and a root r_i in H is one such zero term in the whole walk,
    found in the row whose a^-1 r_i lies in S (a dict of baby positions)
    and taken out of the mismatch count.  Over the zero terms Z and the M
    remaining mismatches,
        sum_{u in H} (1 + chi(q(u))) = N + chi(c_2n) (N - Z - 2 M).
    Without a square discriminant q has no root, so every u counts
    1 + chi = 2 sq[q(u)], and a row reads chi(a^-2 q(a x)) =
    chi(c_2n x^2 + c_n a^-1 x + c0 a^-2) with c_2n x^2 kept per baby: one
    multiplication per term.
    """
    _require_prime(p, odd=True)
    c0, cn, c2n = (c % p for c in q)
    if c2n == 0:
        raise ValueError("f must have exact degree 2g+2 mod p")
    n = g + 1
    disc = (cn * cn - 4 * c0 * c2n) % p
    if n % p == 0 or disc == 0 or (n > 1 and c0 == 0):
        raise ValueError("f is not separable mod p")
    d = math.gcd(n, p - 1)
    if d == 2 or d == 4:
        count = _split_count(c0, cn, c2n, d, p)
        if count is not None:
            return count
    sq = square_residues(p)
    count = 1 if c0 == 0 else 2 * sq[c0]  # t = 0
    primes, unresolved = factorize(p - 1)
    if unresolved:
        raise ArithmeticError(f"p - 1 = {p - 1} is not fully factored")
    step = pow(_least_non_power(p, primes), d, p)
    size = (p - 1) // d
    width = math.isqrt(size - 1) + 1  # ceil(sqrt(size))
    baby = [1] * width
    for j in range(1, width):
        baby[j] = baby[j - 1] * step % p
    back = pow(step, -width, p)
    full, rest = divmod(size, width)
    rows = [baby] * full + [baby[:rest]] * (rest > 0)
    root = sqrt_mod(disc, p)
    inv = 1  # a^-1 for the row's giant a
    if root is None:
        lead = [c2n * x * x % p for x in baby]
        per_u = 0
        for row in rows:
            b1, b0 = cn * inv % p, c0 * inv * inv % p
            per_u += 2 * sum([sq[(t + b1 * x + b0) % p] for t, x in zip(lead, row)])
            inv = inv * back % p
    else:
        half = pow(2 * c2n, -1, p)
        r1, r2 = (root - cn) * half % p, (-root - cn) * half % p
        position = {x: j for j, x in enumerate(baby)}
        zeros = mismatches = 0
        for row in rows:
            s1, s2 = r1 * inv % p, r2 * inv % p
            mismatches += sum([sq[x - s1] ^ sq[x - s2] for x in row])
            for s, t in ((s1, s2), (s2, s1)):
                if position.get(s, width) < len(row):  # x = s is a zero term
                    zeros += 1
                    mismatches -= 1 ^ sq[s - t]
            inv = inv * back % p
        per_u = size + (1 if sq[c2n] else -1) * (size - zeros - 2 * mismatches)
    count += d * per_u
    if sq[c2n]:
        count += 2
    return count


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
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)
# rho iterations spent on one cofactor before factorize lists it as unresolved
RHO_BUDGET = 4_000_000


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


def _sprp_composite(n, bases):
    """True only with a compositeness witness among bases, a prefix of
    _MR_BASES (n odd, n > 41); False means strong probable prime, a proof
    of primality only below psi_t for t = len(bases)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in bases:
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


def factorize(n):
    """Factor |n| into primes: returns (dict prime -> exponent, unresolved).

    unresolved lists cofactors that could not be certified: composites
    that RHO_BUDGET rho iterations did not split, and probable primes above the
    deterministic primality bound.  Callers must treat those as incomplete
    coverage.
    """
    n = abs(n)
    factors = {}
    unresolved = []
    if n <= 1:
        return factors, unresolved
    # the trial primes of n are those of g; once p^2 > g, g is 1 or prime
    g = math.gcd(n, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if g == 1:
            break
        if p * p > g:
            p = g
        if g % p == 0:
            g //= p
            factors[p] = 0
            while n % p == 0:
                factors[p] += 1
                n //= p
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < MR_DETERMINISTIC_BOUND:
            if is_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
        elif not _sprp_composite(m, _MR_BASES):
            # probable prime too large to certify deterministically
            unresolved.append(m)
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend([root, root])
            continue
        d = _brent_rho(m, RHO_BUDGET)
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
