"""Sieved rational point searches up to a height bound.

These searches corroborate the certificates empirically: a certified fiber
must come back empty, while synthetic control inputs with known points
must surface them.

Both searches sieve before any big-integer work, in the manner of
ratpoints (M. Stoll; Bruin and Stoll, "Two-cover descent on hyperelliptic
curves", Math. Comp. 78, 2009).  For each fixed outer coordinate, one
bitmask per modulus in SIEVE_MODULI marks the numerators in the window
whose square condition holds mod that modulus.  The masks are ANDed, and
only the set bits reach the exact square tests.  A value that is not a
square mod some modulus is not an integer square, so the sieve discards
nothing the exact tests would keep: the output is that of testing every
candidate, in the same order.
"""

import math
from fractions import Fraction

from .arith import is_rational_square, square_residues

# The prime powers 9, 25, 49 and 64 reject more non-squares than 3, 5, 7
# and 2 would.  Ascending order builds the cheap masks first: a dearer one
# is built only for a window that still has survivors.
SIEVE_MODULI = (9, 11, 13, 17, 19, 23, 25, 29, 31, 37, 41, 43, 47, 49, 53, 64)


def _is_square_int(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def _residue_tables():
    """Per sieve modulus: the modulus, its square table and an empty cache
    for the window masks of one search call."""
    return [(M, square_residues(M), {}) for M in SIEVE_MODULI]


def _window_mask(pattern, modulus, lo, width):
    """Bit i is bit (lo + i) mod modulus of pattern, for 0 <= i < width:
    the residue pattern laid over the window lo, ..., lo + width - 1."""
    s = lo % modulus
    bits = ((pattern >> s) | (pattern << (modulus - s))) & ((1 << modulus) - 1)
    span = modulus
    while span < width:
        bits |= bits << span
        span *= 2
    return bits & ((1 << width) - 1)


def _set_bits(mask):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sieve(tables, residues, pattern, height):
    """Bitmask over the window -height, ..., height (bit i for numerator
    i - height): the AND of the masks of every modulus, stopping once empty.

    pattern(M, sq) gives the residue pattern mod M, with bit r set when the
    numerators = r mod M pass.  Each mask is cached under residues(M), the
    residues mod M of the outer coordinates that determine it."""
    width = 2 * height + 1
    alive = (1 << width) - 1
    for M, sq, masks in tables:
        key = residues(M)
        mask = masks.get(key)
        if mask is None:
            mask = masks[key] = _window_mask(pattern(M, sq), M, -height, width)
        alive &= mask
        if not alive:
            break
    return alive


def curve_point_search(curve, height):
    """All points (t, s) with t = m/n, |m| <= height, 1 <= n <= height,
    plus the two points above t = infinity when b/a is a rational square.

    Returns a list of (t, s) pairs with s >= 0 (each found point also has
    its mirror -s).
    """
    if height < 1:
        raise ValueError("height bound must be >= 1")
    g = curve.genus
    a, b, A, B = curve.a, curve.b, curve.A, curve.B
    # s^2 = (b/a)(t^(g+1) - A)(t^(g+1) - B) with t = m/n is a rational
    # square iff k (m^(g+1) q - alpha n^(g+1)) (m^(g+1) q - beta n^(g+1))
    # is a perfect integer square, with A = alpha/q, B = beta/q and
    # k = num(ab) den(ab), which has the square class of a b
    q = A.denominator * B.denominator // math.gcd(A.denominator, B.denominator)
    alpha = int(A * q)
    beta = int(B * q)
    ab = a * b
    k = ab.numerator * ab.denominator
    tables = _residue_tables()
    found = []
    for n in range(1, height + 1):
        npow = n ** (g + 1)

        def pattern(M, sq):
            c1, c2 = alpha * npow % M, beta * npow % M
            bits = 0
            for r in range(M):
                y = q * pow(r, g + 1, M)
                if sq[k * (y - c1) * (y - c2) % M]:
                    bits |= 1 << r
            return bits

        for i in _set_bits(_sieve(tables, lambda M: n % M, pattern, height)):
            m = i - height
            if math.gcd(m, n) != 1:
                continue
            mpow = m ** (g + 1)
            if not _is_square_int(k * (mpow * q - alpha * npow) * (mpow * q - beta * npow)):
                continue
            t = Fraction(m, n)
            s = is_rational_square(curve.chart_value("st", t))
            if s is not None:
                found.append((t, s))
    lead = is_rational_square(b / a)
    if lead is not None:
        found.append(("inf", lead))
    return found


def surface_point_search(surface, height):
    """All projective points with integer coordinates of size <= height.

    Enumerates (u, v) in the box and, per pair, the x values the second
    quadric allows: when a is a prime not dividing den(C), x must be a
    multiple of a, which for desk-scale fibers pins x = 0 immediately.
    y and z then come from exact integer square tests:

        y^2 = a x1^2 + C^2 u v        (x = a x1)
        z^2 = (x^2 + b (u - Av)(u - Bv)) / a

    For each v and x the u window is sieved on both square conditions.
    """
    if height < 1:
        raise ValueError("height bound must be >= 1")
    a, b, A, B, C = surface.a, surface.b, surface.A, surface.B, surface.C
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError("surface search expects integral a, b")
    a_i, b_i = int(a), int(b)
    q = A.denominator * B.denominator // math.gcd(A.denominator, B.denominator)
    pA, pB = int(A * q), int(B * q)
    gamma, nu = C.numerator, C.denominator
    # a | x is forced by the second quadric whenever a stays away from the
    # denominator of C (a prime, the valuation argument at a)
    a_forces = a_i > 1 and nu % a_i != 0
    x_step = a_i if a_forces else 1
    found = set()

    def check(u, v, x1):
        x = x_step * x1
        # y^2 * nu^2 = (x^2 / a) nu^2 + gamma^2 u v; with x = a x1 (or
        # direct x when not forced) the left side must be an integer
        if a_forces:
            My = a_i * x1 * x1 * nu * nu + gamma * gamma * u * v
        else:
            num = x * x * nu * nu + a_i * gamma * gamma * u * v
            if num % a_i:
                return
            My = num // a_i
        if _is_square_int(My):
            ry = math.isqrt(My)
            if ry % nu == 0 and ry // nu <= height:
                # z^2 * a * q^2 = x^2 q^2 + b (uq - pA v)(uq - pB v)
                Nz = x * x * q * q + b_i * (u * q - pA * v) * (u * q - pB * v)
                if Nz >= 0 and Nz % a_i == 0 and _is_square_int(Nz // a_i):
                    rz = math.isqrt(Nz // a_i)
                    if rz % q == 0 and rz // q <= height:
                        found.add((x, ry // nu, rz // q, u, v))

    x1_max = height // x_step
    for x1 in range(x1_max + 1):
        check(1, 0, x1)
    tables = _residue_tables()
    zb = a_i * b_i
    for v in range(1, height + 1):
        for x1 in range(x1_max + 1):

            def pattern(M, sq):
                # mod M, both squares are polynomials in u: the y condition
                # is y0 + y1 u (My when a forces x, else a num = a^2 My),
                # and a Nz = a^2 (Nz / a) is z0 + a b (q u - pA v)(q u - pB v)
                x = x_step * x1
                if a_forces:
                    y0, y1 = a_i * x1 * x1 * nu * nu, gamma * gamma * v
                else:
                    y0, y1 = a_i * x * x * nu * nu, a_i * a_i * gamma * gamma * v
                z0, cA, cB = a_i * x * x * q * q, pA * v, pB * v
                bits = 0
                for r in range(M):
                    if sq[(y0 + y1 * r) % M] and sq[(z0 + zb * (q * r - cA) * (q * r - cB)) % M]:
                        bits |= 1 << r
                return bits

            for i in _set_bits(_sieve(tables, lambda M: v % M * M + x1 % M, pattern, height)):
                check(i - height, v, x1)
    return sorted(found)
