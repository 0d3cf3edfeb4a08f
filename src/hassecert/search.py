"""Sieved rational point searches up to a height bound.

These searches corroborate the certificates empirically: a certified fiber
must come back empty, while synthetic control inputs with known points
must surface them.

The surface search reads its slice x = 0 off the genus-1 section curve
s^2 = (b/a)(t^2 - A)(t^2 - B), by the lemma in surface_point_search.

Both searches sieve before any big-integer work, in the manner of
ratpoints (M. Stoll; Bruin and Stoll, "Two-cover descent on hyperelliptic
curves", Math. Comp. 78, 2009).  For each fixed outer coordinate, one
bitmask per modulus in SIEVE_MODULI marks the numerators in the window
whose square condition holds mod that modulus.  The masks are ANDed, and
only the set bits reach the exact square tests.  A value that is not a
square mod some modulus is not an integer square, so the sieve discards
nothing the exact tests would keep: the output is that of testing every
candidate, in the same order.

The residue patterns behind the masks come from few direct builds, by a
homogeneity lemma.  Each square condition is a form F(r, w, z) of even
degree 2e in the numerator r, the outer coordinate w and the other outer
coordinates z: k (q m^(g+1) - alpha n^(g+1)) (q m^(g+1) - beta n^(g+1))
in (m, n) for the curve, degree 2(g+1); and the y- and z-conditions in
(u, v, x1) for the surface, degree 2.

Lemma.  Let w = d u mod M with d = gcd(w, M) and u a unit mod M.  Then
F(r, w, z) is a square mod M iff F(r u^-1, d, z u^-1) is.

Proof.  By homogeneity F(r, w, z) = u^(2e) F(r u^-1, d, z u^-1) mod M, and
c = u^(2e) = (u^e)^2 is a unit square.  Multiplying by a unit square maps
the squares mod M into themselves (x = y^2 gives c x = (u^e y)^2), and so
does multiplying by its inverse, which is the unit square (u^-e)^2.  Every
residue w has such a form: w / d is a unit mod M / d, and every unit mod
M / d lifts to a unit mod M.

So the pattern of (w, z) is the base pattern of (d, z u^-1) read at
r u^-1, and one search call builds a pattern directly only once per
(d, (z u^-1)^2 mod M), by the next lemma, in a Python loop over the
residues.  Every other pattern is the base pattern permuted by
bytes.translate, in C.

Lemma.  If n^(g+1) = n'^(g+1) mod M, the curve's patterns mod M at the
denominators n and n' agree.  If x1^2 = x1'^2 mod M, the surface's
patterns mod M at (v, x1) and (v, x1') agree.

Proof.  The curve's form is a polynomial with integer coefficients in r
and n^(g+1).  The surface's forms y0 + y1 u and
z0 + a b (q u - pA v)(q u - pB v) read x1 only through y0 = a x1^2 nu^2
(or a x^2 nu^2) and z0 = a x^2 q^2, with x = x_step x1, so they are
polynomials with integer coefficients in u, v and x1^2.  Reduction mod M
is a ring homomorphism.

So a window's mask mod M depends on its denominator only through the
class of n^(g+1) mod M, and the curve search keeps one mask per class:
237 over SIEVE_MODULI at g = 1, 180 at g = 3 and 172 at g = 5, where one
per residue would be 511.  The surface's outer coordinate v enters its
forms through v and v^2, so it keeps one mask per residue of v and class
of x1^2 mod M: 237 slots per residue of v over SIEVE_MODULI, where one
per residue of x1 would be 511.  The base pattern of (d, zs) is the
pattern at (v, x1) = (d, zs), so it depends on zs only through zs^2 mod
M; the curve's z is 0.

A mask lays the pattern over the window with one multiply: with the
repunit R = 2^0 + 2^M + ... + 2^((K-1) M), K M >= width + M, bit j of
pattern * R is bit j mod M of the pattern for j < K M, so shifting right
by -height mod M puts the pattern's bit of numerator i - height at bit i.

A window costs one mask lookup per modulus until its AND is empty, so a
call puts its most selective moduli first, as ratpoints does: those whose
unit base pattern (d = 1, z = 0) passes the smallest share of residues.
Ranking has a set-up cost, every unit base pattern and the window masks
that a modulus moved forward builds, so a call probes its first windows
in SIEVE_MODULI order and ranks only when that set-up costs less than the
scan it could shorten (see _Sieve).  The AND does not depend on the
order, and _set_bits reads its bits in ascending order, so neither does
the output.
"""

import functools
import math
from fractions import Fraction

from .arith import is_prime, is_rational_square, square_residues

# The prime powers 9, 25, 49 and 64 reject more non-squares than 3, 5, 7
# and 2 would.  Until ranking pays (see _Sieve) a search scans in this
# order: a small modulus has few mask classes, so few windows build its
# masks.
SIEVE_MODULI = (9, 11, 13, 17, 19, 23, 25, 29, 31, 37, 41, 43, 47, 49, 53, 64)

# A search probes this many windows in SIEVE_MODULI order before it weighs
# ranking.  Their lookups estimate the rest: on the 32 g = 1 grid fiber
# searches at height 1000, within 40% of the mean over all windows, except
# on the two curves whose first 8 windows never empty.
_PROBE_WINDOWS = 8

# Set-up costs in mask lookups.  On a 2-core Intel Xeon with Python 3.11 a
# lookup (one list index and one AND) takes about 0.17 us, a residue step
# of a direct pattern build about 1 lookup on the curve and 2-3 on the
# surface (charged at the surface's), and a window-mask build about 0.8 us.
_STEP_COST = 3
_MASK_COST = 5

# the bytes 0 and 1 of a direct pattern as the digits of int(..., 2)
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _is_square_int(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


@functools.cache
def _modulus_constants(M):
    """The squares mod M (as square_residues) and, for each residue w,
    (d, inv, perm): w = d u mod M with d = gcd(w, M) and u a unit,
    inv = u^-1 mod M, and perm the bytes inv r mod M for r = M - 1, ..., 0.

    Built on first use, not at import, which every set-up pays."""
    divisors = [d for d in range(1, M + 1) if M % d == 0]
    forms = [None] * M
    for u in range(1, M):
        if math.gcd(u, M) == 1:
            inv = pow(u, -1, M)
            perm = bytes(inv * r % M for r in range(M - 1, -1, -1))
            for d in divisors:
                if forms[d * u % M] is None:
                    forms[d * u % M] = (d, inv, perm)
    return square_residues(M), forms


@functools.cache
def _power_classes(M, e):
    """For each residue w mod M, the class of w^e mod M: its index among the
    distinct e-th powers mod M in order of first appearance.  Built on
    first use, like _modulus_constants."""
    index = {}
    return [index.setdefault(pow(w, e, M), len(index)) for w in range(M)]


def _set_bits(mask):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Sieve:
    """The sieve of one search call over the numerator window -height, ...,
    height (bit i for numerator i - height), for the outer coordinates
    (w, z) with w = 1, ..., height and z = 0, ..., z_count - 1.  Its
    patterns mod M depend on w only through the class of w^power mod M
    (power 1: through w mod M), and on z only through the class of z^2
    mod M (see the module docstring).

    direct(M, sq, d, z) builds the residue pattern mod M of the outer
    coordinates (d, z), d a divisor of M, from the squares sq mod M: bytes
    of length M whose entry r is 1 when the numerators = r mod M pass, else
    0.  The base patterns, stored as 256-byte translation tables under
    (M, d, z^2 mod M), and the window masks are cached for this call
    only.  Each self.masks entry (M, slots, masks, zc, repunit, shift)
    holds one modulus's constants and its window masks, in a list with
    one slot per (class of w^power, class of z^2): slots[w mod M] +
    zc[z mod M], with zc = _power_classes(M, 2) and one slot per class of
    w for each square class that z = 0, ..., z_count - 1 reaches.  A
    surface search keeps 237 slots per residue of v over SIEVE_MODULI,
    against 511 residues of x1; a curve search (z = 0) keeps one.
    A mask is the pattern times the repunit, shifted right by shift and
    cut to the window: one multiply (see the module docstring).

    The first _PROBE_WINDOWS windows run in SIEVE_MODULI order and count
    the lookups of those whose AND empties: no order shortens a window that
    survives every modulus.  Then the sieve ranks the moduli, most
    selective first, by the share of residues their unit base patterns
    (d = 1, z = 0) pass, if the set-up costs less than the scan it could
    shorten, the windows left at the probe's lookups per window.  The
    set-up is every unit base pattern not yet built and, per modulus, one
    window mask per empty slot, up to the windows left: a modulus moved
    forward builds a mask for nearly every window when the windows are few
    or the slots many (z varying).  Otherwise the order stays."""

    def __init__(self, height, direct, z_count=1, power=1):
        self.height = height
        self.direct = direct
        self.bases = {}
        width = 2 * height + 1
        self.full = (1 << width) - 1
        self.masks = []
        for M in SIEVE_MODULI:
            classes = _power_classes(M, power)
            zc = _power_classes(M, 2)
            # classes are numbered by first appearance, so z = 0, ...,
            # z_count - 1 reach the classes 0, ..., Z - 1
            Z = max(zc[:z_count]) + 1
            # the repunit sum of 2^(k M) for k < K, K M >= width + M
            bits = (width // M + 2) * M
            repunit = ((1 << bits) - 1) // ((1 << M) - 1)
            self.masks.append((M, [c * Z for c in classes], [None] * ((max(classes) + 1) * Z),
                               zc, repunit, -height % M))
        self.windows = height * z_count
        # the windows left to probe, and the lookups of the emptied ones
        self.probe = _PROBE_WINDOWS
        self.lookups = 0

    def pattern(self, M, w, z):
        """The residue pattern mod M of the outer coordinates (w, z), bit r
        set when the numerators = r mod M pass: by the lemma, the base
        pattern of (d, z u^-1) read at r u^-1, where w = d u mod M."""
        sq, forms = _modulus_constants(M)
        d, inv, perm = forms[w % M]
        zs = z * inv % M
        key = M, d, zs * zs % M
        base = self.bases.get(key)
        if base is None:
            # translate reads a 256-byte table; only its first M entries are hit
            base = self.bases[key] = self.direct(M, sq, d, zs).translate(_DIGITS).ljust(256)
        return int(perm.translate(base), 2)

    def _share(self, item):
        """The share of residues that pass in the unit base pattern (d = 1,
        z = 0) of the modulus of a self.masks entry."""
        M = item[0]
        return Fraction(self.pattern(M, 1, 0).bit_count(), M)

    def _ranking_pays(self):
        """Whether the set-up of ranking costs less than the scan ahead, in
        lookups.  The dearest moduli come first, so a losing set-up stops
        the count early."""
        left = self.windows - _PROBE_WINDOWS
        # the scan ahead less the set-up so far, times _PROBE_WINDOWS
        budget = left * self.lookups
        for M, _, masks, *_ in reversed(self.masks):
            setup = _MASK_COST * min(masks.count(None), left)
            if (M, 1, 0) not in self.bases:
                setup += _STEP_COST * M
            budget -= _PROBE_WINDOWS * setup
            if budget <= 0:
                return False
        return True

    def survivors(self, w, z=0):
        """Bitmask of the numerators that pass every modulus at the outer
        coordinates (w, z): the AND of one mask per modulus, stopping once
        empty."""
        alive = full = self.full
        for M, slots, masks, zc, repunit, shift in self.masks:
            key = slots[w % M] + zc[z % M]
            mask = masks[key]
            if mask is None:
                mask = masks[key] = (self.pattern(M, w, z) * repunit >> shift) & full
            alive &= mask
            if not alive:
                break
        if self.probe:
            if not alive:
                self.lookups += SIEVE_MODULI.index(M) + 1
            self.probe -= 1
            if not self.probe and self._ranking_pays():
                self.masks.sort(key=self._share)
        return alive


def _coprime_points(a, b, A, B, g, height):
    """The coprime (m, n) with |m| <= height and 1 <= n <= height at which
    (b/a)(t^(g+1) - A)(t^(g+1) - B) is a rational square, t = m/n, ordered
    by n and then by m: the sieve of curve_point_search, which the x = 0
    slice of surface_point_search runs on its section curve."""
    # s^2 = (b/a)(t^(g+1) - A)(t^(g+1) - B) with t = m/n is a rational
    # square iff k (m^(g+1) q - alpha n^(g+1)) (m^(g+1) q - beta n^(g+1))
    # is a perfect integer square, with A = alpha/q, B = beta/q and
    # k = num(ab) den(ab), which has the square class of a b
    q = A.denominator * B.denominator // math.gcd(A.denominator, B.denominator)
    alpha = int(A * q)
    beta = int(B * q)
    ab = a * b
    k = ab.numerator * ab.denominator

    @functools.cache
    def qpowers(M):
        # q r^(g+1) mod M for r = 0, ..., M - 1, once per modulus
        return [q * pow(r, g + 1, M) % M for r in range(M)]

    def direct(M, sq, n, _):
        npow = pow(n, g + 1, M)
        c1, c2 = alpha * npow % M, beta * npow % M
        kM = k % M
        return bytes(sq[kM * (y - c1) * (y - c2) % M] for y in qpowers(M))

    # one mask slot per class of n^(g+1) mod M (z_count 1, power g + 1)
    sieve = _Sieve(height, direct, 1, g + 1)
    for n in range(1, height + 1):
        npow = n ** (g + 1)
        for i in _set_bits(sieve.survivors(n)):
            m = i - height
            if math.gcd(m, n) != 1:
                continue
            mpow = m ** (g + 1)
            if _is_square_int(k * (mpow * q - alpha * npow) * (mpow * q - beta * npow)):
                yield m, n


def curve_point_search(curve, height):
    """All points (t, s) with t = m/n, |m| <= height, 1 <= n <= height,
    plus the two points above t = infinity when b/a is a rational square.

    Returns a list of (t, s) pairs with s >= 0 (each found point also has
    its mirror -s).  Refuses a = 0 with ValueError.
    """
    if height < 1:
        raise ValueError("height bound must be >= 1")
    a, b = curve.a, curve.b
    if a == 0:
        raise ValueError("curve search expects a nonzero a")
    found = []
    for m, n in _coprime_points(a, b, curve.A, curve.B, curve.genus, height):
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

    The points are (x, y, z, u, v) with 0 <= x, y, z <= height and either
    (u, v) = (1, 0) or |u| <= height, 1 <= v <= height.  When a is a prime
    not dividing den(C), or a prime above the height, x must be a multiple
    of a; otherwise x runs over 0, ..., height.  y and z come from exact
    integer square tests:

        y^2 = a x1^2 + C^2 u v        (x = a x1)
        z^2 = (x^2 + b (u - Av)(u - Bv)) / a

    Lemma.  Let C = gamma/nu != 0.  A point with x = 0 and v >= 1 has
    (u, v) = e (m^2, n^2) with e >= 1, m >= 0, gcd(m, n) = 1, at which
    t = m/n is a point of the section curve s^2 = (b/a)(t^2 - A)(t^2 - B),
    and m, n <= isqrt(height).

    Proof.  At x = 0 the second quadric reads y^2 nu^2 = gamma^2 u v, so
    u v is a perfect square, and u >= 0 as v >= 1.  With e = gcd(u, v),
    u/e and v/e are coprime with a square product, so both are squares:
    (u, v) = e (m^2, n^2), gcd(m, n) = 1 (m = 0, n = 1 when u = 0).  The
    first quadric then reads a z^2 = b e^2 n^4 (t^2 - A)(t^2 - B), so
    s = z / (e n^2) is a rational point above t.  Finally m^2 <= e m^2 =
    u <= height and n^2 <= v <= height.

    So the slice x = 0 runs the curve sieve on the section curve at height
    isqrt(height), and every pair e (m^2, n^2) in the box over a found t
    with m >= 0 gets the exact tests.

    Lemma.  If a is a prime dividing nu and height < a, every point in the
    box has x = 0.

    Proof.  Write nu = a^k nu' with k >= 1.  The second quadric reads
    x^2 nu^2 + a gamma^2 u v = a y^2 nu^2, and gamma is prime to a, so
    a^(2k-1) | u v.  As 1 <= v <= height < a, a divides u, and |u| <=
    height < a gives u = 0.  Then x^2 = a y^2, so x = y = 0.  The row
    (u, v) = (1, 0) reads x^2 = a y^2 at once.

    So a prime a above the height forces x = a x1 = 0 whether or not it
    divides nu.  The slices x1 >= 1 sieve the u window on both square
    conditions for each v and x1.  Refuses a = 0 and C = 0 (where the
    surface is a cone and the first lemma fails) with ValueError.
    """
    if height < 1:
        raise ValueError("height bound must be >= 1")
    a, b, A, B, C = surface.a, surface.b, surface.A, surface.B, surface.C
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError("surface search expects integral a, b")
    if a == 0:
        raise ValueError("surface search expects a nonzero a")
    if C == 0:
        raise ValueError("surface search expects a nonzero C (at C = 0 the surface is a cone)")
    a_i, b_i = int(a), int(b)
    q = A.denominator * B.denominator // math.gcd(A.denominator, B.denominator)
    pA, pB = int(A * q), int(B * q)
    gamma, nu = C.numerator, C.denominator
    # x^2 nu^2 = a (y^2 nu^2 - gamma^2 u v) puts a | x^2 nu^2, which forces
    # a | x when a is a prime not dividing nu, and x = 0 when a is a prime
    # dividing nu above the height (see the second lemma); a composite a
    # (4 | 6^2) forces nothing
    a_forces = a_i > 1 and (nu % a_i != 0 or height < a_i) and is_prime(a_i)
    x_step = a_i if a_forces else 1
    found = set()

    def check(u, v, x1):
        x = x_step * x1
        # y^2 * nu^2 = (x^2 nu^2 + a gamma^2 u v) / a must be an integer
        # (always so when a forces x = a x1)
        num = x * x * nu * nu + a_i * gamma * gamma * u * v
        if num % a_i:
            return
        My = num // a_i
        if _is_square_int(My):
            ry = math.isqrt(My)
            if ry % nu == 0 and ry // nu <= height:
                # z^2 * a * q^2 = x^2 q^2 + b (uq - pA v)(uq - pB v)
                Nz = x * x * q * q + b_i * (u * q - pA * v) * (u * q - pB * v)
                if Nz % a_i == 0 and _is_square_int(Nz // a_i):
                    rz = math.isqrt(Nz // a_i)
                    if rz % q == 0 and rz // q <= height:
                        found.add((x, ry // nu, rz // q, u, v))

    zb = a_i * b_i

    def direct(M, sq, v, x1):
        # mod M, both squares are polynomials in u: the y condition is
        # y0 + y1 u (My when a forces x, else a num = a^2 My), and
        # a Nz = a^2 (Nz / a) is z0 + a b (q u - pA v)(q u - pB v)
        x = x_step * x1
        if a_forces:
            y0, y1 = a_i * x1 * x1 * nu * nu, gamma * gamma * v
        else:
            y0, y1 = a_i * x * x * nu * nu, a_i * a_i * gamma * gamma * v
        z0, cA, cB = a_i * x * x * q * q, pA * v, pB * v
        return bytes(sq[(y0 + y1 * r) % M] & sq[(z0 + zb * (q * r - cA) * (q * r - cB)) % M]
                     for r in range(M))

    x1_max = height // x_step
    for x1 in range(x1_max + 1):
        check(1, 0, x1)
    # x = 0: the pairs over the section curve's points (see the lemma)
    for m, n in _coprime_points(a_i, b_i, A, B, 1, math.isqrt(height)):
        if m >= 0:
            for e in range(1, height // max(m, n) ** 2 + 1):
                check(e * m * m, e * n * n, 0)
    if x1_max:
        sieve = _Sieve(height, direct, x1_max + 1)
        for v in range(1, height + 1):
            for x1 in range(1, x1_max + 1):
                for i in _set_bits(sieve.survivors(v, x1)):
                    check(i - height, v, x1)
    return sorted(found)
