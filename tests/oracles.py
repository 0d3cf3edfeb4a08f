"""Reference oracles for the tests: Fraction-based bodies of the p-adic
primitives, factoring by trial division, a counter of Fraction
constructions, dense chart polynomials and the polynomial algebra over
Q, general local decision procedures, the F_p scan over dense
coefficients and the one-term scan at a prime of AB, square roots mod p
and p^k by the earlier legendre-first and inverting kernels, the point
searches' residue patterns built one residue at a time and laid over a
window by shift-doubling, the residue check of a surface point, the real
place's exact slot fractions, and the fiber and its local models rebuilt
from re-derived family formulas.

The library certifies each place by a named local lemma and refuses a
place where none applies; it never runs a general decision procedure.
These deciders answer the same question by brute force over residue
discs (odd p) or over the real line, so the tests can check every lemma
verdict, and every refusal, against an independent answer.
"""

import math
from fractions import Fraction

from hassecert.arith import is_prime, legendre, sqrt_mod, square_residues
from hassecert.family import DP4Surface, HyperellipticCurve
from hassecert.local import SCAN_CAP, Witness, _witness_from_center, slot_terms


# --------------------------------------------------------------------------
# the p-adic primitives as Fraction arithmetic, and factoring by trial
# division: each body rebuilds and divides Fractions (or ints); of
# hassecert.arith only is_prime, which test_arith checks against trial
# division, guards p


def _require_prime(p):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def padic_val(x, p):
    """v_p(x) by dividing Fraction(x) by p while p divides its numerator
    and multiplying while p divides its denominator; math.inf for x = 0."""
    _require_prime(p)
    x = Fraction(x)
    if x == 0:
        return math.inf
    v = 0
    while x.numerator % p == 0:
        x, v = x / p, v + 1
    while x.denominator % p == 0:
        x, v = x * p, v - 1
    return v


def unit_part(x, p):
    """x / p^v_p(x) as a Fraction (x nonzero)."""
    return Fraction(x) / Fraction(p) ** padic_val(x, p)


def frac_mod(x, m):
    """Fraction(x) mod m, its denominator invertible mod m."""
    x = Fraction(x)
    if math.gcd(x.denominator, m) != 1:
        raise ValueError(f"denominator of {x} not invertible mod {m}")
    return x.numerator * pow(x.denominator, -1, m) % m


def square_class(x, p):
    """(v_p(x), the unit part mod p, mod 8 at p = 2) for nonzero x."""
    return padic_val(x, p), frac_mod(unit_part(x, p), 8 if p == 2 else p)


def trial_division_factorize(n):
    """The prime factorization of |n| as {prime: exponent}, by trial
    division by every d >= 2 up to the square root of what is left."""
    n, factors, d = abs(n), {}, 2
    while n > 1 and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


# --------------------------------------------------------------------------
# a counter of Fraction constructions


def count_fraction_constructions(monkeypatch):
    """Wrap Fraction.__new__ for the rest of the test: the returned list
    gains one entry, the constructor's arguments, per Fraction built,
    whether by a Fraction(...) call or inside Fraction arithmetic."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return built


# --------------------------------------------------------------------------
# dense polynomials over Q and the curve's chart polynomials


class Polynomial:
    """Dense polynomial, coefficients low-to-high, always Fractions.

    The zero polynomial has coefficient list [0].
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"

    def reversed_coeffs(self, length):
        """Coefficients of x^(length-1) * self(1/x), padded to `length`."""
        if length < len(self.coeffs):
            raise ValueError("length too small for reversal")
        padded = list(self.coeffs) + [Fraction(0)] * (length - len(self.coeffs))
        return Polynomial(list(reversed(padded)))

    def mod_p(self, p):
        """Dense int coefficient list reduced mod p (denominators must be
        invertible mod p)."""
        return [frac_mod(c, p) for c in self.coeffs]


def f_poly(curve):
    """The st chart polynomial (b/a)(t^n - A)(t^n - B), n = g + 1, dense."""
    g = curve.genus
    lead = curve.b / curve.a
    cs = [Fraction(0)] * (2 * g + 3)
    cs[0] = lead * curve.A * curve.B
    cs[g + 1] = -lead * (curve.A + curve.B)
    cs[2 * g + 2] = lead
    return Polynomial(cs)


def F_poly(curve):
    """The ST chart polynomial: f's coefficient list reversed."""
    return f_poly(curve).reversed_coeffs(2 * curve.genus + 3)


def _cleared(poly):
    """(H, m): integer coefficients H = m^2 * poly, m the lcm of the
    coefficient denominators."""
    m = math.lcm(*(c.denominator for c in poly.coeffs))
    return [int(c * m * m) for c in poly.coeffs], m


def cleared_chart_poly(curve_model, chart):
    """(H, m): the dense integer-coefficient H = m^2 * (chart polynomial)."""
    return _cleared(f_poly(curve_model) if chart == "st" else F_poly(curve_model))


def _eval_int(H, t):
    """H(t) by Horner's rule, for an integer coefficient list H."""
    acc = 0
    for c in reversed(H):
        acc = acc * t + c
    return acc


def scan_fp_point_dense(curve_m, p):
    """The first liftable residue on either chart, as local._scan_fp_point
    finds it, read off the dense cleared polynomial and its derivative."""
    for chart in ("st", "ST"):
        H, _ = cleared_chart_poly(curve_m, chart)
        Hp = [i * c for i, c in enumerate(H)][1:]
        for t in range(min(p, SCAN_CAP)):
            v = _eval_int(H, t) % p
            if v == 0:
                if _eval_int(Hp, t) % p != 0:
                    return chart, t, "root"
                continue
            if legendre(v, p) == 1:
                return chart, t, "sqrt"
    return None


def find_smooth_fp_point(a, b, r, g, p):
    """(S, T): the first T = 0, 1, ... with a smooth F_p point on
    a S^2 = b (1 - r T^(g+1)), the reversed chart's reduction at a prime of
    AB, for p > 4g^2 and a, b, r units mod p.  Existence is guaranteed under
    those hypotheses, so exhausting the scan raises."""
    if p <= 4 * g * g or (g + 1) % p == 0:
        raise ValueError("requires p > 4g^2 and p not dividing g+1")
    a, b, r = a % p, b % p, r % p
    if a == 0 or b == 0 or r == 0:
        raise ValueError("a, b, r must be nonzero mod p")
    inv_a = pow(a, -1, p)
    for t in range(p):
        val = b * (1 - r * pow(t, g + 1, p)) % p * inv_a % p
        if val == 0:
            # then r T^(g+1) = 1, so T != 0 and the Jacobian row is nonzero
            return 0, t
        s = sqrt_mod(val, p)
        if s is not None:
            return s, t
    raise ArithmeticError("no smooth point found")


def chart_triple(f, g):
    """(c0, c_n, c_2n) of a dense f = q(t^n), n = g + 1: the triple that
    arith.count_points_hyperelliptic counts."""
    n = g + 1
    if len(f) != 2 * n + 1 or any(c for i, c in enumerate(f) if i % n):
        raise ValueError("f is not c0 + c_n t^n + c_2n t^(2n)")
    return f[0], f[n], f[2 * n]


def degree(f):
    """deg f, with -1 for the zero polynomial."""
    return -1 if f.coeffs == (0,) else len(f.coeffs) - 1


def leading(f):
    return f.coeffs[-1]


def evaluate(f, x):
    """f(x) as an exact Fraction, by Horner's rule."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def derivative(f):
    if degree(f) <= 0:
        return Polynomial([0])
    return Polynomial([i * c for i, c in enumerate(f.coeffs)][1:])


def poly_divmod(f, g):
    """(q, r) with f = q g + r and deg r < deg g."""
    if degree(g) < 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    dq = degree(f) - degree(g)
    if dq < 0:
        return Polynomial([0]), Polynomial(rem)
    quo = [Fraction(0)] * (dq + 1)
    lead = leading(g)
    for i in range(dq, -1, -1):
        c = rem[degree(g) + i] / lead
        quo[i] = c
        if c != 0:
            for j, gc in enumerate(g.coeffs):
                rem[i + j] -= c * gc
    return Polynomial(quo), Polynomial(rem[: degree(g)] or [0])


def resultant(f, g):
    """res(f, g) over Q via the Euclidean polynomial remainder sequence."""
    if degree(f) < 0 or degree(g) < 0:
        return Fraction(0)
    acc = Fraction(1)
    while True:
        if degree(g) == 0:
            return acc * leading(g)**degree(f)
        if degree(f) < degree(g):
            if (degree(f) * degree(g)) % 2 == 1:
                acc = -acc
            f, g = g, f
            continue
        _, r = poly_divmod(f, g)
        if degree(r) < 0:
            return Fraction(0)
        acc *= leading(g) ** (degree(f) - degree(r))
        if (degree(f) * degree(g)) % 2 == 1:
            acc = -acc
        f, g = g, r


def discriminant(f):
    """disc(f) = (-1)^(n(n-1)/2) res(f, f') / lc(f)."""
    n = degree(f)
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, derivative(f)) / leading(f)


def cauchy_root_bound(f):
    """Rational M with every real root of f inside (-M, M)."""
    if degree(f) < 1:
        return Fraction(1)
    lead = abs(leading(f))
    m = max(abs(c) for c in f.coeffs[:-1])
    return Fraction(1) + m / lead


# --------------------------------------------------------------------------
# the generic Q_p decision procedure (odd p)


def _shift_scale(G, t0, p):
    """Coefficients of G(t0 + p*x) from those of G (integers)."""
    n = len(G)
    res = list(G)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            res[j] += t0 * res[j + 1]
    return [c * p**i for i, c in enumerate(res)]


def _disc_search(G, twist, p, depth, bound):
    """Decide whether p^twist * G(tau) is a square (or zero) for some
    tau in Z_p.  Returns ('yes', tau_center), ('no',) or ('maybe',).

    Sound refutations only: a sub-disc is rejected when the value class is
    provably constant and non-square on it (unit center value); running
    out of depth yields 'maybe', never 'no'.
    """
    vals = [padic_val(c, p) for c in G if c != 0]
    if not vals:
        return ("yes", 0)  # the polynomial vanishes identically: s = 0
    c = min(vals)
    if c:
        pc = p**c
        G = [x // pc for x in G]
        twist = (twist + c) % 2
    any_maybe = False
    for t0 in range(p):
        val = _eval_int(G, t0)
        if val == 0:
            return ("yes", t0)
        w = padic_val(val, p)
        if (w + twist) % 2 == 0 and legendre(val // p**w, p) == 1:
            return ("yes", t0)
        if w == 0:
            continue  # unit class is constant on the sub-disc: refuted
        if depth + 1 > bound:
            any_maybe = True
            continue
        sub = _disc_search(_shift_scale(G, t0, p), twist, p, depth + 1, bound)
        if sub[0] == "yes":
            return ("yes", t0 + p * sub[1])
        if sub[0] == "maybe":
            any_maybe = True
    return ("maybe",) if any_maybe else ("no",)


def default_depth_bound(poly, p):
    """v_p(disc) + 2 v_p(lc) + 3, floored at 3."""
    if degree(poly) < 1:
        return 3
    d = discriminant(poly)
    if d == 0:
        return 12
    vd = padic_val(d, p)
    vl = padic_val(leading(poly), p)
    return max(0, vd) + 2 * max(0, vl) + 3


def decide_qp_charts(f, F, p, depth_bound=None):
    """Generic decision for s^2 = f(t) (t in Z_p) or S^2 = F(T) (T in Z_p).

    Returns (verdict, center): verdict True/False/None, center (chart, t)
    for True.  p must be odd: at 2 unit classes are not determined mod p
    and the procedure refuses to guess.
    """
    if p == 2:
        raise ValueError("the generic residue-disc decider does not handle p = 2")
    maybe = False
    for chart, poly in (("st", f), ("ST", F)):
        H, _ = _cleared(poly)
        bound = depth_bound if depth_bound is not None else default_depth_bound(poly, p)
        res = _disc_search(H, 0, p, 0, bound)
        if res[0] == "yes":
            return True, (chart, res[1])
        if res[0] == "maybe":
            maybe = True
    return (None, None) if maybe else (False, None)


def decide_qp_points(curve_model, p, depth_bound=None):
    """(verdict, witness) for the curve model over Q_p, p odd."""
    verdict, center = decide_qp_charts(f_poly(curve_model), F_poly(curve_model), p,
                                       depth_bound)
    if verdict is not True:
        return verdict, None
    chart, t_center = center
    return True, _witness_from_center(curve_model, chart, p, t_center)


# --------------------------------------------------------------------------
# the real place


def decide_real_points(curve):
    """(solvable, witness) over R: the chart value must be >= 0 somewhere.

    f = L (t^n - A)(t^n - B) with L = b/a and n = g+1.  Positive L: value
    > 0 beyond every root.  Negative L (synthetic inputs): f(t) >= 0 iff
    t^n lies between A and B.  For even n, t^n takes every value >= 0, so
    such a t exists iff max(A, B) >= 0; for odd n, t^n takes every real
    value, so it always exists.  A rational witness is reported when one
    exists on a modest grid (double roots at irrational points admit none,
    and the witness is then omitted).
    """
    f = f_poly(curve)
    if degree(f) < 0:
        return False, None
    if leading(f) > 0:
        t = cauchy_root_bound(f)
        if not evaluate(f, t) > 0:
            raise RuntimeError(f"f(t) > 0 fails at the Cauchy root bound t = {t}")
        return True, Witness(kind="real", chart="st", prime=None, t_real=t)
    if (curve.genus + 1) % 2 == 0 and max(curve.A, curve.B) < 0:
        return False, None
    bound = cauchy_root_bound(f)
    t = -bound
    step = Fraction(1, 4)
    iterations = 0
    while t <= bound and iterations < 100_000:
        if evaluate(f, t) >= 0:
            return True, Witness(kind="real", chart="st", prime=None, t_real=t)
        t += step
        iterations += 1
    return True, None  # value 0 is attained, but only at irrational points


# --------------------------------------------------------------------------
# square roots mod p and mod p^k, as the library computed them before the
# one-exponentiation kernels


def legendre_first_sqrt_mod(a, p):
    """Tonelli-Shanks root of a mod the odd prime p, canonical in [0, p/2],
    or None: Euler's criterion by legendre first, then the root by a second
    exponentiation (a third, z^q, where p = 1 mod 4)."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
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


def inverting_hensel_sqrt(a, p, k):
    """Root of the p-adic unit a mod p^k, canonical in [0, p^k/2], or None:
    Newton on the root itself, r <- (r + a / r) / 2, with a modular inverse
    at every doubling of the precision (bit by bit at p = 2)."""
    if not isinstance(a, int):
        a = Fraction(a)
        a = frac_mod(a, p ** max(k, 3)) if padic_val(a, p) == 0 else 0
    if a % p == 0:
        raise ValueError("expects a p-adic unit")
    pk = p**k
    if p == 2:
        if a % 8 != 1:
            return None
        if k <= 2:
            return 1
        r = 1
        for i in range(3, k):
            if (r * r - a) % (1 << (i + 1)) != 0:
                r += 1 << (i - 1)
        r %= pk
        return min(r, pk - r)
    r = legendre_first_sqrt_mod(a, p)
    if r is None:
        return None
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        mod = p**prec
        r = (r + a * pow(r, -1, mod)) * ((mod + 1) // 2) % mod
    r %= pk
    return min(r, pk - r)


def exact_padic_sqrt(x, p, prec):
    """The root mod p^prec of the exact rational x in Q_p: p^(v/2) times
    inverting_hensel_sqrt of the unit part mod p^(prec-v), for v = v_p(x)
    even with 0 <= v < prec - 1, and None otherwise, x = 0 included (the
    contract of local._exact_padic_sqrt and of the sampler's rooter)."""
    x = Fraction(x)
    if x == 0:
        return None
    v = padic_val(x, p)
    if v % 2 or v < 0 or v >= prec - 1:
        return None
    r = inverting_hensel_sqrt(x / Fraction(p) ** v, p, prec - v)
    return None if r is None else p ** (v // 2) * r % p**prec


# --------------------------------------------------------------------------
# the quadrics at surface points, exact and as residues


def quadric_residuals(surface, point):
    """The two quadric values of surface at a 5-tuple (x, y, z, u, v),
    evaluated exactly on Fractions."""
    x, y, z, u, v = (Fraction(w) for w in point)
    q1 = x**2 - surface.a * z**2 + surface.b * (u - surface.A * v) * (u - surface.B * v)
    q2 = x**2 - surface.a * y**2 + surface.a * surface.C**2 * u * v
    return q1, q2


def residue_quadrics(surface_model, point, p, prec):
    """The two quadrics of surface_model at the residue point, a 5-tuple,
    mod p^prec: quadric_residuals on the model's rational coefficients,
    then reduced by frac_mod (the model is p-integral)."""
    return tuple(frac_mod(q, p**prec) for q in quadric_residuals(surface_model, point))


def slot_fractions(surface_model, u, v, p=None, deepest=None):
    """The four slot representations of local.slot_terms at exact rational
    (u, v) as Fractions num/den, in its order; None where the value is zero
    or undefined.  The real place's invariant is the Hilbert symbol
    (a, r)_real of any one of them.  Given a prime p and a depth, None also
    where num or den has valuation above deepest: for residues (u, v) mod
    p^prec and deepest < prec, the representations whose square class the
    residues fix, each with a representative of that class."""
    m = surface_model
    nums, dens = slot_terms(m.a, m.b, m.A, m.B, Fraction(u), Fraction(v))

    def fixed(t):
        return t != 0 and (p is None or padic_val(t, p) <= deepest)

    return [num / den if fixed(num) and fixed(den) else None
            for den in dens for num in nums]


# --------------------------------------------------------------------------
# point-search residue patterns, one residue at a time


def window_mask(pattern, modulus, lo, width):
    """Bit i is bit (lo + i) mod modulus of pattern, for 0 <= i < width:
    the residue pattern laid over the window lo, ..., lo + width - 1, by
    rotating it and doubling its span."""
    s = lo % modulus
    bits = ((pattern >> s) | (pattern << (modulus - s))) & ((1 << modulus) - 1)
    span = modulus
    while span < width:
        bits |= bits << span
        span *= 2
    return bits & ((1 << width) - 1)


def curve_sieve_pattern(curve, n, M):
    """The curve search's residue pattern mod M at denominator n: bit r set
    when k (q r^(g+1) - alpha n^(g+1)) (q r^(g+1) - beta n^(g+1)) is a
    square mod M, with A = alpha/q, B = beta/q and k = num(ab) den(ab)."""
    g = curve.genus
    A, B = curve.A, curve.B
    q = A.denominator * B.denominator // math.gcd(A.denominator, B.denominator)
    alpha, beta = int(A * q), int(B * q)
    ab = curve.a * curve.b
    k = ab.numerator * ab.denominator
    sq = square_residues(M)
    npow = n ** (g + 1)
    c1, c2 = alpha * npow % M, beta * npow % M
    bits = 0
    for r in range(M):
        y = q * pow(r, g + 1, M)
        if sq[k * (y - c1) * (y - c2) % M]:
            bits |= 1 << r
    return bits


def surface_sieve_pattern(surface, v, x1, M):
    """The surface search's residue pattern mod M at (v, x1): bit r set when
    both the y and the z condition at u = r are squares mod M.  x = a x1
    when a is a prime not dividing den(C), else x = x1."""
    a, b, A, B, C = surface.a, surface.b, surface.A, surface.B, surface.C
    a_i, b_i = int(a), int(b)
    q = A.denominator * B.denominator // math.gcd(A.denominator, B.denominator)
    pA, pB = int(A * q), int(B * q)
    gamma, nu = C.numerator, C.denominator
    a_forces = a_i > 1 and nu % a_i != 0 and is_prime(a_i)
    x_step = a_i if a_forces else 1
    zb = a_i * b_i
    sq = square_residues(M)
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


# --------------------------------------------------------------------------
# the fiber and its local models by re-derived family formulas: the
# fiber's coefficients with theta = infinity as a branch of its own, as
# the library wrote them before it read both branches off X = a^(2h+1)
# theta^(g+1); and each p-integral or p-admissible model rebuilt from a,
# b, c, d and theta with p^l (or a power of a) cleared out of theta, as
# the library built them before it scaled the fiber's own coefficients by
# one lambda; each model carries the lambda re-derived here


def rederived_fiber_coeffs(params, theta):
    """(A, B, C, D) of the fiber at theta, B - A = 2cD^2:
        theta finite:    D = a^(2h+1) b^(2h+1) theta^(g+1) - 1
                         C = a^(2h+1) theta^(g+1) - 1
                         A = a^(4h+3) theta^(2g+2) + b c^2 d D^2
        theta = infinity: D = a^(2h+1) b^(2h+1), C = a^(2h+1)
                         A = a^(4h+3) + b c^2 d D^2
    """
    a, b, c, d = (Fraction(v) for v in (params.a, params.b, params.c, params.d))
    g, h = params.g, params.h
    if theta.is_infinity:
        D = a ** (2 * h + 1) * b ** (2 * h + 1)
        C = a ** (2 * h + 1)
        A = a ** (4 * h + 3) + b * c**2 * d * D**2
    else:
        t = theta.value
        D = a ** (2 * h + 1) * b ** (2 * h + 1) * t ** (g + 1) - 1
        C = a ** (2 * h + 1) * t ** (g + 1) - 1
        A = a ** (4 * h + 3) * t ** (2 * g + 2) + b * c**2 * d * D**2
    return A, A + 2 * c * D**2, C, D


def tilde_coeffs(params, theta, p, l):
    """Coefficients after clearing p^l from the denominator of theta.

    With theta = p^(-l) * thetatilde (thetatilde a p-adic unit):
        Dtilde = a^(2h+1) b^(2h+1) thetatilde^(g+1) - p^((g+1)l)
        Ctilde = a^(2h+1) thetatilde^(g+1) - p^((g+1)l)
        Atilde = a^(4h+3) thetatilde^(2g+2) + b c^2 d Dtilde^2
        Btilde = Atilde + 2 c Dtilde^2
    and Atilde = p^((2g+2)l) A, similarly for B; Ctilde = p^((g+1)l) C.
    """
    a, b, c, d = (Fraction(v) for v in (params.a, params.b, params.c, params.d))
    g, h = params.g, params.h
    tt = theta.value * Fraction(p) ** l
    pw = Fraction(p) ** ((g + 1) * l)
    Dt = a ** (2 * h + 1) * b ** (2 * h + 1) * tt ** (g + 1) - pw
    Ct = a ** (2 * h + 1) * tt ** (g + 1) - pw
    At = a ** (4 * h + 3) * tt ** (2 * g + 2) + b * c**2 * d * Dt**2
    Bt = At + 2 * c * Dt**2
    return At, Bt, Ct, Dt


def rederived_integral_model(curve, p):
    """A p-integral model of the curve with its scale lambda.

    For v_p(theta) = -l < 0 the fiber coordinates are rescaled by
    (s, t) -> (p^((2g+2)l) s, p^(2l) t), turning the structured
    coefficients into Atilde = p^((2g+2)l) A and Btilde likewise, which
    are p-adic integers: lambda = p^((g+1)l).  Elsewhere the model is
    already integral, lambda = 1.
    """
    coeffs = curve.coeffs
    if coeffs is None:
        return curve
    theta = coeffs.theta
    g = curve.genus
    if theta.is_infinity or padic_val(theta.value, p) >= 0:
        return curve
    l = -padic_val(theta.value, p)
    At, Bt, _, _ = tilde_coeffs(coeffs.params, theta, p, l)
    return HyperellipticCurve(a=curve.a, b=curve.b, A=At, B=Bt, genus=g, coeffs=coeffs,
                              lam=Fraction(p ** ((g + 1) * l)))


def rederived_admissible_model(surface, p, theta):
    """A model of the surface whose coefficients are p-adic integers, with
    its scale lambda: the quaternion slot on the fiber is the model's slot
    over lambda^2, a square.

    Cases:
      - theta = infinity: global v-rescaling by a^(4h+2), giving the
        reduced coefficients A = a + b^(4h+3) c^2 d etc., valid at every
        p; lambda = a^(-(2h+1)).
      - v_p(theta) >= 0: identity.
      - v_p(theta) = -l < 0, p != a: clear p^l from theta; coordinates
        (x,y,z,u) scale by p^((2g+2)l), lambda = p^((g+1)l).
      - p = a, v_a(theta) = -l < 0: with k = (g+1)l - (2h+1), the raw
        coefficients are already a-integral when k < 0; when k > 0 an
        extra a-power rescaling reduces A to a thetatilde^(2g+2) + ...,
        lambda = a^k (k = 0 cannot happen for odd g).
    """
    coeffs = surface.coeffs
    if coeffs is None:
        return surface
    params = coeffs.params
    g, h = params.g, params.h
    a = Fraction(params.a)
    b, c, d = Fraction(params.b), Fraction(params.c), Fraction(params.d)

    def model(A, B, C, lam):
        return DP4Surface(a=surface.a, b=surface.b, A=A, B=B, C=C,
                          genus=g, coeffs=coeffs, lam=lam)

    if theta.is_infinity:
        Adot = a + b ** (4 * h + 3) * c**2 * d
        Bdot = Adot + 2 * b ** (4 * h + 2) * c
        return model(Adot, Bdot, Fraction(1), 1 / a ** (2 * h + 1))

    v = padic_val(theta.value, p)
    if v >= 0:
        return surface
    l = -v

    if p != params.a:
        At, Bt, Ct, _ = tilde_coeffs(params, theta, p, l)
        return model(At, Bt, Ct, Fraction(p) ** ((g + 1) * l))

    # p = a
    k = (g + 1) * l - (2 * h + 1)
    if k == 0:
        raise ArithmeticError("(g+1)l = 2h+1 is impossible for odd g")
    tt = theta.value * a**l
    if k < 0:
        # raw coefficients are a-integral already (rewritten form has
        # Dtilde = a^(-k) b^(2h+1) thetatilde^(g+1) - 1); keep identity
        return surface
    # k > 0: rescale (x,y,z,u) by a^((2g+2)l - (4h+2)) = a^(2k)
    Dt = b ** (2 * h + 1) * tt ** (g + 1) - a**k
    Ct = tt ** (g + 1) - a**k
    At = a * tt ** (2 * g + 2) + b * c**2 * d * Dt**2
    Bt = At + 2 * c * Dt**2
    return model(At, Bt, Ct, a**k)
