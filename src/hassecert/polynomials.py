"""Dense univariate polynomials over Q with the exact operations the
curve models need: evaluation, derivatives, coefficient reversal,
resultants/discriminants, and Sturm-chain real root counting."""

from fractions import Fraction

from .arith import frac_mod


class Polynomial:
    """Dense polynomial, coefficients low-to-high, always Fractions.

    The zero polynomial has coefficient list [0] and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"

    def __call__(self, x):
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        if self.degree <= 0:
            return Polynomial([0])
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def reversed_coeffs(self, length):
        """Coefficients of x^(length-1) * self(1/x), padded to `length`."""
        if length < len(self.coeffs):
            raise ValueError("length too small for reversal")
        padded = list(self.coeffs) + [Fraction(0)] * (length - len(self.coeffs))
        return Polynomial(list(reversed(padded)))

    def __mul__(self, other):
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Polynomial([x - y for x, y in zip(a, b)])

    def divmod(self, other):
        if other.degree < 0:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        if dq < 0:
            return Polynomial([0]), Polynomial(rem)
        quo = [Fraction(0)] * (dq + 1)
        lead = other.leading
        for i in range(dq, -1, -1):
            c = rem[other.degree + i] / lead
            quo[i] = c
            if c != 0:
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] -= c * oc
        return Polynomial(quo), Polynomial(rem[: other.degree] or [0])

    def mod_p(self, p):
        """Dense int coefficient list reduced mod p (denominators must be
        invertible mod p)."""
        return [frac_mod(c, p) for c in self.coeffs]


def resultant(f, g):
    """res(f, g) over Q via the Euclidean polynomial remainder sequence."""
    if f.degree < 0 or g.degree < 0:
        return Fraction(0)
    acc = Fraction(1)
    while True:
        if g.degree == 0:
            return acc * g.leading**f.degree
        if f.degree < g.degree:
            if (f.degree * g.degree) % 2 == 1:
                acc = -acc
            f, g = g, f
            continue
        _, r = f.divmod(g)
        if r.degree < 0:
            return Fraction(0)
        acc *= g.leading ** (f.degree - r.degree)
        if (f.degree * g.degree) % 2 == 1:
            acc = -acc
        f, g = g, r


def discriminant(f):
    """disc(f) = (-1)^(n(n-1)/2) res(f, f') / lc(f)."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.leading


def squarefree_part(f):
    """f / gcd(f, f'), monic-normalized."""
    g = _poly_gcd(f, f.derivative())
    q, r = f.divmod(g)
    if r.degree >= 0:
        raise RuntimeError("gcd(f, f') does not divide f: remainder of degree "
                           f"{r.degree}")
    return Polynomial([c / q.leading for c in q.coeffs])


def _poly_gcd(f, g):
    while g.degree >= 0:
        _, r = f.divmod(g)
        f, g = g, r
    if f.degree < 0:
        return Polynomial([1])
    return Polynomial([c / f.leading for c in f.coeffs])


def _sign_changes(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x * y < 0)


def count_real_roots(f):
    """Number of distinct real roots of f, by Sturm's theorem on (-inf, inf)."""
    f = squarefree_part(f)
    if f.degree <= 0:
        return 0
    chain = [f, f.derivative()]
    while chain[-1].degree > 0:
        _, r = chain[-2].divmod(chain[-1])
        if r.degree < 0 and r.coeffs[0] == 0:
            break
        chain.append(Polynomial([-c for c in r.coeffs]))
        if chain[-1].degree < 0:
            chain.pop()
            break

    def sign_at_inf(poly, positive):
        if poly.degree < 0:
            return 0
        s = 1 if poly.leading > 0 else -1
        if not positive and poly.degree % 2 == 1:
            s = -s
        return s

    minus = _sign_changes([sign_at_inf(q, False) for q in chain])
    plus = _sign_changes([sign_at_inf(q, True) for q in chain])
    return minus - plus


def cauchy_root_bound(f):
    """Rational M with every real root of f inside (-M, M)."""
    if f.degree < 1:
        return Fraction(1)
    lead = abs(f.leading)
    m = max(abs(c) for c in f.coeffs[:-1])
    return Fraction(1) + m / lead
