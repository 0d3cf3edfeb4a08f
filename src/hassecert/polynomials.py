"""Dense univariate polynomials over Q with the exact operations the
curve models need: evaluation, derivatives, coefficient reversal,
division, resultants/discriminants and a Cauchy root bound."""

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


def cauchy_root_bound(f):
    """Rational M with every real root of f inside (-M, M)."""
    if f.degree < 1:
        return Fraction(1)
    lead = abs(f.leading)
    m = max(abs(c) for c in f.coeffs[:-1])
    return Fraction(1) + m / lead
