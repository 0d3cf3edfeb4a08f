"""Dense univariate polynomials over Q with the exact operations the
curve models need: evaluation, coefficient reversal and reduction mod p."""

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
