"""Fiber models: the hyperelliptic curve, the quadric-pair surface, the map
between them, and the coordinate-scaled local models used by the solver
and the invariant computation.

Conventions for one fiber over a verified parameter quadruple (a,b,c,d):

    curve   a s^2 = b (t^(g+1) - A)(t^(g+1) - B),  glued with its
            reversed chart a S^2 = b (1 - A T^(g+1))(1 - B T^(g+1))
    surface x^2 - a z^2 = -b (u - A v)(u - B v)
            x^2 - a y^2 = -a C^2 u v

with A, B, C, D exact rationals depending on the fiber parameter theta
only through X = a^(2h+1) theta^(g+1), and B - A = 2 c D^2 identically.

Every local model is the fiber scaled by one lambda, its lam (1 on the
fiber).  A curve model's A and B are lambda^2 times the fiber's.  A
surface model's (A, B, C) are (lambda^2 A, lambda^2 B, lambda C), the
fiber's (x:y:z:u:v) is (x:y:z:u:v/lambda^2) on it, and the quaternion
slot b(u - Av)/v picks up the square lambda^2, so invariants transport.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction

from .arith import padic_val
from .params import ParamSet


@dataclass(frozen=True)
class Theta:
    """A point of the projective line over Q: a rational or infinity."""

    value: Fraction | None  # None encodes infinity

    @classmethod
    def of(cls, num, den=1):
        return cls(Fraction(num, den))

    @classmethod
    def infinity(cls):
        return cls(None)

    @classmethod
    def parse(cls, s):
        s = s.strip()
        if s in ("inf", "infinity", "oo"):
            return cls.infinity()
        return cls(Fraction(s))

    @property
    def is_infinity(self):
        return self.value is None

    def __str__(self):
        return "inf" if self.is_infinity else str(self.value)

    def to_json(self):
        if self.is_infinity:
            return "inf"
        return {"num": str(self.value.numerator), "den": str(self.value.denominator)}

    @classmethod
    def from_json(cls, obj):
        if obj == "inf":
            return cls.infinity()
        return cls(Fraction(int(obj["num"]), int(obj["den"])))


class NonvanishingError(ArithmeticError):
    """A structured coefficient vanished where the family forbids it."""

    def __init__(self, symbol, coeffs):
        self.symbol = symbol
        super().__init__(f"coefficient {symbol} vanishes on fiber theta={coeffs.theta}")


def frac_str(x):
    """A rational as the string "num/den", den >= 1 (integers too)."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class FamilyCoeffs:
    """Structured coefficients of one fiber."""

    A: Fraction
    B: Fraction
    C: Fraction
    D: Fraction
    theta: Theta
    params: ParamSet

    def to_json(self):
        return {
            "params": self.params.to_json(),
            "theta": self.theta.to_json(),
            "coeffs": {k: frac_str(getattr(self, k)) for k in "ABCD"},
            "genus": str(self.params.g),
            "h": str(self.params.h),
        }


def fiber_coeffs(params, theta):
    """Exact A, B, C, D of the fiber at theta, read off X = a^(2h+1)
    theta^(g+1): C = X - 1, D = b^(2h+1) X - 1, A = a X^2 + b c^2 d D^2 and
    B = A + 2cD^2.  At theta = infinity X = a^(2h+1) and both -1 terms
    drop."""
    a, b, c, d = (Fraction(v) for v in (params.a, params.b, params.c, params.d))
    X = a ** (2 * params.h + 1)
    X, one = (X, 0) if theta.is_infinity else (X * theta.value ** (params.g + 1), 1)
    C = X - one
    D = b ** (2 * params.h + 1) * X - one
    A = a * X**2 + b * c**2 * d * D**2
    B = A + 2 * c * D**2
    return FamilyCoeffs(A=A, B=B, C=C, D=D, theta=theta, params=params)


def check_nonvanishing(coeffs):
    """Raise NonvanishingError unless A, B, C and D are all nonzero.

    Vanishing contradicts the family construction over verified parameters,
    so it is treated as input corruption and raised loudly.
    """
    for symbol in "ABCD":
        if getattr(coeffs, symbol) == 0:
            raise NonvanishingError(symbol, coeffs)


@dataclass(frozen=True)
class HyperellipticCurve:
    """Two-chart model a s^2 = b prod, with exact structured coefficients.

    Each chart polynomial f is c0 + c_n u + c_2n u^2 in u = t^n (T^n on
    the reversed chart), n = g + 1, with (c0, c_n, c_2n) = (b/a)(AB,
    -(A+B), 1) on "st", c0 and c_2n swapped on "ST"; it is read only as
    H = m^2 f, through chart_values.
    """

    a: Fraction
    b: Fraction
    A: Fraction
    B: Fraction
    genus: int
    coeffs: FamilyCoeffs | None = None
    lam: Fraction = Fraction(1)

    @cached_property
    def cleared_st(self):
        """(h, m): the st triple cleared to integers, h = m^2 (c0, c_n,
        c_2n) with m the lcm of its denominators, built once per model."""
        lead = self.b / self.a
        cs = (lead * self.A * self.B, -lead * (self.A + self.B), lead)
        m = math.lcm(*(c.denominator for c in cs))
        return tuple(int(c * m * m) for c in cs), m

    def cleared(self, chart):
        """(h, m): the chart's integer triple h = m^2 (c0, c_n, c_2n), the
        st triple of cleared_st reversed on "ST", with the same m."""
        h, m = self.cleared_st
        if chart not in ("st", "ST"):
            raise ValueError(f"unknown chart {chart!r}")
        return (h[::-1] if chart == "ST" else h), m

    def chart_values(self, chart, t):
        """(H(t), H'(t)) for the cleared chart polynomial H(t) = h0 +
        h_n t^n + h_2n t^(2n), exact at an integer or rational t:
        H'(t) = n t^(n-1) (h_n + 2 h_2n t^n)."""
        (h0, hn, h2n), _ = self.cleared(chart)
        n = self.genus + 1
        tn1 = t ** (n - 1)
        u = tn1 * t
        return h0 + (hn + h2n * u) * u, n * tn1 * (hn + 2 * h2n * u)

    def chart_value(self, chart, t):
        """f(t) or F(T) as an exact Fraction: H(t) / m^2."""
        m = self.cleared_st[1]
        return Fraction(self.chart_values(chart, Fraction(t))[0], m * m)


@dataclass(frozen=True)
class DP4Surface:
    """Quadric pair x^2-az^2 = -b(u-Av)(u-Bv), x^2-ay^2 = -aC^2 uv."""

    a: Fraction
    b: Fraction
    A: Fraction
    B: Fraction
    C: Fraction
    genus: int
    coeffs: FamilyCoeffs | None = None
    lam: Fraction = Fraction(1)


def build_curve(coeffs):
    check_nonvanishing(coeffs)
    p = coeffs.params
    return HyperellipticCurve(
        a=Fraction(p.a), b=Fraction(p.b), A=coeffs.A, B=coeffs.B, genus=p.g, coeffs=coeffs
    )


def build_surface(coeffs):
    check_nonvanishing(coeffs)
    p = coeffs.params
    return DP4Surface(
        a=Fraction(p.a),
        b=Fraction(p.b),
        A=coeffs.A,
        B=coeffs.B,
        C=coeffs.C,
        genus=p.g,
        coeffs=coeffs,
    )


def check_smooth_curve(curve):
    """Smoothness of the two-chart model: a, b, A, B, A-B all nonzero."""
    vals = (curve.a, curve.b, curve.A, curve.B, curve.A - curve.B)
    return all(v != 0 for v in vals)


def smoothness_quartic(a, b, A, B, C):
    """The obstruction to surface smoothness beyond coefficient nonvanishing."""
    return b**2 * (B - A) ** 2 + 2 * a * b * C**2 * (B - A) + 4 * a * b * C**2 * A + a**2 * C**4


def check_smooth_surface(surface):
    """Exact surface smoothness: nonzero coefficients and nonzero quartic."""
    a, b, A, B, C = surface.a, surface.b, surface.A, surface.B, surface.C
    if 0 in (a, b, A, B, C) or A == B:
        return False
    return smoothness_quartic(a, b, A, B, C) != 0


def delta_coords(chart, s, t, C, g, mu):
    """Image of a point of a curve model under the degree-(g+1)/2 map to a
    surface model: C is the surface model's C and mu = lambda_curve /
    lambda_surface (1 on the fiber pair).

    Works over any commutative ring: coordinates are polynomial in the
    inputs.  Charts:
        st: (s, t)  ->  (0 : mu C t^((g+1)/2) : s : t^(g+1) : mu^2)
        ST: (S, T)  ->  (0 : mu C T^((g+1)/2) : S : 1 : mu^2 T^(g+1))
    On the image the second quadric vanishes identically and the first is
    -a (s^2 - f(t)), f the curve model's chart polynomial.
    """
    if g % 2 == 0:
        raise ValueError("the curve-to-surface map needs odd genus")
    half = (g + 1) // 2
    y = mu * C * t**half
    if chart == "st":
        return (0 * t, y, s, t ** (g + 1), mu * mu * t**0)
    if chart == "ST":
        return (0 * t, y, s, t**0, mu * mu * t ** (g + 1))
    raise ValueError(f"unknown chart {chart!r}")


def j_invariant(coeffs):
    """Exact j-invariant of a genus-1 fiber (the curve's Jacobian):

        j = 16 [ (A-B)^2 + 16 A B ]^3  /  ( A B (A-B)^4 ).
    """
    if coeffs.params.g != 1:
        raise ValueError("j-invariant is defined here only for genus 1")
    A, B = coeffs.A, coeffs.B
    den = A * B * (A - B) ** 4
    if den == 0:
        raise ZeroDivisionError("j-invariant denominator A B (A-B)^4 vanishes")
    return 16 * ((A - B) ** 2 + 16 * A * B) ** 3 / den


def integral_model(curve, p):
    """A p-integral model of the curve: the fiber scaled by lambda = p^(-e)
    with e = (g+1) v_p(theta) when e < 0, so that lambda^2 A and lambda^2 B
    are p-adic integers; with v_p(theta) = -l the fiber's point (s, t) is
    (lambda^2 s, p^(2l) t) on it.  When e >= 0, and at theta = infinity,
    the model is the fiber itself.
    """
    coeffs = curve.coeffs
    if coeffs is None or coeffs.theta.is_infinity:
        return curve
    e = (curve.genus + 1) * padic_val(coeffs.theta.value, p)
    if e >= 0:
        return curve
    lam = Fraction(p) ** -e
    return replace(curve, A=lam**2 * curve.A, B=lam**2 * curve.B, lam=lam)


def admissible_model(surface, p):
    """A model of the surface whose coefficients are p-adic integers: the
    fiber scaled by one lambda, (A, B, C) -> (lambda^2 A, lambda^2 B,
    lambda C).

    The fiber's C and D are integer polynomials of degree 1 in
    X = a^(2h+1) theta^(g+1), and A and B of degree 2 (see fiber_coeffs),
    so lambda = p^(-e) with e = v_p(X) = (g+1) v_p(theta) + (2h+1) [p = a]
    makes all four p-integral when e < 0; when e >= 0 the model is the
    fiber.  At theta = infinity, where the -1 terms drop, lambda = 1/X =
    a^(-(2h+1)) at every p.
    """
    coeffs = surface.coeffs
    if coeffs is None:
        return surface
    theta, params = coeffs.theta, coeffs.params
    if theta.is_infinity:
        lam = Fraction(1, params.a ** (2 * params.h + 1))
    else:
        e = (params.g + 1) * padic_val(theta.value, p) + (2 * params.h + 1) * (p == params.a)
        if e >= 0:
            return surface
        lam = Fraction(p) ** -e
    return replace(surface, A=lam**2 * surface.A, B=lam**2 * surface.B,
                   C=lam * surface.C, lam=lam)
