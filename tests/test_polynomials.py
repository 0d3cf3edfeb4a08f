import random
from fractions import Fraction

from oracles import (
    Polynomial,
    cauchy_root_bound,
    degree,
    derivative,
    discriminant,
    evaluate,
    poly_divmod,
    resultant,
)


def test_basic_ops():
    f = Polynomial([1, 2, 3])  # 3x^2 + 2x + 1
    assert degree(f) == 2
    assert evaluate(f, 2) == 17
    assert derivative(f) == Polynomial([2, 6])
    assert degree(Polynomial([0, 0])) == -1


def test_reversal():
    f = Polynomial([1, 2, 3, 4])
    rev = f.reversed_coeffs(4)
    assert rev == Polynomial([4, 3, 2, 1])
    # x^(n) f(1/x) identity at a sample point
    x = Fraction(3, 2)
    assert evaluate(rev, x) == x**3 * evaluate(f, 1 / x)


def test_divmod_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        f = Polynomial([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))])
        g = Polynomial([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))])
        if degree(g) < 0:
            continue
        q, r = poly_divmod(f, g)
        for x in range(8):
            assert evaluate(q, x) * evaluate(g, x) + evaluate(r, x) == evaluate(f, x)
        assert degree(r) < degree(g) or degree(r) < 0


def test_resultant_vs_root_product():
    # res(f, g) = lc(f)^deg g * prod g(root_i) for monic splitting cases
    f = Polynomial([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    g = Polynomial([-1, 1])  # x - 1
    # res(f,g) = lc(g)^3 * f(1) = 0
    assert resultant(f, g) == 0
    g2 = Polynomial([5, 1])  # x + 5
    # res(f, g2) = (-1)^(3*1) res(g2, f) -> just check against product formula:
    # res(f, g2) = lc(f)^deg(g2) * g2(1)*g2(2)*g2(3) = 6*7*8
    assert abs(resultant(f, g2)) == 6 * 7 * 8


def test_discriminant_quadratic_cubic():
    # ax^2+bx+c -> b^2-4ac
    rng = random.Random(12)
    for _ in range(30):
        a, b, c = (rng.randrange(-9, 10) for _ in range(3))
        if a == 0:
            continue
        f = Polynomial([c, b, a])
        assert discriminant(f) == b * b - 4 * a * c
    # depressed cubic x^3+px+q -> -4p^3-27q^2
    for _ in range(30):
        p, q = rng.randrange(-9, 10), rng.randrange(-9, 10)
        f = Polynomial([q, p, 0, 1])
        assert discriminant(f) == -4 * p**3 - 27 * q**2


def test_cauchy_bound():
    f = Polynomial([-6, 11, -6, 1])  # roots 1, 2, 3
    m = cauchy_root_bound(f)
    assert evaluate(f, m) != 0 and m > 3
