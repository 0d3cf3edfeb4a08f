"""Reference oracles for the tests: general local decision procedures and
the polynomial algebra they need.

The library certifies each place by a named local lemma and refuses a
place where none applies; it never runs a general decision procedure.
These deciders answer the same question by brute force over residue
discs (odd p) or over the real line, so the tests can check every lemma
verdict, and every refusal, against an independent answer.
"""

from fractions import Fraction

from hassecert.arith import legendre, padic_val
from hassecert.local import Witness, _cleared, _eval_int, _witness_from_center
from hassecert.polynomials import Polynomial


# --------------------------------------------------------------------------
# polynomial algebra over Q


def derivative(f):
    if f.degree <= 0:
        return Polynomial([0])
    return Polynomial([i * c for i, c in enumerate(f.coeffs)][1:])


def poly_divmod(f, g):
    """(q, r) with f = q g + r and deg r < deg g."""
    if g.degree < 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    dq = f.degree - g.degree
    if dq < 0:
        return Polynomial([0]), Polynomial(rem)
    quo = [Fraction(0)] * (dq + 1)
    lead = g.leading
    for i in range(dq, -1, -1):
        c = rem[g.degree + i] / lead
        quo[i] = c
        if c != 0:
            for j, gc in enumerate(g.coeffs):
                rem[i + j] -= c * gc
    return Polynomial(quo), Polynomial(rem[: g.degree] or [0])


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
        _, r = poly_divmod(f, g)
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
    return sign * resultant(f, derivative(f)) / f.leading


def cauchy_root_bound(f):
    """Rational M with every real root of f inside (-M, M)."""
    if f.degree < 1:
        return Fraction(1)
    lead = abs(f.leading)
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
    if poly.degree < 1:
        return 3
    d = discriminant(poly)
    if d == 0:
        return 12
    vd = padic_val(d, p)
    vl = padic_val(poly.leading, p)
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
    verdict, center = decide_qp_charts(
        curve_model.f_poly(), curve_model.F_poly(), p, depth_bound
    )
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
    f = curve.f_poly()
    if f.degree < 0:
        return False, None
    if f.leading > 0:
        t = cauchy_root_bound(f)
        if not f(t) > 0:
            raise RuntimeError(f"f(t) > 0 fails at the Cauchy root bound t = {t}")
        return True, Witness(kind="real", chart="st", prime=None, t_real=t)
    if (curve.genus + 1) % 2 == 0 and max(curve.A, curve.B) < 0:
        return False, None
    bound = cauchy_root_bound(f)
    t = -bound
    step = Fraction(1, 4)
    iterations = 0
    while t <= bound and iterations < 100_000:
        if f(t) >= 0:
            return True, Witness(kind="real", chart="st", prime=None, t_real=t)
        t += step
        iterations += 1
    return True, None  # value 0 is attained, but only at irrational points
