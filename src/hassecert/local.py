"""Local solvability: decision procedures, fast-path certificates with
verifiable witnesses, and the finite critical set outside which a uniform
good-reduction argument applies.

Witness discipline: every solvable verdict at a finite place carries data
that re-verifies against the chart equation of the p-integral model at a
stated precision with a stated Hensel margin, so a consumer can confirm
the existence of a genuine Q_p point without rerunning any search.
"""

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import (
    Place,
    _int_val,
    count_points_hyperelliptic,
    factorize,
    find_smooth_fp_point,
    frac_mod,
    hensel_nth_root,
    hensel_sqrt,
    is_local_square,
    is_rational_square,
    legendre,
    padic_val,
    sieve_primes_upto,
    unit_part,
)
from .family import delta_coords, integral_model
from .polynomials import cauchy_root_bound, count_real_roots, discriminant

# naive O(p) point counting is only used below this cap; larger primes get
# scan-and-lift certificates instead
COUNT_CAP = 200_000
# the residue-disc decision procedure is an O(p)-per-level scan
GENERIC_P_CAP = 1_000_000
SAMPLER_BUDGET = 10_000


# --------------------------------------------------------------------------
# witnesses (always relative to the p-integral model of the curve)


@dataclass(frozen=True)
class Witness:
    """A re-verifiable local point on one chart of a curve model.

    kinds:
      sqrt  - sigma^2 = H(t_center) mod p^precision, where H is the
              integer-cleared chart polynomial (H = clearing^2 * chart
              polynomial) and val = v_p(H(t_center)); the margin
              precision > val (+2 at p = 2) yields a true Q_p point.
      root  - v_p(H(t_center)) = val > 2 mu = 2 v_p(H'(t_center)): the
              center converges to an exact root of H, giving s = 0.
      exact - an exact rational point (t_center, s_exact) of the chart.
      real  - a real point: t_real with chart value >= 0.
    """

    kind: str
    chart: str
    prime: int | None
    t_center: Fraction | int | None = None
    sigma: int | None = None
    precision: int | None = None
    val: int | None = None
    mu: int | None = None
    s_exact: Fraction | None = None
    t_real: Fraction | None = None

    def verify(self, curve_model):
        """Re-check against the model's chart equation; True iff the data
        certifies a genuine local point."""
        if self.kind == "real":
            return curve_model.chart_value(self.chart, self.t_real) >= 0
        if self.kind == "exact":
            return curve_model.chart_value(self.chart, self.t_center) == self.s_exact**2
        p = self.prime
        if self.kind == "root":
            return _root_witness(curve_model, self.chart, p, self.t_center) is not None
        H, _ = cleared_chart_poly(curve_model, self.chart)
        V = _eval_int(H, self.t_center)
        if self.kind == "sqrt":
            pk = p**self.precision
            if (self.sigma * self.sigma - V) % pk != 0:
                return False
            if V == 0:
                return False
            w = _int_val(V, p)
            need = w + 2 if p == 2 else w
            return self.precision > need
        raise ValueError(f"unknown witness kind {self.kind}")

    def to_json(self):
        out = {"kind": self.kind, "chart": self.chart}
        if self.prime is not None:
            out["prime"] = str(self.prime)
        for k in ("t_center", "sigma", "precision", "val", "mu", "s_exact", "t_real"):
            v = getattr(self, k)
            if v is not None:
                out[k] = str(v)
        return out


def _cleared(poly):
    """(H, m): integer coefficients H = m^2 * poly, m the lcm of the
    coefficient denominators."""
    m = math.lcm(*(c.denominator for c in poly.coeffs))
    return [int(c * m * m) for c in poly.coeffs], m


def cleared_chart_poly(curve_model, chart):
    """(H, m): integer-coefficient H = m^2 * (chart polynomial)."""
    H, m = _cleared(curve_model.f_poly() if chart == "st" else curve_model.F_poly())
    return H, Fraction(m)


def _eval_int(H, t):
    acc = 0
    for c in reversed(H):
        acc = acc * t + c
    return acc


def _shift_scale(G, t0, p):
    """Coefficients of G(t0 + p*x) from those of G (integers)."""
    n = len(G)
    res = list(G)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            res[j] += t0 * res[j + 1]
    return [c * p**i for i, c in enumerate(res)]


# --------------------------------------------------------------------------
# the generic Q_p decision procedure (odd p)


def _disc_search(G, twist, p, depth, bound):
    """Decide whether p^twist * G(tau) is a square (or zero) for some
    tau in Z_p.  Returns ('yes', tau_center), ('no',) or ('maybe',).

    Sound refutations only: a sub-disc is rejected when the value class is
    provably constant and non-square on it (unit center value); running
    out of depth yields 'maybe', never 'no'.
    """
    vals = [_int_val(c, p) for c in G if c != 0]
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
        w = _int_val(val, p)
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


def _witness_from_center(curve_model, chart, p, t_center):
    """A sqrt/exact witness at an integer center whose exact chart value is
    a p-adic square (or zero)."""
    H, _ = cleared_chart_poly(curve_model, chart)
    V = _eval_int(H, t_center)
    if V == 0:
        return Witness(kind="exact", chart=chart, prime=p, t_center=Fraction(t_center),
                       s_exact=Fraction(0))
    w = _int_val(V, p)
    unit = V // p**w
    prec = max(3, w + 2) if p != 2 else max(6, w + 4)
    r = hensel_sqrt(unit, p, prec - w)
    if r is None:
        raise ArithmeticError("center value is not a p-adic square; search bug")
    sigma = (p ** (w // 2) * r) % p**prec
    return Witness(kind="sqrt", chart=chart, prime=p, t_center=t_center,
                   sigma=sigma, precision=prec, val=w)


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

    Positive leading coefficient: value > 0 beyond every root.  Negative
    lead (synthetic inputs): values reach >= 0 iff f has a real root, by
    the intermediate value theorem; a rational witness is reported when
    one exists on a modest grid (double roots at irrational points admit
    none, and the witness is then omitted).
    """
    f = curve.f_poly()
    if f.degree < 0:
        return False, None
    if f.leading > 0:
        t = cauchy_root_bound(f)
        if not f(t) > 0:
            raise RuntimeError(f"f(t) > 0 fails at the Cauchy root bound t = {t}")
        return True, Witness(kind="real", chart="st", prime=None, t_real=t)
    nroots = count_real_roots(f)
    if nroots == 0:
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


# --------------------------------------------------------------------------
# the critical set


@dataclass
class CriticalSet:
    places: list
    provenance: dict
    unresolved: list = field(default_factory=list)

    @property
    def complete(self):
        return not self.unresolved

    def primes(self):
        return [pl.p for pl in self.places if not pl.is_real]

    def to_json(self):
        return {
            "places": [str(pl) for pl in self.places],
            "provenance": {str(k): v for k, v in self.provenance.items()},
            "unresolved": [[label, str(n)] for label, n in self.unresolved],
        }


def critical_places(curve, rho_budget=4_000_000):
    """{Real, 2} ∪ omega0 ∪ {a,b,c,d} ∪ primes of num(A) num(B) num(D)
    ∪ primes of den(theta), with provenance.

    Every prime outside the set is odd, exceeds 4g^2 (omega0 holds all
    smaller odd primes), divides neither 2ab nor A - B = -2cD^2, and the
    equations are p-integral there; the good-reduction argument covers it.
    """
    coeffs = curve.coeffs
    params = coeffs.params
    prov = {}

    def note(p, reason):
        prov.setdefault(p, []).append(reason)

    note("real", "archimedean place")
    note(2, "divides 2ab")
    for q in params.omega0:
        note(q, "member of omega0")
    for name in "abcd":
        note(getattr(params, name), f"equals parameter {name}")
    unresolved = []
    jobs = [("num(A)", coeffs.A.numerator), ("num(B)", coeffs.B.numerator),
            ("num(D)", coeffs.D.numerator)]
    if not coeffs.theta.is_infinity:
        jobs.append(("den(theta)", coeffs.theta.value.denominator))
    for label, n in jobs:
        fac, bad = factorize(n, rho_budget)
        for m in bad:
            unresolved.append((label, m))
        for p in fac:
            note(p, f"divides {label}")
    places = [Place.real()] + [
        Place.finite(p) for p in sorted(q for q in prov if q != "real")
    ]
    return CriticalSet(places=places, provenance=prov, unresolved=unresolved)


# --------------------------------------------------------------------------
# per-place certification


@dataclass
class LocalCertificate:
    place: Place
    solvable: bool | None
    method: str
    witness: Witness | None = None
    notes: str = ""
    hypotheses: list = field(default_factory=list)

    def to_json(self):
        return {
            "place": str(self.place),
            "solvable": self.solvable,
            "method": self.method,
            "witness": self.witness.to_json() if self.witness else None,
            "notes": self.notes,
            "hypotheses": list(self.hypotheses),
        }


def _model_at(curve, place):
    if place.is_real:
        return curve
    model, _ = integral_model(curve, place.p)
    return model


def _try_trivial(curve, place):
    model = _model_at(curve, place)
    p = None if place.is_real else place.p
    if model.A == 0 or model.B == 0:
        w = Witness(kind="exact", chart="st", prime=p, t_center=Fraction(0),
                    s_exact=Fraction(0))
        return LocalCertificate(place, True, "trivial-point", w,
                                notes="A or B vanishes: (s,t) = (0,0)")
    co = curve.coeffs
    if co is not None and co.D == 0:
        root = is_rational_square(model.b / model.a)
        if root is not None:
            w = Witness(kind="exact", chart="ST", prime=p, t_center=Fraction(0),
                        s_exact=root)
            return LocalCertificate(
                place, True, "trivial-point", w,
                notes="D vanishes: b/a is a rational square, (S,T) = (sqrt(b/a), 0)",
            )
    return None


def _try_ab_square(curve, place):
    ab = curve.a * curve.b
    if ab == 0 or not is_local_square(ab, place):
        return None
    hyp = [f"ab is a square in the completion at {place}"]
    if place.is_real:
        w = Witness(kind="real", chart="ST", prime=None, t_real=Fraction(0))
        return LocalCertificate(place, True, "ab-square", w, hypotheses=hyp)
    p = place.p
    model = _model_at(curve, place)
    wit = _witness_from_center(model, "ST", p, 0)
    return LocalCertificate(place, True, "ab-square", wit, hypotheses=hyp)


def _scan_fp_point(curve_m, p, scan_cap=1_000_000):
    """First t whose reduction is liftable on either chart: a nonzero
    square value mod p, or a simple root of the reduction."""
    for chart in ("st", "ST"):
        H, _ = cleared_chart_poly(curve_m, chart)
        Hbar = [c % p for c in H]
        Hpbar = [(i * c) % p for i, c in enumerate(H)][1:]
        limit = min(p, scan_cap)
        for t in range(limit):
            v = _eval_int(Hbar, t) % p
            if v == 0:
                if _eval_int(Hpbar, t) % p != 0:
                    return chart, t, "root"
                continue
            if legendre(v, p) == 1:
                return chart, t, "sqrt"
    return None


def _root_witness(curve_m, chart, p, t_center):
    """The root-margin rule, shared with Witness.verify: an exact witness
    when H(t_center) = 0, a root witness when v_p(H(t_center)) >
    2 v_p(H'(t_center)), else None."""
    H, _ = cleared_chart_poly(curve_m, chart)
    V = _eval_int(H, t_center)
    if V == 0:
        return Witness(kind="exact", chart=chart, prime=p, t_center=Fraction(t_center),
                       s_exact=Fraction(0))
    Hp = [i * c for i, c in enumerate(H)][1:]
    dV = _eval_int(Hp, t_center)
    if dV == 0:
        return None
    w, mu = _int_val(V, p), _int_val(dV, p)
    if w <= 2 * mu:
        return None
    return Witness(kind="root", chart=chart, prime=p, t_center=t_center, val=w, mu=mu)


def _try_good_reduction(curve, place):
    if place.is_real or place.p == 2:
        return None
    p = place.p
    g = curve.genus
    if p <= 4 * g * g or (g + 1) % p == 0:
        return None
    model = _model_at(curve, place)
    a, b, A, B = model.a, model.b, model.A, model.B
    if A == B or A == 0 or B == 0:
        return None
    checks = {
        "v_p(a)": padic_val(a, p),
        "v_p(b)": padic_val(b, p),
        "v_p(A-B)": padic_val(A - B, p),
    }
    if any(v != 0 for v in checks.values()):
        return None
    hyp = [f"p = {p} > 4g^2 = {4 * g * g}"] + [f"{k} = 0" for k in checks]
    vA, vB = padic_val(A, p), padic_val(B, p)
    if vA == 0 and vB == 0:
        # separable reduction: Hasse-Weil guarantees a smooth point
        if p <= COUNT_CAP:
            n = count_points_hyperelliptic(model.f_poly().mod_p(p), g, p)
            d = abs(n - (p + 1))
            if not (n >= 1 and d * d <= 4 * g * g * p):
                return LocalCertificate(place, None, "good-reduction-hw",
                                        notes=f"count {n} escaped the Hasse-Weil window")
            hyp.append(f"|X(F_p)| = {n}, inside the Hasse-Weil window")
            method = "good-reduction-hw"
        else:
            method = "fp-smooth-lift"
            hyp.append("p too large to count; existence via the Hasse-Weil bound")
        found = _scan_fp_point(model, p)
        if found is None:
            return LocalCertificate(place, None, method,
                                    notes="no liftable residue inside the scan cap")
        chart, t0, kind = found
        wit = (_witness_from_center(model, chart, p, t0) if kind == "sqrt"
               else _root_witness(model, chart, p, t0))
        if wit is None:
            return LocalCertificate(place, None, method, notes="margin failure at root")
        return LocalCertificate(place, True, method, wit, hypotheses=hyp)
    # p | AB but p does not divide A - B: the reversed chart reduces to the
    # one-term model a S^2 = b (1 - r T^(g+1)) with r the surviving coefficient
    r = frac_mod(B if vA > 0 else A, p)
    pt = find_smooth_fp_point(frac_mod(a, p), frac_mod(b, p), r, g, p)
    S0, T0 = pt.coords
    hyp.append(f"reduction is a S^2 = b (1 - r T^(g+1)) with r = {r} mod p")
    wit = (_witness_from_center(model, "ST", p, T0) if S0 != 0
           else _root_witness(model, "ST", p, T0))
    if wit is None:
        return LocalCertificate(place, None, "fp-smooth-lift", notes="margin failure")
    return LocalCertificate(place, True, "fp-smooth-lift", wit, hypotheses=hyp)


def _try_power(curve, place):
    if place.is_real or place.p == 2:
        return None
    p = place.p
    g = curve.genus
    n = g + 1
    if n % p == 0:
        return None
    model = _model_at(curve, place)
    A = model.A
    if A == 0:
        return None
    v = padic_val(A, p)
    if v < 0 or v % n != 0:
        return None
    u = unit_part(A, p)
    prec = 8
    while True:
        root = hensel_nth_root(u, n, p, prec)
        if root is None:
            return None
        t0 = (p ** (v // n) * root) % p ** (prec + v // n)
        wit = _root_witness(model, "st", p, t0)
        if wit is not None:
            hyp = [
                f"v_p(A) = {v} is divisible by g+1 = {n}",
                f"the unit part of A is a (g+1)-th power mod {p}",
            ]
            return LocalCertificate(place, True, "g+1-power", wit, hypotheses=hyp)
        if prec >= 64:
            return None
        prec *= 2


def _try_center_probe(curve, place, centers=(0, 1, -1)):
    """Exact-evaluation probes: the curve-side case analysis at the place
    dividing b reduces to the disc t = 0 carrying a square value, and the
    probe checks exactly that (plus two cheap neighbours)."""
    if place.is_real or place.p == 2:
        return None
    p = place.p
    model = _model_at(curve, place)
    for chart in ("st", "ST"):
        H, _ = cleared_chart_poly(model, chart)
        for t0 in centers:
            V = _eval_int(H, t0)
            if V == 0:
                wit = Witness(kind="exact", chart=chart, prime=p,
                              t_center=Fraction(t0), s_exact=Fraction(0))
                return LocalCertificate(
                    place, True, "case-analysis(disc-center)", wit,
                    hypotheses=[f"chart {chart}: exact root at t = {t0}"],
                )
            w = _int_val(V, p)
            if w % 2 == 0 and legendre(V // p**w, p) == 1:
                wit = _witness_from_center(model, chart, p, t0)
                hyp = [
                    f"chart {chart}, disc center t = {t0}: value has even valuation {w}",
                    "the unit part is a square mod p",
                ]
                return LocalCertificate(place, True, "case-analysis(disc-center)",
                                        wit, hypotheses=hyp)
    return None


def _try_generic(curve, place):
    if place.is_real:
        ok, wit = decide_real_points(curve)
        return LocalCertificate(place, ok, "generic-search", wit,
                                notes="real chart-value analysis")
    p = place.p
    if p == 2:
        return LocalCertificate(place, None, "generic-search",
                                notes="refused: the generic decider does not handle p = 2")
    if p > GENERIC_P_CAP:
        return LocalCertificate(place, None, "generic-search",
                                notes=f"p exceeds the generic scan cap {GENERIC_P_CAP}")
    model = _model_at(curve, place)
    verdict, wit = decide_qp_points(model, p)
    return LocalCertificate(place, verdict, "generic-search", wit,
                            notes="" if verdict is not None else "depth exhausted: inconclusive")


def certify_local_curve(curve, place):
    """Certificate for one place: fast paths in a fixed order, then the
    generic decision procedure."""
    for path in (_try_trivial, _try_ab_square, _try_good_reduction, _try_power,
                 _try_center_probe):
        cert = path(curve, place)
        if cert is not None and cert.solvable is True:
            return cert
    return _try_generic(curve, place)


# --------------------------------------------------------------------------
# whole-curve certification


@dataclass
class BlanketRecord:
    """Symbolic coverage of every place outside the critical set."""

    ok: bool
    statements: list
    sampled_primes: list
    sample_counts: dict

    def to_json(self):
        return {
            "ok": self.ok,
            "statements": list(self.statements),
            "sampled_primes": [str(p) for p in self.sampled_primes],
            "sample_counts": {str(p): n for p, n in self.sample_counts.items()},
        }


@dataclass
class CurveLocalResult:
    certificates: dict  # Place -> LocalCertificate
    blanket: BlanketRecord
    critical: CriticalSet
    solvable_everywhere: bool
    failures: list

    def to_json(self):
        return {
            "certificates": [
                self.certificates[pl].to_json() for pl in self.critical.places
            ],
            "blanket": self.blanket.to_json(),
            "critical": self.critical.to_json(),
            "solvable_everywhere": self.solvable_everywhere,
            "failures": [[str(a), str(b), str(c)] for a, b, c in self.failures],
        }


def _blanket_check(curve, crit, sample_count=20, seed=0):
    """Re-verify the inclusions that make every non-critical place good,
    then spot-check random non-critical primes for nonempty reductions."""
    coeffs = curve.coeffs
    params = coeffs.params
    g = curve.genus
    statements = []
    ok = True

    small_odd = [q for q in sieve_primes_upto(4 * g * g) if q != 2]
    inc = set(small_odd) <= set(params.omega0)
    ok &= inc
    statements.append(f"every odd prime <= 4g^2 = {4 * g * g} lies in omega0: {inc}")
    ident = coeffs.B - coeffs.A == 2 * params.c * coeffs.D**2
    ok &= ident
    statements.append(f"B - A = 2 c D^2 holds exactly: {ident}")
    crit_primes = set(crit.primes())
    base = {2, params.a, params.b, params.c} | set(params.omega0)
    facD, badD = factorize(abs(coeffs.D.numerator) or 1)
    covered = base | set(facD)
    badT = []
    if not coeffs.theta.is_infinity:
        facT, badT = factorize(coeffs.theta.value.denominator)
        covered |= set(facT)
    inc2 = covered <= crit_primes and not badD and not badT
    ok &= inc2
    statements.append(
        "the critical set contains 2, a, b, c, omega0 and every prime dividing "
        f"num(D) and den(theta): {inc2}"
    )
    statements.append(
        "hence every place outside the set is odd, exceeds 4g^2, divides neither "
        "2ab nor A-B = 2cD^2, and the equations are p-integral there: the "
        "good-reduction existence argument applies"
    )

    rng = random.Random(seed)
    pool = [q for q in sieve_primes_upto(100_000)
            if q not in crit_primes and q > 4 * g * g]
    sampled = sorted(rng.sample(pool, min(sample_count, len(pool))))
    counts = {}
    for q in sampled:
        n = count_points_hyperelliptic(curve.f_poly().mod_p(q), g, q)
        counts[q] = n
        d = abs(n - (q + 1))
        if not (n >= 1 and d * d <= 4 * g * g * q):
            ok = False
            statements.append(f"spot-check failed at p = {q}: count {n}")
    return BlanketRecord(ok=ok, statements=statements, sampled_primes=sampled,
                         sample_counts=counts)


def certify_all_local(curve, sample_count=20, seed=0, rho_budget=4_000_000):
    """Certificates at every critical place plus the symbolic blanket.

    Fibers away from theta = 0 need the full-family divisibility
    (g+1) | (4h+2); the theta = 0 fiber is certified for any odd genus.
    """
    coeffs = curve.coeffs
    params = coeffs.params
    theta = coeffs.theta
    if (theta.is_infinity or theta.value != 0) and not params.full_family_ok:
        raise ValueError(
            "fibers away from theta = 0 need g = 1 mod 4 and (g+1) | (4h+2); "
            f"got g = {params.g}, h = {params.h}"
        )
    crit = critical_places(curve, rho_budget)
    certs = {}
    failures = []
    for place in crit.places:
        cert = certify_local_curve(curve, place)
        certs[place] = cert
        if cert.solvable is not True:
            failures.append((place, cert.method, cert.notes))
        elif cert.witness is not None and not place.is_real:
            model = _model_at(curve, place)
            if not cert.witness.verify(model):
                failures.append((place, cert.method, "witness failed re-verification"))
    blanket = _blanket_check(curve, crit, sample_count, seed)
    if not crit.complete:
        failures.append(("factorization", "critical-set",
                         f"unresolved composites: {crit.unresolved}"))
    solvable = not failures and blanket.ok
    return CurveLocalResult(
        certificates=certs,
        blanket=blanket,
        critical=crit,
        solvable_everywhere=solvable,
        failures=failures,
    )


# --------------------------------------------------------------------------
# surface points (delta images and direct sampling)


@dataclass(frozen=True)
class SurfacePoint:
    """A point on a surface model.

    Finite places: coords are residues mod p^prec, jointly satisfying the
    model's quadrics to that precision.  Real place: u, v, y are exact
    rationals and x, z exist over R by the recorded value analysis (the
    invariant evaluation uses only u and v).
    """

    place: Place
    coords: tuple
    prec: int | None = None
    source: str = "sampler"


def _refine_curve_witness(curve_m, wit, p, prec):
    """(t, s) for the witness, as exact rationals whose p-adic distance to
    a true chart point is at least p^-prec (s carries the approximation)."""
    if wit.kind == "exact":
        return Fraction(wit.t_center), Fraction(wit.s_exact)
    H, m = cleared_chart_poly(curve_m, wit.chart)
    if wit.kind == "sqrt":
        V = _eval_int(H, wit.t_center)
        w = _int_val(V, p)
        r = hensel_sqrt(V // p**w, p, prec + w + 2)
        sigma = p ** (w // 2) * r
        return Fraction(wit.t_center), Fraction(sigma) / m
    if wit.kind == "root":
        # Newton-refine the center toward the exact root; s = 0
        t = int(wit.t_center)
        Hp = [i * c for i, c in enumerate(H)][1:]
        target = prec + 2 * (wit.mu or 0) + 4
        modulus = p**target
        for _ in range(200):
            V = _eval_int(H, t)
            if V == 0 or _int_val(V, p) >= target:
                break
            dV = _eval_int(Hp, t)
            mu = _int_val(dV, p)
            step = (V // p**mu) * pow(dV // p**mu, -1, modulus) % modulus
            t = (t - step) % modulus
        return Fraction(t), Fraction(0)
    raise ValueError(wit.kind)


def delta_surface_point(surface_model, curve, place, cert, prec=None):
    """Image of the curve certificate's witness on the given surface model:
    residues mod p^prec at finite places, exact data at the real place."""
    wit = cert.witness
    if wit is None:
        raise ValueError("certificate carries no witness")
    co = curve.coeffs
    g = curve.genus
    if place.is_real:
        t = wit.t_real if wit.kind == "real" else Fraction(wit.t_center)
        y = co.C * t ** ((g + 1) // 2)
        u, v = (t ** (g + 1), Fraction(1)) if wit.chart == "st" else (Fraction(1), t ** (g + 1))
        return SurfacePoint(place=place, coords=(Fraction(0), y, None, u, v),
                            source="delta")
    p = place.p
    if prec is None:
        prec = max(6, 2 * max(0, int(padic_val(surface_model.a, p))) + 4)
    curve_m, curve_change = integral_model(curve, p)
    shift = sum(
        abs(int(padic_val(fr, p)))
        for fr in (curve_change.s_mult, curve_change.t_mult, *surface_model.change.mults)
    ) * (2 * g + 2)
    for attempt in (1, 2, 3):
        work = prec + shift * attempt + 8 * attempt
        t_m, s_m = _refine_curve_witness(curve_m, wit, p, work)
        t = curve_change.t_mult * t_m
        s = curve_change.s_mult * s_m
        coords = delta_coords(wit.chart, s, t, co.C, g)
        mults = surface_model.change.mults
        model_coords = tuple(c / m for c, m in zip(coords, mults))
        nonzero_vals = [padic_val(c, p) for c in model_coords if c != 0]
        m0 = min(nonzero_vals)
        scaled = tuple(c * Fraction(p) ** (-m0) for c in model_coords)
        pk = p**prec
        try:
            residues = tuple(
                int(c.numerator * pow(c.denominator, -1, pk) % pk) for c in scaled
            )
        except ValueError:
            continue
        pt = SurfacePoint(place=place, coords=residues, prec=prec, source="delta")
        q1, q2 = _residue_quadrics(surface_model, pt, p, prec)
        if q1 % pk == 0 and q2 % pk == 0:
            return pt
    raise ArithmeticError(
        f"delta image failed to verify against the surface equations at {place}"
    )


def _residue_quadrics(surface_model, pt, p, prec):
    pk = p**prec

    def red(x):
        return x.numerator * pow(x.denominator, -1, pk) % pk

    a, b, A, B, C = (red(getattr(surface_model, k)) for k in "abABC")
    x, y, z, u, v = [c % pk for c in pt.coords]
    q1 = (x * x - a * z * z + b * (u - A * v) * (u - B * v)) % pk
    q2 = (x * x - a * y * y + a * C * C * u * v) % pk
    return q1, q2


class SamplerBudgetExceeded(RuntimeError):
    pass


def _exact_padic_sqrt(x, p, prec):
    """Residue r mod p^prec with r^2 = x (x an exact rational), or None
    when x is not a square in Q_p or is too deep to represent."""
    x = Fraction(x)
    if x == 0:
        return 0
    v = padic_val(x, p)
    if v % 2 != 0 or v < 0 or v >= prec - 1:
        return None
    u = unit_part(x, p)
    if not is_local_square(u, Place.finite(p)):
        return None
    r = hensel_sqrt(u, p, prec - v)
    return p ** (v // 2) * r % p**prec


def sample_surface_points(surface_model, place, n, seed=0, budget=SAMPLER_BUDGET,
                          prec=None):
    """n independent local points of the surface model at the place.

    Finite places: random residue points built from exact square roots of
    exact rational values, so the quadrics hold identically.  At places
    with v_p(a) = 1 the sampler uses the structured shape that any local
    point must have there: x = p x1, v a unit (taken 1), u = A + p u1.
    Real place: (u, v, y) rational with y large enough that both quadrics
    are solvable in x and z over R.
    """
    rng = random.Random(seed)
    a, b, A, B, C = (surface_model.a, surface_model.b, surface_model.A,
                     surface_model.B, surface_model.C)
    out = []
    if place.is_real:
        if a <= 0:
            raise ValueError("real sampler requires a > 0")
        while len(out) < n:
            u = Fraction(rng.randrange(-50, 51), rng.randrange(1, 9))
            v = Fraction(rng.randrange(-50, 51), rng.randrange(1, 9))
            if u == 0 or v == 0:
                continue
            bound = abs(C * C * u * v) + abs(b * (u - A * v) * (u - B * v) / a) + 1
            y = bound + rng.randrange(1, 10)
            x2 = a * (y * y - C * C * u * v)
            z2 = (x2 + b * (u - A * v) * (u - B * v)) / a
            if x2 < 0 or z2 < 0:
                continue
            out.append(SurfacePoint(place=place, coords=(None, y, None, u, v),
                                    source="sampler"))
        return out
    p = place.p
    va = max(0, int(padic_val(a, p)))
    if prec is None:
        prec = max(6, 2 * va + 4)
    pk = p**prec
    trials = 0
    while len(out) < n:
        trials += 1
        if trials > budget:
            raise SamplerBudgetExceeded(
                f"direct sampler exceeded {budget} trials at {place} "
                f"with {len(out)} points found"
            )
        if va == 0:
            u = rng.randrange(1, pk)
            v = rng.randrange(1, pk)
            y = rng.randrange(pk)
            if u % p == 0 or v % p == 0:
                continue
            x2 = a * (Fraction(y) ** 2 - C * C * u * v)
            x = _exact_padic_sqrt(x2, p, prec)
            if x is None:
                continue
            z2 = Fraction(y) ** 2 - C * C * u * v + b * (u - A * v) * (u - B * v) / a
            z = _exact_padic_sqrt(z2, p, prec)
            if z is None:
                continue
            coords = (x % pk, y % pk, z % pk, u % pk, v % pk)
        elif va == 1:
            u1 = rng.randrange(1, pk)
            x1 = rng.randrange(pk)
            u = A + p * u1
            phi = Fraction(p * u1)
            psi = u - B
            x2 = Fraction(p) ** 2 * x1 * x1
            z2 = (x2 + b * phi * psi) / a
            z = _exact_padic_sqrt(z2, p, prec)
            if z is None:
                continue
            y2 = (x2 + a * C * C * u) / a
            y = _exact_padic_sqrt(y2, p, prec)
            if y is None:
                continue
            u_res = int(Fraction(u).numerator * pow(Fraction(u).denominator, -1, pk) % pk)
            coords = ((p * x1) % pk, y % pk, z % pk, u_res, 1)
        else:
            raise ValueError(f"sampler does not handle v_p(a) = {va}")
        pt = SurfacePoint(place=place, coords=coords, prec=prec, source="sampler")
        q1, q2 = _residue_quadrics(surface_model, pt, p, prec)
        if q1 % p ** (prec - 1) or q2 % p ** (prec - 1):
            continue
        out.append(pt)
    return out


def surface_local_point(surface_model, curve, place, cert,
                        sample_budget=SAMPLER_BUDGET, seed=0):
    """A local surface point at the place: the delta image of the curve
    witness, plus one direct sample as independent corroboration when the
    sampler succeeds within budget (otherwise the delta image stands alone)."""
    primary = delta_surface_point(surface_model, curve, place, cert)
    try:
        extra = sample_surface_points(surface_model, place, 1,
                                      seed=seed, budget=sample_budget)
    except (SamplerBudgetExceeded, ValueError):
        extra = []
    return primary, extra
