"""Local solvability: one certificate per critical place from the first
local lemma that applies there (ab a local square, good reduction, a
(g+1)-th power root of A, a square value at a disc center), a named
refusal where none applies, and the finite critical set outside which a
uniform good-reduction argument applies.  No general decision procedure
runs here: a refused place fails the fiber.

Witness discipline: every solvable verdict carries a witness, and
certify_all_local re-verifies each one and fails one whose prime is not
its place's (None at the real place).  At a finite place it re-verifies
against the chart equation of the p-integral model at a stated precision
with a stated Hensel margin, so a consumer can confirm the existence of a
genuine Q_p point without rerunning any search; at the real place it is a
rational t with a nonnegative chart value.
"""

import bisect
import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import (
    Place,
    ResidueRooter,
    count_points_hyperelliptic,
    factorize,
    frac_mod,
    hensel_nth_root,
    hilbert_symbol_char,
    is_local_square,
    legendre,
    padic_val,
    sieve_primes_upto,
    square_class,
    unit_character,
    unit_part,
)
from .family import delta_coords, integral_model
from .params import omega0_for_genus

# good-reduction places are certified by an F_p point count only below this
# cap; larger primes get scan-and-lift certificates instead
COUNT_CAP = 200_000
# residues tried when scanning F_p for a liftable point
SCAN_CAP = 1_000_000
# the disc centers the exact-evaluation probe tries on each chart
PROBE_CENTERS = (0, 1, -1)
# trials the direct sampler makes per call before SamplerBudgetExceeded
SAMPLER_BUDGET = 10_000


# --------------------------------------------------------------------------
# witnesses (always relative to the p-integral model of the curve)


@dataclass(frozen=True)
class Witness:
    """A re-verifiable local point on one chart of a curve model.

    H = m^2 f is the model's cleared chart polynomial, read through
    HyperellipticCurve.chart_values.  kinds:
      sqrt  - sigma^2 = H(t_center) mod p^precision, val = v_p(H(t_center));
              the margin precision > val (+2 at p = 2) yields a true Q_p
              point.
      root  - v_p(H(t_center)) = val > 2 mu = 2 v_p(H'(t_center)): the
              center converges to an exact root of H, giving s = 0.
      exact - an exact rational point: H(t_center) = (m s_exact)^2.
      real  - a real point: H(t_real) >= 0.
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
        """Re-check against the model's H; True iff the data certifies a
        genuine local point."""
        if self.kind == "real":
            return curve_model.chart_values(self.chart, self.t_real)[0] >= 0
        if self.kind == "exact":
            V, _ = curve_model.chart_values(self.chart, self.t_center)
            return V == (curve_model.cleared_st[1] * self.s_exact) ** 2
        p = self.prime
        if self.kind == "root":
            wit = _root_witness(curve_model, self.chart, p, self.t_center)
            return wit is not None and (wit.val, wit.mu) == (self.val, self.mu)
        V, _ = curve_model.chart_values(self.chart, self.t_center)
        if self.kind == "sqrt":
            pk = p**self.precision
            if (self.sigma * self.sigma - V) % pk != 0:
                return False
            if V == 0:
                return False
            w = padic_val(V, p)
            need = w + 2 if p == 2 else w
            return w == self.val and self.precision > need
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


def _exact_padic_sqrt(x, p, prec):
    """Residue r mod p^prec with r^2 = x (x an exact rational), read by a
    ResidueRooter off x mod p^(prec+2); None when x is not a square in
    Q_p, is not p-integral, or is 0 mod p^(prec-1)."""
    if padic_val(x, p) < 0:
        return None
    rooter = ResidueRooter(p, prec)
    token = rooter.test(frac_mod(x, p ** (prec + 2)))
    return None if token is None else rooter.lift(token)


def _witness_from_center(curve_model, chart, p, t_center):
    """A sqrt/exact witness at an integer center whose exact chart value is
    a p-adic square (or zero, read by _root_witness)."""
    V, _ = curve_model.chart_values(chart, t_center)
    if V == 0:
        return _root_witness(curve_model, chart, p, t_center)
    w = padic_val(V, p)
    prec = max(3, w + 2) if p != 2 else max(6, w + 4)
    sigma = _exact_padic_sqrt(V, p, prec)
    if sigma is None:
        raise ArithmeticError("center value is not a p-adic square; search bug")
    return Witness(kind="sqrt", chart=chart, prime=p, t_center=t_center,
                   sigma=sigma, precision=prec, val=w)


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


def critical_places(curve):
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
        fac, bad = factorize(n)
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
    # the model the lemmas ran on (the p-integral model at a finite place),
    # which the witness is relative to; not part of the JSON
    model: object = field(default=None, repr=False, compare=False)

    def to_json(self):
        return {
            "place": str(self.place),
            "solvable": self.solvable,
            "method": self.method,
            "witness": self.witness.to_json() if self.witness else None,
            "notes": self.notes,
            "hypotheses": list(self.hypotheses),
        }


def _try_ab_square(model, place):
    ab = model.a * model.b
    if ab == 0 or not is_local_square(ab, place):
        return None
    hyp = [f"ab is a square in the completion at {place}"]
    if place.is_real:
        w = Witness(kind="real", chart="ST", prime=None, t_real=Fraction(0))
        return LocalCertificate(place, True, "ab-square", w, hypotheses=hyp)
    p = place.p
    wit = _witness_from_center(model, "ST", p, 0)
    return LocalCertificate(place, True, "ab-square", wit, hypotheses=hyp)


def _scan_fp_point(curve_m, p, charts):
    """First t whose reduction is liftable on the charts, in their order:
    a nonzero square value mod p, or a simple root of the reduction."""
    for chart in charts:
        for t in range(min(p, SCAN_CAP)):
            V, dV = curve_m.chart_values(chart, t)
            if V % p == 0:
                if dV % p != 0:
                    return chart, t, "root"
                continue
            if legendre(V, p) == 1:
                return chart, t, "sqrt"
    return None


def _root_witness(curve_m, chart, p, t_center):
    """The root-margin rule, shared with Witness.verify: an exact witness
    when H(t_center) = 0, a root witness when v_p(H(t_center)) >
    2 v_p(H'(t_center)), else None."""
    V, dV = curve_m.chart_values(chart, t_center)
    if V == 0:
        return Witness(kind="exact", chart=chart, prime=p, t_center=Fraction(t_center),
                       s_exact=Fraction(0))
    if dV == 0:
        return None
    w, mu = padic_val(V, p), padic_val(dV, p)
    if w <= 2 * mu:
        return None
    return Witness(kind="root", chart=chart, prime=p, t_center=t_center, val=w, mu=mu)


def _in_hasse_weil_window(n, g, p):
    """n >= 1 and |n - (p + 1)| <= 2g sqrt(p), tested in integers: a
    point count no smooth genus-g curve over F_p can miss."""
    d = n - (p + 1)
    return n >= 1 and d * d <= 4 * g * g * p


def _try_good_reduction(model, place):
    """Good reduction at an odd p > 4g^2 (so p does not divide g + 1) prime
    to a, b and A - B.

    The point count here and in _blanket_check reads the model's cleared
    triple h = m^2 (c0, c_n, c_2n) (cleared_st).  p does not divide m at a
    counted prime: m's primes are a and the primes of den(theta), which
    are critical, or, on the integral model at p, prime to p, since its
    triple is p-integral there.  So m^2 is a unit square mod p, s -> m s
    matches the points of s^2 = f and s^2 = m^2 f, and the count is that
    of the triple itself."""
    p = place.p
    g = model.genus
    if p <= 4 * g * g:
        return None
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
    method, charts = "fp-smooth-lift", ("st", "ST")
    if vA == 0 and vB == 0:
        # separable reduction: Hasse-Weil guarantees a smooth point
        if p <= COUNT_CAP:
            n = count_points_hyperelliptic(model.cleared_st[0], g, p)
            if not _in_hasse_weil_window(n, g, p):
                raise ArithmeticError(f"count {n} escaped the Hasse-Weil window at {place}")
            hyp.append(f"|X(F_p)| = {n}, inside the Hasse-Weil window")
            method = "good-reduction-hw"
        else:
            hyp.append("p too large to count; existence via the Hasse-Weil bound")
    else:
        # p | AB but p does not divide A - B: the reversed chart reduces to
        # the one-term model a S^2 = b (1 - r T^(g+1)) with r the surviving
        # coefficient, and its point is sought on that chart alone
        charts = ("ST",)
        r = frac_mod(B if vA > 0 else A, p)
        hyp.append(f"reduction is a S^2 = b (1 - r T^(g+1)) with r = {r} mod p")
    found = _scan_fp_point(model, p, charts)
    if found is None:
        raise ArithmeticError(f"no liftable residue inside the scan cap at {place}")
    chart, t0, kind = found
    wit = (_witness_from_center(model, chart, p, t0) if kind == "sqrt"
           else _root_witness(model, chart, p, t0))
    if wit is None:
        raise ArithmeticError(f"margin failure at the root t = {t0} at {place}")
    return LocalCertificate(place, True, method, wit, hypotheses=hyp)


def _try_power(model, place):
    p = place.p
    n = model.genus + 1
    if n % p == 0:
        return None
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


def _try_center_probe(model, place):
    """Exact-evaluation probes: the curve-side case analysis at the place
    dividing b reduces to the disc t = 0 carrying a square value, and the
    probe checks exactly that (plus two cheap neighbours)."""
    p = place.p
    for chart in ("st", "ST"):
        for t0 in PROBE_CENTERS:
            V, _ = model.chart_values(chart, t0)
            if V == 0 or is_local_square(V, place):
                hyp = ([f"chart {chart}: exact root at t = {t0}"] if V == 0 else
                       [f"chart {chart}, disc center t = {t0}: "
                        f"value has even valuation {padic_val(V, p)}",
                        "the unit part is a square mod p"])
                return LocalCertificate(place, True, "case-analysis(disc-center)",
                                        _witness_from_center(model, chart, p, t0),
                                        hypotheses=hyp)
    return None


def certify_local_curve(curve, place):
    """Certificate for one place from the first lemma, in a fixed order,
    whose hypotheses hold there: ab-square, good reduction
    (good-reduction-hw or fp-smooth-lift), g+1-power, then the disc-center
    case analysis; the real place and 2 try ab-square alone, and the other
    lemmas assume an odd prime.  Where none applies the certificate is a
    refusal: solvable None, method "refused", the place named in the
    notes."""
    model = curve if place.is_real else integral_model(curve, place.p)
    paths = (_try_ab_square,)
    if not (place.is_real or place.p == 2):
        paths += (_try_good_reduction, _try_power, _try_center_probe)
    for path in paths:
        cert = path(model, place)
        if cert is not None:
            cert.model = model
            return cert
    return LocalCertificate(place, None, "refused",
                            notes=f"refused: no local lemma applies at {place}", model=model)


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


def _cofactor(n, primes):
    """|n| (1 for n = 0) with every prime of primes divided out."""
    n = abs(n) or 1
    for p in primes:
        while n % p == 0:
            n //= p
    return n


@functools.cache
def _spot_check_primes():
    """The primes below 10^5 that the blanket spot-check samples from,
    sieved once per process."""
    return tuple(sieve_primes_upto(100_000))


def _blanket_check(curve, crit):
    """Re-verify the inclusions that make every non-critical place good,
    then spot-check 20 random non-critical primes for nonempty reductions;
    a count outside the Hasse-Weil window raises, as in
    _try_good_reduction.

    num(D) and den(theta) are covered when dividing the critical primes
    out of each leaves 1; neither is factored a second time."""
    coeffs = curve.coeffs
    params = coeffs.params
    g = curve.genus
    statements = []
    ok = True

    inc = set(omega0_for_genus(g)) <= set(params.omega0)
    ok &= inc
    statements.append(f"every odd prime <= 4g^2 = {4 * g * g} lies in omega0: {inc}")
    ident = coeffs.B - coeffs.A == 2 * params.c * coeffs.D**2
    ok &= ident
    statements.append(f"B - A = 2 c D^2 holds exactly: {ident}")
    crit_primes = set(crit.primes())
    base = {2, params.a, params.b, params.c} | set(params.omega0)
    numbers = [coeffs.D.numerator]
    if not coeffs.theta.is_infinity:
        numbers.append(coeffs.theta.value.denominator)
    inc2 = base <= crit_primes and all(_cofactor(n, crit_primes) == 1 for n in numbers)
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

    # the spot-check primes above 4g^2 that are not critical, in order
    primes = _spot_check_primes()
    pool = list(primes[bisect.bisect_right(primes, 4 * g * g):])
    for q in crit_primes:
        i = bisect.bisect_left(pool, q)
        if i < len(pool) and pool[i] == q:
            del pool[i]
    rng = random.Random(0)
    sampled = sorted(rng.sample(pool, min(20, len(pool))))
    counts = {}
    for q in sampled:
        n = count_points_hyperelliptic(curve.cleared_st[0], g, q)
        counts[q] = n
        if not _in_hasse_weil_window(n, g, q):
            raise ArithmeticError(f"spot-check count {n} escaped the Hasse-Weil window at {q}")
    return BlanketRecord(ok=ok, statements=statements, sampled_primes=sampled,
                         sample_counts=counts)


def certify_all_local(curve):
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
    crit = critical_places(curve)
    certs = {}
    failures = []
    for place in crit.places:
        cert = certify_local_curve(curve, place)
        certs[place] = cert
        if cert.solvable is not True:
            failures.append((place, cert.method, cert.notes))
        elif cert.witness.prime != place.p or not cert.witness.verify(cert.model):
            failures.append((place, cert.method, "witness failed re-verification"))
    blanket = _blanket_check(curve, crit)
    if not crit.complete:
        failures.append(("factorization", "critical-set",
                         f"unresolved composites: {crit.unresolved}"))
    failures += [("blanket", "inclusion", s) for s in blanket.statements if s.endswith(": False")]
    solvable = not failures
    return CurveLocalResult(
        certificates=certs,
        blanket=blanket,
        critical=crit,
        solvable_everywhere=solvable,
        failures=failures,
    )


# --------------------------------------------------------------------------
# surface points (delta images and direct sampling)


def _refine_curve_witness(curve_m, wit, p, prec):
    """(t, s) for the witness, as exact rationals whose p-adic distance to
    a true chart point is at least p^-prec (s carries the approximation)."""
    if wit.kind == "exact":
        return Fraction(wit.t_center), Fraction(wit.s_exact)
    if wit.kind == "sqrt":
        V, _ = curve_m.chart_values(wit.chart, wit.t_center)
        sigma = _exact_padic_sqrt(V, p, prec + 2 * padic_val(V, p) + 2)
        if sigma is None:
            raise ArithmeticError(f"sqrt witness value is not a square in Q_{p}")
        return Fraction(wit.t_center), Fraction(sigma, curve_m.cleared_st[1])
    if wit.kind == "root":
        # Newton-refine the center toward the exact root; s = 0
        t = int(wit.t_center)
        target = prec + 2 * (wit.mu or 0) + 4
        modulus = p**target
        for _ in range(200):
            V, dV = curve_m.chart_values(wit.chart, t)
            if V == 0 or padic_val(V, p) >= target:
                break
            mu = padic_val(dV, p)
            step = (V // p**mu) * pow(dV // p**mu, -1, modulus) % modulus
            t = (t - step) % modulus
        return Fraction(t), Fraction(0)
    raise ValueError(wit.kind)


def slot_terms(a, b, A, B, u, v):
    """The numerators (b(u-Av), Bv-u) and denominators (v, -au) of the
    quaternion class's four slot representations num/den, listed
    denominator by denominator: b(u-Av)/v, -(u-Bv)/v, b(u-Av)/(-au),
    -(u-Bv)/(-au).  Any two differ by a norm from Q(sqrt(a)) times a
    square, so their symbols agree wherever both are defined and nonzero.
    Works over any commutative ring."""
    return (b * (u - A * v), B * v - u), (v, -a * u)


def _slot_margin(p):
    """The slot margin, 3 at p = 2 and 1 otherwise: ResidueContext.symbol
    reads a term's unit part mod p^(margin+1)."""
    return 3 if p == 2 else 1


def _working_precision(surface_model, p):
    """max(6, 2 v_p(a) + 4, v_p(b) + v_p(B - A) + m + 2), m the slot
    margin; see sample_surface_points."""
    return max(6, 2 * padic_val(surface_model.a, p) + 4,
               padic_val(surface_model.b, p)
               + padic_val(surface_model.B - surface_model.A, p) + _slot_margin(p) + 2)


@dataclass(frozen=True)
class ResidueContext:
    """A surface model's residue data at one finite place, built once per
    place and read by the delta image's quadric check, the sampler and the
    invariant evaluation at every point.  A local point is a tuple
    (x, y, z, u, v) of residues mod pk, and the evaluation reads the
    symbol (a, t)_p of one slot term t at a time through symbol.

    prec is the working precision (_working_precision); pk = p^prec and
    pk1 = p^(prec-1) are read off rooter, the place's arith.ResidueRooter;
    coeffs are a, b, A, B, C mod m = p^(prec+2); a_val = v_p(a) and a_char
    the character of a's unit part (arith.unit_character), the fixed first
    argument of every symbol; a_inv the inverse of a / p^max(0, a_val) mod
    m; deepest = prec - 1 - margin, the largest term valuation that symbol
    reads (_slot_margin).
    """

    p: int
    prec: int
    pk: int
    pk1: int
    m: int
    rooter: ResidueRooter
    coeffs: tuple
    a_val: int
    a_char: int
    a_inv: int
    deepest: int

    @classmethod
    def of(cls, surface_model, p):
        prec = _working_precision(surface_model, p)
        rooter = ResidueRooter(p, prec)
        m = p ** (prec + 2)
        a = surface_model.a
        a_val, a_unit = square_class(a, p)
        return cls(
            p=p, prec=prec, pk=rooter.pk, pk1=rooter.pk1, m=m, rooter=rooter,
            coeffs=tuple(frac_mod(getattr(surface_model, k), m) for k in "abABC"),
            a_val=a_val, a_char=unit_character(a_unit, p),
            a_inv=pow(frac_mod(a / p ** max(0, a_val), m), -1, m),
            deepest=prec - 1 - _slot_margin(p),
        )

    def quadrics(self, coords):
        """The two quadrics at residue coords, mod p^prec."""
        a, b, A, B, C = self.coeffs
        x, y, z, u, v = coords
        pk = self.pk
        q1 = (x * x - a * z * z + b * (u - A * v) * (u - B * v)) % pk
        q2 = (x * x - a * y * y + a * C * C * u * v) % pk
        return q1, q2

    def symbol(self, t):
        """The Hilbert symbol (a, t)_p of a residue term t mod p^prec, a
        numerator or denominator of slot_terms: hilbert_symbol_char of t's
        valuation w and its unit part, known mod p^(prec-w) and so mod
        p^(margin+1) at least.  None where t is indeterminate: zero mod
        p^prec, or of valuation above deepest."""
        p = self.p
        t %= self.pk
        if t == 0:
            return None
        w = 0
        while t % p == 0:
            t //= p
            w += 1
        if w > self.deepest:
            return None
        return hilbert_symbol_char(self.a_val, self.a_char, w, t, p)


def delta_surface_point(surface_model, place, cert, ctx):
    """Image of the curve certificate's witness on the surface model, as a
    tuple (x, y, z, u, v): residues mod ctx.pk at finite places, exact data
    at the real place.  Raises when the image fails the model's quadrics.
    cert is certify_local_curve's certificate at the place; the image is
    read on the pair of its curve model and the surface model, through
    delta_coords with mu = lambda_curve / lambda_surface, a positive
    integer.  ctx is the model's ResidueContext at p (None at the real
    place).

    The image's coordinates are polynomials in the witness's (t, s) with
    p-integral coefficients, and v = mu^2 on chart st, u = 1 on ST, so
    their common p-power is at most p^(2 v_p(mu)): a witness refined to
    ctx.prec + 2 v_p(mu) plus a margin fixes the image mod ctx.pk."""
    wit = cert.witness
    if wit is None:
        raise ValueError("certificate carries no witness")
    C, g = surface_model.C, surface_model.genus
    if place.is_real:  # ab-square, the real place's one method, gives a real witness
        return delta_coords(wit.chart, None, wit.t_real, C, g, 1)
    p = place.p
    mu = cert.model.lam / surface_model.lam
    t, s = _refine_curve_witness(cert.model, wit, p, ctx.prec + 2 * padic_val(mu, p) + 8)
    coords = delta_coords(wit.chart, s, t, C, g, mu)
    m0 = min(padic_val(c, p) for c in coords if c != 0)
    q, pk, residues = p ** abs(m0), ctx.pk, []
    for c in coords:  # c p^(-m0) = n/d, p-integral once their gcd is cancelled
        n, d = (c.numerator * q, c.denominator) if m0 < 0 else (c.numerator, c.denominator * q)
        e = math.gcd(n, d)
        residues.append(n // e * pow(d // e, -1, pk) % pk)
    if ctx.quadrics(residues) != (0, 0):
        raise ArithmeticError(
            f"delta image failed to verify against the surface equations at {place}"
        )
    return tuple(residues)


def _randbelow(getrandbits, n):
    """random.Random.randrange(n) for getrandbits the generator's bound
    getrandbits: CPython's rejection draw of n.bit_length() bits, the same
    integers without randrange's argument checks."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class SamplerBudgetExceeded(RuntimeError):
    pass


def sample_surface_points(surface_model, place, n, ctx, seed=0):
    """n independent local points of the surface model at the place, each
    a tuple (x, y, z, u, v).

    Finite places: random residue points whose squares are formed as
    residues mod p^(prec+2) of exact p-integral values and rooted by the
    context's arith.ResidueRooter, so the quadrics hold to the working
    precision; a square that is 0 mod p^(prec-1), an exact zero included,
    is refused and ends the trial.  Where v_p(a) = 0 and p does not
    divide C, a and C are units, so on the chart v = 1 the second quadric
    x^2 - a y^2 + a C^2 u v = 0 is linear in u:
    the sampler draws x and y, solves u = (a y^2 - x^2) (a C^2)^-1 mod
    p^(prec+2) with the inverse taken once per place, keeps u only when it
    is a unit, and roots z^2 = (x^2 + b (u - A)(u - B)) / a alone.  Where
    p divides C it draws units u, v and any y and roots x^2 and z^2; at
    places with v_p(a) = 1 it uses the structured shape that any local
    point must have there: x = p x1, v a unit (taken 1), u = A + p u1, and
    roots z^2 and y^2.  Both squares of such a trial are tested (valuation
    parity, then one exponentiation at odd p or the unit mod 8 at p = 2)
    before either is lifted, so a rejected trial lifts nothing.
    Real place: Fractions u = un/ud, v = vn/vd (0 < |un|, |vn| <= 50,
    1 <= ud, vd <= 8) and y = |C^2 u v| + |(b/a) phi psi| + 1 + r
    (1 <= r <= 9), computed on integer numerators over one common
    denominator.  With a > 0 and y >= 2 + |C^2 u v| + |(b/a) phi psi|,
    both w = y^2 - C^2 u v = x^2 / a and w + (b/a) phi psi = z^2 are at
    least 4, so x and z exist over R; a point that breaks this is a
    sampler bug and raises.  At every place the draws are
    random.Random(seed)'s randrange integers, made by _randbelow.  ctx is
    the model's ResidueContext at p (None at the real place).

    Residues are taken mod p^prec, prec = _working_precision(model, p),
    which determines the square class of b phi / v or of -psi / v (phi =
    u - Av, psi = u - Bv) at every returned point: ResidueContext.symbol
    needs each term nonzero mod p^prec, of valuation at most
    prec - 1 - m.  The denominator v is a unit (1, or drawn as one)
    and prec >= 6 > m.  Mod p^prec, phi - psi = (B - A) v has valuation
    v_p(B - A) < prec (A, B, b are p-integral on the model), so phi and
    psi cannot both have larger valuation; hence min(v_p(psi), v_p(b) +
    v_p(phi)) <= v_p(b) + v_p(B - A) <= prec - m - 2.
    """
    rng = random.Random(seed)
    a, b, A, B, C = (surface_model.a, surface_model.b, surface_model.A,
                     surface_model.B, surface_model.C)
    out = []
    if place.is_real:
        if a <= 0:
            raise ValueError("real sampler requires a > 0")
        bits = rng.getrandbits
        ba = b / a
        An, Ad, Bn, Bd = A.numerator, A.denominator, B.numerator, B.denominator
        # u = un/ud, v = vn/vd, phi = phi_n / (ud vd Ad), psi = psi_n / (ud vd Bd):
        # over den = K (ud vd)^2, C^2 u v = P / den and (b/a) phi psi = Q / den
        k, Cd2 = ba.denominator * Ad * Bd, C.denominator ** 2
        K, kP, kQ = Cd2 * k, C.numerator ** 2 * k, ba.numerator * Cd2
        while len(out) < n:
            un, ud = _randbelow(bits, 101) - 50, 1 + _randbelow(bits, 8)
            vn, vd = _randbelow(bits, 101) - 50, 1 + _randbelow(bits, 8)
            if un == 0 or vn == 0:
                continue
            s = ud * vd
            P = kP * un * vn * s
            Q = kQ * (un * vd * Ad - An * vn * ud) * (un * vd * Bd - Bn * vn * ud)
            den = K * s * s
            yn = abs(P) + abs(Q) + (2 + _randbelow(bits, 9)) * den
            # x^2 = a w and, with a > 0, z^2 = (x^2 + b phi psi) / a = w + (b/a) phi psi
            w = yn * yn - P * den  # w den^2
            if w < 0 or w + Q * den < 0:
                raise ArithmeticError(f"real sample y = {Fraction(yn, den)} leaves w or "
                                      f"w + (b/a) phi psi negative; sampler bug")
            out.append((None, Fraction(yn, den), None, Fraction(un, ud), Fraction(vn, vd)))
        return out
    p = place.p
    va = max(0, ctx.a_val)
    prec, pk, pk1, m, inv = ctx.prec, ctx.pk, ctx.pk1, ctx.m, ctx.a_inv
    test, lift = ctx.rooter.test, ctx.rooter.lift
    bits = rng.getrandbits
    # every value below is p-integral and is drawn and tested as a residue
    # mod m = p^(prec+2); a / p^va is a unit with inverse inv
    a_, b_, A_, B_, C_ = ctx.coeffs
    c2 = C_ * C_ % m
    solve_u = va == 0 and C_ % p != 0
    if solve_u:
        ac2_inv = pow(a_ * c2, -1, m)
    trials = 0
    while len(out) < n:
        trials += 1
        if trials > SAMPLER_BUDGET:
            raise SamplerBudgetExceeded(
                f"direct sampler exceeded {SAMPLER_BUDGET} trials at {place} "
                f"with {len(out)} points found"
            )
        if solve_u:
            x = _randbelow(bits, pk)
            y = _randbelow(bits, pk)
            # v = 1: u from x^2 - a y^2 + a C^2 u = 0, z^2 = (x^2 + b phi psi) / a
            x2 = x * x
            u = (a_ * y * y - x2) * ac2_inv % m
            if u % p == 0:
                continue
            tz = test((x2 + b_ * (u - A_) * (u - B_)) * inv % m)
            if tz is None:
                continue
            coords = (x, y, lift(tz), u % pk, 1)
        elif va == 0:
            u = 1 + _randbelow(bits, pk - 1)
            v = 1 + _randbelow(bits, pk - 1)
            y = _randbelow(bits, pk)
            if u % p == 0 or v % p == 0:
                continue
            w = (y * y - c2 * u * v) % m  # x^2 / a
            tx = test(a_ * w % m)
            if tx is None:
                continue
            tz = test((w + b_ * (u - A_ * v) * (u - B_ * v) * inv) % m)  # z^2
            if tz is None:
                continue
            coords = (lift(tx), y, lift(tz), u, v)
        elif va == 1:
            u1 = 1 + _randbelow(bits, pk - 1)
            x1 = _randbelow(bits, pk)
            # x = p x1, u = A + p u1, v = 1: z^2 = (x^2 + b p u1 psi) / a and
            # y^2 = (x^2 + a C^2 u) / a, with the p of a cancelled
            u = (A_ + p * u1) % m
            px2 = p * x1 * x1
            tz = test((px2 + b_ * u1 * (u - B_)) * inv % m)  # z^2
            if tz is None:
                continue
            ty = test((px2 * inv + c2 * u) % m)  # y^2
            if ty is None:
                continue
            coords = (p * x1 % pk, lift(ty), lift(tz), u % pk, 1)
        else:
            raise ValueError(f"sampler does not handle v_p(a) = {va}")
        q1, q2 = ctx.quadrics(coords)
        if q1 % pk1 or q2 % pk1:
            raise ArithmeticError(f"sampled point {coords} misses the quadrics "
                                  f"mod p^{prec - 1} at {place}; sampler bug")
        out.append(coords)
    return out
