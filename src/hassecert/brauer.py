"""Evaluation and certification of the local invariants of the quaternion
class attached to each surface fiber, and assembly of the obstruction
certificate that rules out rational points.

The class is (a, b(u - Av)/v), with three further equivalent slot
expressions obtained from the defining quadrics; only the square class of
the slot matters, and by bimultiplicativity each representation's Hilbert
symbol is the product of its numerator's and denominator's.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import (
    Place,
    frac_mod,
    is_local_square,
    legendre,
    padic_val,
    unit_part,
)
from .family import admissible_model
from .local import ResidueContext, delta_surface_point, sample_surface_points, slot_terms

HALF = Fraction(1, 2)
ZERO = Fraction(0)
REFUSED = "refused"


class PrecisionError(ArithmeticError):
    """Every slot representation is indeterminate at the context's precision."""


def evaluate_invariant_at_point(surface_model, point, place, ctx):
    """Invariant in {0, 1/2} of the class at one local point, a tuple
    (x, y, z, u, v) of which only u and v are read.

    The Hilbert symbol is bimultiplicative, so each slot representation
    num/den of slot_terms has the symbol (a, num)_v (a, den)_v: one symbol
    is read per term, None where the term is indeterminate.  At a finite
    place the coordinates are residues of ctx, the model's ResidueContext,
    and four ctx.symbol calls read the four terms.  At the real place
    (ctx None) a term's symbol is -1 exactly when a < 0 and the term is
    negative, so the terms are read on integers: slot_terms of u and v
    over their common denominator and of A and B over theirs, each term a
    positive multiple of the rational one.  The products over the
    determinate (num, den) pairs must agree, and their one value
    converts: +1 -> 0, -1 -> 1/2.
    """
    u, v = point[3], point[4]
    if ctx is None:
        m = surface_model
        ud, vd, Ad, Bd = u.denominator, v.denominator, m.A.denominator, m.B.denominator
        terms = slot_terms(m.a.numerator, m.b.numerator, m.A.numerator * Bd,
                           m.B.numerator * Ad, u.numerator * vd * Ad * Bd, v.numerator * ud)
        neg = m.a.numerator < 0
        s1, s2, s3, s4 = [None if t == 0 else -1 if neg and t < 0 else 1
                          for ts in terms for t in ts]
    else:
        (n1, n2), (d1, d2) = slot_terms(*ctx.coeffs[:4], u, v)
        symbol = ctx.symbol
        s1, s2, s3, s4 = symbol(n1), symbol(n2), symbol(d1), symbol(d2)
    symbols = set()
    for n in (s1, s2):
        if n is not None:
            if s3 is not None:
                symbols.add(n * s3)
            if s4 is not None:
                symbols.add(n * s4)
    if len(symbols) == 1:
        return ZERO if symbols.pop() == 1 else HALF
    if not symbols:
        raise PrecisionError(f"every slot representation is indeterminate at {place}"
                             + ("" if ctx is None else f" to precision {ctx.prec}"))
    terms = (slot_terms(m.a, m.b, m.A, m.B, u, v) if ctx is None
             else ((n1, n2), (d1, d2)))
    raise ArithmeticError(f"representations disagree at {place}: terms (numerators, "
                          f"denominators) {terms} have symbols {((s1, s2), (s3, s4))}")


def sample_invariant(surface_model, place, delta, n, ctx):
    """The invariant's values at n local points: delta, the delta image
    of the curve's witness, then n - 1 direct samples, every point drawn
    and evaluated in ctx (the model's ResidueContext; None at the real
    place).  A sampler shortfall or an indeterminate point raises; no
    point is dropped.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    pts = [delta] + sample_surface_points(surface_model, place, n - 1, ctx)
    return [evaluate_invariant_at_point(surface_model, pt, place, ctx) for pt in pts]


@dataclass
class InvariantCertificate:
    """One entry of the invariant table: a value proved by a branch, or a
    refusal (method "refused", value None, the reason in warning)."""

    place: Place
    value: Fraction | None
    method: str
    hypothesis_trace: list = field(default_factory=list)
    sample_count: int = 0
    samples_consistent: bool = True
    warning: str = ""

    @property
    def rigorous(self):
        return self.method != REFUSED

    def to_json(self):
        return {
            "place": str(self.place),
            "value": None if self.value is None else "0" if self.value == 0 else "1/2",
            "method": self.method,
            "hypotheses": [[text, ok] for text, ok in self.hypothesis_trace],
            "sample_count": self.sample_count,
            "samples_consistent": self.samples_consistent,
            "warning": self.warning,
        }


def _trace(trace, text, ok):
    trace.append((text, bool(ok)))
    return bool(ok)


def certify_invariant(model, place):
    """Walk the per-place decision tree and certify the invariant value.

    Branches (hypotheses re-verified numerically, never assumed):
      prop-square: a is a local square, the class is locally trivial -> 0
      prop-good:   p odd, p does not divide 2ab(B-A), admissible -> 0
      prop-c:      p odd, p not dividing 2abC, a non-square, v_p(A) even,
                   unit part of A non-square -> 0
      prop-a:      v_p(a) = 1, p not dividing ABC(B-A), b a square,
                   B - A a non-square -> 1/2
    A fiber over verified parameters always lands in a branch.  Where no
    branch applies the entry is a refusal: method "refused", value None,
    the failed hypotheses in the trace and the reason in warning.  No value
    read off sampled points ever enters the table.  model is the surface
    at the real place and its admissible_model at p at a finite place.
    """
    trace = []
    if place.is_real:
        if _trace(trace, "a > 0, so a is a real square", model.a > 0):
            return InvariantCertificate(place, ZERO, "prop-square", trace)
        return _refused(place, trace, "negative a at the real place")
    p = place.p
    a = model.a
    if padic_val(a, p) == 0 and is_local_square(a, place):
        _trace(trace, f"a is a square in Q_{p}", True)
        return InvariantCertificate(place, ZERO, "prop-square", trace)
    if p == 2:
        _trace(trace, "a is a square in Q_2", False)
        return _refused(place, trace, "no branch at 2 when a is not a square")
    A, B, C = model.A, model.B, model.C
    va = padic_val(a, p)
    if va == 1:
        conds = [
            ("v_p(a) = 1", True),
            ("p does not divide A", padic_val(A, p) == 0),
            ("p does not divide B", padic_val(B, p) == 0),
            ("p does not divide C", padic_val(C, p) == 0),
            ("p does not divide B - A", padic_val(B - A, p) == 0),
            ("b is a square mod p", legendre(frac_mod(model.b, p), p) == 1),
            ("B - A is not a square mod p",
             padic_val(B - A, p) == 0 and legendre(frac_mod(B - A, p), p) == -1),
        ]
        if all(_trace(trace, t, ok) for t, ok in conds):
            return InvariantCertificate(place, HALF, "prop-a", trace)
        return _refused(place, trace, "prop-a hypotheses failed")
    # p odd, a a p-adic unit, a not a square (checked above)
    _trace(trace, "a is not a square mod p", True)
    vBA = padic_val(B - A, p)
    if vBA == 0:
        conds = [
            ("p does not divide 2ab", padic_val(2 * a * model.b, p) == 0),
            ("p does not divide B - A", True),
            ("model coefficients are p-integral",
             all(padic_val(x, p) >= 0 for x in (A, B, C))),
        ]
        if all(_trace(trace, t, ok) for t, ok in conds):
            return InvariantCertificate(place, ZERO, "prop-good", trace)
        return _refused(place, trace, "prop-good hypotheses failed")
    vA = padic_val(A, p)
    conds = [
        ("p does not divide 2ab", padic_val(2 * a * model.b, p) == 0),
        ("p does not divide C", padic_val(C, p) == 0),
        ("v_p(A) is even", A != 0 and vA % 2 == 0),
        ("the unit part of A is not a square mod p",
         A != 0 and legendre(frac_mod(unit_part(A, p), p), p) == -1),
    ]
    if all(_trace(trace, t, ok) for t, ok in conds):
        return InvariantCertificate(place, ZERO, "prop-c", trace)
    return _refused(place, trace, "no branch applies")


def _refused(place, trace, why):
    return InvariantCertificate(place, None, REFUSED, trace, warning=f"refused: {why}")


@dataclass
class ObstructionCertificate:
    fiber: dict
    table: dict  # Place -> InvariantCertificate
    total: Fraction
    conclusion: bool
    pullback: str
    blanket_statement: str
    notes: str = ""
    complete: bool = True

    def to_json(self):
        places = sorted(self.table, key=lambda pl: pl.sort_key())
        return {
            "fiber": self.fiber,
            "table": [self.table[pl].to_json() for pl in places],
            "sum": "0" if self.total == 0 else "1/2",
            "conclusion": self.conclusion,
            "pullback": self.pullback,
            "blanket": self.blanket_statement,
            "notes": self.notes,
            "complete": self.complete,
        }


def obstruction_certificate(surface, local_result, samples=10):
    """The per-place invariant table, its sum, and the final conclusion.

    Requires everywhere-local solvability (otherwise the adelic pairing is
    vacuous), so every critical place carries a curve witness.  Every
    certified value is additionally confirmed on sampled local points (the
    delta image of the witness plus direct samples); any disagreement,
    refusal or unexpected table is a hard failure, and a failed delta
    image, sampler shortfall or indeterminate point raises.  A refused
    place adds nothing to the sum.
    """
    if not local_result.solvable_everywhere:
        raise ValueError("obstruction table needs everywhere-local solvability first")
    coeffs = surface.coeffs
    params = coeffs.params
    table = {}
    errors = []
    for place in local_result.critical.places:
        # each place's model and residue context are built here alone, once,
        # for the branch and for every point of the sampling confirmation
        model = surface if place.is_real else admissible_model(surface, place.p)
        cert = certify_invariant(model, place)
        table[place] = cert
        if not cert.rigorous:
            errors.append(f"invariant at {place} {cert.warning}")
            continue
        ctx = None if place.is_real else ResidueContext.of(model, place.p)
        delta = delta_surface_point(model, place, local_result.certificates[place], ctx)
        values = sample_invariant(model, place, delta, samples, ctx)
        cert.sample_count = len(values)
        cert.samples_consistent = len(set(values)) == 1
        if not cert.samples_consistent:
            errors.append(f"samples disagree among themselves at {place}")
        if values[0] != cert.value:
            errors.append(
                f"sampled value {values[0]} contradicts certified {cert.value} at {place}"
            )
    expected_half = {Place.finite(params.a)}
    support = {pl for pl, cert in table.items() if cert.value == HALF}
    if support != expected_half:
        errors.append(f"invariant support {sorted(str(pl) for pl in support)} "
                      f"is not exactly the place of a = {params.a}")
    total = sum((cert.value for cert in table.values() if cert.rigorous), start=ZERO)
    total = total - int(total)  # value in Q/Z
    blanket = (
        "at every place outside the critical set: p is odd, does not divide "
        "2ab, does not divide B - A = 2cD^2, and the defining equations are "
        "p-admissible, so the invariant vanishes by the good-reduction "
        "valuation argument"
    )
    conclusion = (not errors) and total == HALF and local_result.solvable_everywhere
    notes = "; ".join(errors)
    if conclusion and params.g == 1:  # the prose holds only for a certified fiber
        notes = (
            "genus 1: the curve is a torsor under its Jacobian, trivial in "
            "every completion yet without rational points, hence a nonzero "
            "element of the Tate-Shafarevich group; a point over the quadratic "
            "extension at t = 0 bounds its order by 2"
        )
    pullback = (
        "the sum of local invariants is 1/2, nonzero in Q/Z, so the surface "
        "has no rational point; the curve maps to the surface through the "
        "degree-(g+1)/2 morphism, and the genus-1 intersection with the "
        "hyperplane x = 0 contains its image, so neither has a rational point"
    )
    return ObstructionCertificate(
        fiber=coeffs.to_json(),
        table=table,
        total=total,
        conclusion=conclusion,
        pullback=pullback,
        blanket_statement=blanket,
        notes=notes,
        complete=not errors,
    )
