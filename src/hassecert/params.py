"""Search and independent verification of the prime quadruples (a, b, c, d)
that drive every family construction.

The verifier re-checks, symbol by symbol, the congruence and quadratic
residue conditions the quadruple must satisfy; it shares no search logic
with the sieve, so a sieve bug cannot certify itself.
"""

import json
import math
from dataclasses import dataclass, field

from . import arith
from .arith import is_prime, legendre, sieve_primes_upto, square_residues


@dataclass(frozen=True)
class ParamSet:
    """A quadruple of odd primes with its genus data.

    omega0 is the fixed finite set of small odd primes that the local
    analysis treats separately; g is the curve genus, h the auxiliary
    exponent entering the family equations.
    """

    a: int
    b: int
    c: int
    d: int
    omega0: tuple
    g: int
    h: int

    def __post_init__(self):
        if self.g < 1 or self.g % 2 == 0:
            raise ValueError("g must be an odd positive integer")
        if self.h < 0:
            raise ValueError("h must be nonnegative")
        object.__setattr__(self, "omega0", tuple(sorted(self.omega0)))

    @property
    def full_family_ok(self):
        """Whether every fiber (not just theta = 0) is covered: needs
        g = 1 mod 4 and (g+1) | (4h+2)."""
        return self.g % 4 == 1 and (4 * self.h + 2) % (self.g + 1) == 0

    def to_json(self):
        return {
            "a": str(self.a),
            "b": str(self.b),
            "c": str(self.c),
            "d": str(self.d),
            "omega0": [str(q) for q in self.omega0],
            "g": str(self.g),
            "h": str(self.h),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            a=int(obj["a"]),
            b=int(obj["b"]),
            c=int(obj["c"]),
            d=int(obj["d"]),
            omega0=tuple(int(q) for q in obj["omega0"]),
            g=int(obj["g"]),
            h=int(obj["h"]),
        )

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, s):
        return cls.from_json(json.loads(s))


@dataclass
class ConditionReport:
    """Outcome of the condition-by-condition verification of a ParamSet."""

    items: list = field(default_factory=list)

    def add(self, cond_id, holds, witness):
        self.items.append((cond_id, bool(holds), witness))

    @property
    def ok(self):
        return all(h for _, h, _ in self.items)

    def failures(self):
        return [(i, w) for i, h, w in self.items if not h]


def omega0_for_genus(g):
    """All odd primes p <= 4g^2."""
    if g < 1 or g % 2 == 0:
        raise ValueError("g must be an odd positive integer")
    return tuple(p for p in sieve_primes_upto(4 * g * g) if p != 2)


def verify_conditions(ps):
    """Check every condition the quadruple must satisfy, over Q.

    Returns a ConditionReport whose items record each sub-condition with a
    textual witness (a residue or a Legendre value).
    """
    r = ConditionReport()
    a, b, c, d = ps.a, ps.b, ps.c, ps.d
    omega0 = set(ps.omega0)

    # (i) distinct odd primes avoiding omega0 and 2
    names = dict(a=a, b=b, c=c, d=d)
    for name, v in names.items():
        r.add(f"i.{name}-prime", v > 2 and v % 2 == 1 and is_prime(v), f"{name} = {v}")
        r.add(f"i.{name}-not-omega0", v not in omega0, f"{name} = {v}")
    r.add("i.distinct", len({a, b, c, d}) == 4, f"{sorted({a, b, c, d})}")

    # (ii) a, b squares in every completion at omega0, at 2, and at the real place
    for name, v in (("a", a), ("b", b)):
        r.add(f"ii.{name}-mod8", v % 8 == 1, f"{name} mod 8 = {v % 8}")
        r.add(f"ii.{name}-positive", v > 0, f"{name} = {v}")
        for q in sorted(omega0):
            lv = legendre(v, q)
            r.add(f"ii.{name}-sq-mod-{q}", lv == 1, f"legendre({name},{q}) = {lv}")

    # (iii) 2 and -1 squares mod a and mod b; equivalent to the mod-8
    # congruence, and both forms are recorded
    for name, v in (("a", a), ("b", b)):
        l2 = legendre(2, v)
        lm1 = legendre(-1, v)
        r.add(f"iii.2-sq-mod-{name}", l2 == 1, f"legendre(2,{name}) = {l2}")
        r.add(f"iii.-1-sq-mod-{name}", lm1 == 1, f"legendre(-1,{name}) = {lm1}")
        r.add(f"iii.{name}-mod8-congruence", v % 8 == 1, f"{name} mod 8 = {v % 8}")

    # (iv) a = 1 mod b and b c^2 d = 1 mod a
    r.add("iv.a-1-mod-b", a % b == 1, f"a mod b = {a % b}")
    r.add("iv.bc2d-1-mod-a", (b * c * c * d) % a == 1, f"bc^2d mod a = {(b * c * c * d) % a}")

    # (v) c nonsquare mod a and mod b; d nonsquare mod b, square mod c
    r.add("v.c-nonsq-mod-a", legendre(c, a) == -1, f"legendre(c,a) = {legendre(c, a)}")
    r.add("v.c-nonsq-mod-b", legendre(c, b) == -1, f"legendre(c,b) = {legendre(c, b)}")
    r.add("v.d-nonsq-mod-b", legendre(d, b) == -1, f"legendre(d,b) = {legendre(d, b)}")
    r.add("v.d-sq-mod-c", legendre(d, c) == 1, f"legendre(d,c) = {legendre(d, c)}")

    # (vi) a square mod b, nonsquare mod c; b square mod a, nonsquare mod c;
    #      d square mod a
    r.add("vi.a-sq-mod-b", legendre(a, b) == 1, f"legendre(a,b) = {legendre(a, b)}")
    r.add("vi.a-nonsq-mod-c", legendre(a, c) == -1, f"legendre(a,c) = {legendre(a, c)}")
    r.add("vi.b-sq-mod-a", legendre(b, a) == 1, f"legendre(b,a) = {legendre(b, a)}")
    r.add("vi.b-nonsq-mod-c", legendre(b, c) == -1, f"legendre(b,c) = {legendre(b, c)}")
    r.add("vi.d-sq-mod-a", legendre(d, a) == 1, f"legendre(d,a) = {legendre(d, a)}")

    # (vii) a does not divide bcd + 2
    r.add("vii.a-ndiv-bcd+2", (b * c * d + 2) % a != 0, f"(bcd+2) mod a = {(b * c * d + 2) % a}")

    return r


class SieveExhausted(ValueError):
    """Raised when a parameter slot has no candidate below the bound."""

    def __init__(self, slot, bound, detail=""):
        self.slot = slot
        self.bound = bound
        msg = f"no admissible value for slot '{slot}' below bound {bound}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _qr_tables(omega0):
    """Nonzero squares mod each prime q of omega0, as byte tables."""
    return {q: b"\0" + square_residues(q)[1:] for q in omega0}


# How many primes of omega0 the wheel over the multiplier k is built from.
# For omega0 of genus 3 or more, seven give 12,960 residues mod
# 3*5*...*19 = 4,849,845: blocks long enough that the per-block table pass
# costs little, and a build that stays small next to a genus-3 search.
# An eighth prime would make 142,560 residues.
WHEEL_PRIMES = 7


def _progression_survivors(step, omega0, bound, tables):
    """Terms n = 1 + step*k, k >= 1, n <= bound, that are nonzero squares
    mod every q in omega0, ascending.

    A wheel over k skips the terms that fail one of its primes.  Its
    residues mod M = q_1 ... q_w (the first WHEEL_PRIMES primes of omega0
    not dividing step) are built prime by prime, ascending by construction,
    and k runs through them block by block: k = base + r, base = 0, M,
    2M, ...  In each block one residue table per remaining prime, shifted
    by base mod q and applied to the byte string of r mod q with
    bytes.translate, marks the residues that pass; the marks are ANDed as
    integers.  Primes q >= 256, which do not fit a byte, are checked term
    by term on the survivors.
    A prime dividing step needs no check: every term is 1 mod q.
    """
    kmax = (bound - 1) // step
    qs = [q for q in omega0 if step % q]
    # kok[q][x]: 1 when the term with k = x mod q is a nonzero square mod q
    kok = {q: bytes(tables[q][(1 + step * x) % q] for x in range(q)) for q in qs}
    m, residues = 1, [0]
    for q in qs[:WHEEL_PRIMES]:
        ok = kok[q]
        residues = [k for k in (j + r for j in range(0, m * q, m) for r in residues)
                    if ok[k % q]]
        m *= q
    rest = qs[WHEEL_PRIMES:]
    marks = [(q, kok[q] * 2, bytes(256 - q), bytes(r % q for r in residues))
             for q in rest if q < 256]
    big = [q for q in rest if q >= 256]
    width = len(residues)
    full = int.from_bytes(bytes([1]) * width, "little")
    for base in range(0, kmax + 1, m):
        alive = full
        for q, ok2, pad, rq in marks:
            s = base % q
            alive &= int.from_bytes(rq.translate(ok2[s:s + q] + pad), "little")
            if not alive:
                break
        if not alive:
            continue
        flags = alive.to_bytes(width, "little")
        i = flags.find(1)
        while i >= 0:
            k = base + residues[i]
            if k > kmax:
                return
            if k and all(kok[q][k % q] for q in big):
                yield 1 + step * k
            i = flags.find(1, i + 1)


def _b_candidates(omega0, bound, tables):
    """Primes b = 1 mod 8 that are squares mod every q in omega0, ascending."""
    for n in _progression_survivors(8, omega0, bound, tables):
        if n not in omega0 and is_prime(n):
            yield n


def _a_candidates(b, omega0, bound, tables):
    """Primes a = 1 mod lcm(8, b) that are squares mod every q in omega0.

    The stronger congruence a = 1 mod b forces both the square condition
    mod b and the divisibility condition a = 1 mod b at once.
    """
    step = 8 * b // math.gcd(8, b)
    for n in _progression_survivors(step, omega0, bound, tables):
        if n not in omega0 and n != b and is_prime(n):
            yield n


def _c_candidates(a, b, omega0, bound):
    """Primes c with legendre(c, a) = legendre(c, b) = -1, ascending."""
    for c in range(3, bound + 1, 2):
        if c in omega0 or c in (a, b) or not is_prime(c):
            continue
        if legendre(c, a) == -1 and legendre(c, b) == -1:
            yield c


def _d_candidates(a, b, c, omega0, bound):
    """Primes d = (b c^2)^(-1) mod a with the right symbols mod b and c.

    Scans the single arithmetic progression mod a and tests the symbol
    conditions directly; this reaches every admissible d in ascending
    order, whatever residue classes mod b and c it happens to occupy.
    """
    w = pow(b * c * c, -1, a)
    d = w if w > 1 else w + a
    while d <= bound:
        if (
            d not in (a, b, c)
            and d not in omega0
            and d % 2 == 1
            and legendre(d, b) == -1
            and legendre(d, c) == 1
            and (b * c * d + 2) % a != 0
            and is_prime(d)
        ):
            yield d
        d += a


def sieve_params(g, h, omega0=None, bound=10**7, count=1):
    """Up to `count` verified quadruples for the given (g, h), smallest first.

    bound caps the magnitude of every slot, and so does the deterministic
    primality bound: no slot reaches arith.MR_DETERMINISTIC_BOUND, above
    which is_prime decides nothing.  The search is deterministic:
    each slot takes the smallest admissible value, and further quadruples
    come from advancing d, then c, then a, then b.  Every emitted
    quadruple is re-checked by verify_conditions.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if omega0 is None:
        omega0 = omega0_for_genus(g)
    omega0 = tuple(sorted(omega0))
    tables = _qr_tables(omega0)
    cap = min(bound, arith.MR_DETERMINISTIC_BOUND - 1)
    out = []
    first_failure = None

    def note_failure(slot, detail):
        nonlocal first_failure
        if first_failure is None:
            first_failure = (slot, detail)

    b_seen = False
    for b in _b_candidates(omega0, cap, tables):
        b_seen = True
        a_seen = False
        for a in _a_candidates(b, omega0, cap, tables):
            a_seen = True
            c_seen = False
            for c in _c_candidates(a, b, omega0, cap):
                c_seen = True
                d_seen = False
                for d in _d_candidates(a, b, c, omega0, cap):
                    d_seen = True
                    ps = ParamSet(a=a, b=b, c=c, d=d, omega0=omega0, g=g, h=h)
                    report = verify_conditions(ps)
                    if not report.ok:
                        raise AssertionError(
                            f"sieve produced a quadruple failing verification: "
                            f"{ps} -> {report.failures()}"
                        )
                    out.append(ps)
                    if len(out) >= count:
                        return out
                if not d_seen:
                    note_failure("d", f"for a={a}, b={b}, c={c}")
                # replenish via larger d exhausted; advance c, then a, then b
            if not c_seen:
                note_failure("c", f"for a={a}, b={b}")
        if not a_seen:
            note_failure("a", f"for b={b}, progression 1 mod {8 * b // math.gcd(8, b)}")
    if not b_seen:
        slot, detail = "b", f"no prime = 1 mod 8 and a square mod each of {list(omega0)}"
    elif out:
        slot, detail = "d", f"only {len(out)} of {count} quadruples found"
    else:
        slot, detail = first_failure
    if cap < bound:
        detail += ("; every slot stops below the deterministic primality bound "
                   f"{arith.MR_DETERMINISTIC_BOUND}")
    raise SieveExhausted(slot, bound, detail)
