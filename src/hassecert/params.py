"""Search and independent verification of the prime quadruples (a, b, c, d)
that drive every family construction.

The verifier re-checks, symbol by symbol, the congruence and quadratic
residue conditions the quadruple must satisfy; it shares no search logic
with the sieve, so a sieve bug cannot certify itself.
"""

import functools
import itertools
import math
import re
from dataclasses import dataclass, field

from . import arith
from .arith import is_prime, legendre, sieve_primes_upto, square_residues


def json_int(value, name):
    """An integer field of a JSON config: a JSON integer (not a boolean) or
    a decimal-integer string, the form every integer takes in the JSON this
    package writes.  Anything else, a float such as 1.9 among them, is a
    ValueError, never a truncation."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


# the JSON types a config field is checked against, as a refusal names them
_JSON_TYPES = {bool: "true or false", str: "a string", list: "an array", dict: "an object"}


def json_typed(value, kind, name):
    """value when it has the JSON type kind, else ValueError naming the field."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def json_keys(obj, known, name):
    """obj when each of its keys is one of known, else ValueError naming an
    unknown key: a misspelt key is never ignored."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {name}")
    return obj


def full_family(g, h):
    """Whether every fiber, not just theta = 0, is covered at odd g: needs
    g = 1 mod 4 and (g+1) | (4h+2).  The divisibility alone decides: as
    4h+2 = 2 (2h+1), 4 cannot divide the even g+1, so g = 1 mod 4."""
    return (4 * h + 2) % (g + 1) == 0


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
        """Whether every fiber (not just theta = 0) is covered: see full_family."""
        return full_family(self.g, self.h)

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
        json_keys(obj, ("a", "b", "c", "d", "g", "h", "omega0"), "params")
        return cls(
            omega0=tuple(json_int(q, "omega0") for q in json_typed(obj["omega0"], list, "omega0")),
            **{k: json_int(obj[k], k) for k in ("a", "b", "c", "d", "g", "h")},
        )


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

    # (i) distinct odd primes avoiding omega0 and 2.  Stop unless the slots
    # and omega0 are odd primes below the primality bound: (ii)-(vi) need it.
    names = dict(a=a, b=b, c=c, d=d)
    prime = {v: 2 < v < arith.MR_DETERMINISTIC_BOUND and v % 2 == 1 and is_prime(v)
             for v in (a, b, c, d, *omega0)}
    for name, v in names.items():
        r.add(f"i.{name}-prime", prime[v], f"{name} = {v}")
        r.add(f"i.{name}-not-omega0", v not in omega0, f"{name} = {v}")
    r.add("i.distinct", len({a, b, c, d}) == 4, f"{sorted({a, b, c, d})}")
    for q in sorted(q for q in omega0 if not prime[q]):
        r.add(f"i.omega0-{q}-prime", False, f"omega0 entry {q}")
    if not all(prime.values()):
        return r

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


# How many primes of omega0 the wheel over the multiplier k may grow to.
# For omega0 of genus 3 or more, seven give 12,960 residues mod
# 3*5*...*19 = 4,849,845.  The genus-5 search at 10^24 would otherwise
# grow an eighth (142,560 residues), whose longer blocks save less time
# than its set-up costs, and which takes several MB more memory.
WHEEL_PRIMES = 7


def _lifted(rq, table, m, q, q_w):
    """The bytes table[(j + r) mod q] for the lifts j + r of wheel residues
    r mod m, j = 0, m, ..., (q_w - 1) m in that order and r in turn, given
    rq, the bytes r mod q of the residues (q < 256), and a table whose
    slice table[t:t + 256], t < q, sends x < q to table[(x + t) mod q].
    In C: block j reads rq through the slice at t = j m mod q."""
    shifts = (j * m % q for j in range(q_w))
    return b"".join(rq.translate(table[t:t + 256]) for t in shifts)


def _wheel_stage(residues, m, q, ok):
    """Lift the wheel residues mod m to the residues mod m*q whose terms
    pass q (q < 256), ascending; ok[x] is 1 when the term with k = x mod q
    passes.  Also returns the selector: for each lift j + r in _lifted's
    order, the byte 1 when it passes, else 0."""
    selector = _lifted(bytes([r % q for r in residues]), ok * 2 + bytes(256), m, q, q)
    lifts = [j + r for j in range(0, m * q, m) for r in residues]
    return list(itertools.compress(lifts, selector)), selector


@functools.cache
def _rotation(q):
    """The bytes 0, ..., q - 1 twice, then 256 zeros: the table under which
    _lifted reads (j + r) mod q itself."""
    return bytes(range(q)) * 2 + bytes(256)


# a selector's bytes 1 (keep) and 0 (drop) as 0x00 and 0xff: ORed into a
# string of residues below 255, it marks the dropped ones for deletion
_DROP = bytes.maketrans(b"\0\1", b"\xff\0")


def _lift_residues_mod(rq, q, m, q_w, drop):
    """The bytes r mod q (q < 256) of the residues that _wheel_stage lifts
    by q_w from residues mod m, given rq, their bytes r mod q before the
    lift, and drop, the lift's selector translated by _DROP, as an
    integer.  In C: ORing drop into the lifts' bytes sets those of the
    lifts that fail to 0xff, and translate deletes them."""
    blocks = _lifted(rq, _rotation(q), m, q, q_w)
    kept = (int.from_bytes(blocks, "big") | drop).to_bytes(len(blocks), "big")
    return kept.translate(None, b"\xff")


def _progression_table(table, step):
    """The bytes table[(1 + step x) mod q] for x = 0, ..., q - 1, where
    q = len(table) does not divide step.  In C: with s = step mod q, entry
    x of table repeated s + 1 times, read from 1 in steps of s, is at
    1 + s x < q (s + 1), so it is table[(1 + s x) mod q]."""
    s = step % len(table)
    return (table * (s + 1))[1::s][:len(table)]


def _progression_survivors(step, omega0, bound, tables):
    """Terms n = 1 + step*k, k >= 1, n <= bound, that are nonzero squares
    mod every q in omega0 and are not perfect squares, ascending.

    A wheel over k skips the terms that fail one of its primes.  Its
    residues mod M = q_1 ... q_w (the first w primes of omega0 not dividing
    step, all below 256) are ascending, and k runs through them block by
    block: k = base + r, base = 0, M, 2M, ...  In each block one residue
    table per marked prime, shifted by base mod q (a slice of the table
    twice over, padded to 256 bytes) and applied to the byte string of r mod
    q with bytes.translate, marks the residues that pass; the marks are
    ANDed as integers.  A prime's string of r mod q is carried from wheel to
    wheel by _lift_residues_mod, in C, not rebuilt one residue at a time.
    Each mark passes about half the residues, so len(residues).bit_length()
    marked primes (the first primes below 256 after the wheel's) leave about
    one survivor per block.  The other primes are checked term by term on
    the survivors.

    The wheel grows with the scan.  It starts from q_1.  Setting up
    wheel w + 1 is charged one step per residue and marked prime, so
    wheel w scans blocks until the residues it has passed over reach that
    cost and base is a multiple of M*q_{w+1}; then _wheel_stage lifts its
    residues by q_{w+1} and the scan goes on from base.  Set-up never
    costs more than the scan it shortens, so a short progression builds
    only a small wheel; the wheel stops growing at WHEEL_PRIMES primes.

    A prime dividing step needs no check: every term is 1 mod q.  A
    perfect square (n = 1 at k = 0 among them) passes every residue test
    and is never prime, so it is dropped before the term-by-term checks.
    """
    kmax = (bound - 1) // step
    qs = [q for q in omega0 if step % q]
    # kok[q][x]: 1 when the term with k = x mod q is a nonzero square mod q
    kok = {q: _progression_table(tables[q], step) for q in qs}
    # wheel primes are below 256, for the byte strings of _wheel_stage
    cap = min(WHEEL_PRIMES, len([q for q in qs if q < 256]))
    w, m, residues, base = 0, 1, [0], 0
    # the (m, q_w, drop) of each wheel lift (see _lift_residues_mod), and
    # for each prime marked so far, (lifts applied, its bytes r mod q then)
    stages, rmod = [], {}

    def residues_mod(q):
        done, rq = rmod.get(q, (0, b"\0"))
        for stage in stages[done:]:
            rq = _lift_residues_mod(rq, q, *stage)
        rmod[q] = len(stages), rq
        return rq

    while True:
        if w < cap:
            residues, selector = _wheel_stage(residues, m, qs[w], kok[qs[w]])
            stages.append((m, qs[w], int.from_bytes(selector.translate(_DROP), "big")))
            m, w = m * qs[w], w + 1
        rest = qs[w:]
        marked = [q for q in rest if q < 256][:len(residues).bit_length()]
        marks = [(q, kok[q] * 2 + bytes(256), residues_mod(q)) for q in marked]
        late = [q for q in rest if q not in marked]
        width = len(residues)
        full = int.from_bytes(bytes([1]) * width, "little")
        # the set-up of wheel w + 1: its residues times its marked primes
        setup = math.inf
        if w < cap:
            size = width * (qs[w] - 1) // 2
            setup = size * len([q for q in qs[w + 1:] if q < 256][:size.bit_length()])
        scanned = 0
        while True:
            alive = full
            for q, okt, rq in marks:
                s = base % q
                alive &= int.from_bytes(rq.translate(okt[s:s + 256]), "little")
                if not alive:
                    break
            if alive:
                flags = alive.to_bytes(width, "little")
                i = flags.find(1)
                while i >= 0:
                    k = base + residues[i]
                    if k > kmax:
                        return
                    n = 1 + step * k
                    if math.isqrt(n) ** 2 != n and all(kok[q][k % q] for q in late):
                        yield n
                    i = flags.find(1, i + 1)
            base += m
            if base > kmax:
                return
            scanned += width
            if scanned >= setup and base % (m * qs[w]) == 0:
                break


def _slot_candidates(step, omega0, bound, tables):
    """Primes n = 1 mod step that are squares mod every q in omega0,
    ascending: b with step 8, and a with step 8b, where a = 1 mod b gives
    both the square condition mod b and the divisibility condition at once.
    None is b or in omega0: every a = 1 + 8bk exceeds b, and every
    survivor is a nonzero square mod each q of omega0, or 1 mod it."""
    return filter(is_prime, _progression_survivors(step, omega0, bound, tables))


def sieve_params(g, h, omega0=None, bound=10**7, count=1):
    """Up to `count` verified quadruples for the given (g, h), smallest first.

    bound caps the magnitude of every slot, and so does the deterministic
    primality bound: no slot reaches arith.MR_DETERMINISTIC_BOUND, above
    which is_prime decides nothing.  The search is one lazy walk over b,
    a = 1 mod 8b, c and d = (b c^2)^(-1) mod a, each ascending, so further
    quadruples come from advancing d, then c, then a, then b.  Every
    emitted quadruple is re-checked by verify_conditions.

    c and d pass only the symbol tests and (vii), which reject every value
    that (i) forbids: a prime q of omega0 is a square mod a and mod b by
    reciprocity (a, b = 1 mod 8 are squares mod q); c = a, c = b, d = b and
    d = c give the symbol 0; and d is not 0 mod a.  With no quadruple
    found, the refusal names the first slot left empty: the first leaf of
    the search is a quadruple unless its own chain dies first.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if omega0 is None:
        omega0 = omega0_for_genus(g)
    omega0 = tuple(sorted(omega0))
    tables = _qr_tables(omega0)
    cap = min(bound, arith.MR_DETERMINISTIC_BOUND - 1)
    dead_end = []

    def slot(name, detail, candidates):
        empty = True
        for value in candidates:
            empty = False
            yield value
        if empty and not dead_end:
            dead_end.append((name, detail))

    def quadruples():
        for b in slot("b", f"no prime = 1 mod 8 and a square mod each of {list(omega0)}",
                      _slot_candidates(8, omega0, cap, tables)):
            for a in slot("a", f"for b={b}, progression 1 mod {8 * b}",
                          _slot_candidates(8 * b, omega0, cap, tables)):
                cs = filter(lambda c: is_prime(c) and legendre(c, a) == -1
                            and legendre(c, b) == -1, range(3, cap + 1, 2))
                for c in slot("c", f"for a={a}, b={b}", cs):
                    w = pow(b * c * c, -1, a)
                    ds = filter(lambda d: legendre(d, b) == -1 and legendre(d, c) == 1
                                and (b * c * d + 2) % a != 0 and is_prime(d),
                                range(w + a if w % 2 == 0 else w, cap + 1, 2 * a))
                    for d in slot("d", f"for a={a}, b={b}, c={c}", ds):
                        ps = ParamSet(a=a, b=b, c=c, d=d, omega0=omega0, g=g, h=h)
                        report = verify_conditions(ps)
                        if not report.ok:
                            raise AssertionError("sieve produced a quadruple failing "
                                                 f"verification: {ps} -> {report.failures()}")
                        yield ps

    out = list(itertools.islice(quadruples(), count))
    if len(out) == count:
        return out
    name, detail = ("d", f"only {len(out)} of {count} quadruples found") if out else dead_end[0]
    if cap < bound:
        detail += ("; every slot stops below the deterministic primality bound "
                   f"{arith.MR_DETERMINISTIC_BOUND}")
    raise SieveExhausted(name, bound, detail)
