import math

import pytest

from hassecert import arith, params
from hassecert.arith import is_prime, legendre
from hassecert.params import (
    ParamSet,
    SieveExhausted,
    _progression_survivors,
    _progression_table,
    _qr_tables,
    _slot_candidates,
    omega0_for_genus,
    sieve_params,
    verify_conditions,
)


def test_omega0_examples():
    assert omega0_for_genus(1) == (3,)
    assert omega0_for_genus(3) == (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    o5 = omega0_for_genus(5)
    assert all(p <= 100 and p % 2 == 1 and is_prime(p) for p in o5)
    assert len(o5) == 24
    with pytest.raises(ValueError):
        omega0_for_genus(2)


def test_verify_rejects_equal_primes():
    ps = ParamSet(a=73, b=73, c=5, d=11, omega0=(3,), g=1, h=0)
    rep = verify_conditions(ps)
    assert not rep.ok
    assert any(i == "i.distinct" for i, _ in rep.failures())


def test_verify_rejects_5_mod_8():
    # 13 = 5 mod 8 can never be a 2-adic square
    ps = ParamSet(a=13, b=73, c=5, d=11, omega0=(3,), g=1, h=0)
    rep = verify_conditions(ps)
    bad = {i for i, _ in rep.failures()}
    assert "ii.a-mod8" in bad and "iii.a-mod8-congruence" in bad


# the first g = 1 quadruple; each change makes a slot or an omega0 entry
# something other than an odd prime below the primality bound, and names
# the condition that must then fail
G1_QUAD = dict(a=1753, b=73, c=5, d=146059, omega0=(3,), g=1, h=0)
NOT_ODD_PRIMES = [
    ({"a": 15}, "i.a-prime"),
    ({"a": 10**25 + 1}, "i.a-prime"),
    ({"omega0": (3, 9)}, "i.omega0-9-prime"),
]


@pytest.mark.parametrize("change, cond", NOT_ODD_PRIMES)
def test_verify_fails_closed_on_non_primes(change, cond):
    assert verify_conditions(ParamSet(**G1_QUAD)).ok
    rep = verify_conditions(ParamSet(**{**G1_QUAD, **change}))
    assert cond in {i for i, _ in rep.failures()}
    # the Legendre conditions are undefined there and are not evaluated
    assert all(i.startswith("i.") for i, _, _ in rep.items)


def test_verify_names_an_omega0_missing_an_odd_prime_up_to_4g2():
    # omega0 must hold every odd prime <= 4g^2: 3 at g = 1, and 3..31 at
    # g = 3, where the g = 1 set leaves 5..31 out
    assert verify_conditions(ParamSet(**G1_QUAD)).ok
    for change, missing in (({"omega0": ()}, [3]),
                            ({"g": 3}, list(omega0_for_genus(3)[1:]))):
        rep = verify_conditions(ParamSet(**{**G1_QUAD, **change}))
        assert [i for i, _ in rep.failures()][0] == "i.omega0-covers-4g^2"
        assert dict(rep.failures())["i.omega0-covers-4g^2"].endswith(f"omega0: {missing}")


def test_sieve_refuses_an_omega0_missing_an_odd_prime_up_to_4g2():
    # refused before the search, by name, never by the internal
    # re-verification of a sieved quadruple
    for g, omega0, missing in ((1, (), [3]), (3, (3, 5, 7), [11, 13, 17, 19, 23, 29, 31])):
        with pytest.raises(ValueError) as ei:
            sieve_params(g, 0, omega0=omega0)
        assert str(ei.value) == \
            f"omega0 misses the odd primes {missing} <= 4g^2 = {4 * g * g}"


def test_sieve_g1_first_quadruple():
    (ps,) = sieve_params(1, 0, bound=10**7, count=1)
    assert ps.b % 24 == 1  # b = 1 mod 8 and a square mod 3 forces 1 mod 24
    assert verify_conditions(ps).ok
    assert ps.b == 73 and ps.a == 1753  # smallest admissible values
    assert ps.full_family_ok


def test_full_family_divisibility_forces_g_1_mod_4():
    # at odd g, (g+1) | (4h+2) alone decides: it forces g = 1 mod 4
    for g in range(1, 40, 2):
        for h in range(30):
            expected = g % 4 == 1 and (4 * h + 2) % (g + 1) == 0
            assert params.full_family(g, h) == expected, (g, h)
            assert ParamSet(**{**G1_QUAD, "g": g, "h": h}).full_family_ok == expected


def test_sieve_g1_five_distinct():
    quads = sieve_params(1, 0, bound=10**7, count=5)
    assert len(quads) == 5
    keys = {(ps.b, ps.d) for ps in quads}
    assert len(keys) == 5  # pairwise distinct b or d
    for ps in quads:
        assert verify_conditions(ps).ok


def test_sieve_low_bound_exhausts_at_b():
    with pytest.raises(SieveExhausted) as ei:
        sieve_params(1, 0, bound=50, count=1)
    assert ei.value.slot == "b"
    assert "primality bound" not in str(ei.value)


@pytest.mark.parametrize("bound, count, slot, detail", [
    # the first b, 73, has no a = 1 mod 584 below 1000
    (1000, 1, "a", "for b=73, progression 1 mod 584"),
    # two quadruples lie below 2200, and the refusal counts them
    (2200, 3, "d", "only 2 of 3 quadruples found"),
])
def test_sieve_refusal_names_its_slot(bound, count, slot, detail):
    with pytest.raises(SieveExhausted) as ei:
        sieve_params(1, 0, bound=bound, count=count)
    assert (ei.value.slot, ei.value.bound) == (slot, bound)
    assert str(ei.value) == f"no admissible value for slot '{slot}' below bound {bound} ({detail})"


def test_sieve_stops_below_primality_bound(monkeypatch, capsys):
    from hassecert.cli import main

    # with the primality bound lowered to 10^5, the first quadruple's
    # d = 146,059 lies past it: every slot stays below the bound instead
    monkeypatch.setattr(arith, "MR_DETERMINISTIC_BOUND", 10**5)
    for ps in sieve_params(1, 0, bound=10**7, count=3):
        assert max(ps.a, ps.b, ps.c, ps.d) < 10**5
    monkeypatch.setattr(arith, "MR_DETERMINISTIC_BOUND", 2000)
    with pytest.raises(SieveExhausted) as ei:
        sieve_params(1, 0, bound=10**7)
    assert ei.value.slot == "d" and ei.value.bound == 10**7
    assert "deterministic primality bound 2000" in str(ei.value)
    assert main(["sieve-params", "--g", "1", "--h", "0"]) == 2
    assert "deterministic primality bound 2000" in capsys.readouterr().err


def test_sieve_determinism():
    one = sieve_params(1, 0, bound=10**7, count=3)
    two = sieve_params(1, 0, bound=10**7, count=3)
    assert one == two


def test_condition_iv_vi_symbol_consistency():
    # bc^2d = 1 mod a forces legendre(bc^2d, a) = +1; the recorded symbols
    # must multiply to the same value
    for ps in sieve_params(1, 0, bound=10**7, count=3):
        prod = legendre(ps.b, ps.a) * legendre(ps.c, ps.a) ** 2 * legendre(ps.d, ps.a)
        assert prod == legendre(ps.b * ps.c**2 * ps.d, ps.a) == 1


def test_reciprocity_crosscheck():
    # a = 1 mod 8 makes the symbols symmetric between a and b
    for ps in sieve_params(1, 0, bound=10**7, count=3):
        assert legendre(ps.a, ps.b) == legendre(ps.b, ps.a)


def test_json_roundtrip():
    (ps,) = sieve_params(1, 0, bound=10**7, count=1)
    assert ParamSet.from_json(ps.to_json()) == ps
    obj = ps.to_json()
    assert all(isinstance(v, str) for k, v in obj.items() if k != "omega0")
    assert all(isinstance(q, str) for q in obj["omega0"])


@pytest.mark.parametrize("omega0", ["35", "3", 3, {"3": "3"}])
def test_json_refuses_an_omega0_that_is_not_an_array(omega0):
    # a string omega0 is never taken apart digit by digit ("35" as (3, 5))
    obj = {**sieve_params(1, 0, bound=10**7, count=1)[0].to_json(), "omega0": omega0}
    with pytest.raises(ValueError, match=r"^omega0 must be an array, got "):
        ParamSet.from_json(obj)


def test_sieve_g1_h1_same_quadruples():
    # the conditions do not involve h
    q0 = sieve_params(1, 0, bound=10**7, count=1)[0]
    q1 = sieve_params(1, 1, bound=10**7, count=1)[0]
    assert (q0.a, q0.b, q0.c, q0.d) == (q1.a, q1.b, q1.c, q1.d)
    assert q1.h == 1


def test_sieve_g3_large_bound():
    (ps,) = sieve_params(3, 0, bound=10**12, count=1)
    assert verify_conditions(ps).ok
    assert not ps.full_family_ok  # g = 3 mod 4


# --------------------------------------------------------------------------
# the wheel against the term-by-term scan it replaced


def _stepwise_survivors(step, omega0, bound, tables, start=1):
    n = 1 + step * (start - 1)
    while True:
        n += step
        if n > bound:
            return
        if any(not tables[q][n % q] for q in omega0):
            continue
        yield n


def _stepwise_b(omega0, bound, tables):
    for n in _stepwise_survivors(8, omega0, bound, tables):
        if n in omega0 or not is_prime(n):
            continue
        yield n


def _stepwise_a(b, omega0, bound, tables):
    step = 8 * b // math.gcd(8, b)
    for n in _stepwise_survivors(step, omega0, bound, tables):
        if n in omega0 or n == b or not is_prime(n):
            continue
        yield n


# a custom set whose wheel leaves one prime for the byte tables and two
# (>= 256) for the term-by-term check
_CUSTOM_OMEGA0 = (3, 5, 7, 11, 13, 17, 19, 23, 263, 271)


@pytest.mark.parametrize("omega0", [omega0_for_genus(1), omega0_for_genus(3),
                                    omega0_for_genus(5), _CUSTOM_OMEGA0, (5, 11), ()])
def test_wheel_matches_stepwise_candidates(omega0):
    tables = _qr_tables(omega0)
    bound = 10**6
    assert list(_slot_candidates(8, omega0, bound, tables)) == \
        list(_stepwise_b(omega0, bound, tables))
    for b in (73, 97, 193, 1201):
        step = 8 * b // math.gcd(8, b)
        assert list(_slot_candidates(step, omega0, 10**7, tables)) == \
            list(_stepwise_a(b, omega0, 10**7, tables))


def _is_square(n):
    return math.isqrt(n) ** 2 == n


@pytest.mark.parametrize("omega0", [omega0_for_genus(3), omega0_for_genus(5),
                                    omega0_for_genus(7), _CUSTOM_OMEGA0, (3, 5, 7)])
@pytest.mark.parametrize("wheel", [0, 1, 3, params.WHEEL_PRIMES])
def test_wheel_matches_stepwise_survivors(omega0, wheel, monkeypatch):
    # before the primality test, and without the perfect squares, which the
    # wheel drops; for omega0(5) and omega0(7) the stepwise survivors below
    # 2*10^5 are odd squares prime to omega0, so exactly those are dropped and
    # they are not none.  Below 2*10^5 the wheel grows to at most five
    # primes; a cap of 0, 1 or 3 primes stops it early, so that many blocks
    # are scanned with few marked primes and many tested term by term.  Steps
    # divisible by 3 drop 3 from the checks.
    monkeypatch.setattr(params, "WHEEL_PRIMES", wheel)
    tables = _qr_tables(omega0)
    for step in (8, 24, 8 * 73, 8 * 1201):
        for bound in (1, 9, 10, 10**4 + 1, 2 * 10**5):
            got = list(_progression_survivors(step, omega0, bound, tables))
            assert got == [n for n in _stepwise_survivors(step, omega0, bound, tables)
                           if not _is_square(n)]
    if omega0 in (omega0_for_genus(5), omega0_for_genus(7)):
        stepwise = list(_stepwise_survivors(8, omega0, 2 * 10**5, tables))
        dropped = set(stepwise) - set(_progression_survivors(8, omega0, 2 * 10**5, tables))
        assert dropped and dropped == {n for n in stepwise if _is_square(n)}
        assert all(n % 2 and all(n % q for q in omega0) for n in dropped)


@pytest.mark.parametrize("g", [1, 3, 5, 7])
def test_progression_table_matches_the_term_by_term_table(g):
    # entry x is the table's entry at the term 1 + step x mod q, for every q
    # of omega0 that does not divide step: steps 1 and -1 mod some q among them
    omega0 = omega0_for_genus(g)
    tables = _qr_tables(omega0)
    for step in (8, 24, 8 * 73, 8 * 1201, 8 * 1753, 8 * 23_616_331_489):
        for q in omega0:
            if step % q:
                expected = bytes(tables[q][(1 + step * x) % q] for x in range(q))
                assert _progression_table(tables[q], step) == expected, (q, step)


def _stage_starts(step, omega0):
    # the first k of each wheel after the first, by the growth rule: wheel w
    # (modulus M, |R| residues) scans whole blocks, one at least, until it has
    # passed over the set-up of wheel w + 1, its residues times its marked
    # primes (the first bit_length of them below 256 after its own), and
    # on to the next multiple of wheel w + 1's modulus
    qs = [q for q in omega0 if step % q]
    starts, start, m, size = [], 0, 1, 1
    for w in range(1, min(params.WHEEL_PRIMES, len(qs))):
        m, size = m * qs[w - 1], size * (qs[w - 1] - 1) // 2
        nxt = size * (qs[w] - 1) // 2
        setup = nxt * len([q for q in qs[w + 1:] if q < 256][:nxt.bit_length()])
        end = start + max(1, -(-setup // size)) * m
        start = -(-end // (m * qs[w])) * m * qs[w]
        starts.append(start)
    return starts


def _record_wheels(monkeypatch):
    # the modulus of every wheel that _progression_survivors builds
    built = []
    stage = params._wheel_stage

    def recorded(residues, m, q, ok):
        built.append(m * q)
        return stage(residues, m, q, ok)

    monkeypatch.setattr(params, "_wheel_stage", recorded)
    return built


@pytest.mark.parametrize("omega0", [omega0_for_genus(3), omega0_for_genus(5),
                                    omega0_for_genus(7), _CUSTOM_OMEGA0])
def test_wheel_growth_stages_match_stepwise(omega0, monkeypatch):
    # bounds at each stage start k, one term before and after it, and one
    # below each of those terms: the wheel changes there and the scan goes on
    # from k.  Every start below k = 10^5 is taken, which crosses at least
    # three growth stages.  Bounds just below and at a start tell the lifts
    # apart: the lift to the next wheel runs exactly when the bound reaches
    # the term at its start
    built = _record_wheels(monkeypatch)
    tables = _qr_tables(omega0)
    for step in (8, 24, 8 * 73, 8 * 1201):
        starts = [k for k in _stage_starts(step, omega0) if k < 10**5]
        assert len(starts) >= 3, step
        top = 1 + step * (starts[-1] + 1)
        stepwise = [n for n in _stepwise_survivors(step, omega0, top, tables)
                    if not _is_square(n)]
        for i, k in enumerate(starts):
            for n in (1 + step * (k - 1), 1 + step * k, 1 + step * (k + 1)):
                for bound in (n - 1, n):
                    built.clear()
                    got = list(_progression_survivors(step, omega0, bound, tables))
                    assert got == [x for x in stepwise if x <= bound], (step, bound)
                    assert len(built) == 1 + i + (bound >= 1 + step * k), (step, bound)


@pytest.mark.parametrize("omega0, step", [(omega0_for_genus(3), 8),
                                          (_CUSTOM_OMEGA0, 24)])
def test_full_wheel_matches_stepwise_at_its_start(omega0, step, monkeypatch):
    # the lift to the WHEEL_PRIMES-prime wheel, at k ~ 9.7*10^6 and 3.7*10^7:
    # the survivors of the 3*10^4 terms on each side of its start.  At
    # omega0(3) it marks the three primes left; at the custom set it marks
    # none and tests 263 and 271 term by term
    built = _record_wheels(monkeypatch)
    tables = _qr_tables(omega0)
    k = _stage_starts(step, omega0)[-1]
    lo, hi = k - 3 * 10**4, k + 3 * 10**4
    got = [n for n in _progression_survivors(step, omega0, 1 + step * hi, tables)
           if n >= 1 + step * lo]
    assert len(built) == params.WHEEL_PRIMES
    assert got == [n for n in _stepwise_survivors(step, omega0, 1 + step * hi, tables, lo)
                   if not _is_square(n)]
    assert got[0] < 1 + step * k < got[-1]


def _wheel_primes_built(built, omega0):
    return max(sum(m % q == 0 for q in omega0) for m in built)


def test_wheel_grows_only_as_far_as_the_scan(monkeypatch):
    # work counter: the largest wheel each search builds.  The genus-3 answer
    # lies early in each progression, the genus-7 refusal's whole range is 2.6
    # blocks of the 7-prime wheel, and the genus-5 search runs to
    # b = L_97 ~ 2.4*10^10
    built = _record_wheels(monkeypatch)
    sieve_params(3, 0, bound=10**12, count=1)
    assert _wheel_primes_built(built, omega0_for_genus(3)) <= 5
    built.clear()
    with pytest.raises(SieveExhausted) as ei:
        sieve_params(7, 0, bound=10**8)
    assert ei.value.slot == "b"
    assert _wheel_primes_built(built, omega0_for_genus(7)) < params.WHEEL_PRIMES
    built.clear()
    sieve_params(5, 1, bound=10**24, count=1)
    assert _wheel_primes_built(built, omega0_for_genus(5)) == params.WHEEL_PRIMES


def test_sieve_custom_omega0_matches_stepwise():
    omega0 = (3, 5, 7, 11)
    tables = _qr_tables(omega0)
    (ps,) = sieve_params(1, 0, omega0=omega0, bound=10**9, count=1)
    b = next(_stepwise_b(omega0, 10**9, tables))
    assert (ps.b, ps.a) == (b, next(_stepwise_a(b, omega0, 10**9, tables)))
    assert ps.omega0 == omega0


def test_sieve_g5_below_1e7_exhausts_at_b():
    # below 10^7 the residue filter passes only perfect squares, which the
    # wheel drops, so no candidate for b is left
    with pytest.raises(SieveExhausted) as ei:
        sieve_params(5, 1, bound=10**7)
    assert ei.value.slot == "b"
