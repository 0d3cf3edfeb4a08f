import math

import pytest

from hassecert import arith, params
from hassecert.arith import is_prime, legendre
from hassecert.params import (
    ParamSet,
    SieveExhausted,
    _a_candidates,
    _b_candidates,
    _progression_survivors,
    _qr_tables,
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


def test_sieve_g1_first_quadruple():
    (ps,) = sieve_params(1, 0, bound=10**7, count=1)
    assert ps.b % 24 == 1  # b = 1 mod 8 and a square mod 3 forces 1 mod 24
    assert verify_conditions(ps).ok
    assert ps.b == 73 and ps.a == 1753  # smallest admissible values
    assert ps.full_family_ok


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


def _stepwise_survivors(step, omega0, bound, tables):
    n = 1
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
    assert list(_b_candidates(omega0, bound, tables)) == \
        list(_stepwise_b(omega0, bound, tables))
    for b in (73, 97, 193, 1201):
        assert list(_a_candidates(b, omega0, 10**7, tables)) == \
            list(_stepwise_a(b, omega0, 10**7, tables))


@pytest.mark.parametrize("omega0", [omega0_for_genus(3), omega0_for_genus(5),
                                    omega0_for_genus(7), _CUSTOM_OMEGA0, (3, 5, 7)])
@pytest.mark.parametrize("wheel", [0, 1, 3, params.WHEEL_PRIMES])
def test_wheel_matches_stepwise_survivors(omega0, wheel, monkeypatch):
    # before the primality test; for omega0(5) and omega0(7) the survivors
    # below 2*10^5 are the odd squares prime to omega0, so the lists are not
    # empty.  Small wheels cross many blocks and mark few primes; at omega0(7)
    # the full wheel marks 14 of the 36 primes left and tests the other 22
    # term by term.  Steps divisible by 3 drop 3 from the checks.
    monkeypatch.setattr(params, "WHEEL_PRIMES", wheel)
    tables = _qr_tables(omega0)
    for step in (8, 24, 8 * 73, 8 * 1201):
        for bound in (1, 9, 10, 10**4 + 1, 2 * 10**5):
            got = list(_progression_survivors(step, omega0, bound, tables))
            assert got == list(_stepwise_survivors(step, omega0, bound, tables))
    if omega0 in (omega0_for_genus(5), omega0_for_genus(7)):
        got = list(_progression_survivors(8, omega0, 2 * 10**5, tables))
        assert got and all(math.isqrt(n) ** 2 == n and n % 2 and
                           all(n % q for q in omega0) for n in got)


def test_sieve_custom_omega0_matches_stepwise():
    omega0 = (3, 5, 7, 11)
    tables = _qr_tables(omega0)
    (ps,) = sieve_params(1, 0, omega0=omega0, bound=10**9, count=1)
    b = next(_stepwise_b(omega0, 10**9, tables))
    assert (ps.b, ps.a) == (b, next(_stepwise_a(b, omega0, 10**9, tables)))
    assert ps.omega0 == omega0


def test_sieve_g5_below_1e7_exhausts_at_b():
    # every survivor of the residue filter below 10^7 is a perfect square
    with pytest.raises(SieveExhausted) as ei:
        sieve_params(5, 1, bound=10**7)
    assert ei.value.slot == "b"
