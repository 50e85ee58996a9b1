from __future__ import annotations

import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conicpoints import DivisorLimitExceeded, intmath
from conicpoints.errors import _int_text
from conicpoints.intmath import POINT_BUDGET, ceil_div, integer_sqrt, is_prime, positive_divisors
from corpus.make import PSI13, overcap_items


def test_integer_sqrt_basics():
    assert integer_sqrt(9) == 3
    assert integer_sqrt(0) == 0
    assert integer_sqrt(1) == 1
    assert integer_sqrt(8) is None
    assert integer_sqrt(-4) is None
    assert integer_sqrt(-1) is None


def test_integer_sqrt_around_squares():
    for s in range(2, 2000):
        assert integer_sqrt(s * s) == s
        assert integer_sqrt(s * s + 1) is None
        assert integer_sqrt(s * s - 1) is None


@given(st.integers(min_value=0, max_value=10**40))
def test_integer_sqrt_of_square_roundtrips(s):
    assert integer_sqrt(s * s) == s


@given(st.integers(min_value=2, max_value=10**40))
def test_integer_sqrt_rejects_offsets(s):
    assert integer_sqrt(s * s + 1) is None
    assert integer_sqrt(s * s - 1) is None


def test_ceil_div_either_sign():
    for p in range(-30, 31):
        for q in (*range(-7, 0), *range(1, 8)):
            assert ceil_div(p, q) == math.ceil(Fraction(p, q))
    assert ceil_div(-(10**40) - 1, -(10**20)) == 10**20 + 1


def _trial_divisors(n):
    """Reference: divisors by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _from_factors(factors):
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def test_positive_divisors_matches_naive():
    for n in list(range(1, 300)) + [720, 5040, 2**10, 3**7, 97 * 89]:
        assert positive_divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    for n in range(1, 5001):
        assert positive_divisors(n) == _trial_divisors(n)
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 10**6)
        assert positive_divisors(n) == _trial_divisors(n)


def test_positive_divisors_rejects_zero_and_cap():
    with pytest.raises(ValueError, match="divisor"):
        positive_divisors(0)
    # there is no magnitude cap: 2^50 * 3 is past 10^14
    assert positive_divisors(2**50 * 3) == _from_factors({2: 50, 3: 1})


SMALL_PRIMES_TO_61 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def test_positive_divisors_point_budget(default_int_str_limit):
    # 2*3*5*...*61 has 2^18 divisors, so its 2^19 signed ones (one
    # candidate point each) are past POINT_BUDGET; without the 2 they are
    # exactly at it
    n = math.prod(SMALL_PRIMES_TO_61)
    assert 2 ** len(SMALL_PRIMES_TO_61) == POINT_BUDGET
    tracemalloc.start()
    try:
        with pytest.raises(DivisorLimitExceeded, match="262144 divisors"):
            positive_divisors(n)
        # 2^18 divisors would take megabytes; none was built
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()
    assert len(positive_divisors(n // 2)) == POINT_BUDGET // 2
    # prime powers past the budget fail fast: each small prime is stripped
    # by squaring, not one division per power
    for power in (2**131074, 3**131073):
        start = time.process_time()
        with pytest.raises(DivisorLimitExceeded, match="over the point budget"):
            positive_divisors(power)
        assert time.process_time() - start < 1.0


def test_divisor_budget_past_the_int_str_digit_limit(default_int_str_limit):
    # from 2^14000 on a refusal names a number by its bit length: str()
    # refuses more than 4,300 digits
    with pytest.raises(DivisorLimitExceeded) as info:
        positive_divisors(2**131074)
    assert str(info.value) == (
        "|<131075-bit integer>| has 131075 divisors, 262150 signed points of up to "
        f"131075 bits, 67372550 in 512-bit words, over the point budget of {POINT_BUDGET}"
    )
    assert _int_text(2**14000 - 1) == str(2**14000 - 1)
    assert _int_text(2**14000) == "<14001-bit integer>"
    assert _int_text(-(2**14000)) == "-<14001-bit integer>"


# Factorizations up to 10^14, the largest targets the benchmark times: each
# would take trial division about a second.
NEAR_CAP = [
    {70000000000009: 1},  # prime
    {8366609: 1, 8367641: 1},  # balanced semiprime
    {2: 46},
    {9999991: 2},  # p^2, p just under 10^7
    {2: 6, 3: 4, 5: 2, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 1},  # tau = 6720
]


# a prime power far past 10^14, whose powers come from a running product
PRIME_POWER = {3: 2000}


@pytest.mark.parametrize("factors", [*NEAR_CAP, PRIME_POWER])
def test_positive_divisors_known_factorizations(factors):
    n = math.prod(p**e for p, e in factors.items())
    assert n <= 10**14 or factors is PRIME_POWER
    divs = positive_divisors(n)
    assert divs == _from_factors(factors)
    assert len(divs) == math.prod(e + 1 for e in factors.values())
    assert positive_divisors(-n) == divs


def test_positive_divisors_hard_composites():
    cases = {
        # the smallest composites with no prime factor below 2^10
        1031**2: {1031: 2},
        1031 * 1033: {1031: 1, 1033: 1},
        # strong pseudoprimes to base 2; to 2, 3; to 2, 3, 5; to 2, 3, 5, 7
        2047: {23: 1, 89: 1},
        1373653: {829: 1, 1657: 1},
        25326001: {2251: 1, 11251: 1},
        3215031751: {151: 1, 751: 1, 28351: 1},
        # Carmichael numbers
        561: {3: 1, 11: 1, 17: 1},
        41041: {7: 1, 11: 1, 13: 1, 41: 1},
        825265: {5: 1, 7: 1, 17: 1, 19: 1, 73: 1},
        # rho's cycle closes modulo n itself inside a batch, so the batch
        # is replayed one gcd at a time
        393249138943: {587473: 1, 669391: 1},
        61591786127: {136193: 1, 452239: 1},
        132294114241: {277787: 1, 476243: 1},
    }
    for n, factors in cases.items():
        assert not is_prime(n)
        assert all(is_prime(p) for p in factors)
        assert positive_divisors(n) == _from_factors(factors)
    # and nothing below 2 is prime
    assert not any(map(is_prime, (0, 1, -7)))


# psi_12 = p*q, p < q, as bench/overcap.json's psi12 item factors it
PSI12_P, PSI12_Q = sorted(overcap_items()["psi12"]["factors"])
PSI12 = PSI12_P * PSI12_Q


def test_positive_divisors_splits_psi12(factoring_units):
    # psi_12 passes Miller-Rabin to every base 2..37, base 41 shows it
    # composite, and ECM splits it once rho's ninth of the budget runs out.
    assert not is_prime(PSI12)
    assert positive_divisors(PSI12) == [1, PSI12_P, PSI12_Q, PSI12]
    assert factoring_units == [440992]


def test_positive_divisors_splits_psi13(monkeypatch, factoring_units):
    # psi_13 passes Miller-Rabin to every base 2..41, so it is taken for a
    # probable prime and proven at once, before rho searches it;
    # Pocklington's test shows it composite (base 43 fails Fermat), and only
    # then do rho and ECM split it
    assert is_prime(PSI13)
    rho_split, proven = intmath._rho_split, intmath._proven
    composite = []

    def rho_after_the_proof(n, meter, floor):
        assert n != PSI13 or PSI13 in composite
        return rho_split(n, meter, floor)

    def recording(n, meter):
        result = proven(n, meter)
        if result is False:
            composite.append(n)
        return result

    monkeypatch.setattr(intmath, "_rho_split", rho_after_the_proof)
    monkeypatch.setattr(intmath, "_proven", recording)
    start = time.process_time()
    assert positive_divisors(PSI13) == [1, 1287836182261, 2575672364521, PSI13]
    assert time.process_time() - start < 2
    assert composite == [PSI13]
    assert factoring_units == [1025230]


def test_factorize_splits_a_repeated_shown_composite_once(monkeypatch):
    # the root test reads psi_13^2 as psi_13 counted twice, a probable
    # prime; the proof shows it composite once, rho or ECM splits it once,
    # and each of its pieces is counted twice
    proven, rho_split, ecm_split = intmath._proven, intmath._rho_split, intmath._ecm_split
    outcomes, splits = [], []

    def recording_proof(n, meter):
        result = proven(n, meter)
        outcomes.append((n, result))
        return result

    def recording(split):
        def wrapped(n, meter, *floor):
            d = split(n, meter, *floor)
            if d is not None:
                splits.append(n)
            return d

        return wrapped

    monkeypatch.setattr(intmath, "_proven", recording_proof)
    monkeypatch.setattr(intmath, "_rho_split", recording(rho_split))
    monkeypatch.setattr(intmath, "_ecm_split", recording(ecm_split))
    meter = intmath._Meter(intmath._BUDGET)
    assert intmath._factorize(PSI13**2, meter) == {1287836182261: 2, 2575672364521: 2}
    assert outcomes == [(PSI13, False)]
    # (the proof splits cofactors of psi_13 - 1 too)
    assert splits.count(PSI13) == 1


def test_positive_divisors_names_a_composite_it_does_not_split(monkeypatch):
    # a probable prime the proof shows composite is refused as composite
    # when rho and ECM do not split it, not as a prime not proven
    for name in ("_rho_split", "_ecm_split"):
        split = getattr(intmath, name)
        monkeypatch.setattr(
            intmath,
            name,
            lambda m, *args, split=split: None if m == PSI13 else split(m, *args),
        )
    with pytest.raises(
        DivisorLimitExceeded, match=f"cofactor {PSI13} of {PSI13} is composite, not split within"
    ):
        positive_divisors(PSI13)


# The probable primes at or above psi_13 in the reduced targets of the
# benchmark's over-cap slice (bench/overcap.json; the test below names its
# items), Mersenne primes, and one prime whose n - 1 holds a large prime to
# a power, each with the units its test and proof spend.
PROVABLE_PRIMES = {
    129038938365214773537858908429: 14097,
    386148255740571217985298156305067121: 468987,
    735111315620892362126623507937917549: 467702,
    94539164323298405962151003: 176854,
    16781620828710807719053846029773: 1436920,
    73144303872081026854048727027: 49775,
    3549008165196016535315079042642869: 5062,
    289602684623632532634988882711259: 266928,
    16371365327659034441337746863: 3326,
    1959154286288724544332695962495292731: 1090708,
    233900143235098519725271622351827: 164749,
    277833612854703090768662362249: 2660,
    2**89 - 1: 2687,
    2**107 - 1: 22608,
    2**127 - 1: 10009,
    # 2*q^3 + 1 with q = 1200000707: F = n - 1 = 2*q^3, whose F^2 > n
    # needs q at its full power
    2 * 1200000707**3 + 1: 2948,
}


@pytest.mark.parametrize("p", PROVABLE_PRIMES)
def test_positive_divisors_proves_primes_above_psi13(p, factoring_units):
    assert p >= intmath._PSI_13
    start = time.process_time()
    assert positive_divisors(p) == [1, p]
    assert time.process_time() - start < 1
    assert factoring_units == [PROVABLE_PRIMES[p]]


def test_provable_primes_hold_the_over_cap_slice():
    # the slice's other primes above psi_13 are in digits20/7 and /11,
    # frontier composites that are never split
    items = overcap_items()
    for i in (0, 3, 4, 5, 6, 9, 10, 13, 15, 16, 18, 19):
        large = [p for p in items[f"digits20/{i}"]["factors"] if p >= intmath._PSI_13]
        assert large and all(p in PROVABLE_PRIMES for p in large), i


def test_pocklington_proves_a_prime_of_f_first(monkeypatch):
    # n - 1 = 2^3 * 17 * (2^89 - 1), and 136^2 < n, so F must include
    # 2^89 - 1, which is above psi_13 and is proven first
    n = 136 * (2**89 - 1) + 1
    assert n == 84179922671405858693140447097
    proven = intmath._proven
    calls = []

    def recording(m, meter):
        calls.append(m)
        return proven(m, meter)

    monkeypatch.setattr(intmath, "_proven", recording)
    assert positive_divisors(n) == [1, n]
    assert calls == [n, 2**89 - 1]


def test_pocklington_shows_composite_by_a_proper_gcd():
    # 2701 = 37 * 73 and 2700 = 2^2 * 3^3 * 5^2: a^2700 = 1 for a = 2, but
    # gcd(2^(2700/q) - 1, 2701) is a proper factor for some q of F
    assert intmath._proven(2701, intmath._Meter(intmath._BUDGET)) is False


def test_pocklington_splits_a_shown_composite_of_f(factoring_units):
    # n - 1 = 2^4 * 3 * psi_13, and 48^2 < n, so F must include psi_13's
    # primes: the proof of n proves psi_13 composite and then splits it
    n = 48 * PSI13 + 1
    assert n == 159218115104634594526175089
    start = time.process_time()
    assert positive_divisors(n) == [1, n]
    assert time.process_time() - start < 2
    assert factoring_units == [1027084]


def test_positive_divisors_splits_rho_limit_semiprime(factoring_units):
    # rho runs out of its budget on this 22-digit product of two proven
    # primes near 4*10^10 and 9*10^10; ECM splits it
    p, q = 39072923041, 89193927323
    assert is_prime(p) and is_prime(q)
    start = time.process_time()
    assert positive_divisors(p * q) == [1, p, q, p * q]
    assert time.process_time() - start < 1
    assert factoring_units == [740222]


@pytest.mark.parametrize("k, cofactor", [(2, 1), (3, 1), (20, 1), (3, 10007)])
def test_positive_divisors_reads_prime_powers(k, cofactor):
    # rho and ECM would look for p inside p^k and run the budget out; the
    # root test reads p^k as p, k times (once rho has split off 10007)
    p = 2**61 - 1
    start = time.process_time()
    divisors = positive_divisors(p**k * cofactor)
    assert time.process_time() - start < 0.25
    assert divisors == sorted({p**i * c for i in range(k + 1) for c in (1, cofactor)})


def test_power_root_is_charged_on_the_meter(monkeypatch):
    # (2^61 - 1)^2 is 122 bits, at or above psi_13: its Miller-Rabin test
    # is charged 13 * 122 units, and then the root tests of k = 2, 3, 5,
    # 7 and 11, 26 units each, before the square root is found
    p = 2**61 - 1
    tests = intmath._charge(p * p, 13 * 122)
    roots = 5 * (intmath._ROOT_UNITS + intmath._charge(p * p, intmath._ROOT_PRODUCTS))
    monkeypatch.setattr(intmath, "_BUDGET", tests + roots)
    assert positive_divisors(p * p) == [1, p, p * p]
    monkeypatch.setattr(intmath, "_BUDGET", tests + roots - 1)
    with pytest.raises(DivisorLimitExceeded, match=f"^the cofactor {p * p} of {p * p} is composite"):
        positive_divisors(p * p)


@pytest.mark.parametrize("k", [2, 3, 5, 7, 13, 101])
def test_kth_root_rounds_down(k):
    rng = random.Random(k)
    values = list(range(1, 3000))
    for _ in range(300):
        r = rng.getrandbits(rng.randint(1, 400)) + 1
        values += [r**k - 1, r**k, r**k + 1, rng.getrandbits(rng.randint(1, 3000)) + 1]
    for n in filter(None, values):
        r = intmath._kth_root(n, k)
        assert r**k <= n < (r + 1) ** k


class _CountingModulus(int):
    """An int that counts the reductions modulo it: ``x % n`` calls n's
    __rmod__ first, since n's type is a subclass of x's."""

    reductions = 0

    def __rmod__(self, other):
        _CountingModulus.reductions += 1
        return other % int(self)


@pytest.mark.parametrize(
    "n, budget, factor",
    [
        # split by rho in the round of 2^17 steps
        (PSI12, 1 << 20, PSI12_P),
        # rho's share on the first cofactor runs out
        (39072923041 * 89193927323, 1 << 19, None),
        # a batch overshoots and is replayed one gcd at a time
        (393249138943, 1 << 20, 669391),
    ],
)
def test_rho_charges_every_product(monkeypatch, n, budget, factor):
    # below 150 bits a product is one unit, so rho's charge is the number of
    # reductions modulo n it does: both products of each step, y*y + c and
    # q*(x - y), and the replay's.  Rho may spend ``budget`` of a meter that
    # holds twice that, and never takes it below the floor it is given
    monkeypatch.setattr(_CountingModulus, "reductions", 0)
    meter = intmath._Meter(2 * budget)
    found = intmath._rho_split(_CountingModulus(n), meter, budget)
    assert found == factor
    assert budget <= meter.left and 2 * budget - meter.left == _CountingModulus.reductions


def test_positive_divisors_splits_ecm_semiprime():
    # two primes near 10^15, past rho's reach
    p, q = 1000000000000037, 1000000001000053
    assert positive_divisors(p * q) == [1, p, q, p * q]


def test_ecm_is_deterministic():
    # the same curves in the same order: the same factor for the same work,
    # the units _BUDGET's comment gives
    n = 39072923041 * 89193927323
    first, again = intmath._Meter(intmath._BUDGET), intmath._Meter(intmath._BUDGET)
    assert (intmath._ecm_split(n, first), intmath._BUDGET - first.left) == (89193927323, 346905)
    assert intmath._ecm_split(n, again) == 89193927323 and again.left == first.left


def _point_order(x, a24, p):
    """The order of (x:1) on Suyama's curve modulo the prime p.

    The group order is a multiple of 12 in the Hasse interval, so the first
    such multiple that kills the point is a multiple of its order, and the
    order is the smallest divisor of it that kills the point."""

    def kills(r):
        return intmath._ladder(r, x, 1, a24, p)[1] % p == 0

    lo, hi = p + 1 - 2 * math.isqrt(p) - 2, p + 1 + 2 * math.isqrt(p) + 2
    multiple = next(r for r in range(lo + -lo % 12, hi + 1, 12) if kills(r))
    return next(d for d in positive_divisors(multiple) if kills(d))


def test_ecm_stages_match_point_orders():
    # modulo a prime p, stage 1 kills the point P exactly when its order
    # divides k, and stage 2's product vanishes when the order q of Q = kP
    # is a prime in (B1, B2], and not when q is past every giant step
    p, b1 = 1000003, 420
    b2 = intmath._ECM_B2 * b1
    k, babies, table = intmath._ecm_tables(b1)
    seen = Counter()
    for sigma in range(6, 46):
        u, v = sigma * sigma - 5, 4 * sigma
        x = u**3 * pow(v**3, -1, p) % p
        a24 = (v - u) ** 3 * (3 * u + v) * pow(16 * u**3 * v, -1, p) % p
        r = _point_order(x, a24, p)
        q = r // math.gcd(r, k)
        xk, zk, _, _ = intmath._ladder(k, x, 1, a24, p)
        assert (zk % p == 0) == (q == 1)
        if q == 1:
            seen["stage 1"] += 1
            continue
        acc = intmath._ecm_stage2(xk, zk, a24, p, b1, babies, table) % p
        if b1 < q <= b2 and is_prime(q):
            assert acc == 0
            seen["stage 2"] += 1
        elif q > b2 + intmath._ECM_D:
            assert acc != 0
            seen["missed"] += 1
    assert seen == {"stage 1": 12, "stage 2": 23, "missed": 5}


def _next_probable_prime(n):
    while not is_prime(n):
        n += 1
    return n


def _balanced_semiprime(bits):
    """A semiprime of ``bits`` bits whose two primes have about half each."""
    n = _next_probable_prime(1 << (bits // 2)) * _next_probable_prime(3 << (bits - bits // 2 - 2))
    assert n.bit_length() == bits
    return n


@pytest.mark.parametrize(
    "n, outcome, ceiling, units",
    [
        # two proven primes near 10^23, past ECM's reach
        (100000000000000000000117 * 200000000000000000000069, "composite, not split", 2, 4535530),
        # 2*r*s + 1 with r the first prime after 10^39 and s the first
        # prime after 2*10^39 for which it is a probable prime: its proof
        # needs r or s, and rho and ECM do not split r*s
        (
            2
            * 1000000000000000000000000000000000000003
            * 2000000000000000000000000000000000003861
            + 1,
            "a probable prime, not proven",
            2,
            4604941,
        ),
        # a product modulo a 129- to 256-bit number is charged 1 to 2.17
        # units, about what it costs, so the budget runs about as long here
        # as below 128 bits before a semiprime of two 20- or 39-digit primes
        # is refused
        (_balanced_semiprime(129), "composite, not split", 3, 4633606),
        (_balanced_semiprime(256), "composite, not split", 3, 4597420),
        # each product is charged by operand size, so a 400-digit semiprime
        # runs the budget out in a fraction of a second, not minutes
        (
            _next_probable_prime(10**199) * _next_probable_prime(10**200),
            "composite, not split",
            1,
            3961281,
        ),
    ],
    ids=["semiprime-1e23", "2rs+1", "semiprime-129-bits", "semiprime-256-bits", "semiprime-400-digits"],
)
def test_positive_divisors_refuses_past_the_factoring_budget(
    factoring_units, n, outcome, ceiling, units
):
    # the units spent do not depend on the host, the CPU time does
    start = time.process_time()
    with pytest.raises(
        DivisorLimitExceeded,
        match=f"^the cofactor {n} of {n} is {outcome} within {intmath._BUDGET} units$",
    ):
        positive_divisors(n)
    assert time.process_time() - start < ceiling
    assert factoring_units == [units]


def test_proofs_draw_on_the_factoring_meter(monkeypatch, factoring_units):
    # trial division strips 30 from 30 * (2^89 - 1), and Miller-Rabin finds
    # 2^89 - 1 a probable prime; its proof comes next.  With the budget one
    # unit above what came before the proof, the proof has that one unit
    # and is refused: it gets no budget of its own
    p = 2**89 - 1
    n = 30 * p
    proven = intmath._proven
    handed = []

    def recording(m, meter):
        handed.append(meter.left)
        return proven(m, meter)

    monkeypatch.setattr(intmath, "_proven", recording)
    assert positive_divisors(n) == _from_factors({2: 1, 3: 1, 5: 1, p: 1})
    assert factoring_units == [2687]
    budget = intmath._BUDGET - handed[0] + 1
    monkeypatch.setattr(intmath, "_BUDGET", budget)
    with pytest.raises(
        DivisorLimitExceeded,
        match=f"^the cofactor {p} of {n} is a probable prime, not proven within {budget} units$",
    ):
        positive_divisors(n)
    assert handed[1:] == [1]
