from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conicpoints import (
    DivisorLimitExceeded,
    extended_gcd,
    integer_sqrt,
    positive_divisors,
)
from conicpoints.intmath import ceil_div, is_prime


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


def test_extended_gcd_known():
    g, u, v = extended_gcd(240, 46)
    assert g == 2
    assert 240 * u + 46 * v == 2
    assert extended_gcd(1, 0) == (1, 1, 0)
    g, u, v = extended_gcd(6, 9)
    assert g == 3 and 6 * u + 9 * v == 3


@given(st.integers(-(10**20), 10**20), st.integers(-(10**20), 10**20))
def test_extended_gcd_bezout(a, b):
    g, u, v = extended_gcd(a, b)
    assert g == math.gcd(a, b)
    assert a * u + b * v == g
    assert g >= 0


def test_positive_divisors_of_80():
    assert positive_divisors(80) == [1, 2, 4, 5, 8, 10, 16, 20, 40, 80]


def test_positive_divisors_small():
    assert positive_divisors(1) == [1]
    assert positive_divisors(10) == [1, 2, 5, 10]
    assert positive_divisors(-10) == [1, 2, 5, 10]
    assert positive_divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


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


def test_positive_divisors_larger_counts():
    # independent tau() by a differently-shaped loop
    for n in (999983, 735134, 510510):
        count = 0
        d = 1
        while d * d <= n:
            if n % d == 0:
                count += 2 - (d * d == n)
            d += 1
        assert len(positive_divisors(n)) == count


def test_positive_divisors_rejects_zero_and_cap():
    with pytest.raises(ValueError, match="divisor"):
        positive_divisors(0)
    with pytest.raises(DivisorLimitExceeded, match="cap"):
        positive_divisors(10**15)
    with pytest.raises(DivisorLimitExceeded):
        positive_divisors(101, cap=100)
    assert positive_divisors(100, cap=100)[-1] == 100


# Factorizations near the default cap of 10^14: each would take trial
# division about a second.
NEAR_CAP = [
    {70000000000009: 1},  # prime
    {8366609: 1, 8367641: 1},  # balanced semiprime
    {2: 46},
    {9999991: 2},  # p^2, p just under 10^7
    {2: 6, 3: 4, 5: 2, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 1},  # tau = 6720
]


@pytest.mark.parametrize("factors", NEAR_CAP)
def test_positive_divisors_known_factorizations(factors):
    n = math.prod(p**e for p, e in factors.items())
    assert n <= 10**14
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
    }
    for n, factors in cases.items():
        assert not is_prime(n)
        assert all(is_prime(p) for p in factors)
        assert positive_divisors(n) == _from_factors(factors)


def test_positive_divisors_splits_psi12():
    # psi_12 passes Miller-Rabin to every base 2..37; rho still splits it.
    psi12 = 318665857834031151167461
    assert is_prime(psi12)
    assert positive_divisors(psi12, cap=10**30) == [
        1,
        399165290221,
        798330580441,
        psi12,
    ]


@pytest.mark.parametrize(
    "n",
    [
        1000000000000037 * 1000000001000053,  # two primes near 10^15
        2**89 - 1,  # a Mersenne prime above psi_12
    ],
)
def test_positive_divisors_rho_budget(n):
    start = time.perf_counter()
    with pytest.raises(DivisorLimitExceeded, match=f"cofactor {n} "):
        positive_divisors(n, cap=10**40)
    assert time.perf_counter() - start < 2
