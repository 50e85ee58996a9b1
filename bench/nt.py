"""Number theory the benchmark needs to build inputs and reference answers.

Nothing here comes from the package under test: the benchmark makes its
own primes and keeps its own factorizations, so a reference answer never
rests on the solver's divisor route or on its primality test.
"""

from __future__ import annotations

import math
import random

# Miller-Rabin with the first 13 primes as witnesses is exact below
# psi_13 = 3317044064679887385961981 (Sorenson & Webster 2015).  Above it
# the extra bases make the test probabilistic, which is enough for the
# large cofactors in the committed over-cap slice.
_EXACT_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981
_EXTRA_WITNESSES = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _EXACT_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = _EXACT_WITNESSES if n < _PSI_13 else _EXACT_WITNESSES + _EXTRA_WITNESSES
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A uniformly drawn prime p with lo <= p < hi."""
    while True:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            return p


def product(factors: dict[int, int]) -> int:
    return math.prod(p**e for p, e in factors.items())


def divisors(factors: dict[int, int]) -> list[int]:
    """Positive divisors built from a prime factorization, ascending."""
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def trial_factor(n: int) -> dict[int, int]:
    """Factorization of |n| by trial division; for the small targets only."""
    n = abs(n)
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors
