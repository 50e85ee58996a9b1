"""Small exact-integer helpers used throughout the solver.

Everything here works on unbounded Python ints; there is no floating point
in any code path.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import mul

from .errors import DivisorLimitExceeded, _int_text

# Points an answer may have: a finite solve tries one per signed divisor,
# so positive_divisors refuses more than POINT_BUDGET / 2 divisors before
# building any, and a line pair's box under --check or oracle (two points a
# row) is refused with exit code 5 past it.  At the edges, on a 2-vCPU
# x86-64 machine with Python 3.11, `solve --format json` on the target
# 3*5*...*61 took 0.7-0.9 s of CPU time, 16 MB of output and 105 MB peak,
# and `solve --check --bound 65535 1 0 -1 0 0 0` 1.2-1.5 s and 46 MB.
POINT_BUDGET = 1 << 18

# Trial division by the primes below 2^10 comes first.  What is left has no
# prime factor below 2^10, so any cofactor of it below 2^20 is prime.
_SMALL_LIMIT = 1 << 10

# Deterministic Miller-Rabin with the primes 2..37 as witnesses.  The test
# is exact only below psi_12 = 318665857834031151167461, which is itself a
# strong pseudoprime to all twelve bases (Sorenson & Webster 2015).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461

# Work Brent's rho may spend in one positive_divisors call, in steps on a
# 128-bit operand.  A step on an n-bit operand costs ceil(n/128)^2 of them:
# multiplying and reducing modulo n take time at most quadratic in n's
# size, so no operand size stretches the budget.  Splitting psi_12 takes
# 450,558 steps at 79 bits.  On the machine above, running the budget out
# took at most 0.46 s (on a 128-bit prime); on the operands tried from 129
# bits to 4,400 digits it took at most 0.16 s.
_RHO_BUDGET = 1 << 19
# Differences multiplied together between two gcds in Brent's loop.
_RHO_BATCH = 128


def _primes_below(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


_SMALL_PRIMES = _primes_below(_SMALL_LIMIT)


def integer_sqrt(n: int) -> int | None:
    """Exact square root of ``n``, or None when ``n`` is not a perfect square.

    Negative inputs are never squares, so they yield None rather than an
    error; callers use this directly as a "is this discriminant a square"
    test.
    """
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def ceil_div(p: int, q: int) -> int:
    """The ceiling of p / q, for either sign of q != 0."""
    return -(-p // q)


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = gcd(a, b) >= 0 and a*u + b*v == g.

    Iterative extended Euclid.  Works for any signs; the final sign flip
    keeps g nonnegative so callers can use it as a divisor directly.
    """
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..37: exact for every n below psi_12.

    At or above psi_12 a True answer means only "probable prime"; callers
    that need certainty there must not rely on it.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_split(n: int, budget: int) -> tuple[int | None, int]:
    """A proper factor of the odd composite ``n`` and the budget left.

    Pollard's rho with Brent's cycle finding (Brent 1980), made
    deterministic: start at 2 with f(x) = x^2 + c, taking c = 1, 2, ... in
    turn whenever the cycle closes modulo n itself (g == n).  A round that
    could take the work spent past ``budget`` is not started; the factor
    is then None.  Each step costs ceil(bits/128)^2 units of ``budget``.
    """
    cost = ceil_div(n.bit_length(), 128) ** 2
    c = 0
    while True:
        c += 1
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            if 2 * r * cost > budget:
                return None, budget
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            budget -= (r + min(k, r)) * cost
            r *= 2
        if g == n:
            # The batch overshot; replay it one gcd at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, budget


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1.

    Raises DivisorLimitExceeded naming the cofactor when rho runs out of
    budget, so no factorization ever rests on an unproven prime.
    """
    factors: dict[int, int] = {}
    rest = n
    for p in _SMALL_PRIMES:
        if p * p > rest:
            break
        if rest % p == 0:
            # strip p, p^2, p^4, ... while they divide, until p does not:
            # O(log(e)^2) divisions for p^e, not e
            e = 0
            while rest % p == 0:
                q, k = p, 1
                while rest % q == 0:
                    rest //= q
                    e += k
                    q, k = q * q, 2 * k
            factors[p] = e
    pending = [rest] if rest > 1 else []
    budget = _RHO_BUDGET
    while pending:
        m = pending.pop()
        if m < _SMALL_LIMIT * _SMALL_LIMIT or (m < _PSI_12 and is_prime(m)):
            factors[m] = factors.get(m, 0) + 1
            continue
        d, budget = _rho_split(m, budget)
        if d is None:
            raise DivisorLimitExceeded(
                f"the cofactor {_int_text(m)} of {_int_text(n)} was not split within "
                f"{_RHO_BUDGET} rho steps of 128 bits"
            )
        pending += (d, m // d)
    return factors


def positive_divisors(n: int) -> list[int]:
    """All positive divisors of |n| in ascending order.

    Factors |n| first (small primes, then Miller-Rabin and Brent's rho on
    what is left) and builds the divisors from the prime powers, so the
    cost follows the size of the prime factors and the divisor count, not
    sqrt(|n|).  The list is sorted after each prime p^e: it then holds
    e + 1 sorted runs, one per power of p, which the sort only merges, with
    far fewer comparisons of large ints than one sort at the end.
    ``n == 0`` is rejected (every integer divides zero), and
    DivisorLimitExceeded is raised for a cofactor rho does not split
    within its budget and for more than POINT_BUDGET / 2 divisors.
    """
    if n == 0:
        raise ValueError("0 has no finite divisor list")
    n = abs(n)
    factors = _factorize(n)
    tau = math.prod(e + 1 for e in factors.values())
    if 2 * tau > POINT_BUDGET:
        raise DivisorLimitExceeded(
            f"|{_int_text(n)}| has {tau} divisors, {2 * tau} signed, over the point "
            f"budget of {POINT_BUDGET}"
        )
    divisors = [1]
    for p, e in factors.items():
        divisors += [d * q for q in accumulate(repeat(p, e), mul) for d in divisors]
        divisors.sort()
    return divisors
