"""Small exact-integer helpers used throughout the solver.

Everything here works on unbounded Python ints; there is no floating point
in any code path.
"""

import math
from bisect import bisect_right
from itertools import accumulate, count, repeat
from operator import mul

from .errors import DivisorLimitExceeded, _int_text

# The point and factoring budgets (the oracle's is oracle.ROW_BUDGET).  The
# times below are CPU time on a 2-vCPU x86-64 machine with Python 3.11.
#
# Points an answer may have, each counted once per started POINT_WORD bits
# of its coordinates (check_point_budget): a finite solve tries one per
# signed divisor and is refused past it before it builds the divisors or
# the points, and a line pair's box under --check or oracle (two points a
# row) is refused with exit code 5 past POINT_BUDGET points of any size.
# At the edges, a whole `python -m conicpoints` process (Python 3.11.7,
# 2-vCPU x86-64) of `solve --format json` on the target 3*5*...*61 took
# 0.16-0.19 s of CPU, 16 MB of output and 89 MB peak, `theorem1 3 0 0 8192`
# (16 words a point) 1.2 s, 61 MB and 163 MB, and `solve --check --bound
# 65535 1 0 -1 0 0 0`, which holds the oracle's 262,141 points and the
# solver's as two lists, 0.26-0.27 s and 83 MB.
POINT_BUDGET = 1 << 18
POINT_WORD = 512

# The factoring budget: the work one positive_divisors call may spend on
# rho's steps, the Miller-Rabin tests it charges, ECM and the Pocklington
# proofs, counted down on one meter in units of a product modulo a number
# below 2^128, the unit of its messages.  A product modulo an n-bit number
# of w = ceil(n/30) 30-bit words is charged (23 + w^2) / 48 units, and at
# least one (_charge): CPython multiplies and reduces word by word, so its
# time is a fixed overhead plus a part that grows as w^2.  Every product is
# charged, rho's two a step included, and the charge is never below the
# measured cost, so no operand size stretches the budget.
# a*b % n against a 128-bit n (the least of 60 timed loops a size):
#
#   bits      150   180   210   240   270   330   540   1020   4080   14610
#   measured  0.91  1.11  1.20  1.60  1.70  2.25  4.29  12.4   160    1708
#   charged   1     1.23  1.50  1.81  2.17  3.00  7.23  24.6   386    4942
#
# A composite cofactor that is a perfect power r^k is read as r, k times,
# before any search (_power_root).  Rho comes next, with a ninth of what
# is left (_piece): 2^19 units on the first, of which its doubling rounds
# use 393,213 (a round of r steps is not started unless 4r products fit).
# That splits factors up to about 10^10 but not psi_12, which would take
# rho 638,973 units at 79 bits.  ECM gets all that rho leaves; it splits
# 39072923041 * 89193927323 in 346,905 units, and psi_12 in 440,888 with
# rho's share.  The Miller-Rabin test that shows a cofactor at or above
# psi_13 composite is charged before it runs, at one product per bit and
# witness: on the 4,400-digit conic it alone is over budget.  Each probable
# prime is proven where the factoring reaches it, on the same meter, and
# one the proof shows composite, at the top or inside another proof, is
# split like any other.  The benchmark's over-cap targets that are answered
# spend at most 4,051,766 units (digits20/15), and the refusals that
# tests/test_intmath.py times (semiprimes of 129 to 1,326 bits, 2*r*s + 1)
# 3,961,281-4,633,606 on any host, in 0.50-1.53 s (best of six runs each).
_BUDGET = 9 << 19

# Trial division by the primes below 2^10 comes first.  What is left has no
# prime factor below 2^10, so any cofactor of it below 2^20 is prime.
_SMALL_LIMIT = 1 << 10

# Deterministic Miller-Rabin with the primes 2..41 as witnesses.  The test
# is exact only below psi_13 = 3317044064679887385961981, which is itself a
# strong pseudoprime to all thirteen bases (Sorenson & Webster 2015).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981

# What _power_root charges for each k-th root test of a cofactor m, in
# units: a fixed part for the interpreter's work and _ROOT_PRODUCTS
# products modulo m.  The tests of every prime k <= bits/10 together were
# measured at 7-90 units below 151 bits, 440-450 at 512 and 6,100 at
# 2,600, about the largest cofactor whose Miller-Rabin test fits the
# budget; they are charged 26-156, 585 and 18,755.
_ROOT_UNITS = 24
_ROOT_PRODUCTS = 2

# Differences multiplied together between two gcds in Brent's loop.
_RHO_BATCH = 128

# ECM's stages, (B1, curves): the curves go to each stage in turn, the last
# one until the budget is spent.  Stage 2 takes the primes up to
# _ECM_B2 * B1 as m*_ECM_D +- j, with j below _ECM_D / 2 and prime to it.
# Below 151 bits the 18 curves at B1 = 3000, which find most primes of up
# to 16 digits, take 26% of _BUDGET and, after rho's ninth, leave 11
# curves at B1 = 11000 for larger ones.
_ECM_STAGES = ((3000, 18), (11000, None))
_ECM_B2 = 60
_ECM_D = 210
# What _ecm_split charges for pow(a, -1, n): 33-35 products measured from
# 100 bits to 4,096.
_INVERSE = 40


def _prime_flags(limit: int) -> bytearray:
    """flags[i] == 1 exactly when i < limit is prime."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return sieve


_SMALL_PRIMES = tuple(i for i, flag in enumerate(_prime_flags(_SMALL_LIMIT)) if flag)


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


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41: exact for every n below psi_13.

    At or above psi_13 a True answer means only "probable prime";
    positive_divisors trusts such a prime only once Pocklington's theorem
    has proven it (_proven).
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


def _charge(n: int, products: int) -> int:
    """The charge, in products modulo a number below 2^128, of ``products``
    products modulo ``n``: (23 + w^2) / 48 of a unit each for n of w 30-bit
    words, rounded up, and at least one unit."""
    words = ceil_div(n.bit_length(), 30)
    return ceil_div(products * max(48, 23 + words * words), 48)


class _Meter:
    """The factoring budget of one positive_divisors call: the units left."""

    def __init__(self, left: int) -> None:
        self.left = left

    def spend(self, cost: int) -> bool:
        """Take ``cost`` units, or take none and return False if fewer are left."""
        if cost > self.left:
            return False
        self.left -= cost
        return True


def _rho_split(n: int, meter: _Meter, floor: int) -> int | None:
    """A proper factor of the odd composite ``n``, or None.

    Pollard's rho with Brent's cycle finding (Brent 1980), made
    deterministic: start at 2 with f(x) = x^2 + c, taking c = 1, 2, ... in
    turn whenever the cycle closes modulo n itself (g == n).  A round that
    could take ``meter`` below ``floor`` units is not started; the factor
    is then None.  Each product modulo n is charged as _charge(n, products)
    gives: a round of r steps does r products while y runs ahead, two a step
    (y*y + c and q*(x - y)) while q gathers x - y, and one a step of a
    replay, at most 4r in all.
    """
    c = 0
    while True:
        c += 1
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            if _charge(n, 4 * r) > meter.left - floor:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = replayed = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            if g == n:
                # The batch overshot; replay it one gcd at a time.
                g = 1
                while g == 1:
                    ys = (ys * ys + c) % n
                    g = math.gcd(x - ys, n)
                    replayed += 1
            meter.left -= _charge(n, r + 2 * min(k, r) + replayed)
            r *= 2
        if g != n:
            return g


def _xdbl(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """2P on the x-only Montgomery curve with a24 = (A + 2) / 4: 5 products."""
    s = (x + z) ** 2 % n
    t = (x - z) ** 2 % n
    e = s - t
    return s * t % n, e * (t + a24 * e) % n


def _xadd(x: int, z: int, xq: int, zq: int, xd: int, zd: int, n: int) -> tuple[int, int]:
    """P + Q from P, Q and P - Q = (xd:zd): 6 products."""
    u = (x - z) * (xq + zq) % n
    v = (x + z) * (xq - zq) % n
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _ladder(k: int, x: int, z: int, a24: int, n: int) -> tuple[int, int, int, int]:
    """kP and (k+1)P for P = (x:z) and k >= 1, by Montgomery's ladder:
    11 products a bit of k after the first."""
    x0, z0 = x, z
    x1, z1 = _xdbl(x, z, a24, n)
    for bit in bin(k)[3:]:
        # (R0, R1) becomes (R0 + R1, 2 R1) or (2 R0, R0 + R1); R1 - R0 = P
        if bit == "1":
            x0, z0, x1, z1 = *_xadd(x1, z1, x0, z0, x, z, n), *_xdbl(x1, z1, a24, n)
        else:
            x0, z0, x1, z1 = *_xdbl(x0, z0, a24, n), *_xadd(x0, z0, x1, z1, x, z, n)
    return x0, z0, x1, z1


def _ecm_tables(b1: int) -> tuple[int, list[int], list[bytes]]:
    """ECM's tables for the stage-1 bound ``b1``: the product k of the
    prime powers up to b1, the baby steps j, and for each giant step
    m = b1 // _ECM_D, ... the indices i of the j_i with m*_ECM_D - j_i or
    m*_ECM_D + j_i a prime in (b1, _ECM_B2 * b1]."""
    b2 = _ECM_B2 * b1
    flags = _prime_flags(b2 + 1)
    k = 1
    for p in range(2, b1 + 1):
        if flags[p]:
            q = p
            while q * p <= b1:
                q *= p
            k *= q
    babies = [j for j in range(1, _ECM_D // 2, 2) if math.gcd(j, _ECM_D) == 1]
    table = []
    for m in range(b1 // _ECM_D, (b2 + _ECM_D // 2) // _ECM_D + 1):
        c = m * _ECM_D
        table.append(bytes(
            i
            for i, j in enumerate(babies)
            if b1 < c - j <= b2 and flags[c - j] or b1 < c + j <= b2 and flags[c + j]
        ))
    return k, babies, table


def _ecm_stage2(
    x: int, z: int, a24: int, n: int, b1: int, babies: list[int], table: list[bytes]
) -> int:
    """The product of x(m*_ECM_D*Q) - x(jQ) over the pairs (m, j) of
    ``table`` for Q = (x:z), modulo n: a prime p of n with
    (m*_ECM_D -+ j)Q = 0 modulo p divides it.  Every jQ and m*_ECM_D*Q is
    first brought to z = 1 by one inversion (Montgomery's batch trick), so a
    pair costs one product.  Where that inversion fails, the product of the
    z's is returned instead: a prime of n that divides it divides some z."""
    x2, z2 = _xdbl(x, z, a24, n)
    odd = [(x, z), _xadd(x, z, x2, z2, x, z, n)]
    while len(odd) <= _ECM_D // 4:
        (xa, za), (xb, zb) = odd[-2:]
        odd.append(_xadd(xb, zb, x2, z2, xa, za, n))
    xd, zd = _xdbl(*odd[-1], a24, n)
    xp, zp, xr, zr = _ladder(b1 // _ECM_D - 1, xd, zd, a24, n)
    points = [odd[j // 2] for j in babies]
    for _ in table:
        points.append((xr, zr))
        xr, zr, xp, zp = *_xadd(xr, zr, xd, zd, xp, zp, n), xr, zr
    prefix = list(accumulate([zi for _, zi in points], lambda a, b: a * b % n))
    if math.gcd(prefix[-1], n) != 1:
        return prefix[-1]
    inverse = pow(prefix[-1], -1, n)
    xs = [0] * len(points)
    for i in range(len(points) - 1, 0, -1):
        # inverse is 1 / (z_0 ... z_i) here
        xi, zi = points[i]
        xs[i] = xi * inverse * prefix[i - 1] % n
        inverse = inverse * zi % n
    xs[0] = points[0][0] * inverse % n
    bx = xs[: len(babies)]
    acc = 1
    for xg, row in zip(xs[len(babies) :], table):
        for i in row:
            acc = acc * (xg - bx[i]) % n
    return acc


def _ecm_split(n: int, meter: _Meter) -> int | None:
    """A proper factor of the odd composite ``n``, or None.

    Lenstra's elliptic-curve method (Ann. Math. 126, 1987) on Montgomery's
    x-only curves (Math. Comp. 48, 1987), made deterministic: Suyama's
    curves sigma = 6, 7, ..., for each stage (B1, curves) of _ECM_STAGES
    stage 1 as one ladder over the product of the prime powers up to B1,
    stage 2 on every prime up to _ECM_B2 * B1 in giant steps of _ECM_D.
    A stage that could take more than ``meter`` has left is not started;
    the factor is then None.  The last stage has no curve count: it runs
    until the meter refuses a curve.  Each product modulo n is charged as
    _charge(n, products) gives.
    """
    sigma = 5
    for b1, curves in _ECM_STAGES:
        k, babies, table = _ecm_tables(b1)
        # the curve, its inverse and the ladder over k; then 2Q, the odd jQ
        # up to _ECM_D / 2, the giant step and the first two giant points, a
        # giant step for each row, 4 products a point and an inverse to
        # bring the points to z = 1, and one product for each pair (m, j)
        cost1 = _charge(n, 16 + _INVERSE + 11 * (k.bit_length() - 1))
        cost2 = _charge(
            n,
            10 + 6 * (_ECM_D // 4) + 11 * (b1 // _ECM_D).bit_length() + 6 * len(table)
            + 4 * (len(babies) + len(table)) + _INVERSE + sum(map(len, table)),
        )
        for _ in range(curves) if curves else count():
            sigma += 1
            if not meter.spend(cost1):
                return None
            # Suyama: x = u^3 / v^3 and a24 = (v - u)^3 (3u + v) / (16 u^3 v),
            # both from the one inverse of 16 u^3 v^4
            u, v = sigma * sigma - 5, 4 * sigma
            den = 16 * u**3 * v**4 % n
            g = math.gcd(den, n)
            if g == 1:
                w = pow(den, -1, n)
                a24 = (v - u) ** 3 * (3 * u + v) * v**3 * w % n
                x, z, _, _ = _ladder(k, 16 * u**6 * v * w % n, 1, a24, n)
                g = math.gcd(z, n)
            if g == 1:
                if not meter.spend(cost2):
                    return None
                g = math.gcd(_ecm_stage2(x, z, a24, n, b1, babies, table), n)
            if g != 1 and g != n:
                return g


def _strip_small(n: int, factors: dict[int, int]) -> list[tuple[int, int]]:
    """Divide the primes below _SMALL_LIMIT out of n >= 1 into ``factors``
    and return _piece's pending list for what is left: [] for 1, else
    [(rest, 1)], rest a prime or a number with no prime factor below 2^10."""
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
    return [(rest, 1)] if rest > 1 else []


def _kth_root(n: int, k: int) -> int:
    """The k-th root of n >= 1, rounded down.

    Newton's method from above, started from the root of n's top bits (got
    the same way) raised past the root: each step about doubles the correct
    bits, and the first that does not go down ends it."""
    if k == 2:
        return math.isqrt(n)
    shift = n.bit_length() // (2 * k)
    if shift:
        x = (_kth_root(n >> k * shift, k) + 1) << shift
    else:
        x = 1 << ceil_div(n.bit_length(), k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _power_root(m: int, meter: _Meter) -> tuple[int | None, int]:
    """(r, k) with r^k == m for the least prime k that has one, (m, 1) when
    m is no perfect power, or (None, 1) when the test is over what
    ``meter`` has left.  ``m`` has no prime factor below 2^10, so r > 2^10
    and only the primes k <= bits/10 need a test; the test of each k is
    charged _ROOT_UNITS units and _ROOT_PRODUCTS products modulo m."""
    ks = _SMALL_PRIMES[: bisect_right(_SMALL_PRIMES, m.bit_length() // 10)]
    if not meter.spend(len(ks) * (_ROOT_UNITS + _charge(m, _ROOT_PRODUCTS))):
        return None, 1
    for k in ks:
        r = _kth_root(m, k)
        if r**k == m:
            return r, k
    return m, 1


def _piece(pending: list[tuple[int, int]], meter: _Meter) -> tuple[int, int, str | None]:
    """Pop cofactors (m, e) off ``pending``, each with no prime below 2^10
    and counted e times, pushing the root r of each perfect power r^k
    (counted e*k times) and both parts of each split, until one is not
    split: return (m, e, why).

    A probable prime at or above psi_13 is proven where it is found
    (_proven); one that the proof shows composite goes on to the root test,
    rho and ECM like any other composite.  Rho may spend a ninth of what
    ``meter`` has left, ECM all that rho leaves.  ``why`` is None for a
    proven prime, else the reason m is refused: "a probable prime, not
    proven" for one at or above psi_13 not proven within the budget,
    "composite, not split" for one neither a perfect power nor split, and
    "untested, not split" for one at or above psi_13 whose Miller-Rabin
    test, charged before it runs, is over the budget.
    """
    while True:
        m, e = pending.pop()
        if m < _SMALL_LIMIT * _SMALL_LIMIT or (m < _PSI_13 and is_prime(m)):
            return m, e, None
        if m >= _PSI_13:
            if not meter.spend(_charge(m, len(_MR_WITNESSES) * m.bit_length())):
                return m, e, "untested, not split"
            if is_prime(m):
                proven = _proven(m, meter)
                if proven is None:
                    return m, e, "a probable prime, not proven"
                if proven:
                    return m, e, None
        r, k = _power_root(m, meter)
        if r is None:
            return m, e, "composite, not split"
        if k > 1:
            pending.append((r, e * k))
            continue
        d = _rho_split(m, meter, meter.left - meter.left // 9) or _ecm_split(m, meter)
        if d is None:
            return m, e, "composite, not split"
        pending += ((d, e), (m // d, e))


def _proven(n: int, meter: _Meter) -> bool | None:
    """Whether the probable prime ``n`` is prime: True when proven, False
    when shown composite and None when ``meter`` ran out first.

    Pocklington's theorem as Brillhart, Lehmer & Selfridge give it (Math.
    Comp. 29, 1975): let F divide n - 1 with F^2 > n, and for each prime q
    of F let some a have a^(n-1) = 1 and gcd(a^((n-1)/q) - 1, n) = 1
    modulo n.  Then every prime factor of n is 1 modulo F, so n is prime.
    F is the part of n - 1 that _piece factors, kept as {q: e} with each
    prime counted at its exponent, until F^2 > n; a probable prime of it at
    or above psi_13 is proven the same way where _piece finds it, and split
    if shown composite.  A composite n never passes: a^(n-1) != 1 or a
    proper gcd shows it composite.  Each power is charged by its exponent's
    bits, as _charge(n, bits) units.
    """
    f: dict[int, int] = {}
    pending = _strip_small(n - 1, f)
    while math.prod(p**e for p, e in f.items()) ** 2 <= n:
        if not pending:
            return None
        m, e, why = _piece(pending, meter)
        # a cofactor not split or not proven stays out of F
        if why is None:
            f[m] = f.get(m, 0) + e
    for q in f:
        e = (n - 1) // q
        cost = _charge(n, e.bit_length() + q.bit_length())
        for a in count(2):
            if not meter.spend(cost):
                return None
            y = pow(a, e, n)
            if pow(y, q, n) != 1:
                return False
            g = math.gcd(y - 1, n)
            if g == 1:
                break
            if g != n:
                return False
    return True


def _factorize(n: int, meter: _Meter) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1.

    Trial division, then _piece on what is left: a perfect-power test, rho
    and ECM on the composite cofactors, and a Pocklington proof (_proven)
    of each probable prime at or above psi_13 where it is found.  All of it
    draws on ``meter``, of _BUDGET units.  Past them DivisorLimitExceeded is
    raised as "the cofactor m of n is <why> within _BUDGET units", with
    _piece's reason, so no factorization ever rests on an unproven prime.
    """
    factors: dict[int, int] = {}
    pending = _strip_small(n, factors)
    while pending:
        m, e, why = _piece(pending, meter)
        if why is not None:
            raise DivisorLimitExceeded(
                f"the cofactor {_int_text(m)} of {_int_text(n)} is {why} "
                f"within {_BUDGET} units"
            )
        factors[m] = factors.get(m, 0) + e
    return factors


def check_point_budget(points: int, bits: int, subject: str, *numbers: int) -> None:
    """Raise DivisorLimitExceeded when ``points``, one per signed divisor of
    ``subject`` (a template for ``numbers``, filled in only then), of up to
    ``bits`` bits a coordinate, count past POINT_BUDGET: each counts once
    per started POINT_WORD bits, and at least once."""
    charge = points * max(1, ceil_div(bits, POINT_WORD))
    if charge > POINT_BUDGET:
        subject = subject.format(*map(_int_text, numbers))
        raise DivisorLimitExceeded(
            f"{subject} has {_int_text(points // 2)} divisors, {_int_text(points)} "
            f"signed points of up to {_int_text(bits)} bits, {_int_text(charge)} in "
            f"{POINT_WORD}-bit words, over the point budget of {POINT_BUDGET}"
        )


def positive_divisors(n: int) -> list[int]:
    """All positive divisors of |n| in ascending order.

    Factors |n| first (small primes, then Miller-Rabin, a perfect-power
    test, Brent's rho and ECM on what is left, and a Pocklington proof of
    each probable prime at or above psi_13 where it is found) and builds
    the divisors from the prime powers, so the cost follows the size of the prime factors and
    the divisor count, not sqrt(|n|).  The list is sorted after each prime p^e: it then holds
    e + 1 sorted runs, one per power of p, which the sort only merges, with
    far fewer comparisons of large ints than one sort at the end.
    ``n == 0`` is rejected (every integer divides zero), and
    DivisorLimitExceeded is raised for a cofactor not split or a probable
    prime not proven within the one factoring budget, _BUDGET units for
    all of it, and for divisors past the point budget, each counted at
    |n|'s bits.
    """
    if n == 0:
        raise ValueError("0 has no finite divisor list")
    n = abs(n)
    factors = _factorize(n, _Meter(_BUDGET))
    tau = math.prod(e + 1 for e in factors.values())
    check_point_budget(2 * tau, n.bit_length(), "|{}|", n)
    divisors = [1]
    for p, e in factors.items():
        divisors += [d * q for q in accumulate(repeat(p, e), mul) for d in divisors]
        divisors.sort()
    return divisors
