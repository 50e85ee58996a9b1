"""Independent cross-check machinery: search bounds, brute force, generators.

The brute-force search deliberately avoids the divisor route.  It scans y
and asks when the conic, read as a quadratic in x, has an integer root; the
only shared ingredient with the solver is exact integer arithmetic.  On a
line pair (I = 0) the discriminant is the square of a linear polynomial in
every row, so the scan reads both roots off that exact identity instead of
taking a square root; it still visits every row and still takes every
point from the quadratic formula.
"""

import math
from typing import NamedTuple

from .conic import Conic, Invariants, LatticePoint, invariants_of, validate
from .errors import DegenerateAlpha
from .intmath import ceil_div, positive_divisors


# Rows (2*by + 1) the CLI lets the oracle scan; larger boxes are refused with
# exit code 5.  The slowest finite case, a conic whose disc passes every
# square filter in every row (`oracle --bound 2097151 1 3 2 0 0 -2882880`),
# took 0.51-0.61 s of CPU time and 17 MB peak at 2^22 rows on a 2-vCPU
# x86-64 machine with Python 3.11, and 2.3 s (brute_force alone) at 2^24; a
# typical derived box scans tens of millions of rows per second.
ROW_BUDGET = 1 << 22


class SearchBound(NamedTuple):
    bx: int
    by: int


def solution_bound(conic: Conic, inv: Invariants | None = None) -> SearchBound:
    """A box certain to contain every integral point (finite case only).

    At a solution, F1 and F2 are integers with product big_i, so each has
    absolute value at most |big_i|.  Feeding that into the elimination
    formulas

        2*k^2 * y      = s2 - s1 + 2*M
        4*alpha*k^2 * x = s1*(beta+k) - s2*(beta-k) - 2*delta*k^2 - 2*beta*M

    and bounding every term by absolute values gives

        |y| <= (2|I| + 2|M|) / (2 k^2)
        |x| <= (|I|(|beta+k| + |beta-k|) + 2|delta| k^2 + 2|beta||M|) / (4|alpha| k^2)

    rounded up to integers.
    """
    if inv is None:
        inv = invariants_of(conic)
    if inv.big_i == 0:
        raise ValueError("degenerate conic: the solution set has no finite box")
    k = inv.k
    abs_i, abs_m = abs(inv.big_i), abs(inv.m)
    by = ceil_div(2 * abs_i + 2 * abs_m, 2 * k * k)
    bx = ceil_div(
        abs_i * (abs(conic.beta + k) + abs(conic.beta - k))
        + 2 * abs(conic.delta) * k * k
        + 2 * abs(conic.beta) * abs_m,
        4 * abs(conic.alpha) * k * k,
    )
    return SearchBound(bx=bx, by=by)


def _square_table(m: int) -> bytes:
    """Byte table with 1 exactly at the squares mod m."""
    table = bytearray(m)
    for s in range(m):
        table[s * s % m] = 1
    return bytes(table)


# Wheel factors in the order they join; pairwise coprime.  A factor joins
# only while the box holds at least _WHEEL_PERIODS periods of the wheel.
_WHEEL_FACTORS = (16, 9, 5, 7, 11, 13)
_WHEEL_PERIODS = 8
_SQUARES = {m: _square_table(m) for m in (*_WHEEL_FACTORS, 64)}


def _wheel(rows: int) -> tuple[int, ...]:
    """The wheel factors used for a box of ``rows`` rows."""
    factors: tuple[int, ...] = ()
    period = 1
    for m in _WHEEL_FACTORS:
        period *= m
        if rows < _WHEEL_PERIODS * period:
            break
        factors += (m,)
    return factors


def _square_classes(p: int, q: int, r: int, factors) -> tuple[int, list[int]]:
    """The period W of ``factors`` and the classes y mod W in which
    p*y^2 + q*y + r is a square modulo every factor, joined by CRT."""
    period, classes = 1, [0]
    for m in factors:
        table = _SQUARES[m]
        pm, qm, rm = p % m, q % m, r % m
        ok = [y for y in range(m) if table[(pm * y * y + qm * y + rm) % m]]
        inv = pow(period, -1, m)
        classes = [c + period * ((b - c) * inv % m) for c in classes for b in ok]
        period *= m
    return period, classes


def brute_force(conic: Conic, bound: SearchBound) -> list[LatticePoint]:
    """Every integral point with |x| <= bx and |y| <= by, sorted by (x, y).

    For each y the conic is alpha*x^2 + (beta*y + delta)*x + (gamma*y^2 +
    epsilon*y + j) = 0; integer roots require the discriminant

        disc(y) = (beta*y + delta)^2 - 4*alpha*(gamma*y^2 + epsilon*y + j)
                = p*y^2 + q*y + r

    to be a perfect square and the quadratic formula numerator
    -(beta*y + delta) +- sqrt(disc(y)) to split evenly by 2*alpha.

    For an admissible conic q^2 - 4*p*r = -4*I, so when p = t^2 and
    q^2 = 4*p*r (I = 0, a line pair) disc(y) = (t*y + u)^2 with u =
    q/(2t) an exact integer.  Every row is still visited, but both
    numerators are then linear in y and step by a constant from row to
    row: each row costs two divisibility tests by 2*alpha, one on the
    crossing row t*y + u = 0 where the roots coincide, and no square root.

    Otherwise the rows are visited one residue class mod W at a time,
    where W is a wheel of the factors 16, 9, 5, 7, 11, 13 (each joins only
    while the box holds at least 8 periods of W); classes in which disc is
    never a square mod some factor are skipped.  Within a class disc is
    updated by finite differences, and math.isqrt runs only on values that
    are squares mod 64.

    Both paths read the roots off the quadratic formula row by row: the
    filters use only that a square is a square modulo every m, and the
    line-pair path only the identity above, so no factor form, divisor or
    gcd is shared with the solver.  The conic must be quadratic in x:
    alpha = 0 raises DegenerateAlpha, as invariants_of does.
    """
    a, b, d = conic.alpha, conic.beta, conic.delta
    if a == 0:
        raise DegenerateAlpha("alpha must be nonzero")
    p = b * b - 4 * a * conic.gamma
    q = 2 * b * d - 4 * a * conic.epsilon
    r = d * d - 4 * a * conic.j
    lo, hi = -bound.by, bound.by
    two_a, bx = 2 * a, bound.bx
    new = tuple.__new__
    found = []
    t = math.isqrt(p) if p > 0 else 0
    if t and t * t == p and q * q == 4 * p * r:
        u = q // (2 * t)
        step_plus, step_minus = t - b, -(t + b)
        # the numerators -(b*y + d) + (t*y + u) and -(b*y + d) - (t*y + u)
        plus, minus = step_plus * lo + u - d, step_minus * lo - u - d
        for y in range(lo, hi + 1):
            if not plus % two_a:
                x = plus // two_a
                if -bx <= x <= bx:
                    found.append(new(LatticePoint, (x, y)))
            # equal only on the crossing row, where the roots coincide
            if not minus % two_a and minus != plus:
                x = minus // two_a
                if -bx <= x <= bx:
                    found.append(new(LatticePoint, (x, y)))
            plus += step_plus
            minus += step_minus
        found.sort()
        return found
    period, classes = _square_classes(p, q, r, _wheel(hi - lo + 1))
    sq64 = _SQUARES[64]
    isqrt = math.isqrt
    step2 = 2 * p * period * period
    for c in classes:
        y0 = lo + (c - lo) % period
        disc = (p * y0 + q) * y0 + r
        # disc(y + W) - disc(y) at y = y0; it grows by step2 per step
        diff = p * period * (2 * y0 + period) + q * period
        for y in range(y0, hi + 1, period):
            if sq64[disc & 63] and disc >= 0:
                s = isqrt(disc)
                if s * s == disc:
                    lin = b * y + d
                    for num in (s - lin, -s - lin) if s else (-lin,):
                        x, rest = divmod(num, two_a)
                        if not rest and -bx <= x <= bx:
                            found.append(new(LatticePoint, (x, y)))
            disc += diff
            diff += step2
    found.sort()
    return found


def random_valid_conic(
    seed: int, *, max_bk: int = 30, max_linear: int = 50
) -> Conic:
    """Deterministic sample from the admissible family.

    Draw k and a beta of matching parity with beta != +-k (max_bk < 2 has
    none: ValueError), so that (beta^2 - k^2)/4 is a nonzero integer; split
    it as alpha*gamma over a random divisor; draw the linear coefficients
    freely, up to max_linear >= 0.  One draw in eight zeroes delta, epsilon
    and j to force degenerate (big_i = 0) instances into the stream.
    """
    if max_bk < 2 or max_linear < 0:
        raise ValueError("need max_bk >= 2 and max_linear >= 0")
    import random  # here, not at the top: solving never draws

    rng = random.Random(seed)
    while True:
        k = rng.randint(1, max_bk)
        beta = rng.randint(-max_bk, max_bk)
        if (beta - k) % 2 or beta == k or beta == -k:
            continue
        prod = (beta * beta - k * k) // 4
        alpha = rng.choice(positive_divisors(prod)) * rng.choice((1, -1))
        gamma = prod // alpha
        if rng.random() < 0.125:
            delta = epsilon = j = 0
        else:
            delta = rng.randint(-max_linear, max_linear)
            epsilon = rng.randint(-max_linear, max_linear)
            j = rng.randint(-max_linear, max_linear)
        conic, _ = validate(alpha, beta, gamma, delta, epsilon, j)
        return conic
