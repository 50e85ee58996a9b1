"""Independent cross-check machinery: search bounds, brute force, generators.

The brute-force search deliberately avoids the divisor route.  It scans y
and asks when the conic, read as a quadratic in x, has an integer root; the
only shared ingredient with the solver is exact integer arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .conic import Conic, Invariants, LatticePoint, invariants_of, validate
from .intmath import ceil_div, positive_divisors


# Rows (2*by + 1) the CLI lets the oracle scan; larger boxes are refused with
# exit code 5.  The slowest finite case, a conic whose disc passes every
# square filter in every row (`oracle --bound 2097151 1 3 2 0 0 -2882880`),
# took 2.2-2.8 s at 2^22 rows on a 2-vCPU x86-64 machine with Python 3.11,
# and 8-9 s at 2^24; a typical derived box scans tens of millions of rows
# per second.
ROW_BUDGET = 1 << 22
# Points (2 per row) a line pair's box may have room for under --check or
# oracle; larger boxes are refused with exit code 5.  At the edge,
# `solve --check --bound 65535 1 0 -1 0 0 0` (262,141 points) took 3.4 s
# and peaked at 91 MB on the same machine, `oracle` 1.0 s and 68 MB.
POINT_BUDGET = 1 << 18


@dataclass(frozen=True)
class SearchBound:
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
_SQUARES = {m: _square_table(m) for m in (*_WHEEL_FACTORS, 64, 63, 65)}


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

    to be a perfect square and the quadratic formula numerator to split
    evenly.  The rows are visited one residue class mod W at a time, where
    W is a wheel of the factors 16, 9, 5, 7, 11, 13 (each joins only while
    the box holds at least 8 periods of W); classes in which disc is never
    a square mod some factor are skipped.  Within a class disc is updated by
    finite differences, and math.isqrt runs only on values that are squares
    mod 64, 63 and 65.  Both filters use only that a square is a square
    modulo every m, so nothing is shared with the solver.
    """
    a, b, d = conic.alpha, conic.beta, conic.delta
    p = b * b - 4 * a * conic.gamma
    q = 2 * b * d - 4 * a * conic.epsilon
    r = d * d - 4 * a * conic.j
    lo, hi = -bound.by, bound.by
    period, classes = _square_classes(p, q, r, _wheel(hi - lo + 1))
    sq64, sq63, sq65 = _SQUARES[64], _SQUARES[63], _SQUARES[65]
    isqrt = math.isqrt
    step2 = 2 * p * period * period
    two_a, bx = 2 * a, bound.bx
    found = []
    for c in classes:
        y0 = lo + (c - lo) % period
        disc = (p * y0 + q) * y0 + r
        # disc(y + W) - disc(y) at y = y0; it grows by step2 per step
        diff = p * period * (2 * y0 + period) + q * period
        for y in range(y0, hi + 1, period):
            if sq64[disc & 63] and sq63[disc % 63] and sq65[disc % 65] and disc >= 0:
                s = isqrt(disc)
                if s * s == disc:
                    lin = b * y + d
                    for num in (s - lin, -s - lin) if s else (-lin,):
                        x, rest = divmod(num, two_a)
                        if not rest and -bx <= x <= bx:
                            found.append((x, y))
            disc += diff
            diff += step2
    found.sort()
    # in place, so each tuple is freed as its point is built: a line pair
    # can have two points in every row
    make = LatticePoint._make
    for i, point in enumerate(found):
        found[i] = make(point)
    return found


def random_valid_conic(
    seed: int, *, max_bk: int = 30, max_linear: int = 50
) -> Conic:
    """Deterministic sample from the admissible family.

    Draw k and a beta of matching parity with beta != +-k, so that
    (beta^2 - k^2)/4 is a nonzero integer; split it as alpha*gamma over a
    random divisor; draw the linear coefficients freely.  One draw in eight
    zeroes delta, epsilon and j to force degenerate (big_i = 0) instances
    into the stream.
    """
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
