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
from .intmath import POINT_WORD, ceil_div, positive_divisors


# Rows (2*by + 1) the CLI lets the oracle scan, each charged the square of the
# started POINT_WORD-bit words of a bound on disc over the box (row_charge);
# larger boxes are refused with exit code 5.  The slowest finite box at small
# coefficients is one whose rows the sieve never strikes, `oracle --bound
# 2097151 1 3 2 0 -M -M` with M = 14757354782123793840 the product of the
# sieve moduli: 1.5-2.4 s of CPU time and a 130 KiB tracemalloc peak in
# brute_force at 2^22 rows on a 2-vCPU x86-64 machine with Python 3.11.
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


# The sieve cuts the rows into blocks of _BLOCK rows.  Its moduli join in
# this order (pairwise coprime), each only while the block keeps at least
# _JOIN unstruck rows per residue of it.
_BLOCK = 1 << 16
_MODULI = (16, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_JOIN = 8
_SQUARES = {m: _square_table(m) for m in _MODULI}
_ZEROS = memoryview(bytes(ceil_div(_BLOCK, min(_MODULI))))


def _sieve(p: int, q: int, r: int, y0: int, n: int, struck: dict[int, list[int]]) -> bytearray:
    """Mask of the n rows from y0: 0 at each row y where p*y^2 + q*y + r
    is not a square modulo some modulus that joined, 1 elsewhere.

    ``struck`` maps each modulus m to the residues t mod m where the value
    is not a square mod m; it is filled as a modulus first joins, so one
    call of brute_force computes them once for all its blocks.
    """
    mask = bytearray(b"\x01") * n
    for m in _MODULI:
        if mask.count(1) < _JOIN * m:
            break
        if m not in struck:
            table, pm, qm, rm = _SQUARES[m], p % m, q % m, r % m
            struck[m] = [t for t in range(m) if not table[(pm * t * t + qm * t + rm) % m]]
        for t in struck[m]:
            i = (t - y0) % m
            mask[i::m] = _ZEROS[: ceil_div(n - i, m)]
    return mask


def _disc_coefficients(conic: Conic) -> tuple[int, int, int]:
    """p, q and r of disc(y) = p*y^2 + q*y + r (see brute_force)."""
    a, b, d = conic.alpha, conic.beta, conic.delta
    return b * b - 4 * a * conic.gamma, 2 * b * d - 4 * a * conic.epsilon, d * d - 4 * a * conic.j


def row_charge(conic: Conic, bound: SearchBound) -> tuple[int, int]:
    """The bits of |p|*by^2 + |q|*by + |r|, which bounds |disc(y)| over the
    box, and the box's charge: its rows, each counted the square of the
    started POINT_WORD-bit words of that bound and at least once, since a
    row's square root grows faster than linearly with the size of disc."""
    p, q, r = _disc_coefficients(conic)
    by = bound.by
    bits = (abs(p) * by * by + abs(q) * by + abs(r)).bit_length()
    return bits, (2 * by + 1) * max(1, ceil_div(bits, POINT_WORD)) ** 2


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

    Otherwise a sieve strikes, block by block, the rows in which disc is
    not a square modulo one of 16, 9, 5, 7, 11, 13 and the primes 17 to 47
    (see _sieve); disc is evaluated and math.isqrt taken only in the rows
    that survive, visited run by run.

    Both paths read the roots off the quadratic formula row by row: the
    filters use only that a square is a square modulo every m, and the
    line-pair path only the identity above, so no factor form, divisor or
    gcd is shared with the solver.  The conic must be quadratic in x:
    alpha = 0 raises DegenerateAlpha, as invariants_of does.
    """
    a, b, d = conic.alpha, conic.beta, conic.delta
    if a == 0:
        raise DegenerateAlpha("alpha must be nonzero")
    p, q, r = _disc_coefficients(conic)
    lo, hi = -bound.by, bound.by
    two_a, bx = 2 * a, bound.bx
    new = tuple.__new__
    found = []
    t = math.isqrt(p) if p > 0 else 0
    if t and t * t == p and q * q == 4 * p * r:
        u = q // (2 * t)
        step_plus, step_minus = t - b, -(t + b)
        # the numerators -(b*y + d) + (t*y + u) and -(b*y + d) - (t*y + u);
        # neither step is 0, which would need t = +-b, so alpha*gamma = 0
        plus, minus = step_plus * lo + u - d, step_minus * lo - u - d
        on_minus = []
        for y in range(lo, hi + 1):
            if not plus % two_a:
                x = plus // two_a
                if -bx <= x <= bx:
                    found.append(new(LatticePoint, (x, y)))
            # equal only on the crossing row, where the roots coincide
            if not minus % two_a and minus != plus:
                x = minus // two_a
                if -bx <= x <= bx:
                    on_minus.append(new(LatticePoint, (x, y)))
            plus += step_plus
            minus += step_minus
        # each root's x moves one way as y grows, so each list is one sorted
        # run, ascending or descending, and the sort merges two runs
        found += on_minus
        found.sort()
        return found
    isqrt = math.isqrt
    struck: dict[int, list[int]] = {}
    for y0 in range(lo, hi + 1, _BLOCK):
        n = min(_BLOCK, hi + 1 - y0)
        mask = _sieve(p, q, r, y0, n, struck)
        i = mask.find(1)
        while i >= 0:
            j = mask.find(0, i)
            if j < 0:
                j = n
            for y in range(y0 + i, y0 + j):
                disc = (p * y + q) * y + r
                if disc >= 0:
                    s = isqrt(disc)
                    if s * s == disc:
                        lin = b * y + d
                        for num in (s - lin, -s - lin) if s else (-lin,):
                            x, rest = divmod(num, two_a)
                            if not rest and -bx <= x <= bx:
                                found.append(new(LatticePoint, (x, y)))
            i = mask.find(1, j)
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
