"""Solvers for the factored conic equation F1*F2 = I.

The finite and the degenerate case both take F1 and F2 from
conic.factor_forms.

Finite case (I != 0): every integral point turns F1 and F2 into a pair of
integers whose product is I, so it arises from a splitting I = s1*s2.  For
each of the 2*tau(|I|) signed divisors s1 (then s2 = I/s1) one Cramer solve
of F1 = s1, F2 = s2 runs on plain ints, and the point is kept when the
exact rational solution is integral.  The determinant of the forms is
4*alpha*k^3 != 0 (content reduction divides it by c1*c2), so (x, y) ->
(F1, F2) is one to one: distinct splittings give distinct points and there
is nothing to de-duplicate.  The same loop runs on the content-reduced
forms and target, which give the same points from fewer divisors.

Degenerate case (I == 0): the conic is the union of the two lines F1 = 0 and
F2 = 0, each an ordinary linear Diophantine equation.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

from .conic import (
    Conic,
    Invariants,
    LatticePoint,
    content_reduce,
    factor_forms,
    invariants_of,
    validate,
)
from .intmath import ceil_div, extended_gcd, is_prime, positive_divisors


class ParamLine(NamedTuple):
    """Integral solutions of a*x + b*y = c, parametrized when solvable.

    The line is solvable exactly when base is not None; the solutions are
    then base + t*direction for integer t.  direction is (b/g, -a/g) with
    g = gcd(a, b), sign-normalized so its first nonzero component is
    positive; base is translated along direction so its leading coordinate
    is the smallest nonnegative representative, which makes the
    representation canonical.
    """

    a: int
    b: int
    c: int
    base: LatticePoint | None
    direction: tuple[int, int]

    @property
    def solvable(self) -> bool:
        return self.base is not None

    def point_at(self, t: int) -> LatticePoint | None:
        if self.base is None:
            return None
        return LatticePoint(
            self.base.x + t * self.direction[0],
            self.base.y + t * self.direction[1],
        )

    def points_in_box(self, bx: int, by: int) -> list[LatticePoint]:
        """The line's integral points with |x| <= bx and |y| <= by, sorted."""
        if self.base is None:
            return []
        lo, hi = None, None
        for c0, d, lim in zip(self.base, self.direction, (bx, by)):
            if d == 0:
                if abs(c0) > lim:
                    return []
                continue
            if d < 0:
                c0, d = -c0, -d
            # t with -lim <= c0 + t*d <= lim
            t_lo, t_hi = ceil_div(-lim - c0, d), (lim - c0) // d
            lo = t_lo if lo is None else max(lo, t_lo)
            hi = t_hi if hi is None else min(hi, t_hi)
        # the direction's first nonzero component is positive, so t order
        # is (x, y) order
        return [self.point_at(t) for t in range(lo, hi + 1)]


class FiniteSolutions(NamedTuple):
    points: tuple[LatticePoint, ...]


class LinePair(NamedTuple):
    lines: tuple[ParamLine, ParamLine]


SolutionSet = FiniteSolutions | LinePair

MOD4_OBSTRUCTION = "mod4-obstruction"


class SquareSplitResult(NamedTuple):
    """Outcome for the pure difference-of-squares family.

    ``obstruction`` is set (and points empty) when emptiness follows from a
    congruence argument rather than from exhausting divisor splittings.
    """

    points: tuple[LatticePoint, ...]
    obstruction: str | None = None


def solve(
    conic: Conic, *, reduce: bool = True, divisor_cap: int | None = None
) -> SolutionSet:
    """Dispatch on the invariant of the original (unreduced) coefficients."""
    inv = invariants_of(conic)
    if inv.big_i == 0:
        return LinePair(solve_degenerate(conic, inv))
    pts = solve_finite(conic, inv, reduce=reduce, divisor_cap=divisor_cap)
    return FiniteSolutions(tuple(pts))


def solve_finite(
    conic: Conic,
    inv: Invariants,
    *,
    reduce: bool = True,
    divisor_cap: int | None = None,
) -> list[LatticePoint]:
    """All integral points when big_i != 0, sorted by (x, y).

    One Cramer solve of f1 = s1, f2 = target/s1 per signed divisor s1 of
    the target.  With ``reduce`` the forms and target are content_reduce's;
    without it they are factor_forms' and big_i.  The result is identical
    either way.  The determinant is never 0, so no two signed divisors give
    the same point.

    Pairing the ascending divisors with their reverse gives each d its
    cofactor e = |target|/d.  With s2 = sign(target)*e, s1 = +-d gives the
    numerators nx = kx +- u and ny = ky +- v, where u = b2*d - b1*s2 and
    v = a1*s2 - a2*d.  The derivative of u in d, b2 + b1*target/d^2, changes
    sign at most once, so each sign's x values form at most two monotone
    runs and the one sort is close to linear.
    """
    if inv.big_i == 0:
        raise ValueError("big_i == 0 is the degenerate case; use solve_degenerate")
    f1, f2 = factor_forms(conic, inv)
    target = inv.big_i
    if reduce:
        reduced = content_reduce(f1, f2, target)
        if reduced is None:
            # contents do not divide big_i: no lattice point can exist
            return []
        f1, f2, target = reduced
    a1, b1, c1 = f1.cx, f1.cy, f1.c0
    a2, b2, c2 = f2.cx, f2.cy, f2.c0
    det = a1 * b2 - b1 * a2
    kx = b1 * c2 - b2 * c1
    ky = a2 * c1 - a1 * c2
    if target < 0:
        # s2 = -e: fold the sign into the two coefficients that multiply s2
        a1, b1 = -a1, -b1
    divisors = positive_divisors(target, cap=divisor_cap)
    plus, minus = [], []
    for d, e in zip(divisors, reversed(divisors)):
        u = b2 * d - b1 * e
        nx = kx + u
        if nx % det == 0:
            ny = ky + a1 * e - a2 * d
            if ny % det == 0:
                plus.append((nx // det, ny // det))
        nx = kx - u
        if nx % det == 0:
            ny = ky - a1 * e + a2 * d
            if ny % det == 0:
                minus.append((nx // det, ny // det))
    plus += minus
    plus.sort()
    return list(map(tuple.__new__, repeat(LatticePoint), plus))


def solve_linear_diophantine(a: int, b: int, c: int) -> ParamLine:
    """Describe the integer solutions of a*x + b*y = c.

    Solvable exactly when gcd(a, b) divides c; a particular solution comes
    from the extended gcd, then gets shifted to the canonical representative
    described on ParamLine.
    """
    if a == 0 and b == 0:
        raise ValueError("a and b cannot both be zero")
    g, u, v = extended_gcd(a, b)
    dx, dy = b // g, -(a // g)
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    if c % g:
        return ParamLine(a, b, c, None, (dx, dy))
    q = c // g
    x0, y0 = u * q, v * q
    t = x0 // dx if dx else y0 // dy
    base = LatticePoint(x0 - t * dx, y0 - t * dy)
    return ParamLine(a, b, c, base, (dx, dy))


def solve_degenerate(conic: Conic, inv: Invariants) -> tuple[ParamLine, ParamLine]:
    """The two lines F1 = 0 and F2 = 0 when big_i == 0.

    Ordered like the factor forms: the (beta - k) line first.  For a
    homogeneous conic (delta = epsilon = j = 0) the lines are k times
    2*alpha*x + (beta -+ k)*y = 0, both through the origin.
    """
    if inv.big_i != 0:
        raise ValueError("big_i != 0 is the finite case; use solve_finite")
    f1, f2 = factor_forms(conic, inv)
    return (
        solve_linear_diophantine(f1.cx, f1.cy, -f1.c0),
        solve_linear_diophantine(f2.cx, f2.cy, -f2.c0),
    )


def solve_difference_of_squares(
    l: int, m: int, j: int, *, divisor_cap: int | None = None
) -> SquareSplitResult:
    """Integral points of l^2*x^2 - m^2*y^2 + j = 0, i.e. (lx-my)(lx+my) = -j.

    Closed forms for the classic right-hand sides:

      -j = 1:            (+-1, 0) when l == 1, else empty
      -j = p odd prime:  (+-(p+1)/(2l), +-(p-1)/(2m)) when 2l | p+1 and
                         2m | p-1, else empty
      -j = 2 (mod 4):    empty; a product (lx-my)(lx+my) of two integers of
                         equal parity is odd or divisible by 4

    Any other nonzero j falls through to the general divisor solver on the
    modeled conic.  j = 0 is rejected: that is the degenerate line pair
    lx = +-my, not a finite set.
    """
    if l <= 0 or m <= 0:
        raise ValueError("l and m must be positive")
    if j == 0:
        raise ValueError(
            "j = 0 degenerates to the line pair l*x = +-m*y; use solve instead"
        )
    c = -j
    if c % 4 == 2:
        return SquareSplitResult((), MOD4_OBSTRUCTION)
    if c == 1:
        if l == 1:
            return SquareSplitResult((LatticePoint(-1, 0), LatticePoint(1, 0)))
        return SquareSplitResult(())
    # is_prime is exact only below psi_12; psi_12 itself, a strong
    # pseudoprime, still takes the closed form and loses half its points.
    if c > 2 and c % 2 and is_prime(c):
        if (c + 1) % (2 * l) == 0 and (c - 1) % (2 * m) == 0:
            px = (c + 1) // (2 * l)
            py = (c - 1) // (2 * m)
            pts = sorted(
                LatticePoint(sx * px, sy * py) for sx in (-1, 1) for sy in (-1, 1)
            )
            return SquareSplitResult(tuple(pts))
        return SquareSplitResult(())
    conic, inv = validate(l * l, 0, -m * m, 0, 0, j)
    pts = solve_finite(conic, inv, divisor_cap=divisor_cap)
    return SquareSplitResult(tuple(pts))


def power_of_two_conic(beta: int, delta: int, epsilon: int, n: int) -> Conic:
    """The monic unit-k conic whose invariant is exactly 2^n.

    With alpha = 1, gamma = (beta^2 - 1)/4 (beta odd, beta != +-1) the
    discriminant is beta^2 - 4*gamma = 1, so k = 1 and
    I = delta^2 - 4*j - (2*epsilon - beta*delta)^2.  Solving I = 2^n for the
    constant term gives j = (delta^2 - M^2 - 2^n)/4, which is an integer for
    every odd beta and n >= 2.
    """
    if beta % 2 == 0:
        raise ValueError("beta must be odd")
    if beta * beta == 1:
        raise ValueError("beta = +-1 makes gamma zero")
    if n < 2:
        raise ValueError("n must be at least 2")
    m0 = 2 * epsilon - beta * delta
    num = delta * delta - m0 * m0 - (1 << n)
    if num % 4:
        raise ValueError("constant term is not an integer")
    gamma = (beta * beta - 1) // 4
    conic, _ = validate(1, beta, gamma, delta, epsilon, num // 4)
    return conic


def power_of_two_points(
    beta: int, delta: int, epsilon: int, n: int
) -> list[LatticePoint]:
    """The 2*(n-1) integral points of the power_of_two_conic family, sorted.

    The divisors of 2^n pair up as (2^(i-1), 2^(n-i+1)); indices i = 2..n are
    exactly the ones whose linear systems solve integrally, giving

        x_i = (e*2^(i-2)*(beta+1) - e*2^(n-i)*(beta-1) - delta - M*beta) / 2
        y_i = e*2^(n-i) - e*2^(i-2) + M

    for e = +-1, with M = 2*epsilon - beta*delta.  The numerator of x_i is
    even because beta^2 - 1 is divisible by 8 for odd beta.  Distinct
    splittings give distinct points, as in solve_finite.
    """
    power_of_two_conic(beta, delta, epsilon, n)  # argument validation
    m0 = 2 * epsilon - beta * delta
    points = []
    for i in range(2, n + 1):
        lo = 1 << (i - 2)
        hi = 1 << (n - i)
        for e in (1, -1):
            num = e * lo * (beta + 1) - e * hi * (beta - 1) - delta - m0 * beta
            assert num % 2 == 0
            points.append(LatticePoint(num // 2, e * hi - e * lo + m0))
    return sorted(points)
