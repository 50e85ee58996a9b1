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
forms and target, which give the same points from fewer divisors.  Every
finite answer (solve, sumform, theorem1) comes from solve_finite.

Degenerate case (I == 0): the conic is the union of the two lines F1 = 0 and
F2 = 0, each an ordinary linear Diophantine equation.
"""

import math
from collections.abc import Iterator
from itertools import count, islice
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
from .intmath import ceil_div, check_point_budget, positive_divisors


class ParamLine(NamedTuple):
    """Integral solutions of a*x + b*y = c, parametrized when solvable.

    The line is solvable exactly when base is not None; the solutions are
    then base + t*direction for integer t.  direction is (b/g, -a/g) with
    g = gcd(a, b), sign-normalized so its first nonzero component is
    positive; base is the solution whose leading coordinate lies in
    [0, that component), which makes the representation canonical: x in
    [0, |b/g|) when b != 0, and (c/a, 0) when b == 0.
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

    def box_points(self, bx: int, by: int) -> Iterator[tuple[int, int]]:
        """The line's integral points with |x| <= bx and |y| <= by, made one
        at a time as plain (x, y) tuples.  They come in (x, y) order: the
        direction's first nonzero component is positive."""
        if self.base is None:
            return iter(())
        lo, hi = None, None
        for c0, d, lim in zip(self.base, self.direction, (bx, by)):
            if d == 0:
                if abs(c0) > lim:
                    return iter(())
                continue
            if d < 0:
                c0, d = -c0, -d
            # t with -lim <= c0 + t*d <= lim
            t_lo, t_hi = ceil_div(-lim - c0, d), (lim - c0) // d
            lo = t_lo if lo is None else max(lo, t_lo)
            hi = t_hi if hi is None else min(hi, t_hi)
        (x0, y0), (dx, dy) = self.point_at(lo), self.direction
        return islice(zip(count(x0, dx), count(y0, dy)), max(0, hi - lo + 1))


MOD4_OBSTRUCTION = "mod4-obstruction"


class FiniteSolutions(NamedTuple):
    """Every integral point of a conic with big_i != 0, sorted by (x, y).

    ``obstruction`` is set, and points empty, only when a congruence rules
    out every point: MOD4_OBSTRUCTION from solve_difference_of_squares.
    """

    points: tuple[LatticePoint, ...]
    obstruction: str | None = None


class LinePair(NamedTuple):
    lines: tuple[ParamLine, ParamLine]


def solve(conic: Conic, *, reduce: bool = True) -> FiniteSolutions | LinePair:
    """Dispatch on the invariant of the original (unreduced) coefficients."""
    inv = invariants_of(conic)
    if inv.big_i == 0:
        return LinePair(solve_degenerate(conic, inv))
    return FiniteSolutions(tuple(solve_finite(conic, inv, reduce=reduce)))


def solve_finite(
    conic: Conic, inv: Invariants, *, reduce: bool = True
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
    v = a1*s2 - a2*d.  When the determinant is +-1 (every monic conic with
    k = 1 reduces to 1, alpha = -1 gives -1) the division is exact, so its
    sign is folded into the coefficients and every signed divisor is a
    point; otherwise a point needs det to divide both numerators.  Each
    point is built once, as a LatticePoint.  The derivative of u in d,
    b2 + b1*target/d^2, changes sign at most once, so each sign's x values
    form at most two monotone runs and the one sort is close to linear.
    The points are charged to the point budget before any is built.
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
    divisors = positive_divisors(target)
    size = abs(target)  # d, e <= size: |x| <= (|kx| + |u|) / |det|, y likewise
    bound = max(abs(kx) + (abs(b1) + abs(b2)) * size, abs(ky) + (abs(a1) + abs(a2)) * size)
    check_point_budget(2 * len(divisors), (bound // abs(det)).bit_length(), "|{}|", size)
    plus, minus = [], []
    new = tuple.__new__  # skips the Python-level LatticePoint.__new__
    if det == 1 or det == -1:
        if det < 0:
            kx, ky, a1, b1, a2, b2 = -kx, -ky, -a1, -b1, -a2, -b2
        for d, e in zip(divisors, reversed(divisors)):
            u = b2 * d - b1 * e
            v = a1 * e - a2 * d
            plus.append(new(LatticePoint, (kx + u, ky + v)))
            minus.append(new(LatticePoint, (kx - u, ky - v)))
    else:
        for d, e in zip(divisors, reversed(divisors)):
            u = b2 * d - b1 * e
            v = a1 * e - a2 * d
            nx, ny = kx + u, ky + v
            if nx % det == 0 and ny % det == 0:
                plus.append(new(LatticePoint, (nx // det, ny // det)))
            nx, ny = kx - u, ky - v
            if nx % det == 0 and ny % det == 0:
                minus.append(new(LatticePoint, (nx // det, ny // det)))
    plus += minus
    plus.sort()
    return plus


def solve_linear_diophantine(a: int, b: int, c: int) -> ParamLine:
    """Describe the integer solutions of a*x + b*y = c.

    Solvable exactly when g = gcd(a, b) divides c.  The canonical base of
    ParamLine is built directly: for b != 0 its x is (c/g) * (a/g)^-1
    modulo |b/g| and its y is (c - a*x) / b; for b == 0 it is (c/a, 0).
    """
    if a == 0 and b == 0:
        raise ValueError("a and b cannot both be zero")
    g = math.gcd(a, b)
    dx, dy = b // g, -(a // g)
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    if c % g:
        return ParamLine(a, b, c, None, (dx, dy))
    if b:
        x = c // g * pow(a // g, -1, dx) % dx
        return ParamLine(a, b, c, LatticePoint(x, (c - a * x) // b), (dx, dy))
    return ParamLine(a, b, c, LatticePoint(c // a, 0), (dx, dy))


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


def solve_difference_of_squares(l: int, m: int, j: int) -> FiniteSolutions:
    """Integral points of l^2*x^2 - m^2*y^2 + j = 0, i.e. (lx-my)(lx+my) = -j.

    When -j = 2 (mod 4) the set is empty by a congruence: a product
    (lx-my)(lx+my) of two integers of equal parity is odd or divisible by
    4.  Only that case sets ``obstruction``, to MOD4_OBSTRUCTION; any other
    nonzero j goes to the general divisor solver on the modeled conic.
    j = 0 is rejected: that is the degenerate line pair lx = +-my, not a
    finite set.
    """
    if l <= 0 or m <= 0:
        raise ValueError("l and m must be positive")
    if j == 0:
        raise ValueError(
            "j = 0 degenerates to the line pair l*x = +-m*y; use solve instead"
        )
    if -j % 4 == 2:
        return FiniteSolutions((), MOD4_OBSTRUCTION)
    conic, inv = validate(l * l, 0, -m * m, 0, 0, j)
    return FiniteSolutions(tuple(solve_finite(conic, inv)))


def _theorem1_m(beta: int, delta: int, epsilon: int, n: int) -> int:
    """M = 2*epsilon - beta*delta, once Theorem 1's preconditions hold:
    beta odd, beta != +-1 and n >= 2 (ValueError otherwise)."""
    if beta % 2 == 0:
        raise ValueError("beta must be odd")
    if beta * beta == 1:
        raise ValueError("beta = +-1 makes gamma zero")
    if n < 2:
        raise ValueError("n must be at least 2")
    return 2 * epsilon - beta * delta


def power_of_two_conic(beta: int, delta: int, epsilon: int, n: int) -> Conic:
    """The monic unit-k conic whose invariant is exactly 2^n.

    With alpha = 1, gamma = (beta^2 - 1)/4 (beta odd, beta != +-1) the
    discriminant is beta^2 - 4*gamma = 1, so k = 1 and
    I = delta^2 - 4*j - (2*epsilon - beta*delta)^2.  Solving I = 2^n for the
    constant term gives j = (delta^2 - M^2 - 2^n)/4, an integer for every
    odd beta and n >= 2: delta - M and delta + M are both even.
    """
    m0 = _theorem1_m(beta, delta, epsilon, n)
    num = delta * delta - m0 * m0 - (1 << n)
    gamma = (beta * beta - 1) // 4
    conic, _ = validate(1, beta, gamma, delta, epsilon, num // 4)
    return conic


def power_of_two_points(
    beta: int, delta: int, epsilon: int, n: int
) -> list[LatticePoint]:
    """The 2*(n-1) integral points of the power_of_two_conic family, sorted.

    Theorem 1 gives them in closed form: with M = 2*epsilon - beta*delta,

        x_i = (e*2^(i-2)*(beta+1) - e*2^(n-i)*(beta-1) - delta - M*beta) / 2
        y_i = e*2^(n-i) - e*2^(i-2) + M

    for i = 2..n and e = +-1.  solve_finite computes them: the reduced target
    is 2^(n-2) and the reduced determinant 1, so each signed divisor is a
    point.  The arguments are checked first, then the point budget, before
    anything of size 2^n: the reduced forms x + (beta -+ 1)/2*y +
    (delta +- M)/2 put |x| at most |delta + beta*M|/2 + |beta|*2^(n-2) and
    |y| at most |M| + 2^(n-1), as solve_finite bounds them.
    """
    m0 = _theorem1_m(beta, delta, epsilon, n)
    kx = abs(delta + beta * m0) >> 1
    bits = max(
        max(kx.bit_length(), abs(beta).bit_length() + n - 2) + (kx != 0),
        max(abs(m0).bit_length(), n - 1) + (m0 != 0),
    )
    check_point_budget(2 * (n - 1), bits, "the reduced target 2^{}", n - 2)
    conic = power_of_two_conic(beta, delta, epsilon, n)
    return solve_finite(conic, invariants_of(conic))
