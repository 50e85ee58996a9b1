"""Conic model: validation, invariants and the two-linear-forms factorization.

The equation under study is

    alpha*x^2 + beta*x*y + gamma*y^2 + delta*x + epsilon*y + j = 0

with integer coefficients, alpha != 0, gamma != 0 and

    beta^2 - 4*alpha*gamma = k^2   for some integer k >= 1.

A positive square discriminant makes the quadratic part split over the
rationals, and after scaling by 4*alpha*k^2 the whole equation becomes a
product of two integer linear forms with a constant right-hand side:

    F1(x, y) * F2(x, y) = I

    F1 = 2*alpha*k*x + k*(beta - k)*y + delta*k + M
    F2 = 2*alpha*k*x + k*(beta + k)*y + delta*k - M

    M = 2*alpha*epsilon - beta*delta
    I = k^2 * (delta^2 - 4*alpha*j) - M^2

The product identity F1*F2 - I == 4*alpha*k^2 * (conic left side) holds for
every (x, y), so integral points of the conic are exactly the integral
solutions of F1*F2 = I.  When I != 0 the solutions come from the finitely
many divisor splittings of I; when I == 0 the conic degenerates into the two
lines F1 = 0 and F2 = 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateAlpha, DegenerateGamma, NotFactorable
from .intmath import integer_sqrt


class LatticePoint(NamedTuple):
    x: int
    y: int


class Conic(NamedTuple):
    """Coefficients of alpha*x^2 + beta*xy + gamma*y^2 + delta*x + epsilon*y + j."""

    alpha: int
    beta: int
    gamma: int
    delta: int
    epsilon: int
    j: int

    def evaluate(self, x: int, y: int) -> int:
        """Exact value of the left-hand side at (x, y); zero means on the conic."""
        return (
            self.alpha * x * x
            + self.beta * x * y
            + self.gamma * y * y
            + self.delta * x
            + self.epsilon * y
            + self.j
        )


class Invariants(NamedTuple):
    """Derived quantities fixed by the coefficients.

    k        positive square root of beta^2 - 4*alpha*gamma
    big_i    k^2 * delta_q - m^2; zero exactly for the degenerate line pair
    delta_q  delta^2 - 4*alpha*j (discriminant of the conic read as a
             quadratic in x at y = 0; reported, not used by the search bound)
    m        2*alpha*epsilon - beta*delta
    """

    k: int
    big_i: int
    delta_q: int
    m: int


class FactorForm(NamedTuple):
    """Integer linear form cx*x + cy*y + c0."""

    cx: int
    cy: int
    c0: int

    def evaluate(self, x: int, y: int) -> int:
        return self.cx * x + self.cy * y + self.c0

    @property
    def content(self) -> int:
        """gcd of all three coefficients (positive; forms here are never 0)."""
        return math.gcd(math.gcd(self.cx, self.cy), self.c0)


def validate(
    alpha: int, beta: int, gamma: int, delta: int, epsilon: int, j: int
) -> tuple[Conic, Invariants]:
    """The conic with these coefficients and its invariants (see invariants_of)."""
    conic = Conic(alpha, beta, gamma, delta, epsilon, j)
    return conic, invariants_of(conic)


def invariants_of(conic: Conic) -> Invariants:
    """Check admissibility and compute the invariants.

    Rejects alpha == 0, gamma == 0, and any discriminant beta^2 - 4*alpha*gamma
    that is not a positive perfect square.  k = 0 (a parabolic case) is
    rejected too: the method needs two distinct rational line directions.
    """
    alpha, beta, gamma, delta, epsilon, j = conic
    if alpha == 0:
        raise DegenerateAlpha("alpha must be nonzero")
    if gamma == 0:
        raise DegenerateGamma("gamma must be nonzero")
    k2 = beta * beta - 4 * alpha * gamma
    k = integer_sqrt(k2)
    if not k:
        raise NotFactorable(
            f"beta^2 - 4*alpha*gamma = {k2} is not a positive perfect square"
        )
    m = 2 * alpha * epsilon - beta * delta
    delta_q = delta * delta - 4 * alpha * j
    return Invariants(k=k, big_i=k2 * delta_q - m * m, delta_q=delta_q, m=m)


def factor_forms(conic: Conic, inv: Invariants) -> tuple[FactorForm, FactorForm]:
    """The two linear forms with F1*F2 - big_i == 4*alpha*k^2 * evaluate."""
    k, m = inv.k, inv.m
    lead = 2 * conic.alpha * k
    f1 = FactorForm(lead, k * (conic.beta - k), conic.delta * k + m)
    f2 = FactorForm(lead, k * (conic.beta + k), conic.delta * k - m)
    return f1, f2


def content_reduce(
    f1: FactorForm, f2: FactorForm, big_i: int
) -> tuple[FactorForm, FactorForm, int] | None:
    """Divide each form by its content; scale the right-hand side to match.

    Returns (f1/c1, f2/c2, big_i/(c1*c2)), or None when c1*c2 does not divide
    big_i.  None is a proof of emptiness, not a failure: fi is a multiple of
    ci at every lattice point (all three coefficients are), so f1*f2 takes
    only multiples of c1*c2 on the lattice and can never equal big_i.
    """
    c1 = f1.content
    c2 = f2.content
    prod = c1 * c2
    if big_i % prod:
        return None
    g1 = FactorForm(f1.cx // c1, f1.cy // c1, f1.c0 // c1)
    g2 = FactorForm(f2.cx // c2, f2.cy // c2, f2.c0 // c2)
    return g1, g2, big_i // prod
