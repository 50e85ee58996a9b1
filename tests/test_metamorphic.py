"""Metamorphic checks: solve(T(C)) is T applied to solve(C).

Each transform is an affine map phi of Z^2 with a unimodular linear part
(a translation, a shear, the swap x <-> y, or negating one coordinate), or
a scaling of all six coefficients.  phi maps the integral points of C one
to one onto those of T(C), where T(C)(q) = C(phi^-1(q)).  None of these
checks needs a search box, so they hold at any coefficient size the solver
accepts.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicpoints import (
    ConicError,
    FiniteSolutions,
    LinePair,
    invariants_of,
    power_of_two_conic,
    random_valid_conic,
    solve,
    validate,
)
from conicpoints.conic import factor_forms
from corpus.make import GOLDEN_COEFFS, GOLDEN_POINTS
from test_solver import _planted_target_conic

FIELDS = ("alpha", "beta", "gamma", "delta", "epsilon", "j")


def coeffs_of(conic):
    return tuple(getattr(conic, field) for field in FIELDS)


def translation(u, v):
    return (1, 0, 0, 1, u, v)


def shear_x(t):
    return (1, t, 0, 1, 0, 0)


def shear_y(t):
    return (1, 0, t, 1, 0, 0)


SWAP = (0, 1, 1, 0, 0, 0)
NEGATE_X = (-1, 0, 0, 1, 0, 0)
NEGATE_Y = (1, 0, 0, -1, 0, 0)


def apply(phi, point):
    """phi = (a, b, c, d, e, f) maps (x, y) to (a*x + b*y + e, c*x + d*y + f)."""
    a, b, c, d, e, f = phi
    x, y = point
    return (a * x + b * y + e, c * x + d * y + f)


def inverse(phi):
    a, b, c, d, e, f = phi
    det = a * d - b * c
    assert det in (1, -1)
    ia, ib, ic, id_ = det * d, -det * b, -det * c, det * a
    return (ia, ib, ic, id_, -(ia * e + ib * f), -(ic * e + id_ * f))


def image(coeffs, phi):
    """Coefficients of T(C): C with (x, y) replaced by phi^-1(x, y)."""
    alpha, beta, gamma, delta, epsilon, j = coeffs
    p1, q1, p2, q2, r1, r2 = inverse(phi)
    # X = p1*x + q1*y + r1, Y = p2*x + q2*y + r2, each as (x, y, 1) parts
    X, Y = (p1, q1, r1), (p2, q2, r2)

    def prod(u, v):
        return (
            u[0] * v[0],
            u[0] * v[1] + u[1] * v[0],
            u[1] * v[1],
            u[0] * v[2] + u[2] * v[0],
            u[1] * v[2] + u[2] * v[1],
            u[2] * v[2],
        )

    terms = [
        (alpha, prod(X, X)),
        (beta, prod(X, Y)),
        (gamma, prod(Y, Y)),
        (delta, (0, 0, 0, *X)),
        (epsilon, (0, 0, 0, *Y)),
        (j, (0, 0, 0, 0, 0, 1)),
    ]
    return tuple(sum(c * t[i] for c, t in terms) for i in range(6))


def checked_solve(coeffs):
    """solve() on an admissible conic, asserting F1*F2 - I == 4*alpha*k^2*Q
    and Q == 0 at every returned point."""
    conic, inv = validate(*coeffs)
    result = solve(conic)
    if isinstance(result, FiniteSolutions):
        f1, f2 = factor_forms(conic, inv)
        scale = 4 * conic.alpha * inv.k * inv.k
        for x, y in result.points:
            q = conic.evaluate(x, y)
            assert q == 0
            assert f1.evaluate(x, y) * f2.evaluate(x, y) - inv.big_i == scale * q
    return result


def on_lines(lines, point):
    return any(
        line.solvable and line.a * point[0] + line.b * point[1] == line.c
        for line in lines
    )


def assert_points_map(coeffs, image_coeffs, phi):
    """The integral points of image_coeffs are phi(points of coeffs)."""
    source = checked_solve(coeffs)
    target = checked_solve(image_coeffs)
    if isinstance(source, FiniteSolutions):
        assert isinstance(target, FiniteSolutions)
        assert list(target.points) == sorted(apply(phi, p) for p in source.points)
        return
    # Line pairs as point sets: a window of points on each line lands on the
    # other pair, both ways.  Two points fix a line, and phi is a lattice
    # bijection, so this is equality of the two point sets.
    assert isinstance(target, LinePair)
    back = inverse(phi)
    for lines, other, f in (
        (source.lines, target.lines, phi),
        (target.lines, source.lines, back),
    ):
        for line in lines:
            for t in range(-3, 4):
                p = line.point_at(t)
                if p is not None:
                    assert on_lines(other, apply(f, p))


def assert_maps_onto(coeffs, phi):
    assert_points_map(coeffs, image(coeffs, phi), phi)


def admissible(coeffs):
    try:
        validate(*coeffs)
    except ConicError:
        return False
    return True


small = st.integers(-(10**6), 10**6)
transforms = st.one_of(
    st.builds(translation, small, small),
    st.builds(shear_x, st.integers(-50, 50)),
    st.builds(shear_y, st.integers(-50, 50)),
    st.sampled_from([SWAP, NEGATE_X, NEGATE_Y]),
)
seeds = st.integers(0, 10**6)


@settings(max_examples=150, deadline=None)
@given(seeds, transforms)
def test_transform_maps_points(seed, phi):
    coeffs = coeffs_of(random_valid_conic(seed))
    # a shear can zero alpha or gamma, which leaves the admissible family
    assume(admissible(image(coeffs, phi)))
    assert_maps_onto(coeffs, phi)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(-(10**20), 10**20).filter(bool))
def test_scaling_keeps_points(seed, c):
    coeffs = coeffs_of(random_valid_conic(seed))
    assert_points_map(coeffs, tuple(c * v for v in coeffs), translation(0, 0))


@settings(max_examples=60, deadline=None)
@given(
    seeds,
    st.integers(-(10**20), 10**20),
    st.integers(-(10**20), 10**20),
    st.integers(-(10**15), 10**15),
)
def test_large_translation_and_shear(seed, u, v, t):
    coeffs = coeffs_of(random_valid_conic(seed))
    phi = translation(u, v)
    sheared = image(image(coeffs, phi), shear_x(t))
    assume(admissible(sheared))
    assert_maps_onto(coeffs, phi)
    assert_maps_onto(image(coeffs, phi), shear_x(t))


def test_golden_conic_with_41_digit_coefficients():
    phi = translation(10**20, -3 * 10**19)
    moved = image(image(GOLDEN_COEFFS, phi), shear_x(10**15))
    assert max(len(str(abs(c))) for c in moved) == 41
    assert invariants_of(validate(*moved)[0]).big_i == 80
    expected = sorted(apply(shear_x(10**15), apply(phi, p)) for p in GOLDEN_POINTS)
    assert list(checked_solve(moved).points) == expected


def test_planted_power_of_two_target_moved_far():
    # invariant 2^20: the theorem1 family's 38 points
    conic = power_of_two_conic(3, 0, 1, 20)
    coeffs = coeffs_of(conic)
    phi = translation(-(10**20), 7 * 10**19)
    assert len(checked_solve(coeffs).points) == 38
    assert_maps_onto(coeffs, phi)
    assert_maps_onto(image(coeffs, phi), shear_y(10**15))


# Reduced targets of 20 to 30 digits, products of primes below psi_12 (so
# each factor is proven prime) that rho splits well inside its budget.
PLANTED_LARGE = [
    (1, {1000000007: 1, 999999999989: 1}),
    (-1, {1000003: 1, 998244353: 1, 1000000007: 1, 1000033: 1}),
    # tau = 1536
    (1, {2: 3, 3: 2, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 1000003: 1, 1000000007: 1}),
]


@pytest.mark.parametrize("sign, factors", PLANTED_LARGE)
def test_planted_large_target_moved_far(sign, factors):
    target = sign * math.prod(p**e for p, e in factors.items())
    assert 20 <= len(str(abs(target))) <= 30
    conic, _ = _planted_target_conic(random.Random(11), target)
    coeffs = coeffs_of(conic)
    # every signed divisor of the target gives one point
    tau = math.prod(e + 1 for e in factors.values())
    assert len(checked_solve(coeffs).points) == 2 * tau
    phi = translation(10**20, -3 * 10**19)
    assert_maps_onto(coeffs, phi)
    assert_maps_onto(image(coeffs, phi), shear_x(10**15))
