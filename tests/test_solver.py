from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicpoints import (
    DivisorLimitExceeded,
    FiniteSolutions,
    LatticePoint,
    LinePair,
    MOD4_OBSTRUCTION,
    brute_force,
    content_reduce,
    factor_forms,
    invariants_of,
    positive_divisors,
    power_of_two_conic,
    power_of_two_points,
    random_valid_conic,
    SearchBound,
    solve,
    solve_degenerate,
    solve_difference_of_squares,
    solve_finite,
    solve_homogeneous,
    solve_linear_diophantine,
    validate,
)

GOLDEN = (2, -5, 2, -1, 1, -1)
GOLDEN_POINTS = [(-2, -1), (0, -1), (1, 0), (1, 2)]


# ---------------------------------------------------------------------------
# unreduced forms

def test_factor_forms_golden_splittings():
    conic, inv = validate(*GOLDEN)
    f1, f2 = factor_forms(conic, inv)
    # (1,0) turns the unreduced forms into F1 = 8, F2 = 10, and (1,2) into
    # F1 = -40, F2 = -2: both splittings of I = 80
    assert (f1.evaluate(1, 0), f2.evaluate(1, 0)) == (8, 10)
    assert (f1.evaluate(1, 2), f2.evaluate(1, 2)) == (-40, -2)


# ---------------------------------------------------------------------------
# solve_finite / solve

def test_solve_finite_golden():
    conic, inv = validate(*GOLDEN)
    assert solve_finite(conic, inv) == GOLDEN_POINTS
    assert solve_finite(conic, inv, reduce=False) == GOLDEN_POINTS


def test_solve_finite_monic_power_of_two():
    conic, inv = validate(1, 3, 2, 0, 1, -5)
    expected = sorted([(-5, 5), (-1, -1), (-1, 2), (-5, 2), (4, -1), (-10, 5)])
    assert solve_finite(conic, inv) == expected


def test_solve_finite_empty():
    # x^2 - y^2 = 2 has no solutions: a product of two same-parity integers
    # is never 2 mod 4
    conic, inv = validate(1, 0, -1, 0, 0, -2)
    assert inv.big_i == 32
    assert solve_finite(conic, inv) == []
    assert solve_finite(conic, inv, reduce=False) == []


def test_solve_finite_rejects_degenerate():
    conic, inv = validate(1, 0, -1, 0, 0, 0)
    with pytest.raises(ValueError, match="degenerate"):
        solve_finite(conic, inv)


def test_solve_finite_points_satisfy_conic():
    for seed in range(300):
        conic = random_valid_conic(seed, max_linear=20)
        inv = invariants_of(conic)
        if inv.big_i == 0:
            continue
        for p in solve_finite(conic, inv):
            assert conic.evaluate(p.x, p.y) == 0


def test_solve_finite_reduce_matches_no_reduce():
    checked = 0
    for seed in range(250):
        conic = random_valid_conic(seed)
        inv = invariants_of(conic)
        if inv.big_i == 0:
            continue
        checked += 1
        assert solve_finite(conic, inv) == solve_finite(conic, inv, reduce=False)
    assert checked > 150


def test_solve_finite_output_sorted_unique():
    for seed in range(100):
        conic = random_valid_conic(seed, max_linear=10)
        inv = invariants_of(conic)
        if inv.big_i == 0:
            continue
        pts = solve_finite(conic, inv)
        assert pts == sorted(set(pts))


def test_solve_finite_divisor_cap():
    conic, inv = validate(*GOLDEN)  # big_i = 80, reduced constant 10
    with pytest.raises(DivisorLimitExceeded):
        solve_finite(conic, inv, reduce=False, divisor_cap=50)
    assert solve_finite(conic, inv, divisor_cap=50) == GOLDEN_POINTS


def test_solve_dispatch():
    conic, _ = validate(*GOLDEN)
    result = solve(conic)
    assert isinstance(result, FiniteSolutions)
    assert list(result.points) == GOLDEN_POINTS
    lines = solve(validate(1, 0, -1, 0, 0, 0)[0])
    assert isinstance(lines, LinePair)
    assert all(line.solvable for line in lines.lines)


def test_sign_symmetry_when_linear_terms_vanish():
    # beta = delta = epsilon = 0 conics are invariant under both sign flips
    for l, m, j in [(1, 1, -15), (2, 1, -17), (1, 2, 9), (3, 1, -45)]:
        conic, inv = validate(l * l, 0, -m * m, 0, 0, j)
        pts = set(solve_finite(conic, inv))
        assert {(-x, y) for x, y in pts} == pts
        assert {(x, -y) for x, y in pts} == pts


# ---------------------------------------------------------------------------
# linear Diophantine lines

def test_linear_diophantine_solvable():
    line = solve_linear_diophantine(6, 9, 21)
    assert line.solvable
    assert line.base == (2, 1)
    assert line.direction == (3, -2)
    for t in range(-5, 6):
        p = line.point_at(t)
        assert 6 * p.x + 9 * p.y == 21


def test_linear_diophantine_unsolvable():
    line = solve_linear_diophantine(6, 9, 20)
    assert not line.solvable
    assert line.base is None
    assert line.point_at(3) is None
    assert line.direction == (3, -2)


def test_linear_diophantine_axes():
    vertical = solve_linear_diophantine(4, 0, 8)
    assert vertical.solvable and vertical.base == (2, 0)
    assert vertical.direction == (0, 1)
    horizontal = solve_linear_diophantine(0, 4, 8)
    assert horizontal.solvable and horizontal.base == (0, 2)
    assert horizontal.direction == (1, 0)
    assert not solve_linear_diophantine(4, 0, 6).solvable


def test_linear_diophantine_through_origin():
    line = solve_linear_diophantine(2, 2, 0)
    assert line.solvable and line.base == (0, 0)
    assert line.direction == (1, -1)


def test_points_in_box_matches_scan():
    rng = random.Random(5)
    for _ in range(300):
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        if a == b == 0:
            continue
        line = solve_linear_diophantine(a, b, rng.randint(-20, 20))
        bx, by = rng.randint(0, 9), rng.randint(0, 9)
        scan = [
            (x, y)
            for x in range(-bx, bx + 1)
            for y in range(-by, by + 1)
            if a * x + b * y == line.c
        ]
        assert line.points_in_box(bx, by) == scan


def test_linear_diophantine_rejects_zero_line():
    with pytest.raises(ValueError):
        solve_linear_diophantine(0, 0, 5)


def test_linear_diophantine_direction_normalization():
    for a, b, c in [(3, -7, 1), (-3, 7, 1), (-4, -6, 2), (5, 0, 0), (0, -5, 10)]:
        line = solve_linear_diophantine(a, b, c)
        dx, dy = line.direction
        assert dx > 0 or (dx == 0 and dy > 0)
        assert a * dx + b * dy == 0


# ---------------------------------------------------------------------------
# degenerate conics (big_i = 0)

def test_solve_degenerate_both_solvable():
    conic, inv = validate(1, 0, -1, 0, 0, 0)
    assert inv.big_i == 0
    line1, line2 = solve_degenerate(conic, inv)
    assert (line1.a, line1.b, line1.c) == (4, -4, 0)
    assert (line2.a, line2.b, line2.c) == (4, 4, 0)
    assert line1.solvable and line2.solvable


def test_solve_degenerate_one_unsolvable():
    # factors as (3x - 3y - 1)(x + 2y - 1); the first line misses the lattice
    conic, inv = validate(3, 3, -6, -4, 1, 1)
    assert inv.big_i == 0 and inv.k == 9 and inv.m == 18
    line1, line2 = solve_degenerate(conic, inv)
    assert (line1.a, line1.b, line1.c) == (54, -54, 18)
    assert not line1.solvable
    assert (line2.a, line2.b, line2.c) == (54, 108, 54)
    assert line2.solvable and line2.base == (1, 0)
    # mirrored coefficients swap which line fails
    conic, inv = validate(3, -3, -6, -4, -1, 1)
    line1, line2 = solve_degenerate(conic, inv)
    assert line1.solvable and not line2.solvable


def test_solve_degenerate_both_unsolvable():
    # (3x + 3y + 1)(3x - 3y + 2): both constant terms are units mod 3
    conic, inv = validate(9, 0, -9, 9, 3, 2)
    assert inv.big_i == 0
    line1, line2 = solve_degenerate(conic, inv)
    assert not line1.solvable and not line2.solvable
    # and indeed no lattice point in a sizable window satisfies the conic
    assert all(
        conic.evaluate(x, y) != 0 for x in range(-30, 31) for y in range(-30, 31)
    )


def test_solve_degenerate_rejects_finite():
    conic, inv = validate(*GOLDEN)
    with pytest.raises(ValueError, match="finite"):
        solve_degenerate(conic, inv)


def test_degenerate_line_points_satisfy_conic():
    for coeffs in [(1, 0, -1, 0, 0, 0), (3, 3, -6, -4, 1, 1), (4, 0, -1, 2, 1, 0)]:
        conic, inv = validate(*coeffs)
        assert inv.big_i == 0
        for line in solve_degenerate(conic, inv):
            if not line.solvable:
                continue
            for t in range(-100, 101):
                p = line.point_at(t)
                assert conic.evaluate(p.x, p.y) == 0


# ---------------------------------------------------------------------------
# homogeneous specialisation

def _primitive_line(line):
    from math import gcd

    g = gcd(gcd(line.a, line.b), line.c)
    a, b, c = line.a // g, line.b // g, line.c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return a, b, c


def test_solve_homogeneous_difference_of_squares():
    conic, inv = validate(1, 0, -1, 0, 0, 0)
    s1, s2 = solve_homogeneous(conic, inv)
    assert s1.base == (0, 0) and s2.base == (0, 0)
    assert s1.direction == (1, -1)  # the set {(-t, t)}
    assert s2.direction == (1, 1)  # the set {(t, t)}


def test_solve_homogeneous_cross_terms():
    conic, inv = validate(2, -5, 2, 0, 0, 0)
    s1, s2 = solve_homogeneous(conic, inv)
    assert s1.direction == (1, 2)  # {(t, 2t)}
    assert s2.direction == (2, 1)  # {(2t, t)}
    for line in (s1, s2):
        for t in range(-50, 51):
            p = line.point_at(t)
            assert conic.evaluate(p.x, p.y) == 0


def test_solve_homogeneous_directions_coprime_and_origin():
    from math import gcd

    for seed in range(400):
        conic = random_valid_conic(seed)
        if conic.delta or conic.epsilon or conic.j:
            continue
        inv = invariants_of(conic)
        assert inv.big_i == 0
        for line in solve_homogeneous(conic, inv):
            assert line.solvable and line.base == (0, 0)
            assert gcd(line.direction[0], line.direction[1]) == 1


def test_homogeneous_agrees_with_degenerate_as_sets():
    for seed in range(400):
        conic = random_valid_conic(seed)
        if conic.delta or conic.epsilon or conic.j:
            continue
        inv = invariants_of(conic)
        hom = {_primitive_line(l) for l in solve_homogeneous(conic, inv)}
        gen = {_primitive_line(l) for l in solve_degenerate(conic, inv)}
        assert hom == gen


def test_solve_homogeneous_rejects_inhomogeneous():
    conic, inv = validate(*GOLDEN)
    with pytest.raises(ValueError, match="homogeneous"):
        solve_homogeneous(conic, inv)


# ---------------------------------------------------------------------------
# difference of squares closed forms

def test_square_difference_rhs_one():
    res = solve_difference_of_squares(1, 1, -1)
    assert res.points == ((-1, 0), (1, 0))
    assert res.obstruction is None
    assert solve_difference_of_squares(2, 3, -1).points == ()


def test_square_difference_odd_prime():
    assert solve_difference_of_squares(1, 1, -3).points == (
        (-2, -1),
        (-2, 1),
        (2, -1),
        (2, 1),
    )
    assert solve_difference_of_squares(1, 1, -5).points == (
        (-3, -2),
        (-3, 2),
        (3, -2),
        (3, 2),
    )
    assert solve_difference_of_squares(1, 1, -13).points == (
        (-7, -6),
        (-7, 6),
        (7, -6),
        (7, 6),
    )
    # 2l | p+1 and 2m | p-1 with l, m > 1
    assert solve_difference_of_squares(2, 1, -7).points == (
        (-2, -3),
        (-2, 3),
        (2, -3),
        (2, 3),
    )
    # divisibility fails: 2m = 4 does not divide 6
    assert solve_difference_of_squares(2, 2, -7).points == ()


def test_square_difference_mod4_obstruction():
    for l, m, j in [(1, 1, -2), (1, 1, 2), (3, 2, -6), (2, 5, 10), (1, 1, -102)]:
        res = solve_difference_of_squares(l, m, j)
        assert res.points == ()
        assert res.obstruction == MOD4_OBSTRUCTION


def test_square_difference_delegates_composites():
    res = solve_difference_of_squares(1, 1, -15)
    assert res.obstruction is None
    assert res.points == (
        (-8, -7),
        (-8, 7),
        (-4, -1),
        (-4, 1),
        (4, -1),
        (4, 1),
        (8, -7),
        (8, 7),
    )
    # negative right-hand side goes through the general solver too
    res = solve_difference_of_squares(1, 1, 3)
    assert res.points == ((-1, -2), (-1, 2), (1, -2), (1, 2))


def test_square_difference_matches_general_solver():
    for l, m, j in [(1, 1, -3), (1, 1, -25), (2, 1, -7), (1, 2, -9), (2, 3, 5)]:
        res = solve_difference_of_squares(l, m, j)
        conic, inv = validate(l * l, 0, -m * m, 0, 0, j)
        assert list(res.points) == solve_finite(conic, inv)


@pytest.mark.xfail(
    strict=True,
    reason="psi_12 is a strong pseudoprime to bases 2..37, so is_prime sends "
    "it down the odd-prime closed form, which finds 4 of the 8 points",
)
def test_square_difference_psi12():
    p, q = 399165290221, 798330580441
    psi12 = p * q
    # x - y = s, x + y = psi12/s over the eight signed divisors s
    expected = sorted(
        LatticePoint((s + psi12 // s) // 2, (psi12 // s - s) // 2)
        for d in (1, p, q, psi12)
        for s in (d, -d)
    )
    assert list(solve_difference_of_squares(1, 1, -psi12).points) == expected


def test_square_difference_rejections():
    with pytest.raises(ValueError, match="positive"):
        solve_difference_of_squares(0, 1, -3)
    with pytest.raises(ValueError, match="positive"):
        solve_difference_of_squares(1, -2, -3)
    with pytest.raises(ValueError, match="line pair"):
        solve_difference_of_squares(2, 3, 0)


# ---------------------------------------------------------------------------
# planted targets beyond the oracle's reach

def _planted_target_conic(rng, target):
    """A conic whose content-reduced target is ``target``.

    alpha = 1 and gamma = (beta^2 - 1)/4 with beta odd give k = 1, both
    factor forms have content 2, and the reduced forms have determinant
    +-1, so every signed divisor of the target gives exactly one point.
    """
    beta = rng.choice([-1, 1]) * rng.randrange(3, 100, 2)
    delta, epsilon = rng.randint(-50, 50), rng.randint(-50, 50)
    m0 = 2 * epsilon - beta * delta
    j = (delta * delta - m0 * m0 - 4 * target) // 4
    return validate(1, beta, (beta * beta - 1) // 4, delta, epsilon, j)


PLANTED_FACTORS = [
    {70000000000009: 1},
    {8366609: 1, 8367641: 1},
    {2: 46},
    {2: 6, 3: 4, 5: 2, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 1},  # tau = 6720
]


@pytest.mark.parametrize("factors", PLANTED_FACTORS)
def test_solve_planted_target_counts(factors):
    rng = random.Random(5)
    tau = math.prod(e + 1 for e in factors.values())
    for sign in (1, -1):
        target = sign * math.prod(p**e for p, e in factors.items())
        conic, inv = _planted_target_conic(rng, target)
        assert inv.big_i == 4 * target
        points = solve(conic).points
        assert len(set(points)) == len(points) == 2 * tau
        assert all(conic.evaluate(x, y) == 0 for x, y in points)


# ---------------------------------------------------------------------------
# the divisor loop against an independent Cramer reference

def _cramer_reference(conic, inv, reduce, cap=None):
    """One Cramer solve per signed divisor s1, with s2 = target // s1 and a
    set of the integral solutions: the plain form of solve_finite's loop."""
    f1, f2 = factor_forms(conic, inv)
    target = inv.big_i
    if reduce:
        reduced = content_reduce(f1, f2, target)
        if reduced is None:
            return []
        f1, f2, target = reduced
    a1, b1, c1 = f1.cx, f1.cy, f1.c0
    a2, b2, c2 = f2.cx, f2.cy, f2.c0
    det = a1 * b2 - b1 * a2
    found = set()
    for d in positive_divisors(target, cap=cap):
        for s1 in (d, -d):
            r1 = s1 - c1
            r2 = target // s1 - c2
            nx = r1 * b2 - r2 * b1
            if nx % det == 0:
                ny = a1 * r2 - a2 * r1
                if ny % det == 0:
                    found.add((nx // det, ny // det))
    return [LatticePoint(x, y) for x, y in sorted(found)]


def _assert_matches_reference(conic, inv, reduce, cap=None):
    points = solve_finite(conic, inv, reduce=reduce, divisor_cap=cap)
    assert points == _cramer_reference(conic, inv, reduce, cap)
    assert all(type(p) is LatticePoint for p in points)
    assert len(set(points)) == len(points)
    return points


@pytest.mark.parametrize("reduce", [True, False])
def test_solve_finite_matches_reference_random(reduce):
    checked = 0
    for seed in range(2400):
        conic = random_valid_conic(seed)
        inv = invariants_of(conic)
        if inv.big_i == 0:
            continue
        checked += 1
        _assert_matches_reference(conic, inv, reduce)
    assert checked >= 2000


@pytest.mark.parametrize("reduce", [True, False])
@pytest.mark.parametrize("factors", PLANTED_FACTORS)
def test_solve_finite_matches_reference_planted(factors, reduce):
    rng = random.Random(11)
    for sign in (1, -1):
        target = sign * math.prod(p**e for p, e in factors.items())
        conic, inv = _planted_target_conic(rng, target)
        # the unreduced target, 4*target, is over the default cap
        _assert_matches_reference(conic, inv, reduce, cap=10**15)


_factor_coeff = st.integers(10**5, 10**20) | st.integers(-(10**20), -(10**5))


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[_factor_coeff] * 4),
    st.tuples(*[st.integers(-(10**6), 10**6)] * 2),
    st.tuples(*[st.integers(-(10**4), 10**4).filter(bool)] * 2),
)
def test_solve_finite_matches_reference_large(coeffs, point, values):
    """(p*x + q*y + r)(s*x + t*y + w) = m1*m2 through a planted point.

    r and w make the two factors m1 and m2 at the point, so the conic has
    10- to 40-digit quadratic coefficients (larger linear and constant
    ones) while its reduced target divides m1*m2.
    The unreduced target is far over the divisor cap, so only the reduced
    loop runs.
    """
    p, q, s, t = coeffs
    assume(p * t != q * s)
    x0, y0 = point
    m1, m2 = values
    r, w = m1 - p * x0 - q * y0, m2 - s * x0 - t * y0
    conic, inv = validate(
        p * s, p * t + q * s, q * t, p * w + r * s, q * w + r * t, r * w - m1 * m2
    )
    assert (x0, y0) in _assert_matches_reference(conic, inv, True)


# ---------------------------------------------------------------------------
# power-of-two invariant family

def test_power_of_two_conic_recovers_constant():
    conic = power_of_two_conic(3, 0, 1, 4)
    assert (conic.alpha, conic.beta, conic.gamma) == (1, 3, 2)
    assert conic.j == -5
    inv = invariants_of(conic)
    assert inv.k == 1 and inv.big_i == 16


def test_power_of_two_points_instance():
    pts = power_of_two_points(3, 0, 1, 4)
    assert pts == sorted([(-5, 5), (-1, -1), (-1, 2), (-5, 2), (4, -1), (-10, 5)])


def test_power_of_two_counts_and_agreement():
    for beta in (3, -3, 5, 9):
        for n in range(2, 8):
            pts = power_of_two_points(beta, 1, -2, n)
            assert len(pts) == 2 * (n - 1)
            conic = power_of_two_conic(beta, 1, -2, n)
            inv = invariants_of(conic)
            assert inv.big_i == 2**n
            assert pts == solve_finite(conic, inv)


def test_power_of_two_rejections():
    with pytest.raises(ValueError, match="odd"):
        power_of_two_points(2, 0, 1, 4)
    with pytest.raises(ValueError, match="gamma"):
        power_of_two_points(1, 0, 1, 4)
    with pytest.raises(ValueError, match="gamma"):
        power_of_two_points(-1, 0, 1, 4)
    with pytest.raises(ValueError, match="at least"):
        power_of_two_points(3, 0, 1, 1)


# ---------------------------------------------------------------------------
# solver vs oracle spot checks (the large sweep lives in the acceptance tests)

def test_solver_oracle_spot_agreement():
    checked = 0
    for seed in range(120):
        conic = random_valid_conic(seed, max_linear=15)
        inv = invariants_of(conic)
        if inv.big_i == 0 or abs(inv.big_i) > 200000:
            continue
        checked += 1
        from conicpoints import solution_bound

        assert solve_finite(conic, inv) == brute_force(conic, solution_bound(conic, inv))
    assert checked > 40


def test_brute_force_golden_box():
    conic, _ = validate(*GOLDEN)
    assert brute_force(conic, SearchBound(10, 10)) == GOLDEN_POINTS
