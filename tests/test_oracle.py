from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicpoints import (
    LatticePoint,
    SearchBound,
    brute_force,
    integer_sqrt,
    invariants_of,
    power_of_two_conic,
    power_of_two_points,
    random_valid_conic,
    solution_bound,
    solve,
    solve_finite,
    validate,
)
from conicpoints.oracle import _SQUARES, _WHEEL_FACTORS, _square_classes, _wheel

GOLDEN = (2, -5, 2, -1, 1, -1)


def test_solution_bound_golden():
    conic, inv = validate(*GOLDEN)
    bound = solution_bound(conic, inv)
    # by = ceil((2*80 + 2*1) / 18) = 9; bx = ceil(828 / 72) = 12
    assert bound.by == 9
    assert bound.bx == 12
    for x, y in [(-2, -1), (0, -1), (1, 0), (1, 2)]:
        assert abs(x) <= bound.bx and abs(y) <= bound.by


def test_solution_bound_rejects_degenerate():
    conic, inv = validate(1, 0, -1, 0, 0, 0)
    with pytest.raises(ValueError, match="degenerate"):
        solution_bound(conic, inv)


def test_solution_bound_contains_all_solutions():
    for seed in range(200):
        conic = random_valid_conic(seed, max_linear=15)
        inv = invariants_of(conic)
        if inv.big_i == 0 or abs(inv.big_i) > 500000:
            continue
        bound = solution_bound(conic, inv)
        for p in solve_finite(conic, inv):
            assert abs(p.x) <= bound.bx
            assert abs(p.y) <= bound.by


def test_brute_force_golden():
    conic, _ = validate(*GOLDEN)
    assert brute_force(conic, SearchBound(10, 10)) == [
        (-2, -1),
        (0, -1),
        (1, 0),
        (1, 2),
    ]
    # shrinking the box must shrink the reported set accordingly
    assert brute_force(conic, SearchBound(1, 1)) == [(0, -1), (1, 0)]


def test_brute_force_empty_case():
    conic, _ = validate(1, 0, -1, 0, 0, -2)
    assert brute_force(conic, SearchBound(100, 100)) == []


def test_brute_force_monic_power_of_two():
    conic, _ = validate(1, 3, 2, 0, 1, -5)
    assert brute_force(conic, SearchBound(50, 50)) == sorted(
        [(-10, 5), (-5, 2), (-5, 5), (-1, -1), (-1, 2), (4, -1)]
    )


def test_brute_force_degenerate_box():
    # on x^2 = y^2 the box search sees both diagonals; 13 points for bound 3
    conic, _ = validate(1, 0, -1, 0, 0, 0)
    pts = brute_force(conic, SearchBound(3, 3))
    assert len(pts) == 13
    assert all(x * x == y * y for x, y in pts)


def test_random_valid_conic_deterministic():
    for seed in (0, 1, 17, 999):
        assert random_valid_conic(seed) == random_valid_conic(seed)
    assert random_valid_conic(3) != random_valid_conic(4)


def test_random_valid_conic_always_validates():
    for seed in range(1000):
        conic = random_valid_conic(seed)
        # validate would raise if the draw were inadmissible
        _, inv = validate(
            conic.alpha, conic.beta, conic.gamma, conic.delta, conic.epsilon, conic.j
        )
        assert inv.k >= 1


def test_random_valid_conic_hits_both_cases():
    kinds = {True: 0, False: 0}
    for seed in range(400):
        inv = invariants_of(random_valid_conic(seed))
        kinds[inv.big_i == 0] += 1
    assert kinds[True] > 10
    assert kinds[False] > 100


def test_random_valid_conic_respects_caps():
    for seed in range(200):
        conic = random_valid_conic(seed, max_bk=9, max_linear=4)
        assert abs(conic.beta) <= 9
        assert invariants_of(conic).k <= 9
        assert abs(conic.delta) <= 4
        assert abs(conic.epsilon) <= 4
        assert abs(conic.j) <= 4


# ---------------------------------------------------------------------------
# brute_force against the plain per-row scan it replaced

def _naive_brute_force(conic, bound):
    """Evaluate the discriminant in every row and take isqrt of each."""
    a = conic.alpha
    found = set()
    for y in range(-bound.by, bound.by + 1):
        lin = conic.beta * y + conic.delta
        disc = lin * lin - 4 * a * (conic.gamma * y * y + conic.epsilon * y + conic.j)
        s = integer_sqrt(disc)
        if s is None:
            continue
        for root in {s, -s}:
            num = root - lin
            if num % (2 * a) == 0:
                x = num // (2 * a)
                if abs(x) <= bound.bx:
                    found.add(LatticePoint(x, y))
    return sorted(found)


def _assert_same(conic, bound):
    got = brute_force(conic, bound)
    assert got == _naive_brute_force(conic, bound), (conic, bound)
    assert all(type(p) is LatticePoint for p in got)
    return got


def test_square_tables_hold_exactly_the_squares():
    assert set(_SQUARES) == {*_WHEEL_FACTORS, 64, 63, 65}
    for m, table in _SQUARES.items():
        assert len(table) == m
        assert {r for r in range(m) if table[r]} == {s * s % m for s in range(m)}


@pytest.mark.parametrize("p, q, r", [(9, 2, 9), (1, 0, 11531520), (49, -10**30 - 7, 3**60)])
def test_square_classes_are_the_rows_square_mod_every_factor(p, q, r):
    factors = (16, 9, 5, 7)
    period, classes = _square_classes(p, q, r, factors)
    assert period == 5040
    disc = [p * y * y + q * y + r for y in range(period)]
    assert sorted(classes) == [
        y for y in range(period) if all(_SQUARES[m][disc[y] % m] for m in factors)
    ]


def test_brute_force_matches_naive_on_derived_boxes():
    checked = negative_alpha = 0
    for seed in range(400):
        conic = random_valid_conic(seed)
        inv = invariants_of(conic)
        if inv.big_i == 0:
            continue
        bound = solution_bound(conic, inv)
        if bound.by > 30000:
            continue
        _assert_same(conic, bound)
        checked += 1
        negative_alpha += conic.alpha < 0
    assert checked > 250 and negative_alpha > 50


def test_brute_force_matches_naive_on_line_pairs():
    conics = [random_valid_conic(seed) for seed in range(300)]
    pairs = [c for c in conics if invariants_of(c).big_i == 0]
    pairs += [validate(*c)[0] for c in ((1, 0, -1, 0, 0, 0), (3, 3, -6, -4, 1, 1), (-2, 3, -1, 1, -2, 3))]
    assert len(pairs) > 30 and any(c.alpha < 0 for c in pairs)
    for conic in pairs:
        for bound in (SearchBound(40, 40), SearchBound(3, 700), SearchBound(500, 0)):
            _assert_same(conic, bound)
    assert len(_assert_same(validate(1, 0, -1, 0, 0, 0)[0], SearchBound(5, 5))) == 21


def test_brute_force_matches_naive_with_by_zero():
    for seed in range(100):
        conic = random_valid_conic(seed)
        for bx in (0, 1, 50, 10**6):
            _assert_same(conic, SearchBound(bx, 0))
    assert brute_force(validate(1, 3, 2, 0, 1, -5)[0], SearchBound(0, 0)) == []


# Row counts at which each wheel factor joins (8 periods of the wheel).
_THRESHOLDS = (8 * 16, 8 * 144, 8 * 720, 8 * 5040, 8 * 55440, 8 * 720720)


@pytest.mark.parametrize("n", range(len(_THRESHOLDS)))
def test_brute_force_across_wheel_thresholds(n):
    threshold = _THRESHOLDS[n]
    assert _wheel(threshold - 1) == _WHEEL_FACTORS[:n]
    assert _wheel(threshold) == _wheel(threshold + 1) == _WHEEL_FACTORS[: n + 1]
    # points at |y| from 2 to about 4.2 million, so every box cuts the set
    conic = power_of_two_conic(3, 0, 1, 24)
    everywhere = power_of_two_points(3, 0, 1, 24)
    assert list(solve(conic).points) == everywhere
    for rows in (threshold - 1, threshold + 1):
        bound = SearchBound(10**8, (rows - 1) // 2)
        inside = [p for p in everywhere if abs(p.y) <= bound.by]
        assert brute_force(conic, bound) == inside
        assert 0 < len(inside) < len(everywhere)
        if rows < 10**6:
            _assert_same(conic, bound)
        if rows < 10**5:
            _assert_same(random_valid_conic(7), bound)


@st.composite
def _big_conic_with_point(draw):
    """An admissible conic with 10- to 40-digit coefficients through a
    planted point (x0, y0) near the origin.

    The quadratic part is (a1*x + b1*y)*(a2*x + b2*y), so beta^2 -
    4*alpha*gamma = (a1*b2 - a2*b1)^2; each factor has 5 to 20 digits.
    """

    def signed(lo_digits, hi_digits):
        digits = draw(st.integers(lo_digits, hi_digits))
        value = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
        return value * draw(st.sampled_from((1, -1)))

    a1, b1, a2, b2 = (signed(5, 20) for _ in range(4))
    if a1 * b2 == a2 * b1:
        b2 += 1
    delta, epsilon = signed(10, 40), signed(10, 40)
    x0, y0 = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    alpha, beta, gamma = a1 * a2, a1 * b2 + a2 * b1, b1 * b2
    j = -(alpha * x0 * x0 + beta * x0 * y0 + gamma * y0 * y0 + delta * x0 + epsilon * y0)
    conic, _ = validate(alpha, beta, gamma, delta, epsilon, j)
    return conic, LatticePoint(x0, y0)


@settings(max_examples=150, deadline=None)
@given(_big_conic_with_point(), st.integers(50, 300))
def test_brute_force_matches_naive_on_large_coefficients(drawn, by):
    conic, planted = drawn
    points = _assert_same(conic, SearchBound(10**45, by))
    assert planted in points
