from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicpoints import (
    Conic,
    DegenerateAlpha,
    LatticePoint,
    SearchBound,
    brute_force,
    invariants_of,
    power_of_two_conic,
    power_of_two_points,
    random_valid_conic,
    solution_bound,
    solve,
    validate,
)
from conicpoints.intmath import integer_sqrt
from conicpoints.oracle import _BLOCK, _JOIN, _MODULI, _SQUARES, ROW_BUDGET, _sieve
from conicpoints.solver import solve_finite
from corpus.make import GOLDEN_COEFFS, GOLDEN_POINTS, LINES_COEFFS


def test_solution_bound_golden():
    conic, inv = validate(*GOLDEN_COEFFS)
    bound = solution_bound(conic, inv)
    # by = ceil((2*80 + 2*1) / 18) = 9; bx = ceil(828 / 72) = 12
    assert bound.by == 9
    assert bound.bx == 12
    for x, y in GOLDEN_POINTS:
        assert abs(x) <= bound.bx and abs(y) <= bound.by


def test_solution_bound_rejects_degenerate():
    conic, inv = validate(*LINES_COEFFS)
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
    conic, _ = validate(*GOLDEN_COEFFS)
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


def test_brute_force_needs_only_alpha_nonzero():
    # the quadratic formula divides by 2*alpha
    with pytest.raises(DegenerateAlpha, match="alpha must be nonzero"):
        brute_force(Conic(0, 1, 1, 0, 0, -1), SearchBound(3, 3))
    # the Pell conic x^2 - 2y^2 = 1 is not factorable, but the scan is exact
    pell = Conic(1, 0, -2, 0, 0, -1)
    assert brute_force(pell, SearchBound(3, 3)) == [(-3, -2), (-3, 2), (-1, 0), (1, 0), (3, -2), (3, 2)]


def test_random_valid_conic_deterministic():
    for seed in (0, 1, 17, 999):
        assert random_valid_conic(seed) == random_valid_conic(seed)
    assert random_valid_conic(3) != random_valid_conic(4)


@pytest.mark.parametrize("sizes", [{"max_bk": 1}, {"max_bk": 0}, {"max_linear": -1}])
def test_random_valid_conic_rejects_sizes_it_cannot_draw(sizes):
    # with k = 1 every beta of matching parity is +-k, so the draw would
    # never end; a negative max_linear fails only on some draws
    for seed in range(3):
        with pytest.raises(ValueError, match="max_bk >= 2 and max_linear >= 0"):
            random_valid_conic(seed, **sizes)


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
    assert set(_SQUARES) == set(_MODULI)
    for m, table in _SQUARES.items():
        assert len(table) == m
        assert {r for r in range(m) if table[r]} == {s * s % m for s in range(m)}


def _naive_sieve(p, q, r, y0, n):
    """The rows y0..y0+n-1 whose value is a square mod every modulus that
    joined: a modulus joins while at least _JOIN rows per residue survive."""
    alive = range(y0, y0 + n)
    for m in _MODULI:
        if len(alive) < _JOIN * m:
            break
        squares = {s * s % m for s in range(m)}
        alive = [y for y in alive if (p * y * y + q * y + r) % m in squares]
    return set(alive)


@pytest.mark.parametrize(
    "p, q, r",
    [
        (9, 2, 9),
        (1, 0, 11531520),
        (49, -10**30 - 7, 3**60),
        (-(10**40) - 3, 7**50, -(10**45) + 1),
        (1, 0, 0),
        (4, 4, 1),
        (1, 4 * math.prod(_MODULI), 4 * math.prod(_MODULI)),
    ],
)
def test_square_classes_are_the_rows_square_mod_every_factor(p, q, r):
    # the sieve keeps exactly the rows square mod every modulus that joined,
    # so it never strikes a row whose value is a perfect square
    struck = {}
    for y0, n in ((0, 5040), (-70001, _BLOCK), (-3, 127), (-3, 128), (10**12 + 5, 4000), (-(10**20), 1)):
        mask = _sieve(p, q, r, y0, n, struck)
        assert len(mask) == n
        assert {y0 + i for i in range(n) if mask[i]} == _naive_sieve(p, q, r, y0, n)
        for i in range(n):
            if integer_sqrt(p * (y0 + i) ** 2 + q * (y0 + i) + r) is not None:
                assert mask[i]


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


def _lines_through(line1, line2):
    """The line pair (a1*x + b1*y + c1)(a2*x + b2*y + c2) = 0, expanded."""
    (a1, b1, c1), (a2, b2, c2) = line1, line2
    conic, inv = validate(
        a1 * a2, a1 * b2 + a2 * b1, b1 * b2, a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2
    )
    assert inv.big_i == 0
    return conic


def _line_at(a, b, x0, y0):
    """The line a*x + b*y + c = 0 through (x0, y0)."""
    return a, b, -(a * x0 + b * y0)


def test_brute_force_matches_naive_on_line_pairs():
    conics = [random_valid_conic(seed) for seed in range(300)]
    pairs = [c for c in conics if invariants_of(c).big_i == 0]
    pairs += [validate(*c)[0] for c in (LINES_COEFFS, (3, 3, -6, -4, 1, 1), (-2, 3, -1, 1, -2, 3))]
    # two lines through (x0, y0): the crossing row y0, where the two roots
    # coincide, is inside some boxes below and outside others
    rng = random.Random("crossing rows")
    crossings = []
    while len(crossings) < 40:
        x0, y0 = rng.randint(-50, 50), rng.choice((0, 7, -30, 31, -400))
        a1, a2 = rng.randint(1, 6), rng.choice((1, -1)) * rng.randint(1, 6)
        b1, b2 = (rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(2))
        if a1 * b2 != a2 * b1:
            conic = _lines_through(_line_at(a1, b1, x0, y0), _line_at(a2, b2, x0, y0))
            crossings.append((conic, LatticePoint(x0, y0)))
    pairs += [conic for conic, _ in crossings]
    assert len(pairs) > 70 and any(c.alpha < 0 for c in pairs)
    bounds = (SearchBound(40, 40), SearchBound(3, 700), SearchBound(500, 0), SearchBound(60, 30), SearchBound(0, 0))
    for conic in pairs:
        for bound in bounds:
            _assert_same(conic, bound)
    for conic, crossing in crossings:
        for bound in bounds:
            inside = abs(crossing.x) <= bound.bx and abs(crossing.y) <= bound.by
            assert (crossing in brute_force(conic, bound)) == inside
    assert len(_assert_same(validate(*LINES_COEFFS)[0], SearchBound(5, 5))) == 21
    # x + y = 200 leaves the box |x| <= 50 in every row |y| <= 50, x = 2y
    # stays in it; a wider box cuts both lines
    conic = _lines_through((1, 1, -200), (1, -2, 0))
    assert _assert_same(conic, SearchBound(50, 50)) == [(2 * y, y) for y in range(-25, 26)]
    assert len(_assert_same(conic, SearchBound(250, 50))) == 101 + 101


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(2**20, 2**40) | st.integers(-(2**40), -(2**20)), min_size=4, max_size=4),
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(2**70, 2**90),
)
def test_brute_force_line_pairs_with_large_coefficients(coeffs, x0, y0, shift):
    # alpha = a1*a2 is past 2^40 and delta past 2^64; the first line goes
    # through a planted point, the second has a constant past 2^70
    a1, b1, a2, b2 = coeffs
    if a1 * b2 == a2 * b1:
        b2 += 1
    conic = _lines_through(_line_at(a1, b1, x0, y0), (a2, b2, shift))
    assert abs(conic.alpha) >= 2**40 and abs(conic.delta) > 2**64
    points = _assert_same(conic, SearchBound(10**30, 60))
    assert LatticePoint(x0, y0) in points


def test_brute_force_reads_line_pairs_without_square_classes(monkeypatch):
    # the line-pair scan needs no sieve and no square root; the finite scan
    # still uses both
    import conicpoints.oracle as oracle

    def refused(*args):
        raise AssertionError("square classes on a line pair")

    monkeypatch.setattr(oracle, "_sieve", refused)
    conic, _ = validate(*LINES_COEFFS)
    assert len(brute_force(conic, SearchBound(3, 3))) == 13
    with pytest.raises(AssertionError, match="square classes"):
        brute_force(validate(*GOLDEN_COEFFS)[0], SearchBound(10, 10))


def test_brute_force_matches_naive_with_by_zero():
    for seed in range(100):
        conic = random_valid_conic(seed)
        for bx in (0, 1, 50, 10**6):
            _assert_same(conic, SearchBound(bx, 0))
    assert brute_force(validate(1, 3, 2, 0, 1, -5)[0], SearchBound(0, 0)) == []


@pytest.mark.parametrize(
    "rows", [_BLOCK - 1, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK + 1, 5 * _BLOCK + 1, ROW_BUDGET - 1]
)
def test_brute_force_across_block_edges(rows):
    # points at |y| from 2 to about 4.2 million, so every box cuts the set
    conic = power_of_two_conic(3, 0, 1, 24)
    everywhere = power_of_two_points(3, 0, 1, 24)
    assert list(solve(conic).points) == everywhere
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
