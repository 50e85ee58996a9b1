from __future__ import annotations

import math
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicpoints import (
    Conic,
    DivisorLimitExceeded,
    FiniteSolutions,
    LatticePoint,
    LinePair,
    MOD4_OBSTRUCTION,
    invariants_of,
    power_of_two_conic,
    power_of_two_points,
    random_valid_conic,
    solve,
    solve_difference_of_squares,
    validate,
)
from conicpoints import intmath, solver
from conicpoints.conic import content_reduce, factor_forms
from conicpoints.intmath import is_prime, positive_divisors
from conicpoints.solver import solve_degenerate, solve_finite, solve_linear_diophantine
from corpus.make import GOLDEN_COEFFS, GOLDEN_POINTS, LINES_COEFFS, overcap_items
from test_intmath import NEAR_CAP, PROVABLE_PRIMES, SMALL_PRIMES_TO_61, _from_factors

OVERCAP = overcap_items()


# ---------------------------------------------------------------------------
# solve_finite / solve

def test_solve_finite_empty():
    # x^2 - y^2 = 2 has no solutions: a product of two same-parity integers
    # is never 2 mod 4
    conic, inv = validate(1, 0, -1, 0, 0, -2)
    assert inv.big_i == 32
    assert solve_finite(conic, inv) == []
    assert solve_finite(conic, inv, reduce=False) == []


def test_solve_finite_rejects_degenerate():
    conic, inv = validate(*LINES_COEFFS)
    with pytest.raises(ValueError, match="degenerate"):
        solve_finite(conic, inv)


def test_solve_dispatch():
    conic, _ = validate(*GOLDEN_COEFFS)
    result = solve(conic)
    assert isinstance(result, FiniteSolutions)
    assert list(result.points) == GOLDEN_POINTS
    assert result.obstruction is None
    assert solve(validate(1, 0, -1, 0, 0, -2)[0]) == FiniteSolutions(())
    lines = solve(validate(*LINES_COEFFS)[0])
    assert isinstance(lines, LinePair)
    assert all(line.solvable for line in lines.lines)


def test_solve_past_the_int_str_digit_limit(default_int_str_limit):
    # the 4,400-digit conic of the CLI's digit-limit test: a cofactor that
    # is named, like the target, by its bit length is refused
    start = time.process_time()
    with pytest.raises(DivisorLimitExceeded) as exc:
        solve(Conic(1, 0, -1, 10**2199, 0, 1))
    assert str(exc.value) == (
        "the cofactor <14594-bit integer> of <14608-bit integer> is untested, "
        "not split within 4718592 units"
    )
    # its Miller-Rabin test is charged before it runs, so neither it nor
    # rho is run
    assert time.process_time() - start < 0.5


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
        assert list(line.box_points(bx, by)) == scan


def test_linear_diophantine_rejects_zero_line():
    with pytest.raises(ValueError):
        solve_linear_diophantine(0, 0, 5)


def test_linear_diophantine_direction_normalization():
    for a, b, c in [(3, -7, 1), (-3, 7, 1), (-4, -6, 2), (5, 0, 0), (0, -5, 10)]:
        line = solve_linear_diophantine(a, b, c)
        dx, dy = line.direction
        assert dx > 0 or (dx == 0 and dy > 0)
        assert a * dx + b * dy == 0


_COEFFICIENT = st.one_of(st.just(0), st.integers(-(10**30), 10**30))


@given(_COEFFICIENT, _COEFFICIENT, _COEFFICIENT)
def test_linear_diophantine_canonical_base_at_size(a, b, c):
    assume(a or b)
    c -= c % math.gcd(a, b)
    line = solve_linear_diophantine(a, b, c)
    x, y = line.base
    assert a * x + b * y == c
    d = line.direction[0] or line.direction[1]
    assert d > 0
    assert 0 <= (x if line.direction[0] else y) < d


# ---------------------------------------------------------------------------
# degenerate conics (big_i = 0)

def test_solve_degenerate_both_solvable():
    conic, inv = validate(*LINES_COEFFS)
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
    conic, inv = validate(*GOLDEN_COEFFS)
    with pytest.raises(ValueError, match="finite"):
        solve_degenerate(conic, inv)


def test_degenerate_line_points_satisfy_conic():
    for coeffs in [LINES_COEFFS, (3, 3, -6, -4, 1, 1), (4, 0, -1, 2, 1, 0)]:
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

def test_solve_homogeneous_cross_terms():
    conic, inv = validate(2, -5, 2, 0, 0, 0)
    s1, s2 = solve_degenerate(conic, inv)
    assert s1.direction == (2, 1)  # {(2t, t)}
    assert s2.direction == (1, 2)  # {(t, 2t)}
    for line in (s1, s2):
        for t in range(-50, 51):
            p = line.point_at(t)
            assert conic.evaluate(p.x, p.y) == 0


# ---------------------------------------------------------------------------
# difference of squares closed forms

def test_square_difference_rhs_one():
    res = solve_difference_of_squares(1, 1, -1)
    assert res == FiniteSolutions(((-1, 0), (1, 0)))
    assert type(res) is FiniteSolutions and res.obstruction is None
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
        assert type(res) is FiniteSolutions
        assert res == FiniteSolutions((), MOD4_OBSTRUCTION)


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


def test_square_difference_psi12():
    p, q = OVERCAP["psi12"]["factors"]
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


# the factorizations up to 10^14, then 2^3000: 6,002 points of 6 words
# each, with 905-digit coefficients
PLANTED_FACTORS = [*NEAR_CAP, {2: 3000}]


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


# the point budget counts each point once per started 512 bits

def test_solve_point_size_budget_refuses_before_the_divisor_list():
    # 2^14600 has 14,601 divisors, but points of 14,601 bits count 29 times
    # each: refused before the divisors are built, not after 200 MB of text
    conic, _ = _planted_target_conic(random.Random(5), 2**14600)
    tracemalloc.start()
    try:
        with pytest.raises(
            DivisorLimitExceeded,
            match=r"^\|<14601-bit integer>\| has 14601 divisors, 29202 signed points of up "
            r"to 14601 bits, 846858 in 512-bit words, over the point budget of 262144$",
        ):
            solve(conic)
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()


def test_solve_point_size_budget_refuses_before_the_cramer_loop():
    # the target +-3*5*...*61 is at the point budget with small points, but
    # delta near 10^1000 makes every point about 3,300 bits long; the
    # refusal names |target| whatever its sign
    size = math.prod(SMALL_PRIMES_TO_61) // 2
    beta, delta, epsilon = 3, 10**1000, 7
    m0 = 2 * epsilon - beta * delta
    for target in (size, -size):
        conic, inv = validate(
            1, beta, 2, delta, epsilon, (delta * delta - m0 * m0 - 4 * target) // 4
        )
        assert inv.big_i == 4 * target
        start = time.process_time()
        with pytest.raises(
            DivisorLimitExceeded,
            match=f"^\\|{size}\\| has 131072 divisors, 262144 signed points of up to 3324 bits",
        ):
            solve(conic)
        assert time.process_time() - start < 0.5


def test_solve_finite_bounds_the_bits_of_its_points(monkeypatch):
    # the bits solve_finite charges bound every coordinate it returns
    charged = []
    monkeypatch.setattr(
        solver, "check_point_budget", lambda points, bits, *subject: charged.append(bits)
    )
    rng = random.Random(11)
    for seed in range(200):
        conic = random_valid_conic(seed, max_linear=10 ** rng.randint(1, 30))
        inv = invariants_of(conic)
        if inv.big_i == 0 or abs(inv.big_i) > 10**30:
            continue
        for reduce in (True, False):
            charged.clear()
            points = solve_finite(conic, inv, reduce=reduce)
            if points:
                assert max(abs(c).bit_length() for p in points for c in p) <= charged[0]


# ---------------------------------------------------------------------------
# the divisor loop against an independent Cramer reference

def _cramer_reference(conic, inv, reduce, factors=None):
    """One Cramer solve per signed divisor s1, with s2 = target // s1 and a
    set of the integral solutions: the plain form of solve_finite's loop.
    With ``factors``, the divisors come from that factorization of the
    target instead of from positive_divisors."""
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
    if factors is None:
        divisors = positive_divisors(target)
    else:
        assert math.prod(p**e for p, e in factors.items()) == abs(target)
        divisors = _from_factors(factors)
    found = set()
    for d in divisors:
        for s1 in (d, -d):
            r1 = s1 - c1
            r2 = target // s1 - c2
            nx = r1 * b2 - r2 * b1
            if nx % det == 0:
                ny = a1 * r2 - a2 * r1
                if ny % det == 0:
                    found.add((nx // det, ny // det))
    return [LatticePoint(x, y) for x, y in sorted(found)]


def _assert_matches_reference(conic, inv, reduce):
    points = solve_finite(conic, inv, reduce=reduce)
    assert points == _cramer_reference(conic, inv, reduce)
    assert all(conic.evaluate(x, y) == 0 for x, y in points)
    assert all(type(p) is LatticePoint for p in points)
    assert len(set(points)) == len(points)
    return points


def _reduced_det(conic, inv):
    """Determinant of the content-reduced forms, or None when content_reduce
    proves the conic empty."""
    reduced = content_reduce(*factor_forms(conic, inv), inv.big_i)
    if reduced is None:
        return None
    g1, g2, _ = reduced
    return g1.cx * g2.cy - g1.cy * g2.cx


@pytest.mark.parametrize("reduce", [True, False])
def test_solve_finite_matches_reference_random(reduce):
    checked = 0
    unit_det = other_det = 0
    for seed in range(2400):
        conic = random_valid_conic(seed)
        inv = invariants_of(conic)
        if inv.big_i == 0:
            continue
        checked += 1
        det = _reduced_det(conic, inv)
        if det is not None:
            if abs(det) == 1:
                unit_det += 1
            else:
                other_det += 1
        _assert_matches_reference(conic, inv, reduce)
    assert checked >= 2000
    # solve_finite skips the divisibility tests when the reduced |det| is 1:
    # both of its branches must see enough conics
    assert unit_det >= 50 and other_det >= 50


@pytest.mark.parametrize("reduce", [True, False])
@pytest.mark.parametrize("factors", PLANTED_FACTORS)
def test_solve_finite_matches_reference_planted(factors, reduce):
    """alpha = 1 reduces to determinant 1; the negated conic, with alpha = -1
    and the same points, reduces to -1."""
    rng = random.Random(11)
    for sign in (1, -1):
        target = sign * math.prod(p**e for p, e in factors.items())
        conic, _ = _planted_target_conic(rng, target)
        for alpha in (1, -1):
            conic_a, inv = validate(*(alpha * c for c in conic))
            assert _reduced_det(conic_a, inv) == alpha
            _assert_matches_reference(conic_a, inv, reduce)


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
    Only the reduced loop runs: the unreduced target, of up to about 76
    digits, may run out of the rho budget.
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


# Twenty-digit conics with a planted point from the benchmark's over-cap
# slice (bench/overcap.json), each with the units its factoring spends;
# their reduced targets' committed factorizations give the reference points.
# Each target has a composite cofactor that rho does not split within its
# budget and ECM does; in /4, /5 and /15 it has a 15-, a 16- and a 14-digit
# prime factor and a prime factor above psi_13, which is proven by
# Pocklington's theorem.
OVERCAP_SPLIT_BY_ECM = {
    "digits20/1": 546940,
    "digits20/14": 1034560,
    "digits20/17": 508103,
    "digits20/4": 2683300,
    "digits20/5": 4051511,
    "digits20/15": 4051766,
}


def _overcap_case(item_id):
    """The item's conic, its committed factors and the reference points."""
    factors = OVERCAP[item_id]["factors"]
    conic, inv = validate(*map(int, OVERCAP[item_id]["args"]))
    expected = _cramer_reference(conic, inv, True, factors)
    assert expected
    return conic, factors, expected


@pytest.mark.parametrize("item_id", OVERCAP_SPLIT_BY_ECM)
def test_solve_overcap_targets_split_by_ecm(monkeypatch, factoring_units, item_id):
    conic, factors, expected = _overcap_case(item_id)
    # Miller-Rabin is a proof below psi_13; the primes above it, in /4, /5
    # and /15, are proven in tests/test_intmath.py
    assert all(is_prime(p) and (p < intmath._PSI_13 or p in PROVABLE_PRIMES) for p in factors)
    start = time.process_time()
    assert list(solve(conic).points) == expected
    assert time.process_time() - start < 4
    assert factoring_units == [OVERCAP_SPLIT_BY_ECM[item_id]]
    # without ECM they are refused: rho alone, with a ninth of the budget,
    # does not split them
    monkeypatch.setattr(intmath, "_ecm_split", lambda m, meter: None)
    with pytest.raises(
        DivisorLimitExceeded, match=f"is composite, not split within {intmath._BUDGET} units$"
    ):
        solve(conic)


# Twenty-digit conics from the same slice whose reduced targets have a
# prime factor above psi_13, which is proven by Pocklington's theorem, and
# the units their factoring spends.
OVERCAP_PROVEN = {"digits20/9": 35581, "digits20/19": 684125}


@pytest.mark.parametrize("item_id", OVERCAP_PROVEN)
def test_solve_overcap_targets_with_a_proven_prime(factoring_units, item_id):
    conic, factors, expected = _overcap_case(item_id)
    assert max(factors) >= intmath._PSI_13
    start = time.process_time()
    assert list(solve(conic).points) == expected
    assert time.process_time() - start < 1
    assert factoring_units == [OVERCAP_PROVEN[item_id]]


# ---------------------------------------------------------------------------
# power-of-two invariant family

def _theorem1_points(beta, delta, epsilon, n):
    """Theorem 1's closed form for the power_of_two_conic family, sorted:

        x_i = (e*2^(i-2)*(beta+1) - e*2^(n-i)*(beta-1) - delta - M*beta) / 2
        y_i = e*2^(n-i) - e*2^(i-2) + M

    for i = 2..n and e = +-1, with M = 2*epsilon - beta*delta.  The
    numerator of x_i is even because 8 divides beta^2 - 1 for odd beta.
    """
    m0 = 2 * epsilon - beta * delta
    points = []
    for i in range(2, n + 1):
        lo, hi = 1 << (i - 2), 1 << (n - i)
        for e in (1, -1):
            num = e * lo * (beta + 1) - e * hi * (beta - 1) - delta - m0 * beta
            assert num % 2 == 0
            points.append((num // 2, e * hi - e * lo + m0))
    return sorted(points)


def test_power_of_two_counts_and_agreement():
    for beta in (3, -3, 5, 9):
        for n in range(2, 41):
            pts = power_of_two_points(beta, 1, -2, n)
            assert len(pts) == 2 * (n - 1)
            assert pts == _theorem1_points(beta, 1, -2, n)
            conic = power_of_two_conic(beta, 1, -2, n)
            inv = invariants_of(conic)
            assert inv.big_i == 2**n
            for reduce in (True, False):
                assert pts == _assert_matches_reference(conic, inv, reduce)


def test_power_of_two_points_budget(monkeypatch):
    """power_of_two_points refuses exactly where solve_finite does on the
    conic it describes, whose reduced target 2^(n-2) has n-1 divisors."""
    monkeypatch.setattr(intmath, "POINT_BUDGET", 64)
    for n in range(2, 40):
        conic = power_of_two_conic(3, 0, 1, n)
        try:
            solve_finite(conic, invariants_of(conic))
        except DivisorLimitExceeded:
            # the one budget, patched in intmath alone, refuses before any
            # conic is built
            with monkeypatch.context() as probe:
                probe.setattr(solver, "validate", lambda *args: pytest.fail("conic built"))
                with pytest.raises(DivisorLimitExceeded, match="point budget of 64$"):
                    power_of_two_points(3, 0, 1, n)
            assert n == 34
            break
        assert len(power_of_two_points(3, 0, 1, n)) == 2 * (n - 1)
    else:
        pytest.fail("solve_finite never refused")


def test_power_of_two_points_charges_solve_finite_bits(monkeypatch):
    """power_of_two_points charges at least the bits solve_finite charges
    on the conic, and both charge exactly n for beta = 3, delta = epsilon = 0."""
    class Charged(Exception):
        pass

    charged = []

    def record(points, bits, *subject):
        charged.append(bits)
        if len(charged) == 2:
            raise Charged  # solve_finite's check, before its Cramer loop

    monkeypatch.setattr(solver, "check_point_budget", record)
    for n in (4, 100, 8192, 8193):
        charged.clear()
        with pytest.raises(Charged):
            power_of_two_points(3, 0, 0, n)
        assert charged == [n, n]
    rng = random.Random(8)
    for _ in range(300):
        beta = rng.choice([-1, 1]) * rng.randrange(3, 2 ** rng.randint(2, 40), 2)
        delta = rng.randint(-(2**60), 2**60) >> rng.randint(0, 60)
        epsilon = rng.randint(-(2**60), 2**60) >> rng.randint(0, 60)
        charged.clear()
        with pytest.raises(Charged):
            power_of_two_points(beta, delta, epsilon, rng.randint(2, 120))
        assert charged[0] >= charged[1]


def test_power_of_two_rejections(monkeypatch):
    with pytest.raises(ValueError, match="odd"):
        power_of_two_points(2, 0, 1, 4)
    with pytest.raises(ValueError, match="gamma"):
        power_of_two_points(1, 0, 1, 4)
    with pytest.raises(ValueError, match="gamma"):
        power_of_two_points(-1, 0, 1, 4)
    with pytest.raises(ValueError, match="at least"):
        power_of_two_points(3, 0, 1, 1)
    assert len(power_of_two_points(3, 0, 1, 4)) == 6
    # beta odd, beta != +-1 and n >= 2 in that order, as power_of_two_conic
    # checks them, then the point budget, before the conic is built: a
    # family that does not exist is refused as such at any n
    monkeypatch.setattr(solver, "validate", lambda *args: pytest.fail("conic built"))
    with pytest.raises(DivisorLimitExceeded, match="point budget"):
        power_of_two_points(-3, 0, 1, 131074)
    for beta, n, message in [
        (2, 10**6, "beta must be odd"),
        (1, 10**6, "beta = +-1 makes gamma zero"),
        (2, 1, "beta must be odd"),
        (1, 1, "beta = +-1 makes gamma zero"),
        (-1, -5, "beta = +-1 makes gamma zero"),
        (3, 1, "n must be at least 2"),
    ]:
        for build in (power_of_two_points, power_of_two_conic):
            with pytest.raises(ValueError) as info:
                build(beta, 0, 1, n)
            assert type(info.value) is ValueError and str(info.value) == message


def test_power_of_two_points_budget_past_the_int_str_digit_limit(default_int_str_limit):
    # the refusal names n - 2, n - 1, 2(n - 1), the bits and the words by
    # their bit length, so it stays a DivisorLimitExceeded under Python's
    # default int/str limit
    with pytest.raises(DivisorLimitExceeded) as info:
        power_of_two_points(3, 0, 1, 10**4400)
    assert str(info.value) == (
        "the reduced target 2^<14617-bit integer> has <14617-bit integer> "
        "divisors, <14618-bit integer> signed points of up to <14617-bit integer> "
        "bits, <29225-bit integer> in 512-bit words, over the point budget of "
        f"{intmath.POINT_BUDGET}"
    )

