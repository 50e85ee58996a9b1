"""Acceptance suite: eight go/no-go checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each is printed only after its assertions pass.
"""

from __future__ import annotations

import random
import time
from math import gcd

from conicpoints import (
    MOD4_OBSTRUCTION,
    brute_force,
    invariants_of,
    power_of_two_conic,
    power_of_two_points,
    random_valid_conic,
    solution_bound,
    solve,
    solve_difference_of_squares,
    validate,
)
from conicpoints.cli import main
from conicpoints.conic import factor_forms
from conicpoints.solver import solve_degenerate, solve_finite
from corpus.make import GOLDEN, GOLDEN_COEFFS, GOLDEN_POINTS
from test_solver import _theorem1_points

GOLDEN_JSON = """\
{
  "invariants": {
    "delta_q": "9",
    "i": "80",
    "k": "3",
    "m": "-1"
  },
  "kind": "finite",
  "points": [
    [
      "-2",
      "-1"
    ],
    [
      "0",
      "-1"
    ],
    [
      "1",
      "0"
    ],
    [
      "1",
      "2"
    ]
  ]
}
"""


def test_criterion_1_golden_conic_byte_exact(capsys):
    code = main(["solve", "--format", "json", *GOLDEN])
    out = capsys.readouterr().out
    assert code == 0
    assert out == GOLDEN_JSON

    conic, inv = validate(*GOLDEN_COEFFS)
    solve(conic)  # warm path
    start = time.perf_counter()
    result = solve(conic)
    elapsed = time.perf_counter() - start
    assert list(result.points) == GOLDEN_POINTS
    assert elapsed < 0.010
    print(
        f"ACCEPTANCE 1: PASS worked example byte-exact, solve took "
        f"{elapsed * 1000:.3f} ms"
    )


def test_criterion_2_invariant_divisible_by_four():
    start = time.perf_counter()
    for seed in range(10**4):
        inv = invariants_of(random_valid_conic(seed))
        assert inv.big_i % 4 == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 2: PASS invariant divisible by 4 on 10^4 conics "
        f"in {elapsed:.2f} s"
    )


def test_criterion_3_solver_equals_oracle():
    start = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 1000:
        conic = random_valid_conic(seed)
        seed += 1
        inv = invariants_of(conic)
        if inv.big_i == 0 or abs(inv.big_i) > 10**6:
            continue
        assert solve_finite(conic, inv) == brute_force(
            conic, solution_bound(conic, inv)
        )
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 3: PASS solver equals oracle on 1000 conics "
        f"(|I| <= 10^6, {seed} draws) in {elapsed:.2f} s"
    )


def test_criterion_4_factorization_identity():
    rng = random.Random(12345)
    for case in range(100):
        conic = random_valid_conic(10**6 + case)
        inv = invariants_of(conic)
        f1, f2 = factor_forms(conic, inv)
        scale = 4 * conic.alpha * inv.k * inv.k
        for _ in range(1000):
            x = rng.randint(-(10**6), 10**6)
            y = rng.randint(-(10**6), 10**6)
            assert f1.evaluate(x, y) * f2.evaluate(x, y) - inv.big_i == (
                scale * conic.evaluate(x, y)
            )
    print(
        "ACCEPTANCE 4: PASS product identity F1*F2 - I == 4*alpha*k^2*Q at "
        "1000 points on each of 100 conics"
    )


def test_criterion_5_power_of_two_family():
    pts = power_of_two_points(3, 0, 1, 4)
    assert pts == sorted([(-5, 5), (-1, -1), (-1, 2), (-5, 2), (4, -1), (-10, 5)])
    conic = power_of_two_conic(3, 0, 1, 4)
    assert conic.j == -5

    swept = 0
    for beta in (3, -3, 5, 7, 9):
        for delta, epsilon in ((0, 1), (1, -2), (-3, 2)):
            for n in range(2, 11):
                family = power_of_two_points(beta, delta, epsilon, n)
                assert len(family) == 2 * (n - 1)
                assert len(set(family)) == 2 * (n - 1)
                inst = power_of_two_conic(beta, delta, epsilon, n)
                inv = invariants_of(inst)
                assert inv.k == 1 and inv.big_i == 2**n
                # Theorem 1's closed form, independent of the divisor solver
                assert family == _theorem1_points(beta, delta, epsilon, n)
                swept += 1
    print(
        f"ACCEPTANCE 5: PASS power-of-two family: instance frozen, "
        f"{swept} sweep cases with count 2(n-1) matching Theorem 1's closed form"
    )


def test_criterion_6_square_difference_closed_forms():
    assert solve_difference_of_squares(1, 1, -1).points == ((-1, 0), (1, 0))
    assert solve_difference_of_squares(2, 1, -1).points == ()
    for p in (3, 5, 13):
        res = solve_difference_of_squares(1, 1, -p)
        half_up, half_down = (p + 1) // 2, (p - 1) // 2
        assert set(res.points) == {
            (half_up, half_down),
            (half_up, -half_down),
            (-half_up, -half_down),
            (-half_up, half_down),
        }
        conic, inv = validate(1, 0, -1, 0, 0, -p)
        assert list(res.points) == solve_finite(conic, inv)

    rng = random.Random(777)
    for _ in range(100):
        l, m = rng.randint(1, 6), rng.randint(1, 6)
        c = 4 * rng.randint(-25, 25) + 2  # -j == 2 (mod 4)
        res = solve_difference_of_squares(l, m, -c)
        assert res.points == ()
        assert res.obstruction == MOD4_OBSTRUCTION
    print(
        "ACCEPTANCE 6: PASS closed forms for -j in {1, 3, 5, 13} and the "
        "mod-4 obstruction on 100 samples"
    )


def _primitive(a, b, c):
    g = gcd(gcd(a, b), c)
    return a // g, b // g, c // g


def test_criterion_7_homogeneous_lines():
    checked = 0
    seed = 0
    while checked < 100:
        conic = random_valid_conic(seed)
        seed += 1
        if conic.delta or conic.epsilon or conic.j:
            continue
        inv = invariants_of(conic)
        assert inv.big_i == 0
        lines = solve_degenerate(conic, inv)
        # the closed form: 2*alpha*x + (beta -+ k)*y = 0, as primitive triples
        assert [_primitive(l.a, l.b, l.c) for l in lines] == [
            _primitive(2 * conic.alpha, conic.beta - inv.k, 0),
            _primitive(2 * conic.alpha, conic.beta + inv.k, 0),
        ]
        for line in lines:
            assert line.solvable
            assert line.base == (0, 0)
            assert gcd(line.direction[0], line.direction[1]) == 1
            for t in range(-100, 101):
                p = line.point_at(t)
                assert conic.evaluate(p.x, p.y) == 0
        checked += 1
    print(
        f"ACCEPTANCE 7: PASS 100 homogeneous conics: origin lines, coprime "
        f"directions, all sampled points on the conic ({seed} draws)"
    )


def test_criterion_8_reduction_equivalence():
    checked = 0
    seed = 10**5
    start = time.perf_counter()
    while checked < 1000:
        conic = random_valid_conic(seed)
        seed += 1
        inv = invariants_of(conic)
        if inv.big_i == 0:
            continue
        assert solve_finite(conic, inv, reduce=True) == solve_finite(
            conic, inv, reduce=False
        )
        checked += 1
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 8: PASS reduced and unreduced enumeration agree on "
        f"1000 conics in {elapsed:.2f} s"
    )
