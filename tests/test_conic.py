from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conicpoints import (
    Conic,
    DegenerateAlpha,
    DegenerateGamma,
    NotFactorable,
    invariants_of,
    random_valid_conic,
    solution_bound,
    solve,
    validate,
)
from conicpoints.conic import FactorForm, content_reduce, factor_forms
from corpus.make import GOLDEN_COEFFS, LINES_COEFFS


def test_validate_golden():
    conic, inv = validate(*GOLDEN_COEFFS)
    assert inv.k == 3
    assert inv.big_i == 80
    assert inv.delta_q == 9
    assert inv.m == -1


def test_validate_monic_unit_k():
    _, inv = validate(1, 3, 2, 0, 1, -5)
    assert inv.k == 1
    assert inv.big_i == 16
    assert inv.delta_q == 20
    assert inv.m == 2


def test_validate_rejections():
    with pytest.raises(DegenerateAlpha):
        validate(0, 5, 2, 1, 1, 1)
    with pytest.raises(DegenerateGamma):
        validate(2, 5, 0, 1, 1, 1)
    # circle: discriminant -4
    with pytest.raises(NotFactorable, match="-4"):
        validate(1, 0, 1, 0, 0, -1)
    # discriminant 8, positive but not a square
    with pytest.raises(NotFactorable):
        validate(1, 0, -2, 0, 0, -1)
    # discriminant 0 (perfect square but k must be >= 1)
    with pytest.raises(NotFactorable):
        validate(1, 2, 1, 3, 4, 5)


@pytest.mark.parametrize(
    "coeffs, error",
    [
        ((1, 0, -2, 0, 0, -1), NotFactorable),  # Pell conic x^2 - 2y^2 = 1
        ((0, 1, 0, 0, 0, -1), DegenerateAlpha),
        ((1, 1, 0, 0, 0, -1), DegenerateGamma),
        ((1, 1, 1, 0, 0, -1), NotFactorable),  # discriminant -3
        ((1, 2, 1, 3, 4, 5), NotFactorable),  # discriminant 0
    ],
)
def test_hand_built_conic_meets_the_admissibility_gate(coeffs, error):
    conic = Conic(*coeffs)
    with pytest.raises(error):
        solve(conic)
    with pytest.raises(error):
        solution_bound(conic)


def test_not_factorable_past_the_int_str_digit_limit(default_int_str_limit):
    # beta^2 - 4 = 10^4400 - 4 is named by its bit length, not in decimal
    with pytest.raises(NotFactorable, match=r"gamma = <14617-bit integer> is not a"):
        validate(1, 10**2200, 1, 0, 0, 1)


def test_evaluate():
    conic, _ = validate(*GOLDEN_COEFFS)
    assert conic.evaluate(1, 0) == 0
    assert conic.evaluate(0, 0) == -1
    assert conic.evaluate(-2, -1) == 0
    monic, _ = validate(1, 3, 2, 0, 1, -5)
    for x, y in [(-5, 5), (-1, -1), (-1, 2), (-5, 2), (4, -1), (-10, 5)]:
        assert monic.evaluate(x, y) == 0


def test_factor_forms_golden():
    conic, inv = validate(*GOLDEN_COEFFS)
    f1, f2 = factor_forms(conic, inv)
    assert (f1.cx, f1.cy, f1.c0) == (12, -24, -4)
    assert (f2.cx, f2.cy, f2.c0) == (12, -6, -2)


def test_factor_forms_more():
    conic, inv = validate(*LINES_COEFFS)
    f1, f2 = factor_forms(conic, inv)
    assert (f1.cx, f1.cy, f1.c0) == (4, -4, 0)
    assert (f2.cx, f2.cy, f2.c0) == (4, 4, 0)
    conic, inv = validate(1, 3, 2, 0, 1, -5)
    f1, f2 = factor_forms(conic, inv)
    assert (f1.cx, f1.cy, f1.c0) == (2, 2, 2)
    assert (f2.cx, f2.cy, f2.c0) == (2, 4, -2)


@given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6), st.integers(0, 10**4))
def test_product_identity_hypothesis(x, y, seed):
    conic = random_valid_conic(seed)
    inv = invariants_of(conic)
    f1, f2 = factor_forms(conic, inv)
    assert f1.evaluate(x, y) * f2.evaluate(x, y) - inv.big_i == (
        4 * conic.alpha * inv.k * inv.k
    ) * conic.evaluate(x, y)


def test_invariants_roundtrip():
    for seed in range(500):
        conic = random_valid_conic(seed)
        inv = invariants_of(conic)
        k2 = conic.beta**2 - 4 * conic.alpha * conic.gamma
        assert inv.k**2 == k2
        assert inv.m == 2 * conic.alpha * conic.epsilon - conic.beta * conic.delta
        assert inv.delta_q == conic.delta**2 - 4 * conic.alpha * conic.j
        assert inv.big_i == inv.k**2 * inv.delta_q - inv.m**2


def test_content_reduce_golden():
    conic, inv = validate(*GOLDEN_COEFFS)
    f1, f2 = factor_forms(conic, inv)
    reduced = content_reduce(f1, f2, inv.big_i)
    assert reduced is not None
    g1, g2, small = reduced
    assert (g1.cx, g1.cy, g1.c0) == (3, -6, -1)
    assert (g2.cx, g2.cy, g2.c0) == (6, -3, -1)
    assert small == 10


def test_content_reduce_monic_example():
    g1, g2, small = content_reduce(FactorForm(2, 2, 2), FactorForm(2, 4, -2), 16)
    assert (g1.cx, g1.cy, g1.c0) == (1, 1, 1)
    assert (g2.cx, g2.cy, g2.c0) == (1, 2, -1)
    assert small == 4


def test_content_reduce_primitive_is_identity():
    f1, f2 = FactorForm(3, -6, -1), FactorForm(6, -3, -1)
    assert content_reduce(f1, f2, 10) == (f1, f2, 10)


def test_content_reduce_non_divisible_certifies_empty():
    # contents 120 and 120, product does not divide I; no lattice point can
    # make F1*F2 equal I then, since each form only takes multiples of its
    # content on the lattice
    conic, inv = validate(-50, -10, 4, -36, -18, -23)
    f1, f2 = factor_forms(conic, inv)
    assert f1.content == 120 and f2.content == 120
    assert inv.big_i % (120 * 120) != 0
    assert content_reduce(f1, f2, inv.big_i) is None


def test_content_reduce_preserves_solution_set_small_boxes():
    for seed in range(150):
        conic = random_valid_conic(seed, max_bk=8, max_linear=6)
        inv = invariants_of(conic)
        if inv.big_i == 0:
            continue
        f1, f2 = factor_forms(conic, inv)
        reduced = content_reduce(f1, f2, inv.big_i)
        box = range(-12, 13)
        full = {
            (x, y)
            for x in box
            for y in box
            if f1.evaluate(x, y) * f2.evaluate(x, y) == inv.big_i
        }
        if reduced is None:
            assert full == set()
            continue
        g1, g2, small = reduced
        assert full == {
            (x, y)
            for x in box
            for y in box
            if g1.evaluate(x, y) * g2.evaluate(x, y) == small
        }
