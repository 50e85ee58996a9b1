from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicpoints import (
    Conic,
    ConicError,
    FiniteSolutions,
    LatticePoint,
    LinePair,
    random_valid_conic,
    solve,
    validate,
)
from conicpoints.cli import _dump, _inv_block, main
from test_solver import _planted_target_conic

GOLDEN_ARGS = ["2", "-5", "2", "-1", "1", "-1"]


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # parser.error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve

def test_solve_json_golden(capsys):
    code, out, _ = run_cli(capsys, "solve", "--format", "json", *GOLDEN_ARGS)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "finite"
    assert doc["points"] == [["-2", "-1"], ["0", "-1"], ["1", "0"], ["1", "2"]]
    assert doc["invariants"] == {"k": "3", "i": "80", "delta_q": "9", "m": "-1"}


def test_solve_json_byte_stable(capsys):
    code1, out1, _ = run_cli(capsys, "solve", "--format", "json", *GOLDEN_ARGS)
    code2, out2, _ = run_cli(capsys, "solve", "--format", "json", *GOLDEN_ARGS)
    assert code1 == code2 == 0
    assert out1 == out2


def test_solve_json_roundtrip(capsys):
    _, out, _ = run_cli(capsys, "solve", "--format", "json", *GOLDEN_ARGS)
    doc = json.loads(out)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


def test_solve_lines_text(capsys):
    code, out, _ = run_cli(capsys, "solve", "1", "0", "-1", "0", "0", "0")
    assert code == 0
    assert out == (
        "4*x + -4*y = 0 solvable: base=(0,0) dir=(1,1)\n"
        "4*x + 4*y = 0 solvable: base=(0,0) dir=(1,-1)\n"
    )


def test_solve_lines_json_unsolvable(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--format", "json", "9", "0", "-9", "9", "3", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "lines"
    assert [line["solvable"] for line in doc["lines"]] == [False, False]
    assert all("base" not in line for line in doc["lines"])
    assert all(len(line["dir"]) == 2 for line in doc["lines"])
    assert doc["invariants"]["i"] == "0"


def test_solve_invalid_conic(capsys):
    code, out, err = run_cli(capsys, "solve", "1", "0", "1", "0", "0", "-1")
    assert code == 1
    assert out == ""
    assert "not-factorable" in err


def test_solve_invalid_conic_json(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--format", "json", "0", "1", "1", "0", "0", "-1"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["kind"] == "invalid"
    assert doc["error"]["code"] == "degenerate-alpha"


def test_solve_no_reduce_same_output(capsys):
    _, with_reduce, _ = run_cli(capsys, "solve", *GOLDEN_ARGS)
    _, without, _ = run_cli(capsys, "solve", "--no-reduce", *GOLDEN_ARGS)
    assert with_reduce == without


def test_solve_check_passes(capsys):
    code, _, err = run_cli(capsys, "solve", "--check", *GOLDEN_ARGS)
    assert code == 0
    assert err == ""
    # (-2,-1) and (1,2) lie outside the box, so only two points are compared
    code, out, err = run_cli(capsys, "solve", "--check", "--bound", "1", *GOLDEN_ARGS)
    assert (code, out, err) == (0, "-2 -1\n0 -1\n1 0\n1 2\n", "")


def test_solve_check_detects_fault(capsys, monkeypatch):
    import conicpoints.cli as cli_mod

    def tampered(conic, **kwargs):
        return FiniteSolutions((LatticePoint(0, -1), LatticePoint(5, 5)))

    monkeypatch.setattr(cli_mod, "solve", tampered)
    code, _, err = run_cli(capsys, "solve", "--check", *GOLDEN_ARGS)
    assert code == 3
    assert err.splitlines() == [
        "error: solver and oracle disagree within box (bx=12, by=9)",
        "only the solver found 1: (5,5)",
        "only the oracle found 3: (-2,-1) (1,0) (1,2)",
    ]


def test_solve_check_mismatch_lists_are_capped(capsys, monkeypatch):
    import conicpoints.cli as cli_mod

    bogus = tuple(LatticePoint(x, 9) for x in range(-12, 13))
    monkeypatch.setattr(cli_mod, "solve", lambda conic, **kwargs: FiniteSolutions(bogus))
    code, _, err = run_cli(capsys, "solve", "--check", *GOLDEN_ARGS)
    assert code == 3
    assert err.splitlines()[1:] == [
        "only the solver found 25: (-12,9) (-11,9) (-10,9) (-9,9) (-8,9) and 20 more",
        "only the oracle found 4: (-2,-1) (0,-1) (1,0) (1,2)",
    ]


def test_solve_check_refuses_box_over_row_budget(capsys):
    # the theorem1 3 0 1 46 conic: its derived box has about 1.4e14 rows
    conic_args = ["1", "3", "2", "0", "1", "-17592186044417"]
    _, points, _ = run_cli(capsys, "solve", *conic_args)
    code, out, err = run_cli(capsys, "solve", "--check", *conic_args)
    assert code == 5
    assert out == points
    assert err == (
        "error: search box (bx=105553116266499, by=70368744177666) has "
        "140737488355333 rows, over the oracle row budget of 4194304\n"
    )


def test_oracle_row_budget_edge(capsys):
    from conicpoints.oracle import ROW_BUDGET

    by = (ROW_BUDGET - 1) // 2
    code, out, err = run_cli(capsys, "oracle", "--bound", str(by), *GOLDEN_ARGS)
    assert (code, out, err) == (0, "-2 -1\n0 -1\n1 0\n1 2\n", "")
    code, out, err = run_cli(capsys, "oracle", "--bound", str(by + 1), *GOLDEN_ARGS)
    assert code == 5
    assert out == ""
    assert f"(bx={by + 1}, by={by + 1}) has {2 * by + 3} rows" in err
    assert f"row budget of {ROW_BUDGET}" in err
    code, _, err = run_cli(
        capsys, "solve", "--check", "--bound", str(by + 1), "1", "0", "-1", "0", "0", "0"
    )
    assert code == 5
    assert "row budget" in err


def test_oracle_row_budget_edge_slowest_finite_box(capsys):
    """The slowest finite box ROW_BUDGET's comment names: its disc passes
    every square filter in every row.  At 2^22 - 1 rows it answers within a
    CPU ceiling; one more row is refused at once."""
    conic_args = ["1", "3", "2", "0", "0", "-2882880"]
    start = time.process_time()
    code, out, err = run_cli(capsys, "oracle", "--bound", "2097151", *conic_args)
    elapsed = time.process_time() - start
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 666
    assert elapsed < 5
    start = time.process_time()
    code, out, err = run_cli(capsys, "oracle", "--bound", "2097152", *conic_args)
    elapsed = time.process_time() - start
    assert (code, out) == (5, "")
    assert err == (
        "error: search box (bx=2097152, by=2097152) has 4194305 rows, "
        "over the oracle row budget of 4194304\n"
    )
    assert elapsed < 0.1


def test_line_pair_point_budget_edge(capsys):
    from conicpoints.intmath import POINT_BUDGET

    # (3x + 3y + 1)(3x - 3y + 2) = 0 has no lattice point, so the accepted
    # side scans its rows quickly and prints nothing
    lines = ["9", "0", "-9", "9", "3", "2"]
    by = (POINT_BUDGET - 2) // 4
    assert 2 * (2 * by + 1) <= POINT_BUDGET < 2 * (2 * by + 3)
    code, out, err = run_cli(capsys, "oracle", "--bound", str(by), *lines)
    assert (code, out, err) == (0, "", "")
    code, _, err = run_cli(capsys, "solve", "--check", "--bound", str(by), *lines)
    assert (code, err) == (0, "")
    _, solved, _ = run_cli(capsys, "solve", *lines)
    for cmd, printed in ((["oracle"], ""), (["solve", "--check"], solved)):
        code, out, err = run_cli(capsys, *cmd, "--bound", str(by + 1), *lines)
        assert (code, out) == (5, printed)
        assert err == (
            f"error: search box (bx={by + 1}, by={by + 1}) has room for "
            f"{4 * by + 6} points, over the oracle point budget of {POINT_BUDGET}\n"
        )
    # a finite conic is not held to the point budget
    code, out, _ = run_cli(capsys, "oracle", "--bound", str(by + 1), *GOLDEN_ARGS)
    assert (code, out) == (0, "-2 -1\n0 -1\n1 0\n1 2\n")


NEEDS_BOUND = "error: degenerate conic (invariant 0) has no finite search box; give --bound\n"


def test_solve_check_lines_needs_bound(capsys):
    # the answer is printed first, then the one exit-4 message oracle gives too
    for fmt in ("text", "json"):
        _, solved, _ = run_cli(capsys, "solve", "--format", fmt, "1", "0", "-1", "0", "0", "0")
        code, out, err = run_cli(
            capsys, "solve", "--check", "--format", fmt, "1", "0", "-1", "0", "0", "0"
        )
        assert (code, out, err) == (4, solved, NEEDS_BOUND)


def test_solve_check_lines_with_bound(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--check", "--bound", "8", "1", "0", "-1", "0", "0", "0"
    )
    assert code == 0
    assert err == ""


def _seeded_line_pairs(count):
    """``count`` line pairs: the degenerate draws of random_valid_conic and
    products of two random lines, in turn."""
    rng = random.Random("cli line pairs")
    pairs = []
    while len(pairs) < count:
        if len(pairs) % 2:
            a1, b1, a2, b2 = (rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(4))
            c1, c2 = rng.randint(-20, 20), rng.randint(-20, 20)
            coeffs = (a1 * a2, a1 * b2 + a2 * b1, b1 * b2, a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2)
            if a1 * b2 == a2 * b1:
                continue
        else:
            coeffs = tuple(random_valid_conic(rng.randrange(2**32), max_linear=20))
        conic, inv = validate(*coeffs)
        if inv.big_i == 0:
            pairs.append((conic, rng.randint(1, 12)))
    return pairs


def test_oracle_and_check_on_line_pairs_match_naive_enumeration(capsys):
    # every (x, y) of the box evaluated: the oracle prints exactly the
    # points on the conic, and --check agrees with the solver's lines
    for conic, bound in _seeded_line_pairs(200):
        args = [str(c) for c in conic]
        naive = "".join(
            f"{x} {y}\n"
            for x in range(-bound, bound + 1)
            for y in range(-bound, bound + 1)
            if conic.evaluate(x, y) == 0
        )
        assert run_cli(capsys, "oracle", "--bound", str(bound), *args) == (0, naive, "")
        _, solved, _ = run_cli(capsys, "solve", *args)
        assert run_cli(capsys, "solve", "--check", "--bound", str(bound), *args) == (0, solved, "")


def _tamper_first_line(monkeypatch, change):
    """Make the CLI's solve apply ``change`` to the first line of a pair."""
    import conicpoints.cli as cli_mod

    def tampered(conic, **kwargs):
        first, second = solve(conic, **kwargs).lines
        return LinePair((change(first), second))

    monkeypatch.setattr(cli_mod, "solve", tampered)


def test_solve_check_detects_line_with_doubled_direction(capsys, monkeypatch):
    # the x = y line of x^2 - y^2 = 0 stepping by (2, 2) skips every other point
    _tamper_first_line(monkeypatch, lambda line: line._replace(direction=(2, 2)))
    code, _, err = run_cli(
        capsys, "solve", "--check", "--bound", "3", "1", "0", "-1", "0", "0", "0"
    )
    assert code == 3
    assert err.splitlines() == [
        "error: solver and oracle disagree within box (bx=3, by=3)",
        "only the solver found 0",
        "only the oracle found 4: (-3,-3) (-1,-1) (1,1) (3,3)",
    ]


def test_solve_check_detects_line_base_off_the_line(capsys, monkeypatch):
    # base (1, 0) moves the x = y line to x = y + 1
    _tamper_first_line(monkeypatch, lambda line: line._replace(base=LatticePoint(1, 0)))
    code, _, err = run_cli(
        capsys, "solve", "--check", "--bound", "3", "1", "0", "-1", "0", "0", "0"
    )
    assert code == 3
    assert err.splitlines() == [
        "error: solver and oracle disagree within box (bx=3, by=3)",
        "only the solver found 6: (-2,-3) (-1,-2) (0,-1) (1,0) (2,1) and 1 more",
        "only the oracle found 6: (-3,-3) (-2,-2) (-1,-1) (1,1) (2,2) and 1 more",
    ]


def test_solve_check_detects_line_point_missing_from_oracle(capsys, monkeypatch):
    import conicpoints.cli as cli_mod

    # the oracle's points, all but the last, are a prefix of the solver's
    true_brute_force = cli_mod.brute_force
    monkeypatch.setattr(cli_mod, "brute_force", lambda *args: true_brute_force(*args)[:-1])
    for conic_args, last in ((["1", "0", "-1", "0", "0", "0"], "(3,3)"), (GOLDEN_ARGS, "(1,2)")):
        code, _, err = run_cli(capsys, "solve", "--check", "--bound", "3", *conic_args)
        assert code == 3
        assert err.splitlines()[1:] == [f"only the solver found 1: {last}", "only the oracle found 0"]


@pytest.mark.parametrize(
    "conic_args", [GOLDEN_ARGS, ["1", "0", "-1", "0", "0", "0"]], ids=["finite", "lines"]
)
def test_solve_check_detects_oracle_point_missing_from_solver(capsys, monkeypatch, conic_args):
    import conicpoints.cli as cli_mod

    # the solver's in-box points are a strict prefix of the oracle's
    true_brute_force = cli_mod.brute_force
    monkeypatch.setattr(
        cli_mod, "brute_force", lambda *args: true_brute_force(*args) + [LatticePoint(3, 4)]
    )
    code, _, err = run_cli(capsys, "solve", "--check", "--bound", "3", *conic_args)
    assert code == 3
    assert err.splitlines() == [
        "error: solver and oracle disagree within box (bx=3, by=3)",
        "only the solver found 0",
        "only the oracle found 1: (3,4)",
    ]


# ---------------------------------------------------------------------------
# invariants / oracle

def test_invariants_text(capsys):
    code, out, _ = run_cli(capsys, "invariants", *GOLDEN_ARGS)
    assert code == 0
    assert out == "k = 3\ni = 80\ndelta_q = 9\nm = -1\n"


def test_invariants_json(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--format", "json", *GOLDEN_ARGS)
    assert code == 0
    assert json.loads(out) == {
        "invariants": {"k": "3", "i": "80", "delta_q": "9", "m": "-1"}
    }


def test_oracle_matches_solve(capsys):
    _, solved, _ = run_cli(capsys, "solve", *GOLDEN_ARGS)
    code, searched, _ = run_cli(capsys, "oracle", *GOLDEN_ARGS)
    assert code == 0
    assert searched == solved


def test_oracle_degenerate_needs_bound(capsys):
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "oracle", "--format", fmt, "1", "0", "-1", "0", "0", "0")
        assert (code, out, err) == (4, "", NEEDS_BOUND)


def test_oracle_degenerate_with_bound(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--bound", "3", "1", "0", "-1", "0", "0", "0"
    )
    assert code == 0
    assert len(out.splitlines()) == 13


# ---------------------------------------------------------------------------
# theorem1 / sumform

def test_theorem1_text(capsys):
    code, out, _ = run_cli(capsys, "theorem1", "3", "0", "1", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "conic: 1 3 2 0 1 -5"
    assert lines[1:] == ["-10 5", "-5 2", "-5 5", "-1 -1", "-1 2", "4 -1"]


def test_theorem1_json(capsys):
    code, out, _ = run_cli(capsys, "theorem1", "--format", "json", "3", "0", "1", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "finite"
    assert doc["conic"]["j"] == "-5"
    assert doc["invariants"]["i"] == "16"
    assert len(doc["points"]) == 6


def test_theorem1_invalid(capsys):
    code, _, err = run_cli(capsys, "theorem1", "2", "0", "1", "4")
    assert code == 1
    assert "odd" in err


@pytest.mark.parametrize(
    "beta, message", [("2", "beta must be odd"), ("1", "beta = +-1 makes gamma zero")]
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_theorem1_preconditions_come_before_the_point_budget(capsys, beta, message, fmt):
    """A family that does not exist is invalid input at any n, not a
    refusal by size."""
    argv = ["theorem1", "--format", fmt, beta, "0", "0", "1000000"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    if fmt == "json":
        assert json.loads(out)["error"] == {"code": "invalid-input", "message": message}
        assert err == ""
    else:
        assert (out, err) == ("", f"error: invalid-input: {message}\n")


@pytest.mark.parametrize("n", ["131074", "1000000", "8193"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_theorem1_point_budget(capsys, n, fmt):
    """Past the point budget theorem1 refuses at once, before any 2^n: from
    n = 8193 on its 2*(n - 1) points of n bits count 17 words or more each."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "theorem1", "--format", fmt, "3", "0", "0", n)
    elapsed = time.perf_counter() - start
    assert code == 1
    if fmt == "json":
        assert json.loads(out)["error"]["code"] == "divisor-limit"
    else:
        assert out == "" and err.startswith("error: divisor-limit: ")
    assert elapsed < 0.1


def test_sumform_prime(capsys):
    code, out, _ = run_cli(capsys, "sumform", "1", "1", "-13")
    assert code == 0
    assert out == "-7 -6\n-7 6\n7 -6\n7 6\n"


def test_sumform_prime_whose_proof_splits_psi13(capsys):
    # 48*psi_13 + 1 is prime; its proof needs psi_13's two primes in F
    code, out, _ = run_cli(capsys, "sumform", "1", "1", "-159218115104634594526175089")
    assert code == 0
    assert len(out.splitlines()) == 4


def test_sumform_prime_whose_proof_needs_a_prime_power(capsys):
    # 2*q^3 + 1 with q = 1200000707 is prime; its proof needs q^3 in F
    start = time.process_time()
    code, out, _ = run_cli(capsys, "sumform", "1", "1", "-3456006108483598913506786487")
    assert time.process_time() - start < 1
    assert code == 0
    assert len(out.splitlines()) == 4


def test_sumform_obstruction_json(capsys):
    code, out, _ = run_cli(capsys, "sumform", "--format", "json", "1", "1", "-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == []
    assert doc["obstruction"] == "mod4-obstruction"


def test_sumform_degenerate_rejected(capsys):
    code, _, err = run_cli(capsys, "sumform", "1", "1", "0")
    assert code == 1
    assert "line pair" in err


# ---------------------------------------------------------------------------
# input handling

def test_input_file(tmp_path, capsys):
    doc = {
        "alpha": "2",
        "beta": "-5",
        "gamma": "2",
        "delta": "-1",
        "epsilon": "1",
        "j": "-1",
    }
    path = tmp_path / "conic.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "solve", "--input", str(path))
    assert code == 0
    assert out == "-2 -1\n0 -1\n1 0\n1 2\n"


def test_input_file_bad_schema(tmp_path, capsys):
    path = tmp_path / "conic.json"
    path.write_text(json.dumps({"alpha": "2"}))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(path)])
    assert exc.value.code == 2
    # not JSON at all
    path.write_text('{"alpha": "2",')
    code, out, err = run_cli(capsys, "solve", "--input", str(path))
    assert (code, out) == (2, "")
    assert f"invalid JSON in {path}: " in err


def test_input_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "conic.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "solve", "--input", str(path))
    assert (code, out) == (2, "")
    assert f"invalid JSON in {path}: 'utf-8' codec can't decode byte 0xff" in err


def test_input_file_nested_too_deep(tmp_path, capsys):
    path = tmp_path / "conic.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "solve", "--input", str(path))
    assert (code, out) == (2, "")
    assert f"invalid JSON in {path}: maximum recursion depth exceeded" in err


def test_input_file_non_canonical_integer(tmp_path, capsys):
    doc = {
        "alpha": "2",
        "beta": "-5",
        "gamma": "2",
        "delta": "-1",
        "epsilon": "1",
        "j": "007",
    }
    path = tmp_path / "conic.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(path)])
    assert exc.value.code == 2


def test_input_file_numeric_json_rejected(tmp_path, capsys):
    doc = {"alpha": 2, "beta": -5, "gamma": 2, "delta": -1, "epsilon": 1, "j": -1}
    path = tmp_path / "conic.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(path)])
    assert exc.value.code == 2


def test_coefficients_and_input_conflict(tmp_path, capsys):
    path = tmp_path / "conic.json"
    path.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(path), "1", "2", "3", "4", "5", "6"])
    assert exc.value.code == 2


def test_coefficients_past_the_int_str_digit_limit(capsys):
    # delta_q = 10^4398 - 4 has more digits than Python's default limit of
    # 4,300 for int/str conversion
    coeffs = ["1", "0", "-1", "1" + "0" * 2199, "0", "1"]
    delta_q = "9" * 4397 + "6"
    code, out, _ = run_cli(capsys, "invariants", *coeffs)
    assert code == 0
    assert f"\ndelta_q = {delta_q}\n" in out
    code, out, _ = run_cli(capsys, "invariants", "--format", "json", *coeffs)
    assert code == 0
    assert json.loads(out)["invariants"]["delta_q"] == delta_q
    code, out, err = run_cli(capsys, "solve", *coeffs)
    assert (code, out) == (1, "")
    assert err.startswith("error: divisor-limit: ")
    code, out, _ = run_cli(capsys, "solve", "--format", "json", *coeffs)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "divisor-limit"


def test_main_restores_the_int_str_digit_limit(capsys):
    """main lifts the int/str limit and pauses the collector while it runs,
    and puts back the caller's settings on every exit."""
    saved = sys.get_int_max_str_digits()
    was_collecting = gc.isenabled()
    sys.set_int_max_str_digits(5000)
    try:
        for collecting in (True, False):
            (gc.enable if collecting else gc.disable)()
            for argv, code in [
                (["invariants", *GOLDEN_ARGS], 0),
                (["solve", "1", "0", "1", "0", "0", "-1"], 1),
                (["oracle", "--bound", "3000000", *GOLDEN_ARGS], 5),
                (["invariants", "1.5", *GOLDEN_ARGS[1:]], 2),  # SystemExit
            ]:
                assert run_cli(capsys, *argv)[0] == code
                assert sys.get_int_max_str_digits() == 5000
                assert gc.isenabled() is collecting
    finally:
        sys.set_int_max_str_digits(saved)
        (gc.enable if was_collecting else gc.disable)()


def test_main_starts_no_collection(capsys):
    """Everything main makes lives until it returns, so a collection during
    the call could free nothing; main pauses the collector instead.  The
    conic is big_target's tau = 6720 one."""
    argv = ["solve", "--format", "json", "1", "95", "2256", "19", "27", "963760431990"]
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(hook)
    try:
        code = main(argv)
    finally:
        gc.callbacks.remove(hook)
    out = capsys.readouterr().out
    assert (code, started) == (0, [])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "95eb207ffc29d2d49df3733f81d14e1b9189b133fca24b5eafb1755d3ae1fac6"
    )


# ---------------------------------------------------------------------------
# JSON bytes: every document is json.dumps(doc, sort_keys=True, indent=2) + "\n"

GOLDEN_POINTS = [(-2, -1), (0, -1), (1, 0), (1, 2)]


def assert_same_text(got: str, expected: str) -> None:
    """Fail at the first offset where got and expected differ: pytest's own
    diff of two large documents takes minutes."""
    if got != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
            min(len(got), len(expected)),
        )
        window = slice(max(at - 30, 0), at + 30)
        pytest.fail(f"differs at offset {at}: {got[window]!r}, expected {expected[window]!r}")


def assert_canonical_json(out: str) -> dict:
    doc = json.loads(out)
    assert_same_text(out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return doc


def point_strings(points) -> list[list[str]]:
    return [[str(x), str(y)] for x, y in points]


def main_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize(
    "argv, keys, points",
    [
        (["solve", *GOLDEN_ARGS], {"invariants", "kind", "points"}, GOLDEN_POINTS),
        (["solve", "1", "0", "-1", "0", "0", "-2"], {"invariants", "kind", "points"}, []),
        (["oracle", *GOLDEN_ARGS], {"invariants", "kind", "points"}, GOLDEN_POINTS),
        (
            ["theorem1", "3", "0", "1", "4"],
            {"conic", "invariants", "kind", "points"},
            [(-10, 5), (-5, 2), (-5, 5), (-1, -1), (-1, 2), (4, -1)],
        ),
        (
            ["sumform", "1", "1", "-13"],
            {"invariants", "kind", "points"},
            [(-7, -6), (-7, 6), (7, -6), (7, 6)],
        ),
        (["sumform", "1", "1", "-2"], {"invariants", "kind", "obstruction", "points"}, []),
        (["solve", "1", "0", "-1", "0", "0", "0"], {"invariants", "kind", "lines"}, None),
        (["solve", "9", "0", "-9", "9", "3", "2"], {"invariants", "kind", "lines"}, None),
        (["invariants", *GOLDEN_ARGS], {"invariants"}, None),
        (["solve", "0", "1", "1", "0", "0", "-1"], {"error", "kind"}, None),
    ],
)
def test_json_document_bytes(capsys, argv, keys, points):
    _, out, _ = run_cli(capsys, argv[0], "--format", "json", *argv[1:])
    doc = assert_canonical_json(out)
    assert set(doc) == keys
    if points is not None:
        assert doc["points"] == point_strings(points)


def test_json_error_message_escaped(capsys, monkeypatch):
    import conicpoints.cli as cli_mod

    message = 'bad "conic" at C:\\tmp \u2014 \u00e9'

    def failing(conic, **kwargs):
        raise ConicError(message)

    monkeypatch.setattr(cli_mod, "solve", failing)
    code, out, _ = run_cli(capsys, "solve", "--format", "json", *GOLDEN_ARGS)
    assert code == 1
    doc = assert_canonical_json(out)
    assert doc["error"] == {"code": "conic-error", "message": message}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), no_reduce=st.booleans())
def test_solve_json_bytes_random_conics(seed, no_reduce):
    conic = random_valid_conic(seed)
    coeffs = [str(v) for v in tuple(conic)]
    flags = ["--no-reduce"] if no_reduce else []
    doc = assert_canonical_json(main_stdout(["solve", "--format", "json", *flags, *coeffs]))
    result = solve(conic)
    if isinstance(result, FiniteSolutions):
        assert doc["points"] == point_strings(result.points)
    else:
        assert doc["kind"] == "lines"


def test_solve_json_bytes_planted_target():
    tau = 6720
    target = 2**6 * 3**4 * 5**2 * 7 * 11 * 13 * 17 * 19 * 23
    conic, _ = _planted_target_conic(random.Random(7), target)
    coeffs = [str(v) for v in tuple(conic)]
    doc = assert_canonical_json(main_stdout(["solve", "--format", "json", *coeffs]))
    points = solve(conic).points
    assert len(points) == 2 * tau
    assert doc["points"] == point_strings(points)


def _writer_point_sets():
    rng = random.Random(13)
    big = 10**299
    return {
        "empty": [],
        "one": [LatticePoint(1, 2)],
        "negative": [LatticePoint(-7, -6), LatticePoint(-1, 0), LatticePoint(0, -3)],
        "300-digit": [LatticePoint(-big - 1, big + 12345), LatticePoint(big, -big)],
        "1000 random": sorted(
            LatticePoint(rng.randint(-(10**12), 10**12), rng.randint(-(10**12), 10**12))
            for _ in range(1000)
        ),
    }


@pytest.mark.parametrize("name", list(_writer_point_sets()))
@pytest.mark.parametrize(
    "extra",
    [
        {},
        {"conic": dict(zip(Conic._fields, ("1", "3", "2", "0", "1", "-5")))},
        {"obstruction": "mod4-obstruction"},
    ],
    ids=["none", "conic", "obstruction"],
)
def test_finite_json_is_json_dumps(name, extra):
    """_dump's template for the points gives exactly the bytes of json.dumps on
    the whole document with the points as strings, the form the README
    promises."""
    points = _writer_point_sets()[name]
    _, inv = validate(2, -5, 2, -1, 1, -1)
    doc = {"kind": "finite", "invariants": _inv_block(inv), **extra}
    strings = {**doc, "points": [[str(x), str(y)] for x, y in points]}
    expected = json.dumps(strings, sort_keys=True, indent=2) + "\n"
    assert_same_text(_dump({**doc, "points": points}), expected)
    assert_same_text(_dump({**doc, "points": tuple(points)}), expected)


# ---------------------------------------------------------------------------
# the work budgets are the only limits

def test_divisor_cap_env(capsys, monkeypatch):
    # CONIC_DIVISOR_CAP is not read: the unreduced target 80 is enumerated
    monkeypatch.setenv("CONIC_DIVISOR_CAP", "10")
    code, out, err = run_cli(capsys, "solve", "--no-reduce", *GOLDEN_ARGS)
    assert (code, out, err) == (0, "-2 -1\n0 -1\n1 0\n1 2\n", "")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "conicpoints", "solve", *GOLDEN_ARGS],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "-2 -1\n0 -1\n1 0\n1 2\n"


def test_main_is_reentrant(capsys):
    # each call, made after the others in one process, prints exactly what
    # it prints alone in a fresh one: no state is left between calls
    calls = [
        ["solve", *GOLDEN_ARGS],
        ["solve", "--check", "--format", "json", "1", "2"],  # parser.error
        ["sumform", "--format", "json", "1", "1", "-13"],
        ["solve", "--check", *GOLDEN_ARGS],
        ["invariants", *GOLDEN_ARGS],
        ["solve", "--check", "1", "0", "-1", "0", "0", "0"],  # no --bound
        ["oracle", "--bound", "3000000", *GOLDEN_ARGS],  # over the row budget
        ["solve", "--format", "json", "1", "0", "1", "0", "0", "1"],  # invalid
    ]
    in_process = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 2, 0, 0, 0, 4, 5, 1]
    alone = [
        subprocess.run(
            [sys.executable, "-m", "conicpoints", *argv], capture_output=True, text=True
        )
        for argv in calls
    ]
    assert in_process == [(p.returncode, p.stdout, p.stderr) for p in alone]
