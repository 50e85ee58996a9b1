from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicpoints import ConicError, FiniteSolutions, LatticePoint, random_valid_conic, solve
from conicpoints.cli import main
from test_solver import _planted_target_conic

GOLDEN_ARGS = ["2", "-5", "2", "-1", "1", "-1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve

def test_solve_text_golden(capsys):
    code, out, err = run_cli(capsys, "solve", *GOLDEN_ARGS)
    assert code == 0
    assert out == "-2 -1\n0 -1\n1 0\n1 2\n"
    assert err == ""


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


def test_line_pair_point_budget_edge(capsys):
    from conicpoints.oracle import POINT_BUDGET

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


def test_solve_check_lines_needs_bound(capsys):
    code, _, err = run_cli(capsys, "solve", "--check", "1", "0", "-1", "0", "0", "0")
    assert code == 4
    assert "--bound" in err


def test_solve_check_lines_with_bound(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--check", "--bound", "8", "1", "0", "-1", "0", "0", "0"
    )
    assert code == 0
    assert err == ""


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
    code, out, err = run_cli(capsys, "oracle", "1", "0", "-1", "0", "0", "0")
    assert code == 4
    assert out == ""
    assert "--bound" in err


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


def test_sumform_prime(capsys):
    code, out, _ = run_cli(capsys, "sumform", "1", "1", "-13")
    assert code == 0
    assert out == "-7 -6\n-7 6\n7 -6\n7 6\n"


def test_sumform_obstruction(capsys):
    code, out, err = run_cli(capsys, "sumform", "1", "1", "-2")
    assert code == 0
    assert out == ""
    assert "2 (mod 4)" in err


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


def test_missing_input_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", "/no/such/file.json"])
    assert exc.value.code == 2


def test_wrong_coefficient_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "1", "2", "3"])
    assert exc.value.code == 2


def test_leading_zero_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "007", "0", "-1", "0", "0", "0"])
    assert exc.value.code == 2


def test_minus_zero_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "-0", "0", "-1", "0", "0", "0"])
    assert exc.value.code == 2


def test_coefficients_and_input_conflict(tmp_path, capsys):
    path = tmp_path / "conic.json"
    path.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(path), "1", "2", "3", "4", "5", "6"])
    assert exc.value.code == 2


def test_large_coefficients_survive(capsys):
    # 10^30 scale coefficients: arbitrary precision end to end
    big = str(10**30)
    code, out, _ = run_cli(
        capsys, "invariants", "--format", "json", "1", "0", "-1", "0", "0", big
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["invariants"]["delta_q"] == str(-4 * 10**30)


# ---------------------------------------------------------------------------
# JSON bytes: every document is json.dumps(doc, sort_keys=True, indent=2) + "\n"

GOLDEN_POINTS = [(-2, -1), (0, -1), (1, 0), (1, 2)]


def assert_canonical_json(out: str) -> dict:
    doc = json.loads(out)
    canonical = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out != canonical:
        # report the first difference; a diff of two large documents takes minutes
        at = next(
            (i for i, (a, b) in enumerate(zip(out, canonical)) if a != b),
            min(len(out), len(canonical)),
        )
        pytest.fail(f"not canonical at offset {at}: {out[max(at - 30, 0):at + 30]!r}")
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
    coeffs = [str(v) for v in dataclasses.astuple(conic)]
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
    coeffs = [str(v) for v in dataclasses.astuple(conic)]
    doc = assert_canonical_json(main_stdout(["solve", "--format", "json", *coeffs]))
    points = solve(conic).points
    assert len(points) == 2 * tau
    assert doc["points"] == point_strings(points)


# ---------------------------------------------------------------------------
# divisor cap environment variable

def test_divisor_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("CONIC_DIVISOR_CAP", "10")
    code, _, err = run_cli(capsys, "solve", "--no-reduce", *GOLDEN_ARGS)
    assert code == 1
    assert "divisor-limit" in err
    # the reduced route only enumerates divisors of 10, so it stays allowed
    code, out, _ = run_cli(capsys, "solve", *GOLDEN_ARGS)
    assert code == 0
    assert out.count("\n") == 4


def test_divisor_cap_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("CONIC_DIVISOR_CAP", "zero")
    with pytest.raises(SystemExit) as exc:
        main(["solve", *GOLDEN_ARGS])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "conicpoints", "solve", *GOLDEN_ARGS],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "-2 -1\n0 -1\n1 0\n1 2\n"
