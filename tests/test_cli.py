from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from conicpoints import (
    Conic,
    ConicError,
    FiniteSolutions,
    LatticePoint,
    LinePair,
    validate,
)
from conicpoints.cli import _dump, _inv_block, build_parser, main
from corpus.make import GOLDEN, GOLDEN_COEFFS, GOLDEN_POINTS, LINES, SIEVE_M
from test_oracle import _line_at, _lines_through


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # parser.error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve --check and the oracle

# the head line of a report within the golden conic's derived box, and
# within --bound 3
_IN_GOLDEN_BOX = "error: solver and oracle disagree within box (bx=12, by=9)"
_IN_BOX_3 = "error: solver and oracle disagree within box (bx=3, by=3)"
_OTHER_ORDER = "the solver and the oracle found the same points in a different order"


def _replaced(*points):
    """A finite result of ``points`` in place of the true one."""
    return lambda result: FiniteSolutions(points)


def _points(change):
    """``change`` made to the list of a finite result's points."""
    return lambda result: FiniteSolutions(tuple(change(list(result.points))))


def _first_line(**fields):
    """``fields`` replaced in the first line of a line pair."""
    return lambda result: LinePair((result.lines[0]._replace(**fields), result.lines[1]))


def _repeat(x, y):
    return lambda points: sorted([*points, LatticePoint(x, y)])


def _extra(points):
    return points + [LatticePoint(3, 4)]


@pytest.mark.parametrize(
    "patched, change, argv, expected",
    [
        pytest.param(
            "solve", _replaced(LatticePoint(0, -1), LatticePoint(5, 5)), GOLDEN,
            [
                _IN_GOLDEN_BOX,
                "only the solver found 1: (5,5)",
                "only the oracle found 3: (-2,-1) (1,0) (1,2)",
            ],
            id="finite-wrong-point",
        ),
        pytest.param(
            "solve", _replaced(*(LatticePoint(x, 9) for x in range(-12, 13))), GOLDEN,
            [
                _IN_GOLDEN_BOX,
                "only the solver found 25: (-12,9) (-11,9) (-10,9) (-9,9) (-8,9) and 20 more",
                "only the oracle found 4: (-2,-1) (0,-1) (1,0) (1,2)",
            ],
            id="finite-lists-capped",
        ),
        # the x = y line of x^2 - y^2 = 0 stepping by (2, 2) skips every other point
        pytest.param(
            "solve", _first_line(direction=(2, 2)), ["--bound", "3", *LINES],
            [
                _IN_BOX_3,
                "only the solver found 0",
                "only the oracle found 4: (-3,-3) (-1,-1) (1,1) (3,3)",
            ],
            id="lines-doubled-direction",
        ),
        # base (1, 0) moves the x = y line to x = y + 1
        pytest.param(
            "solve", _first_line(base=LatticePoint(1, 0)), ["--bound", "3", *LINES],
            [
                _IN_BOX_3,
                "only the solver found 6: (-2,-3) (-1,-2) (0,-1) (1,0) (2,1) and 1 more",
                "only the oracle found 6: (-3,-3) (-2,-2) (-1,-1) (1,1) (2,2) and 1 more",
            ],
            id="lines-base-off-the-line",
        ),
        # the oracle's points, all but the last, are a prefix of the solver's
        pytest.param(
            "brute_force", lambda points: points[:-1], ["--bound", "3", *LINES],
            [_IN_BOX_3, "only the solver found 1: (3,3)", "only the oracle found 0"],
            id="lines-oracle-missing-last",
        ),
        pytest.param(
            "brute_force", lambda points: points[:-1], ["--bound", "3", *GOLDEN],
            [_IN_BOX_3, "only the solver found 1: (1,2)", "only the oracle found 0"],
            id="finite-oracle-missing-last",
        ),
        # the solver's in-box points are a strict prefix of the oracle's
        pytest.param(
            "brute_force", _extra, ["--bound", "3", *GOLDEN],
            [_IN_BOX_3, "only the solver found 0", "only the oracle found 1: (3,4)"],
            id="finite-oracle-extra",
        ),
        pytest.param(
            "brute_force", _extra, ["--bound", "3", *LINES],
            [_IN_BOX_3, "only the solver found 0", "only the oracle found 1: (3,4)"],
            id="lines-oracle-extra",
        ),
        # the same set of points on both sides, so neither side found one the
        # other did not; a line pair's in-box points leave the solver sorted
        # and unique, so there the oracle's list is changed
        pytest.param(
            "solve", _points(_repeat(1, 0)), ["--bound", "3", *GOLDEN],
            [
                _IN_BOX_3,
                "only the solver found 0",
                "only the oracle found 0",
                "the solver repeated 1: (1,0)",
            ],
            id="finite-repeated",
        ),
        pytest.param(
            "solve", _points(lambda points: points[::-1]), ["--bound", "3", *GOLDEN],
            [_IN_BOX_3, "only the solver found 0", "only the oracle found 0", _OTHER_ORDER],
            id="finite-misordered",
        ),
        pytest.param(
            "brute_force", _repeat(0, 0), ["--bound", "3", *LINES],
            [
                _IN_BOX_3,
                "only the solver found 0",
                "only the oracle found 0",
                "the oracle repeated 1: (0,0)",
            ],
            id="lines-repeated",
        ),
        pytest.param(
            "brute_force", lambda points: points[::-1], ["--bound", "3", *LINES],
            [_IN_BOX_3, "only the solver found 0", "only the oracle found 0", _OTHER_ORDER],
            id="lines-misordered",
        ),
    ],
)
def test_solve_check_reports_a_fault(capsys, monkeypatch, patched, change, argv, expected):
    """`solve --check ARGV` exits 3 and reports the fault on stderr when the
    CLI's ``patched`` (solve or the oracle's brute_force) returns ``change``
    made to its true result."""
    import conicpoints.cli as cli_mod

    true = getattr(cli_mod, patched)
    monkeypatch.setattr(cli_mod, patched, lambda *args, **kwargs: change(true(*args, **kwargs)))
    code, _, err = run_cli(capsys, "solve", "--check", *argv)
    assert (code, err.splitlines()) == (3, expected)


_ROW_REFUSAL = (
    "error: search box (bx=2097152, by=2097152) has 4194305 rows, "
    "over the oracle row budget of 4194304\n"
)


@pytest.mark.parametrize(
    "epsilon, j, edge, out, refusal",
    [
        pytest.param(-SIEVE_M, -SIEVE_M, 2097151, "1 -1\n2 -1\n", _ROW_REFUSAL, id="sieve-m"),
        pytest.param(0, -2882880, 2097151, 666, _ROW_REFUSAL, id="666-points"),
        pytest.param(
            -SIEVE_M * 10**129,
            -SIEVE_M * 10**129,
            524287,
            "1 -1\n2 -1\n",
            "error: search box (bx=524288, by=524288) has 1048577 rows with "
            "discriminants of up to 514 bits, 4194308 in squared 512-bit words, "
            "over the oracle row budget of 4194304\n",
            id="charged-by-word-size",
        ),
    ],
)
def test_oracle_row_budget_edges(capsys, epsilon, j, edge, out, refusal):
    """On `1 3 2 0 EPSILON J` the widest box the row budget admits answers
    within a CPU ceiling (``out`` is its stdout, or the number of its
    lines), and one more row is refused at once.

    The first two are the slowest finite boxes ROW_BUDGET's comment names.
    At epsilon = j = -M, with M = SIEVE_M = 14757354782123793840 the
    product of the sieve moduli, disc(y) = y^2 + 4*M*y + 4*M is a square
    modulo every modulus in every row and the sieve strikes none; disc
    y^2 + 11531520 of `1 3 2 0 0 -2882880` is a square modulo 16, 9, 5, 7,
    11 and 13 in every row.  At E = -M*10^129 disc's bound
    y^2 + 4|E|*y + 4|E| passes POINT_WORD = 512 bits over the box, so each
    row is charged the square of two words, and the edge is a quarter of
    the budget's rows."""
    conic_args = ["1", "3", "2", "0", str(epsilon), str(j)]
    start = time.process_time()
    code, got, err = run_cli(capsys, "oracle", "--bound", str(edge), *conic_args)
    elapsed = time.process_time() - start
    assert (code, err) == (0, "")
    assert (len(got.splitlines()) if isinstance(out, int) else got) == out
    assert elapsed < 5
    start = time.process_time()
    code, got, err = run_cli(capsys, "oracle", "--bound", str(edge + 1), *conic_args)
    elapsed = time.process_time() - start
    assert (code, got, err) == (5, "", refusal)
    assert elapsed < 0.1


@pytest.mark.parametrize(
    "line1, line2, bound, crossing",
    [
        (_line_at(2, 3, 3, -2), _line_at(1, 1, 3, -2), 10, (3, -2)),
        (_line_at(2, 3, 3, -2), _line_at(1, 1, 3, -2), 3, (3, -2)),
        (_line_at(2, 3, 3, -2), _line_at(1, 1, 3, -2), 2, None),
        (_line_at(-3, 1, -7, 5), _line_at(2, 5, -7, 5), 40, (-7, 5)),
        # 2x + 3y = 1 and x = y cross at (1/5, 1/5)
        ((2, 3, -1), (1, -1, 0), 10, None),
    ],
    ids=["inside", "on-the-edge", "outside", "inside-negative-alpha", "off-the-lattice"],
)
def test_solve_check_line_pairs_crossing_off_the_origin(capsys, line1, line2, bound, crossing):
    # a lattice crossing in the box is on both lines' walks, and --check
    # must count it once, as the oracle does
    conic = _lines_through(line1, line2)
    argv = ["--bound", str(bound), *map(str, conic)]
    code, out, err = run_cli(capsys, "oracle", *argv)
    assert (code, err) == (0, "")
    points = [tuple(map(int, row.split())) for row in out.splitlines()]
    on_both = [p for p in points if all(a * p[0] + b * p[1] + c == 0 for a, b, c in (line1, line2))]
    assert len(points) > 4 and on_both == ([crossing] if crossing else [])
    code, out, err = run_cli(capsys, "solve", "--check", *argv)
    assert (code, err) == (0, "")


def test_solve_check_line_pair_memory_ceiling(capsys):
    # the oracle's list and the solver's, 8,189 points each: 1.9-2.2 MB
    # measured with their ints, about 240 bytes a point
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "solve", "--check", "--bound", "2047", *LINES)
        assert (code, err) == (0, "")
        assert tracemalloc.get_traced_memory()[1] < 2_500_000
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# input handling

def test_input_file_nested_too_deep(tmp_path, capsys):
    path = tmp_path / "conic.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "solve", "--input", str(path))
    assert (code, out) == (2, "")
    assert f"invalid JSON in {path}: maximum recursion depth exceeded" in err


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
                (["invariants", *GOLDEN], 0),
                (["solve", "1", "0", "1", "0", "0", "-1"], 1),
                (["oracle", "--bound", "3000000", *GOLDEN], 5),
                (["invariants", "1.5", *GOLDEN[1:]], 2),  # SystemExit
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


def test_main_formats_no_usage_it_does_not_print(capsys, monkeypatch):
    """The subparsers get the root's program name, so argparse formats no
    usage text to derive it; a call formats usage only when it prints it."""
    formatted = []
    format_help = argparse.HelpFormatter.format_help

    def counted(self):
        formatted.append(self)
        return format_help(self)

    monkeypatch.setattr(argparse.HelpFormatter, "format_help", counted)
    assert run_cli(capsys, "solve", "--format", "json", *GOLDEN)[0] == 0
    assert formatted == []
    code, out, err = run_cli(capsys, "solve", "--bound", "3", *GOLDEN)
    assert (code, out) == (2, "") and err.endswith("error: --bound needs --check\n")
    assert formatted


# ---------------------------------------------------------------------------
# JSON bytes: every document is json.dumps(doc, sort_keys=True, indent=2) + "\n"

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


@pytest.mark.parametrize(
    "argv, keys, points",
    [
        (["solve", *GOLDEN], {"invariants", "kind", "points"}, GOLDEN_POINTS),
        (["solve", "1", "0", "-1", "0", "0", "-2"], {"invariants", "kind", "points"}, []),
        (["oracle", *GOLDEN], {"invariants", "kind", "points"}, GOLDEN_POINTS),
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
        (["solve", *LINES], {"invariants", "kind", "lines"}, None),
        (["solve", "9", "0", "-9", "9", "3", "2"], {"invariants", "kind", "lines"}, None),
        (["invariants", *GOLDEN], {"invariants"}, None),
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
    code, out, _ = run_cli(capsys, "solve", "--format", "json", *GOLDEN)
    assert code == 1
    doc = assert_canonical_json(out)
    assert doc["error"] == {"code": "conic-error", "message": message}


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
    _, inv = validate(*GOLDEN_COEFFS)
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
    code, out, err = run_cli(capsys, "solve", "--no-reduce", *GOLDEN)
    assert (code, out, err) == (0, "-2 -1\n0 -1\n1 0\n1 2\n", "")


def test_main_is_reentrant(capsys):
    # each call, made after the others in one process, prints exactly what
    # it prints alone in a fresh one: no state is left between calls
    calls = [
        ["solve", *GOLDEN],
        ["solve", "--check", "--format", "json", "1", "2"],  # parser.error
        ["sumform", "--format", "json", "1", "1", "-13"],
        ["solve", "--check", *GOLDEN],
        ["invariants", *GOLDEN],
        ["solve", "--check", *LINES],  # no --bound
        ["oracle", "--bound", "3000000", *GOLDEN],  # over the row budget
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


def test_named_arguments_parser_matches_the_full_one(capsys, monkeypatch):
    # main registers only the named subcommand; each call must print what
    # it prints with all five built, on the interpreter running this
    # (the root help, which calls.jsonl leaves out, included)
    import conicpoints.cli as cli_mod

    calls = [
        ["--help"],
        ["-h"],
        ["-h", "solve"],
        ["bogus", "1"],
        ["sol", "1"],
        ["--format", "json", "solve", "1", "2", "3", "4", "5", "6"],
        ["solve", "--he"],
        ["solve", "-x", "1"],
        ["solve", "--", "1"],
        *([name, "--help"] for name in ("solve", "invariants", "oracle", "theorem1", "sumform")),
        ["solve", "--bound", "0", "--check", *GOLDEN],
        ["invariants", "1.5", *GOLDEN[1:]],
        ["oracle", "--format", "xml", *GOLDEN],
        ["theorem1", "1", "2"],
        ["sumform", "1", "2", "x"],
        ["solve", "oracle", "-h"],
        ["invariants", "-h", "solve"],
        ["theorem1", "sumform", "--help"],
        ["oracle", "--he"],
        ["solve", "--bound", "3", "invariants"],
        ["invariants", *GOLDEN, "--check"],
        ["theorem1", "3", "0", "1", "4", "-x"],
    ]
    monkeypatch.setenv("COLUMNS", "80")
    named = [run_cli(capsys, *argv) for argv in calls]
    full = cli_mod.build_parser
    monkeypatch.setattr(cli_mod, "build_parser", lambda command=None: full())
    assert named == [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in named] == (
        [0, 0, 0, 2, 2, 2, 0, 2, 2] + [0] * 5 + [2] * 5 + [2, 0, 2, 0] + [2] * 3
    )


def test_only_the_named_subparser_is_registered():
    # argparse reads only the subparser named first, so build_parser(name)
    # registers only name, with the arguments build_parser() gives it;
    # build_parser() registers all five, each with -h and the program name
    # argparse would derive itself
    def actions(parser):
        (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {
            name: (p.prog, [a.dest for a in p._actions])
            for name, p in subparsers.choices.items()
        }

    full = actions(build_parser())
    assert list(full) == ["solve", "invariants", "oracle", "theorem1", "sumform"]
    assert all(dests[0] == "help" and "format" in dests for _, dests in full.values())
    derived = argparse.ArgumentParser(prog="conicpoints").add_subparsers()
    assert {name: prog for name, (prog, _) in full.items()} == {
        name: derived.add_parser(name).prog for name in full
    }
    for name in full:
        assert actions(build_parser(name)) == {name: full[name]}
