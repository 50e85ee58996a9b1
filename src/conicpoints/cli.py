"""Command line front end.

Subcommands:

  solve       integral points of a conic, or its degenerate line pair
  invariants  the derived quantities k, i, delta_q, m
  oracle      bounded brute-force search, independent of the solver
  theorem1    closed-form family for monic unit-k conics with invariant 2^n
  sumform     l^2*x^2 - m^2*y^2 + j = 0, with its mod-4 obstruction

Exit codes, all picked by main: 0 success; 1 invalid input (an "invalid"
document on stdout under --format json, else "error: <code>: ..." on
stderr); 2 parse error; 3 solver/oracle mismatch under --check; 4 oracle
search on a degenerate conic without --bound; 5 oracle search box over
oracle.ROW_BUDGET rows, or a line pair's box with room for over
intmath.POINT_BUDGET points.  3, 4 and 5 write "error: ..." to stderr.
All integers in JSON documents are decimal strings so arbitrary
magnitudes survive any JSON parser.
"""

import argparse
import gc
import json
import re
import sys
from collections import Counter
from itertools import chain, groupby, repeat

from .conic import Conic, Invariants, invariants_of, validate
from .errors import _int_text
from .intmath import POINT_BUDGET, POINT_WORD
from .oracle import ROW_BUDGET, SearchBound, brute_force, row_charge, solution_bound
from .solver import (
    FiniteSolutions,
    ParamLine,
    power_of_two_conic,
    power_of_two_points,
    solve,
    solve_difference_of_squares,
)

_INT_RE = re.compile(r"(0|-?[1-9][0-9]*)\Z")


def _int_arg(text: str) -> int:
    if not _INT_RE.match(text):
        raise argparse.ArgumentTypeError(f"not a canonical decimal integer: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    value = _int_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _conic_from_args(args: argparse.Namespace) -> tuple[Conic, Invariants]:
    parser = args.parser
    if args.input is not None:
        if args.coefficients:
            parser.error("give six coefficients or --input, not both")
        try:
            with open(args.input, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            parser.error(f"cannot read {args.input}: {exc}")
        except (ValueError, RecursionError) as exc:
            # bad JSON, bytes that are not UTF-8, or nesting too deep to parse
            parser.error(f"invalid JSON in {args.input}: {exc}")
        if not isinstance(doc, dict) or set(doc) != set(Conic._fields):
            parser.error(
                "conic document needs exactly the keys " + ", ".join(Conic._fields)
            )
        values = []
        for field in Conic._fields:
            raw = doc[field]
            if not isinstance(raw, str) or not _INT_RE.match(raw):
                parser.error(
                    f"field {field!r} must be a canonical decimal integer string"
                )
            values.append(int(raw))
    else:
        if len(args.coefficients) != 6:
            parser.error("expected six coefficients: " + " ".join(Conic._fields))
        values = args.coefficients
    return validate(*values)


# ---------------------------------------------------------------------------
# output documents

# json.dumps with indent runs the pure-Python encoder, which dominates the
# run time for point sets in the thousands.  The points are written with one
# % over a repeated template instead (decimal integers need no escaping, and
# "points" is always a top-level key) into a slot that no decimal string or
# fixed key can render as.
_POINTS_SLOT = "\0points"
_POINTS_SLOT_JSON = json.dumps(_POINTS_SLOT)
_POINT_JSON = '    [\n      "%d",\n      "%d"\n    ]'


def _dump(doc: dict) -> str:
    """``doc`` as json.dumps writes it, keys sorted and indented by two, and a
    newline; a non-empty "points" list of (x, y) integer pairs is written as
    [["x", "y"], ...]."""
    points = doc.get("points")
    if not points:
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    head, tail = json.dumps(
        {**doc, "points": _POINTS_SLOT}, sort_keys=True, indent=2
    ).split(_POINTS_SLOT_JSON)
    body = ",\n".join(repeat(_POINT_JSON, len(points))) % tuple(chain.from_iterable(points))
    # one copy of the body: chained + would make one per operand
    return f"{head}[\n{body}\n  ]{tail}\n"


def _inv_block(inv: Invariants) -> dict:
    return {
        "k": str(inv.k),
        "i": str(inv.big_i),
        "delta_q": str(inv.delta_q),
        "m": str(inv.m),
    }


def _conic_doc(conic: Conic) -> dict:
    return dict(zip(Conic._fields, map(str, conic)))


def _line_doc(line: ParamLine) -> dict:
    doc = {
        "a": str(line.a),
        "b": str(line.b),
        "c": str(line.c),
        "solvable": line.solvable,
        "dir": [str(line.direction[0]), str(line.direction[1])],
    }
    if line.solvable:
        doc["base"] = [str(line.base.x), str(line.base.y)]
    return doc


def _line_text(line: ParamLine) -> str:
    head = f"{line.a}*x + {line.b}*y = {line.c}"
    if line.solvable:
        return (
            f"{head} solvable: base=({line.base.x},{line.base.y}) "
            f"dir=({line.direction[0]},{line.direction[1]})"
        )
    return f"{head} no integer solutions"


def _write_finite(args, inv: Invariants, points, text: str = "", **extra) -> None:
    """Write a finite answer: the "finite" document with ``extra``'s keys,
    or the ``text`` head and one "x y" line per point."""
    if args.format == "json":
        doc = {"kind": "finite", "invariants": _inv_block(inv), "points": points, **extra}
        sys.stdout.write(_dump(doc))
    else:
        sys.stdout.write(text + "".join(f"{p.x} {p.y}\n" for p in points))


class _Refused(Exception):
    """Exit ``code`` with the message; not a ValueError, which is invalid input."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# the oracle's scan of its search box, for --check and oracle

def _oracle_scan(args, conic: Conic, inv: Invariants) -> tuple[SearchBound, list]:
    """The square --bound box, else the derived box, and brute_force's points
    in it.  Refused before any row is scanned: with exit 4 for a degenerate
    conic without --bound, and with exit 5 for a box with more rows than the
    oracle's row budget, or rows charged past it by the size of disc
    (row_charge), or, for a line pair, room for more points than its point
    budget."""
    if args.bound is not None:
        bound = SearchBound(bx=args.bound, by=args.bound)
    elif inv.big_i != 0:
        bound = solution_bound(conic, inv)
    else:
        raise _Refused(4, "degenerate conic (invariant 0) has no finite search box; give --bound")
    rows = 2 * bound.by + 1
    bits, charge = row_charge(conic, bound)
    if rows > ROW_BUDGET:
        what = f"{_int_text(rows)} rows, over the oracle row budget of {ROW_BUDGET}"
    elif charge > ROW_BUDGET:
        what = (
            f"{rows} rows with discriminants of up to {bits} bits, {charge} in "
            f"squared {POINT_WORD}-bit words, over the oracle row budget of {ROW_BUDGET}"
        )
    elif inv.big_i == 0 and 2 * rows > POINT_BUDGET:
        what = f"room for {2 * rows} points, over the oracle point budget of {POINT_BUDGET}"
    else:
        return bound, brute_force(conic, bound)
    bx, by = map(_int_text, bound)
    raise _Refused(5, f"search box (bx={bx}, by={by}) has {what}")


# Points listed per line when solver and oracle disagree.
_MISMATCH_SHOWN = 5


def _listed(head: str, points: list) -> str:
    text = f"{head} {len(points)}"
    if points:
        text += ": " + " ".join(f"({x},{y})" for x, y in points[:_MISMATCH_SHOWN])
    if len(points) > _MISMATCH_SHOWN:
        text += f" and {len(points) - _MISMATCH_SHOWN} more"
    return text


def _mismatch_text(bound: SearchBound, solver: list, oracle: list) -> str:
    """Why two lists of points differ: the points only one side found, then
    each side's repeated points, then, if each side has every point as often
    as the other, that their order differs."""
    in_solver, in_oracle = Counter(solver), Counter(oracle)
    lines = [
        f"solver and oracle disagree within box (bx={bound.bx}, by={bound.by})",
        _listed("only the solver found", sorted(in_solver.keys() - in_oracle.keys())),
        _listed("only the oracle found", sorted(in_oracle.keys() - in_solver.keys())),
    ]
    for side, count in (("solver", in_solver), ("oracle", in_oracle)):
        if repeated := sorted(p for p, n in count.items() if n > 1):
            lines.append(_listed(f"the {side} repeated", repeated))
    if in_solver == in_oracle:
        lines.append("the solver and the oracle found the same points in a different order")
    return "\n".join(lines)


def _solver_box_points(result, bound: SearchBound) -> list:
    """The solver's points in the box, sorted.  A line pair's are both
    lines' walks, each in (x, y) order, sorted together, with the repeat
    where the lines cross dropped."""
    bx, by = bound
    if isinstance(result, FiniteSolutions):
        return [p for p in result.points if abs(p.x) <= bx and abs(p.y) <= by]
    walks = sorted(chain.from_iterable(line.box_points(bx, by) for line in result.lines))
    return [p for p, _ in groupby(walks)]


def _run_check(args, conic: Conic, inv: Invariants, result) -> None:
    bound, oracle_points = _oracle_scan(args, conic, inv)
    # one list compared at C speed; a line pair's box may hold POINT_BUDGET
    # points, so the two lists then peak near twice the oracle's alone
    expected = _solver_box_points(result, bound)
    if oracle_points != expected:
        raise _Refused(3, _mismatch_text(bound, expected, oracle_points))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args: argparse.Namespace) -> None:
    if args.bound is not None and not args.check:
        args.parser.error("--bound needs --check")
    conic, inv = _conic_from_args(args)
    result = solve(conic, reduce=not args.no_reduce)
    if isinstance(result, FiniteSolutions):
        _write_finite(args, inv, result.points)
    elif args.format == "json":
        sys.stdout.write(_dump({
            "kind": "lines",
            "lines": [_line_doc(line) for line in result.lines],
            "invariants": _inv_block(inv),
        }))
    else:
        sys.stdout.write("".join(_line_text(line) + "\n" for line in result.lines))
    if args.check:
        _run_check(args, conic, inv, result)


def _cmd_invariants(args: argparse.Namespace) -> None:
    _, inv = _conic_from_args(args)
    if args.format == "json":
        sys.stdout.write(_dump({"invariants": _inv_block(inv)}))
    else:
        sys.stdout.write(f"k = {inv.k}\ni = {inv.big_i}\ndelta_q = {inv.delta_q}\nm = {inv.m}\n")


def _cmd_oracle(args: argparse.Namespace) -> None:
    conic, inv = _conic_from_args(args)
    _, points = _oracle_scan(args, conic, inv)
    _write_finite(args, inv, points)


def _cmd_theorem1(args: argparse.Namespace) -> None:
    # points first: past the point budget they raise before 2^n is built
    points = power_of_two_points(args.beta, args.delta, args.epsilon, args.n)
    conic = power_of_two_conic(args.beta, args.delta, args.epsilon, args.n)
    head = "conic: " + " ".join(map(str, conic)) + "\n"
    _write_finite(args, invariants_of(conic), points, head, conic=_conic_doc(conic))


def _cmd_sumform(args: argparse.Namespace) -> None:
    result = solve_difference_of_squares(args.l, args.m, args.j)
    _, inv = validate(args.l * args.l, 0, -args.m * args.m, 0, 0, args.j)
    extra = {} if result.obstruction is None else {"obstruction": result.obstruction}
    _write_finite(args, inv, result.points, **extra)
    if extra and args.format == "text":
        print("no integer solutions: -j = 2 (mod 4)", file=sys.stderr)


# ---------------------------------------------------------------------------

# Each subcommand's arguments, as (flags, add_argument keywords) pairs.
_CONIC_ARGUMENTS = (
    (("coefficients",), {
        "nargs": "*",
        "type": _int_arg,
        "metavar": "coefficient",
        "help": "the six coefficients alpha beta gamma delta epsilon j",
    }),
    (("--input",), {
        "metavar": "FILE",
        "help": "read the conic from a JSON document with keys alpha..j "
        "(decimal strings) instead of positional coefficients",
    }),
)
_FORMAT_ARGUMENT = (("--format",), {
    "choices": ("text", "json"),
    "default": "text",
    "help": "output format (default: text)",
})


def _int_arguments(*names: str) -> tuple:
    return tuple(((name,), {"type": _int_arg}) for name in names)


# name -> (help, handler, arguments before --format), in the order listed
_COMMANDS = {
    "solve": ("all integral points, or the degenerate line pair", _cmd_solve, (
        *_CONIC_ARGUMENTS,
        (("--no-reduce",), {
            "action": "store_true",
            "help": "enumerate divisors of the full right-hand side instead of the "
            "content-reduced one (same answer, more work)",
        }),
        (("--check",), {
            "action": "store_true",
            "help": "re-derive the answer with the brute-force oracle; exit 3 on mismatch",
        }),
        (("--bound",), {
            "type": _positive_int,
            "help": "override the derived search box for --check (required when the "
            "invariant is zero)",
        }),
    )),
    "invariants": ("print k, i, delta_q, m", _cmd_invariants, _CONIC_ARGUMENTS),
    "oracle": ("brute-force search within a box, independent of the solver", _cmd_oracle, (
        *_CONIC_ARGUMENTS,
        (("--bound",), {
            "type": _positive_int,
            "help": "half-width of the square search box (defaults to the derived bound)",
        }),
    )),
    "theorem1": (
        "closed-form point family for monic unit-k conics with invariant 2^n",
        _cmd_theorem1,
        _int_arguments("beta", "delta", "epsilon", "n"),
    ),
    "sumform": ("solve l^2*x^2 - m^2*y^2 + j = 0", _cmd_sumform, _int_arguments("l", "m", "j")),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line's parser, with only ``command``'s subparser, the
    one argparse reads, or all five when it is None, so that the root
    usage, help and invalid-choice error are whole."""
    parser = argparse.ArgumentParser(
        prog="conicpoints",
        description="Exact integral points on conics whose quadratic part "
        "splits into two rational lines.",
    )
    sub = parser.add_subparsers(prog=parser.prog, dest="command", required=True, metavar="command")
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        if command is None or command == name:
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(handler=handler, parser=p)
            for flags, options in (*arguments, _FORMAT_ARGUMENT):
                p.add_argument(*flags, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Coefficients are decimal integers of any size, but str() and int()
    # refuse integers over 4,300 digits by default.  The limit is lifted
    # while main runs and restored on every exit.  The cyclic collector is
    # paused the same way: all that main builds, the parser's cycles too,
    # lives until it returns, so a collection during the call frees nothing
    # and only promotes those cycles to where a later full collection costs
    # milliseconds.  Each call registers only the subcommand named first,
    # the one subparser argparse reads, or all five when none is named.
    limit = sys.get_int_max_str_digits()
    collecting = gc.isenabled()
    sys.set_int_max_str_digits(0)
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
        args = parser.parse_args(argv)
        try:
            args.handler(args)
        except _Refused as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.code
        except ValueError as exc:
            # ConicError and the theorem1 and sumform argument checks
            code = getattr(exc, "code", "invalid-input")
            if args.format == "json":
                doc = {"kind": "invalid", "error": {"code": code, "message": str(exc)}}
                sys.stdout.write(_dump(doc))
            else:
                print(f"error: {code}: {exc}", file=sys.stderr)
            return 1
        return 0
    finally:
        sys.set_int_max_str_digits(limit)
        if collecting:
            gc.enable()
