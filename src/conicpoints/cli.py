"""Command line front end.

Subcommands:

  solve       integral points of a conic, or its degenerate line pair
  invariants  the derived quantities k, i, delta_q, m
  oracle      bounded brute-force search, independent of the solver
  theorem1    closed-form family for monic unit-k conics with invariant 2^n
  sumform     l^2*x^2 - m^2*y^2 + j = 0 through its closed forms

Exit codes: 0 success; 1 invalid input; 2 parse error; 3 solver/oracle
mismatch under --check; 4 oracle search on a degenerate conic without
--bound; 5 oracle search box over oracle.ROW_BUDGET rows, or a line pair's
box with room for over oracle.POINT_BUDGET points, under --check or
oracle.  All integers in JSON documents are decimal strings so arbitrary
magnitudes survive any JSON parser.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .conic import Conic, Invariants, invariants_of, validate
from .errors import ConicError
from .oracle import POINT_BUDGET, ROW_BUDGET, SearchBound, brute_force, solution_bound
from .solver import (
    FiniteSolutions,
    ParamLine,
    power_of_two_conic,
    power_of_two_points,
    solve,
    solve_difference_of_squares,
)

_FIELDS = ("alpha", "beta", "gamma", "delta", "epsilon", "j")
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
        except json.JSONDecodeError as exc:
            parser.error(f"invalid JSON in {args.input}: {exc}")
        if not isinstance(doc, dict) or set(doc) != set(_FIELDS):
            parser.error(
                "conic document needs exactly the keys "
                "alpha, beta, gamma, delta, epsilon, j"
            )
        values = []
        for field in _FIELDS:
            raw = doc[field]
            if not isinstance(raw, str) or not _INT_RE.match(raw):
                parser.error(
                    f"field {field!r} must be a canonical decimal integer string"
                )
            values.append(int(raw))
    else:
        if len(args.coefficients) != 6:
            parser.error("expected six coefficients: alpha beta gamma delta epsilon j")
        values = args.coefficients
    return validate(*values)


# ---------------------------------------------------------------------------
# output documents

def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# json.dumps with indent runs the pure-Python encoder, which dominates the
# run time for point sets in the thousands.  The points are written from a
# fixed template instead (decimal integers need no escaping, and "points"
# is always a top-level key) into a slot that no decimal string or fixed
# key can render as.
_POINTS_SLOT = "\0points"
_POINTS_SLOT_JSON = json.dumps(_POINTS_SLOT)
_POINT_JSON = '    [\n      "%d",\n      "%d"\n    ]'


def _finite_json(inv: Invariants, points, **extra) -> str:
    """The "finite" document, byte for byte as _dump writes it with the points
    as [["x", "y"], ...]."""
    text = _dump(
        {"kind": "finite", "invariants": _inv_block(inv), "points": _POINTS_SLOT, **extra}
    )
    if points:
        block = "[\n" + ",\n".join(map(_POINT_JSON.__mod__, points)) + "\n  ]"
    else:
        block = "[]"
    return text.replace(_POINTS_SLOT_JSON, block, 1)


def _inv_block(inv: Invariants) -> dict:
    return {
        "k": str(inv.k),
        "i": str(inv.big_i),
        "delta_q": str(inv.delta_q),
        "m": str(inv.m),
    }


def _conic_doc(conic: Conic) -> dict:
    return {field: str(getattr(conic, field)) for field in _FIELDS}


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


def _points_text(points) -> str:
    return "".join(f"{p.x} {p.y}\n" for p in points)


def _emit_invalid(args: argparse.Namespace, exc: Exception) -> int:
    code = getattr(exc, "code", "invalid-input")
    if args.format == "json":
        doc = {"kind": "invalid", "error": {"code": code, "message": str(exc)}}
        sys.stdout.write(_dump(doc))
    else:
        print(f"error: {code}: {exc}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# oracle box helpers for --check and oracle

def _search_box(args, conic: Conic, inv: Invariants) -> SearchBound | None:
    """The square --bound box, else the derived box; None for a degenerate
    conic without --bound."""
    if args.bound is not None:
        return SearchBound(bx=args.bound, by=args.bound)
    if inv.big_i != 0:
        return solution_bound(conic, inv)
    return None


def _over_budget(bound: SearchBound, lines: bool) -> bool:
    """Report a box with more rows than the oracle's row budget or, for a
    line pair (``lines``), room for more points than its point budget."""
    rows = 2 * bound.by + 1
    if rows > ROW_BUDGET:
        what = f"{rows} rows, over the oracle row budget of {ROW_BUDGET}"
    elif lines and 2 * rows > POINT_BUDGET:
        what = (
            f"room for {2 * rows} points, "
            f"over the oracle point budget of {POINT_BUDGET}"
        )
    else:
        return False
    print(
        f"error: search box (bx={bound.bx}, by={bound.by}) has {what}",
        file=sys.stderr,
    )
    return True


# Points listed per side when solver and oracle disagree.
_MISMATCH_SHOWN = 5


def _only_text(side: str, points, other) -> str:
    only = sorted(set(points).difference(other))
    text = f"only the {side} found {len(only)}"
    if only:
        text += ": " + " ".join(f"({x},{y})" for x, y in only[:_MISMATCH_SHOWN])
    if len(only) > _MISMATCH_SHOWN:
        text += f" and {len(only) - _MISMATCH_SHOWN} more"
    return text


def _run_check(args, conic: Conic, inv: Invariants, result) -> int:
    bound = _search_box(args, conic, inv)
    if bound is None:
        print(
            "error: --check on a degenerate conic needs --bound",
            file=sys.stderr,
        )
        return 4
    if _over_budget(bound, inv.big_i == 0):
        return 5
    oracle_points = brute_force(conic, bound)
    if isinstance(result, FiniteSolutions):
        expected = [
            p
            for p in result.points
            if abs(p.x) <= bound.bx and abs(p.y) <= bound.by
        ]
    else:
        expected = sorted(
            {p for line in result.lines for p in line.points_in_box(bound.bx, bound.by)}
        )
    if oracle_points != expected:
        print(
            f"error: solver and oracle disagree within box "
            f"(bx={bound.bx}, by={bound.by})\n"
            f"{_only_text('solver', expected, oracle_points)}\n"
            f"{_only_text('oracle', oracle_points, expected)}",
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        conic, inv = _conic_from_args(args)
        result = solve(conic, reduce=not args.no_reduce, divisor_cap=args.divisor_cap)
    except ConicError as exc:
        return _emit_invalid(args, exc)
    json_format = args.format == "json"
    if isinstance(result, FiniteSolutions):
        out = _finite_json(inv, result.points) if json_format else _points_text(result.points)
    elif json_format:
        out = _dump({
            "kind": "lines",
            "lines": [_line_doc(line) for line in result.lines],
            "invariants": _inv_block(inv),
        })
    else:
        out = "".join(_line_text(line) + "\n" for line in result.lines)
    sys.stdout.write(out)
    if args.check:
        return _run_check(args, conic, inv, result)
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    try:
        _, inv = _conic_from_args(args)
    except ConicError as exc:
        return _emit_invalid(args, exc)
    if args.format == "json":
        sys.stdout.write(_dump({"invariants": _inv_block(inv)}))
    else:
        sys.stdout.write(f"k = {inv.k}\ni = {inv.big_i}\ndelta_q = {inv.delta_q}\nm = {inv.m}\n")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        conic, inv = _conic_from_args(args)
    except ConicError as exc:
        return _emit_invalid(args, exc)
    bound = _search_box(args, conic, inv)
    if bound is None:
        print(
            "error: degenerate conic (invariant 0) has no finite search box; "
            "give --bound",
            file=sys.stderr,
        )
        return 4
    if _over_budget(bound, inv.big_i == 0):
        return 5
    points = brute_force(conic, bound)
    sys.stdout.write(_finite_json(inv, points) if args.format == "json" else _points_text(points))
    return 0


def _cmd_theorem1(args: argparse.Namespace) -> int:
    try:
        conic = power_of_two_conic(args.beta, args.delta, args.epsilon, args.n)
        points = power_of_two_points(args.beta, args.delta, args.epsilon, args.n)
    except (ConicError, ValueError) as exc:
        return _emit_invalid(args, exc)
    if args.format == "json":
        out = _finite_json(invariants_of(conic), points, conic=_conic_doc(conic))
    else:
        out = (
            f"conic: {conic.alpha} {conic.beta} {conic.gamma} "
            f"{conic.delta} {conic.epsilon} {conic.j}\n" + _points_text(points)
        )
    sys.stdout.write(out)
    return 0


def _cmd_sumform(args: argparse.Namespace) -> int:
    try:
        result = solve_difference_of_squares(
            args.l, args.m, args.j, divisor_cap=args.divisor_cap
        )
        _, inv = validate(args.l * args.l, 0, -args.m * args.m, 0, 0, args.j)
    except (ConicError, ValueError) as exc:
        return _emit_invalid(args, exc)
    if args.format == "json":
        extra = {} if result.obstruction is None else {"obstruction": result.obstruction}
        sys.stdout.write(_finite_json(inv, result.points, **extra))
        return 0
    sys.stdout.write(_points_text(result.points))
    if result.obstruction is not None:
        print("no integer solutions: -j = 2 (mod 4)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def _add_conic_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "coefficients",
        nargs="*",
        type=_int_arg,
        metavar="coefficient",
        help="the six coefficients alpha beta gamma delta epsilon j",
    )
    sub.add_argument(
        "--input",
        metavar="FILE",
        help="read the conic from a JSON document with keys alpha..j "
        "(decimal strings) instead of positional coefficients",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conicpoints",
        description="Exact integral points on conics whose quadratic part "
        "splits into two rational lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_solve = sub.add_parser(
        "solve", help="all integral points, or the degenerate line pair"
    )
    _add_conic_arguments(p_solve)
    p_solve.add_argument(
        "--no-reduce",
        action="store_true",
        help="enumerate divisors of the full right-hand side instead of the "
        "content-reduced one (same answer, more work)",
    )
    p_solve.add_argument(
        "--check",
        action="store_true",
        help="re-derive the answer with the brute-force oracle; exit 3 on mismatch",
    )
    p_solve.add_argument(
        "--bound",
        type=_positive_int,
        help="override the derived search box for --check (required when the "
        "invariant is zero)",
    )
    p_solve.set_defaults(handler=_cmd_solve, parser=p_solve)

    p_inv = sub.add_parser("invariants", help="print k, i, delta_q, m")
    _add_conic_arguments(p_inv)
    p_inv.set_defaults(handler=_cmd_invariants, parser=p_inv)

    p_oracle = sub.add_parser(
        "oracle", help="brute-force search within a box, independent of the solver"
    )
    _add_conic_arguments(p_oracle)
    p_oracle.add_argument(
        "--bound",
        type=_positive_int,
        help="half-width of the square search box (defaults to the derived bound)",
    )
    p_oracle.set_defaults(handler=_cmd_oracle, parser=p_oracle)

    p_t1 = sub.add_parser(
        "theorem1",
        help="closed-form point family for monic unit-k conics with invariant 2^n",
    )
    for name in ("beta", "delta", "epsilon", "n"):
        p_t1.add_argument(name, type=_int_arg)
    p_t1.set_defaults(handler=_cmd_theorem1, parser=p_t1)

    p_sum = sub.add_parser(
        "sumform", help="solve l^2*x^2 - m^2*y^2 + j = 0 via closed forms"
    )
    for name in ("l", "m", "j"):
        p_sum.add_argument(name, type=_int_arg)
    p_sum.set_defaults(handler=_cmd_sumform, parser=p_sum)

    for p in (p_solve, p_inv, p_oracle, p_t1, p_sum):
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default: text)",
        )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cap_text = os.environ.get("CONIC_DIVISOR_CAP")
    if cap_text is not None and cap_text != "":
        if not _INT_RE.match(cap_text) or int(cap_text) < 1:
            parser.error(
                f"CONIC_DIVISOR_CAP must be a positive integer, got {cap_text!r}"
            )
        args.divisor_cap = int(cap_text)
    else:
        args.divisor_cap = None
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
