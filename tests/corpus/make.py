"""Write tests/corpus/calls.jsonl: the command line's exact bytes on a fixed
set of calls, so a change that means to keep them can prove it did.

Each line is one call of ``conicpoints.cli.main`` with ``COLUMNS=80``, run
from the root of the repository: the argv, the exit code and the SHA-256 of
stdout and of stderr, with the text itself when it is under 1 KB.  The
calls come from fixed lists, seeds and budgets, so the file changes only
when the bytes or a budget do.  Regenerating, tests/test_corpus.py's
in-process replay and ``--replay`` all run their calls through
``outcomes``, and both replays report through ``reports``.
``overcap_items`` is the one reader of bench/overcap.json, for the corpus
and for the tests of the over-cap slice.  The module is also where the
inputs the tests share live: the golden conic, its points and the line
pair x^2 = y^2, psi_13 and the sieve moduli's product.  From the root of
the repository:

    PYTHONPATH=src python tests/corpus/make.py          # regenerate
    python tests/corpus/make.py --replay conicpoints    # replay through the console script

Left out: the root --help, which Python 3.13 lays out differently from
3.10-3.12 (test_cli.py checks it against a parser with every subcommand's
arguments); exit 3, which needs a tampered solver; and --input on a nesting
too deep to parse, a generated 200 KB file.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import math
import multiprocessing
import os
import shlex
import subprocess
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import count, zip_longest
from pathlib import Path

from conicpoints import power_of_two_conic, random_valid_conic
from conicpoints.cli import main as cli_main
from conicpoints.intmath import POINT_BUDGET, POINT_WORD
from conicpoints.oracle import _MODULI, ROW_BUDGET

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]  # every call runs here
CORPUS = HERE / "calls.jsonl"
OVERCAP = ROOT / "bench" / "overcap.json"
INPUTS = "tests/corpus/inputs"  # --input files, relative to ROOT
# stdout and stderr are kept in full below this many UTF-8 bytes
TEXT_LIMIT = 1024
# seconds a call through a command may take: far above what any call
# needs, so a hang is reported, not waited on
TIMEOUT = 30
# a report names a longer argument by its size
ARG_LIMIT = 80

# 2x^2 - 5xy + 2y^2 - x + y - 1 = 0, the worked example, and its points
GOLDEN_COEFFS = (2, -5, 2, -1, 1, -1)
GOLDEN_POINTS = [(-2, -1), (0, -1), (1, 0), (1, 2)]
LINES_COEFFS = (1, 0, -1, 0, 0, 0)  # x^2 = y^2
# the same two conics as command-line arguments
GOLDEN = [str(c) for c in GOLDEN_COEFFS]
LINES = [str(c) for c in LINES_COEFFS]
# (3x + 3y + 1)(3x - 3y + 2): neither line holds a lattice point
NO_POINTS = ["9", "0", "-9", "9", "3", "2"]
PSI13 = 3317044064679887385961981
# the product of the sieve moduli, 14757354782123793840: disc is a square
# modulo each of them in every row of 1 3 2 0 -M*t -M*t, so the oracle's
# sieve strikes no row
SIEVE_M = math.prod(_MODULI)


def run(argv: list[str]) -> tuple[int | str, bytes, bytes]:
    """cli_main(argv) in process: the exit code and the UTF-8 bytes of
    stdout and stderr.  A call that raises gives "raised <exception name>"
    for its exit code and its traceback on stderr, so one crash is reported
    as that call's outcome and the other calls still run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
        except Exception as exc:
            traceback.print_exc()
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue().encode(), err.getvalue().encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def entry(argv: list[str], code: int | str, out: bytes, err: bytes) -> dict:
    doc = {"argv": argv, "exit": code}
    for name, data in (("stdout", out), ("stderr", err)):
        doc[name + "_sha256"] = sha256(data)
        if len(data) < TEXT_LIMIT:
            doc[name] = data.decode()
    return doc


def argv_text(argv: list[str]) -> str:
    """argv as one shell line, each argument over ARG_LIMIT characters named
    by its size: a --bound of 2^14000 reads "<4215-digit integer>", not 4 KB
    of digits."""
    return " ".join(
        shlex.quote(arg) if len(arg) <= ARG_LIMIT
        else f"<{len(arg)}-digit integer>" if arg.isdigit()
        else f"<{len(arg)}-character argument>"
        for arg in argv
    )


def differs(doc: dict, code: int | str | None, out: bytes, err: bytes) -> str | None:
    """What differs between a stored call and a replay of it, headed by its
    argv, or None when the exit code and both streams' hashes match.  A
    code of None is a call that gave no answer within TIMEOUT seconds."""
    if code is None:
        return f"differs: {argv_text(doc['argv'])}\nno answer within {TIMEOUT} s"
    found = [] if code == doc["exit"] else [f"exit {code}, stored {doc['exit']}"]
    for name, data in (("stdout", out), ("stderr", err)):
        if sha256(data) == doc[name + "_sha256"]:
            continue
        if name not in doc:
            found.append(f"{name} differs from its stored hash")
            continue
        diff = difflib.unified_diff(
            doc[name].splitlines(keepends=True),
            data.decode(errors="replace").splitlines(keepends=True),
            f"stored {name}",
            f"replayed {name}",
        )
        found.append("".join(diff))
    return "\n".join([f"differs: {argv_text(doc['argv'])}", *found]) if found else None


def overcap_items() -> dict[str, dict]:
    """The items of bench/overcap.json in the file's order, keyed by their
    id within the slice ("digits20/1" for "big_target/overcap/digits20/1"),
    each with the committed factorization of its reduced target as
    {prime: exponent}."""
    with open(OVERCAP, encoding="utf-8") as fh:
        items = json.load(fh)["items"]
    return {
        item["id"].removeprefix("big_target/overcap/"):
            {**item, "factors": {int(p): e for p, e in item["factors"]}}
        for item in items
    }


def _seeded(seeds) -> list[list[str]]:
    return [list(map(str, random_valid_conic(seed))) for seed in seeds]


def calls() -> list[list[str]]:
    """Every argv of the corpus, each once, in a fixed order."""
    readme = [
        ["solve", *GOLDEN],  # the golden conic's four points, sorted
        ["solve", "3", "3", "-6", "-4", "1", "1"],
        ["solve", "--format", "json", *GOLDEN],
        ["invariants", *GOLDEN],
        ["invariants", "--format", "json", *GOLDEN],
        # the same four points: by the reduced target 10, the unreduced 80,
        # the oracle's derived box, and --check in that box and in a box
        # too small to hold (-2,-1) and (1,2)
        ["solve", "--no-reduce", *GOLDEN],
        ["oracle", *GOLDEN],
        ["solve", "--check", *GOLDEN],
        ["solve", "--check", "--bound", "1", *GOLDEN],
        # a line pair's two families: the invariant is 0
        ["solve", *LINES],
        ["solve", "--format", "json", *LINES],
        ["solve", "--format", "json", *NO_POINTS],
        ["solve", "--check", "--bound", "8", *LINES],
        ["oracle", *GOLDEN, "--bound", "3"],
        ["theorem1", "3", "0", "1", "4"],  # its points come from the divisor solver
        ["sumform", "1", "1", "-13"],
        ["sumform", "3", "2", "-6"],
        ["solve", "--check", "--bound", "65535", *LINES],
        ["solve", "--check", *map(str, power_of_two_conic(3, 0, 1, 46))],
        ["theorem1", "3", "0", "0", "8193"],
        # beta odd, beta != +-1 and n >= 2 come before the size rule: a family
        # that does not exist is invalid input (exit 1)
        ["theorem1", "2", "0", "0", "1000000"],
    ]
    helps = [
        [command, "--help"] for command in ("solve", "invariants", "oracle", "theorem1", "sumform")
    ]
    solves = []
    for conic in _seeded(range(120)):
        solves += [
            ["solve", *conic], ["solve", "--format", "json", *conic], ["solve", "--no-reduce", *conic]
        ]
    # --check and oracle; one draw in eight is a line pair
    checks = []
    for conic in _seeded(range(1000, 1040)):
        checks += [
            ["solve", "--check", *conic],
            ["solve", "--check", "--bound", "40", *conic],
            ["oracle", "--format", "json", *conic],
            ["oracle", "--bound", "30", *conic],
        ]
    for conic in (LINES, ["3", "3", "-6", "-4", "1", "1"], ["2", "-3", "-2", "0", "0", "0"]):
        for fmt in ("text", "json"):
            checks += [
                ["solve", "--check", "--format", fmt, *conic],
                ["solve", "--check", "--bound", "8", "--format", fmt, *conic],
                ["oracle", "--format", fmt, *conic],
                ["oracle", "--bound", "8", "--format", fmt, *conic],
            ]
    families = [
        ["theorem1", "--format", "json", "3", "0", "1", "4"],
        ["theorem1", "-5", "2", "-3", "12"],
        ["theorem1", "1", "0", "0", "1000000"],
        ["theorem1", "--format", "json", "2", "0", "0", "10"],
        ["theorem1", "3", "0", "0", "1"],
        # the old count edge: its 262,144 points of 131,073 bits count 257
        # words each, so it is refused at once (exit 1)
        ["theorem1", "3", "0", "0", "131073"],
        ["sumform", "--format", "json", "1", "1", "-13"],
        ["sumform", "--format", "json", "3", "2", "-6"],
        ["sumform", "5", "3", "0"],
        # the mod-4 obstruction: no points, and the reason on stderr or in
        # the document's "obstruction"
        ["sumform", "1", "1", "-2"],
        ["sumform", "--format", "json", "1", "1", "-2"],
        # 10^30: arbitrary precision end to end
        ["invariants", "--format", "json", "1", "0", "-1", "0", "0", str(10**30)],
        # the theorem1 3 0 1 46 conic by its coefficients: --check prints
        # these points, then refuses its box of about 1.4e14 rows (exit 5)
        ["solve", *map(str, power_of_two_conic(3, 0, 1, 46))],
    ]
    for target in (
        PSI13,  # the proof shows it composite, then rho and ECM split it
        48 * PSI13 + 1,  # its proof shows psi_13 composite and splits it
        2 * 1200000707**3 + 1,  # its proof needs 1200000707 cubed in F
        2**89 - 1,  # prime, above psi_13: proven by Pocklington's theorem
        PSI13**2,
        2**61 - 1,
        2**127 - 1,
        (2**61 - 1) ** 2,  # the root test reads it as a prime power, no search
        (2**61 - 1) ** 3,
        39072923041 * 89193927323,  # rho runs out, ECM splits it
        # two primes near 10^23: ECM does not split their product, so the
        # factoring budget refuses it (exit 1)
        20000000000000000000030300000000000000000008073,
    ):
        families.append(["sumform", "1", "1", str(-target)])
    errors = [
        [],  # 2: no subcommand
        ["solve", "1", "2"],  # 2: not six coefficients
        ["solve", "1", "2", "3"],
        # 2: not canonical: leading zeros, and minus zero
        ["solve", "01", "-5", "2", "-1", "1", "-1"],
        ["solve", "007", "0", "-1", "0", "0", "0"],
        ["solve", "-0", "0", "-1", "0", "0", "0"],
        ["solve", "--input", "/no/such/file.json"],  # 2: no such file
        ["solve", "--bound", "3", *GOLDEN],  # 2: --bound without --check
        ["oracle", "--bound", "0", *GOLDEN],  # 2: not positive
        ["oracle", "--bound", "-3", *GOLDEN],
        ["solve", "--check", "--bound", "0", *GOLDEN],
        ["solve", "--check", "--bound", "-3", *GOLDEN],
        ["theorem1", "3", "0", "1"],  # 2: missing n
        ["sumform", "1", "1", "x"],  # 2: not an integer
        ["solve", "1", "0", "1", "0", "0", "1"],  # 1: discriminant not a square
        ["solve", "1", "0", "1", "0", "0", "-1"],
        ["solve", "--format", "json", "1", "0", "1", "0", "0", "1"],
        ["solve", "0", "1", "1", "0", "0", "0"],  # 1: alpha = 0
        ["solve", "--format", "json", "0", "1", "1", "0", "0", "-1"],
        ["invariants", "--format", "json", "1", "1", "0", "0", "0", "0"],  # 1: gamma = 0
        ["theorem1", "2", "0", "1", "4"],  # 1: beta must be odd
        # 1 in both formats: beta odd and beta != +-1 come before the point
        # budget at any n
        *(
            ["theorem1", "--format", fmt, beta, "0", "0", "1000000"]
            for beta in ("2", "1")
            for fmt in ("text", "json")
        ),
        ["sumform", "1", "1", "0"],  # 1: j = 0 is a line pair
        ["oracle", "--bound", "3000000", *GOLDEN],  # 5: row budget
        ["solve", "--check", "--bound", "2097152", *GOLDEN],
        ["oracle", "--bound", "65536", *LINES],  # 5: line-pair point budget
        # 5: a box past 2^14000 is named by its size, so stderr stays short
        ["oracle", "--bound", str(2**14000), *GOLDEN],
        ["solve", "--check", "--bound", str(2**14000), *LINES],
        # 2: the root parser's "unrecognized arguments" after a named
        # subcommand; the last reads a second subcommand's name as a
        # coefficient
        ["solve", "-x", "1"],
        ["sumform", "1", "1", "-13", "theorem1"],
        ["oracle", "sumform"],
    ]
    # digits20/4 among them: ECM splits off a 15-digit prime
    overcap = [[item["command"], *item["args"]] for item in overcap_items().values()]
    # x^2 = y^2 once more: the oracle scans a line pair's rows with its
    # exact linear identity and prints both diagonals, and solve --check
    # refuses it without --bound (exit 4: no finite box)
    lines = [
        ["oracle", "--bound", "3", *LINES],
        ["solve", "--check", *LINES],
        # solve --check --format text prints this answer first, then refuses
        # with the one exit-4 message oracle gives too
        ["solve", "--format", "text", *LINES],
    ]
    # the files under INPUTS: the golden conic through each subcommand, and
    # exit 2 on too few keys, on text that is not JSON (cut off after a
    # comma), on bytes that are not UTF-8, on a value that is not canonical,
    # on numbers for strings, and on a file beside six coefficients
    golden = f"{INPUTS}/golden.json"
    inputs = [[command, "--input", golden] for command in ("solve", "invariants", "oracle")]
    inputs += [
        ["solve", "--input", f"{INPUTS}/{name}.json"]
        for name in ("missing_keys", "truncated", "not_utf8", "leading_zeros", "numeric")
    ]
    inputs.append(["solve", "--input", golden, "1", "2", "3", "4", "5", "6"])
    # each budget's edge, drawn from the budget so that a change to it still
    # lands on the edge: the widest box the oracle may scan, then one row
    # more; the widest box a line pair's points may fill, then one row more,
    # on NO_POINTS, where solve --check prints what plain solve does before
    # it refuses; and a finite conic, which the point budget does not hold
    rows, points = (ROW_BUDGET - 1) // 2, (POINT_BUDGET - 2) // 4
    edges = [
        ["oracle", "--bound", str(rows), *GOLDEN],
        ["oracle", "--bound", str(rows + 1), *GOLDEN],
        ["solve", "--check", "--bound", str(rows + 1), *LINES],
        *(
            [*command, "--bound", str(bound), *NO_POINTS]
            for bound in (points, points + 1)
            for command in (["oracle"], ["solve", "--check"])
        ),
        ["solve", *NO_POINTS],
        ["oracle", "--bound", str(points + 1), *GOLDEN],
    ]
    # the row charge's edge: 1 3 2 0 E E with E = -SIEVE_M*10^d and d the
    # least for which disc's bound y^2 + 4|E|*y + 4|E| at the widest box of
    # two words a row, charged 2^2, passes POINT_WORD bits; that box, then
    # one row more
    by = (ROW_BUDGET // 2**2 - 1) // 2
    e = next(
        e for e in (SIEVE_M * 10**d for d in count())
        if (by * by + 4 * e * by + 4 * e).bit_length() > POINT_WORD
    )
    edges += [
        ["oracle", "--bound", str(bound), "1", "3", "2", "0", str(-e), str(-e)]
        for bound in (by, by + 1)
    ]
    # 10^2199: delta_q = 10^4398 - 4 has more digits than Python's default
    # int/str limit of 4,300, which main lifts
    huge = ["1", "0", "-1", "1" + "0" * 2199, "0", "1"]
    digits = [
        [command, *fmt, *huge]
        for command in ("invariants", "solve")
        for fmt in ([], ["--format", "json"])
    ]
    seen, ordered = set(), []
    for argv in (
        readme + helps + solves + checks + families + errors + overcap + lines
        + inputs + edges + digits
    ):
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            ordered.append(argv)
    return ordered


def load() -> list[dict]:
    with open(CORPUS, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def through(command: list[str], seconds: float, argv: list[str]) -> tuple[int | None, bytes, bytes]:
    """argv through ``command`` in a subprocess, run from ROOT with
    COLUMNS=80: its exit code, stdout and stderr, or None for the code when
    it gives no answer within ``seconds``."""
    env = {**os.environ, "COLUMNS": "80"}
    try:
        proc = subprocess.run([*command, *argv], capture_output=True, cwd=ROOT, env=env, timeout=seconds)
    except subprocess.TimeoutExpired:
        return None, b"", b""
    return proc.returncode, proc.stdout, proc.stderr


def outcomes(runner, argvs: list[list[str]]) -> list[tuple]:
    """``runner(argv)`` for each argv, in the order of ``argvs``, over a
    pool of spawned workers, one per CPU this process may run on (a
    container may pin it to fewer than the host has); or here, one after
    another, when it may use only one.  A spawned worker takes this
    process's sys.path, working directory and environment."""
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if workers == 1:
        return list(map(runner, argvs))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(runner, argvs))


def reports(docs: list[dict], results: list[tuple]) -> tuple[list[str], str]:
    """The report on each stored call that differs from its result, in
    stored order, then one on calls() if it raises or no longer draws the
    stored argvs; and the line "N of M calls differ".  calls() draws some
    argvs through the library, so it runs last: a library fault is still
    reported call by call."""
    found = [report for doc, result in zip(docs, results) if (report := differs(doc, *result))]
    count_line = f"{len(found)} of {len(docs)} calls differ"
    try:
        drawn = calls()
    except Exception:
        return [*found, f"calls() raised:\n{traceback.format_exc()}"], count_line
    # calls() edited but never regenerated, or a library change to an argv
    stored = [doc["argv"] for doc in docs]
    if lines := [i for i, (a, b) in enumerate(zip_longest(stored, drawn), 1) if a != b]:
        found.append(
            f"calls() no longer draws the stored argvs: {len(lines)} lines differ, the first {lines[0]}"
        )
    return found, count_line


def replay(command: list[str]) -> int:
    """Run each stored argv through ``command``, print the reports on stderr
    and the count on stdout; 1 if anything differs or ``command`` is empty
    or cannot run."""
    if not command:
        print("--replay needs a command to run the calls through", file=sys.stderr)
        return 1
    docs = load()
    try:
        results = outcomes(partial(through, command, TIMEOUT), [doc["argv"] for doc in docs])
    except OSError as exc:  # no such command, or not executable
        print(f"cannot run {shlex.join(command)}: {exc}", file=sys.stderr)
        return 1
    found, count_line = reports(docs, results)
    for report in found:
        print(report, file=sys.stderr)
    print(count_line)
    return 1 if found else 0


def write() -> int:
    """Run every call, then write the file.  If any call raised, name each
    with its traceback, leave the file as it was and return 1."""
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    argvs = calls()
    docs, raised = [], 0
    for argv, (code, out, err) in zip(argvs, outcomes(run, argvs)):
        if isinstance(code, str):
            raised += 1
            print(f"{code}: {argv_text(argv)}\n{err.decode()}", file=sys.stderr)
        docs.append(entry(argv, code, out, err))
    if raised:
        print(f"{raised} of {len(docs)} calls raised; {CORPUS} is unchanged", file=sys.stderr)
        return 1
    with open(CORPUS, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(doc) + "\n" for doc in docs)
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--replay", metavar="COMMAND", help=(
        "replay the calls through COMMAND, run from the repository root, instead of writing them"))
    args = parser.parse_args(argv)
    return write() if args.replay is None else replay(shlex.split(args.replay))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
