"""Write tests/corpus/calls.jsonl: the command line's exact bytes on a fixed
set of calls, so a change that means to keep them can prove it did.

Each line is one call of ``conicpoints.cli.main`` with ``COLUMNS=80``
(argparse wraps its help to the terminal): the argv, the exit code and the
SHA-256 of stdout and of stderr, with the text itself when it is under
1 KB.  ``differs`` is the one comparison of a call with its line: the exit
code, each stream's hash and, where the text is stored, a unified diff.
tests/test_corpus.py replays every line in process through it, and
``--replay`` runs every argv through a command in a subprocess, each with
30 s to answer.  From the root of the repository:

    PYTHONPATH=src python tests/corpus/make.py            # regenerate
    python tests/corpus/make.py --replay conicpoints      # replay through
                                                          # a console script

Either replay reports every differing call the same way, then their
count; ``--replay`` exits 1 if any differs or times out.  The calls come
from fixed lists and seeds, so the file changes only when the bytes do.
Left out: the root --help, whose subcommand column Python 3.13 lays out
differently from 3.10-3.12; exit 3, which needs a tampered solver; and
--input on a file that exists, whose messages name a temporary path.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from conicpoints import power_of_two_conic, random_valid_conic
from conicpoints.cli import main

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "calls.jsonl"
OVERCAP = HERE.parents[1] / "bench" / "overcap.json"
# stdout and stderr are kept in full below this many UTF-8 bytes
TEXT_LIMIT = 1024
# seconds a --replay call may take: far above what any call needs, so a
# hang is reported, not waited on
TIMEOUT = 30
# a report names a longer argument by its size
ARG_LIMIT = 80

GOLDEN = ["2", "-5", "2", "-1", "1", "-1"]
LINES = ["1", "0", "-1", "0", "0", "0"]  # x^2 = y^2
PSI13 = 3317044064679887385961981


def run(argv: list[str]) -> tuple[int, bytes, bytes]:
    """main(argv) in process: the exit code and the UTF-8 bytes of stdout
    and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def entry(argv: list[str], code: int, out: bytes, err: bytes) -> dict:
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


def differs(doc: dict, code: int, out: bytes, err: bytes) -> str | None:
    """What differs between a stored call and a replay of it, headed by its
    argv, or None when the exit code and both streams' hashes match."""
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
        # (3x + 3y + 1)(3x - 3y + 2): neither line holds a lattice point
        ["solve", "--format", "json", "9", "0", "-9", "9", "3", "2"],
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
    ]
    # digits20/4 among them: ECM splits off a 15-digit prime
    with open(OVERCAP, encoding="utf-8") as fh:
        overcap = [[item["command"], *item["args"]] for item in json.load(fh)["items"]]
    # x^2 = y^2 once more: the oracle scans a line pair's rows with its
    # exact linear identity and prints both diagonals, and solve --check
    # refuses it without --bound (exit 4: no finite box)
    lines = [["oracle", "--bound", "3", *LINES], ["solve", "--check", *LINES]]
    seen, ordered = set(), []
    for argv in readme + helps + solves + checks + families + errors + overcap + lines:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            ordered.append(argv)
    return ordered


def load() -> list[dict]:
    with open(CORPUS, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def replay(command: list[str]) -> int:
    """Run each entry's argv through ``command`` in a subprocess, report
    each call that differs or gives no answer within TIMEOUT seconds, and
    return 1 if any did."""
    env = {**os.environ, "COLUMNS": "80"}
    docs = load()
    bad = 0
    for doc in docs:
        try:
            proc = subprocess.run(
                [*command, *doc["argv"]], capture_output=True, env=env, timeout=TIMEOUT
            )
            report = differs(doc, proc.returncode, proc.stdout, proc.stderr)
        except subprocess.TimeoutExpired:
            report = f"differs: {argv_text(doc['argv'])}\nno answer within {TIMEOUT} s"
        if report is not None:
            bad += 1
            print(report, file=sys.stderr)
    print(f"{bad} of {len(docs)} calls differ")
    return 1 if bad else 0


def write() -> None:
    os.environ["COLUMNS"] = "80"
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for argv in calls():
            fh.write(json.dumps(entry(argv, *run(argv))) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--replay", metavar="COMMAND", help="replay the calls through COMMAND instead of writing them"
    )
    args = parser.parse_args()
    sys.exit(replay(shlex.split(args.replay)) if args.replay else write())
