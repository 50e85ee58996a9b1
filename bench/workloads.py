"""Seeded inputs for the three workloads, each with its reference answer.

A workload is one pass: a list of CLI argument vectors that the benchmark
replays, whole pass after whole pass, for the length of a run.  The seed
picks the individual conics; the shape of a pass (how many inputs of each
size class) is fixed, so passes built from different seeds cost about the
same and runs on different seeds can be compared.
"""

from __future__ import annotations

import bisect
import json
import random
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import nt
import reference

HERE = Path(__file__).resolve().parent

# cli_small: conics per pass, matched to a size profile among this many
# seeded draws per half (reduced and --no-reduce).
CLI_SMALL_POOL = 512
CLI_SMALL_DRAWS = 8192
# check_small: finite conics per oracle-box class r, whose box has just over
# 2^r rows (2*by + 1).  The single conic of the top class is the latency
# tail: about twenty calls per run, so the tail sits mid-way through them.
CHECK_ROW_CLASSES = {r: 16 for r in range(5, 14)} | {14: 8, 15: 4, 16: 1}
CHECK_LINE_PAIRS = 32
CHECK_SMALL_MAX_I = 10**5
# A row class accepts conics scanning between R and R*(1 + this) rows.
CHECK_ROW_SLACK = 0.04


@dataclass(frozen=True)
class Op:
    """One CLI call and what a correct answer looks like.

    ``expected`` is the exact JSON document of a finite answer, or the
    coefficient tuple of a degenerate conic (checked by its line
    components).  ``known`` is set on the over-cap slice: the failure the
    program is known to give there, see overcap.json.
    """

    id: str
    argv: tuple[str, ...]
    expected: object
    known: dict | None = None


def _coeffs(conic) -> tuple[int, ...]:
    return (conic.alpha, conic.beta, conic.gamma, conic.delta, conic.epsilon, conic.j)


def _solve_op(op_id: str, c: tuple[int, ...], flags: tuple[str, ...] = (), factors=None) -> Op:
    inv = reference.invariants(c)
    if inv.big_i == 0:
        expected = c
    else:
        expected = reference.finite_doc(reference.finite_points(c, factors), inv)
    return Op(op_id, ("solve", *flags, "--format", "json", *map(str, c)), expected)


def _matched(draws: list[tuple[int, ...]], key, targets: list[int]) -> list[tuple[int, ...]]:
    """One distinct draw per target, each with the key nearest to the target's."""
    ranked = sorted(draws, key=key)
    keys = [key(c) for c in ranked]
    picks, prev = [], -1
    for target in sorted(targets):
        j = min(max(bisect.bisect_left(keys, target), prev + 1), len(keys) - 1)
        if j - 1 > prev and target - keys[j - 1] < keys[j] - target:
            j -= 1
        picks.append(ranked[j])
        prev = j
    return picks


def _enumerated(c: tuple[int, ...], reduce: bool) -> int:
    """The number whose divisors `solve` enumerates (0 when it enumerates none)."""
    inv = reference.invariants(c)
    if inv.big_i == 0:
        return 0
    return abs(inv.big_i) if not reduce else abs(reference.reduced_target(c) or 0)


def _pool_half(rng: random.Random, reduce: bool, count: int) -> list[tuple[int, ...]]:
    """``count`` seeded draws whose enumerated sizes follow a fixed profile.

    The profile is ``count`` evenly spaced quantiles of the enumerated size
    over a fixed sample of draws; each slot takes the seeded draw nearest to
    its quantile.  A pool's cost, its heaviest inputs included, then barely
    depends on the seed, while the conics themselves do.
    """
    from conicpoints import random_valid_conic

    def key(c: tuple[int, ...]) -> int:
        return _enumerated(c, reduce)

    def draws(r: random.Random) -> list[tuple[int, ...]]:
        return [_coeffs(random_valid_conic(r.randrange(2**32))) for _ in range(CLI_SMALL_DRAWS)]

    profile = sorted(map(key, draws(random.Random(f"cli_small:profile:{reduce}"))))
    targets = [profile[(2 * i + 1) * len(profile) // (2 * count)] for i in range(count)]
    picks = _matched(draws(rng), key, targets)
    rng.shuffle(picks)
    return picks


def cli_small(seed: int) -> list[Op]:
    """CLI_SMALL_POOL conics; every fourth one is solved with --no-reduce."""
    rng = random.Random(f"cli_small:{seed}")
    quarter = CLI_SMALL_POOL // 4
    reduced = iter(_pool_half(rng, True, CLI_SMALL_POOL - quarter))
    unreduced = iter(_pool_half(rng, False, quarter))
    return [
        _solve_op(f"cli_small/{i}", next(unreduced), ("--no-reduce",))
        if i % 4 == 3
        else _solve_op(f"cli_small/{i}", next(reduced))
        for i in range(CLI_SMALL_POOL)
    ]


def _line_pair(rng: random.Random) -> tuple[int, ...]:
    """(a1*x + b1*y + c1)(a2*x + b2*y + c2) expanded: a degenerate admissible conic."""
    while True:
        a1, b1, a2, b2 = (rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(4))
        c1, c2 = rng.randint(-30, 30), rng.randint(-30, 30)
        if a1 * b2 != a2 * b1:
            return (a1 * a2, a1 * b2 + a2 * b1, b1 * b2, a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2)


def check_small(seed: int) -> list[Op]:
    from conicpoints import random_valid_conic, solution_bound, validate

    rng = random.Random(f"check_small:{seed}")
    flags = ("--check",)
    wanted = dict(CHECK_ROW_CLASSES)
    finite: dict[int, list[tuple[int, ...]]] = {r: [] for r in CHECK_ROW_CLASSES}
    homogeneous = []
    while any(wanted.values()) or len(homogeneous) < CHECK_LINE_PAIRS // 2:
        conic, inv = validate(*_coeffs(random_valid_conic(rng.randrange(2**32))))
        c = _coeffs(conic)
        if inv.big_i == 0:
            if len(homogeneous) < CHECK_LINE_PAIRS // 2:
                homogeneous.append(c)
            continue
        if abs(inv.big_i) > CHECK_SMALL_MAX_I:
            continue
        rows = 2 * solution_bound(conic, inv).by + 1
        for r in CHECK_ROW_CLASSES:
            if wanted[r] and 2**r <= rows <= 2**r * (1 + CHECK_ROW_SLACK):
                wanted[r] -= 1
                finite[r].append(c)
    ops = [
        _solve_op(f"check_small/rows2^{r}/{i}", c, flags)
        for r in CHECK_ROW_CLASSES
        for i, c in enumerate(finite[r])
    ]
    for i in range(CHECK_LINE_PAIRS):
        c = homogeneous[i // 2] if i % 2 == 0 else _line_pair(rng)
        bound = str(rng.randint(500, 1000))
        ops.append(_solve_op(f"check_small/lines/{i}", c, (*flags, "--bound", bound)))
    return ops


def target_conic(rng: random.Random, target: int) -> tuple[int, ...]:
    """A conic whose content-reduced target is exactly ``target``.

    alpha = 1 and gamma = (beta^2 - 1)/4 with beta odd give k = 1; both
    factor forms then have content 2, so the reduced target is I/4, and j
    is solved from I = 4*target.  Reduced forms have determinant 1, so every
    signed divisor of the target is a point.  With target = 2^(n-2) this is
    the power_of_two_conic family for invariant 2^n.
    """
    beta = rng.choice([-1, 1]) * rng.randrange(3, 100, 2)
    delta, epsilon = rng.randint(-50, 50), rng.randint(-50, 50)
    m = 2 * epsilon - beta * delta
    c = (1, beta, (beta * beta - 1) // 4, delta, epsilon, (delta * delta - m * m - 4 * target) // 4)
    assert reference.reduced_target(c) == target
    return c


# 963761198400, the highly composite target of the motivating profile:
# tau = 6720, so 13440 candidates and 13440 points.
HCN_FACTORS = {2: 6, 3: 4, 5: 2, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 1}


def _sumform_op(op_id: str, l: int, m: int, c: int, factors: dict[int, int]) -> Op:
    j = -c
    inv = reference.invariants((l * l, 0, -m * m, 0, 0, j))
    expected = reference.finite_doc(reference.sumform_points(l, m, c, factors), inv)
    return Op(op_id, ("sumform", "--format", "json", str(l), str(m), str(j)), expected)


def big_target(seed: int) -> list[Op]:
    """One pass: light and medium targets first, then three heavy ones near the cap."""
    rng = random.Random(f"big_target:{seed}")

    def prime(lo: int, hi: int) -> int:
        return nt.random_prime(rng, lo, hi)

    def semiprime(lo: int, hi: int) -> dict[int, int]:
        return Counter((prime(lo, hi), prime(lo, hi)))

    def solve_op(label: str, factors: dict[int, int]) -> Op:
        target = rng.choice([-1, 1]) * nt.product(factors)
        return _solve_op(f"big_target/{label}", target_conic(rng, target), factors=factors)

    # sumform x^2 - y^2 = -j: an odd prime far above the cap takes the
    # closed form; an odd composite goes through the general divisor solver.
    # Each size class is narrow, so a pass costs about the same on every
    # seed; the three heavy targets all sit near 7e13, where trial division
    # takes about a second.
    big = prime(10**17, 11 * 10**16)
    composite = Counter(prime(4000, 4050) for _ in range(3))
    return [
        solve_op("prime1e8", {prime(10**8, 11 * 10**7): 1}),
        solve_op("semiprime1e9", semiprime(31_623, 33_000)),
        solve_op("prime1e10", {prime(10**10, 11 * 10**9): 1}),
        solve_op("pow2_32", {2: 32}),
        solve_op("hcn", HCN_FACTORS),
        solve_op("prime1e12", {prime(10**12, 11 * 10**11): 1}),
        _sumform_op("big_target/sumform_prime", 1, 1, big, {big: 1}),
        _sumform_op("big_target/sumform_composite", 1, 1, nt.product(composite), composite),
        solve_op("prime7e13", {prime(68 * 10**12, 72 * 10**12): 1}),
        solve_op("semiprime7e13", semiprime(8_246_211, 8_485_281)),
        solve_op("pow2_46", {2: 46}),
    ]


def overcap() -> list[Op]:
    """The committed over-cap slice: inputs the program fails on at the seed."""
    doc = json.loads((HERE / "overcap.json").read_text())
    ops = []
    for item in doc["items"]:
        factors = {int(p): e for p, e in item["factors"]}
        if item["command"] == "sumform":
            l, m, j = (int(v) for v in item["args"])
            op = _sumform_op(item["id"], l, m, -j, factors)
        else:
            c = tuple(int(v) for v in item["args"])
            op = _solve_op(item["id"], c, factors=factors)
        ops.append(replace(op, known=item["seed_outcome"]))
    return ops


BUILDERS = {"cli_small": cli_small, "big_target": big_target, "check_small": check_small}


def build(name: str, seed: int) -> tuple[list[Op], list[Op]]:
    """The pass for ``name`` and its untimed slice (only big_target has one)."""
    return BUILDERS[name](seed), overcap() if name == "big_target" else []
