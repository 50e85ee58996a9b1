"""Write overcap.json, the committed over-cap slice of the big_target workload.

    python3 bench/make_overcap.py

The slice holds inputs past the solver's reach at the seed commit, with
factorizations found here so that their answers can be checked whenever
the program learns to give them:

- sumform 1 1 -psi_12.  psi_12 = 399165290221 * 798330580441 is a strong
  pseudoprime to the twelve Miller-Rabin bases 2..37 (Sorenson & Webster
  2015), so the closed form for an odd prime answers it with 4 of its 8
  points.
- 20 admissible conics with alpha = 1 and every other coefficient 20
  digits, drawn from random.Random(1).  Each has a planted integral point,
  which splits its reduced target T into the two values the reduced forms
  take there; a draw is kept only when both halves factor completely with
  Brent's rho under a fixed step budget, because the reference answer
  needs the factorization of T.  At the seed commit each one fails with
  divisor-limit.

The seed outcome of each input is recorded by running the CLI in process;
the benchmark counts an input as a known failure only while it still fails
in exactly that way.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import nt  # noqa: E402
import reference  # noqa: E402

PSI_12 = 318665857834031151167461
PSI_12_FACTORS = {399165290221: 1, 798330580441: 1}
CONICS = 20
RHO_STEPS = 200_000


def _rho(n: int, c: int) -> int | None:
    """A nontrivial factor of composite n by Brent's cycle finding, or None."""
    y, r, q, g, x, ys = 2, 1, 1, 1, 2, 2
    steps = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += 128
        r *= 2
        steps += r
        if steps > RHO_STEPS:
            return None
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
    return g if g != n else None


def factor(n: int) -> Counter | None:
    """Complete factorization of n > 0 within the step budget, or None."""
    found: Counter = Counter()
    for p in range(2, 10_000):
        while n % p == 0:
            found[p] += 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if nt.is_prime(m):
            found[m] += 1
            continue
        d = next((d for c in (1, 3, 5) if (d := _rho(m, c))), None)
        if d is None:
            return None
        stack += [d, m // d]
    return found


def _twenty(rng: random.Random) -> int:
    return rng.choice([-1, 1]) * rng.randrange(10**19, 10**20)


def twenty_digit_conics() -> list[tuple[tuple[int, ...], Counter]]:
    rng = random.Random(1)
    kept = []
    while len(kept) < CONICS:
        t = rng.randint(1, 9)
        beta = rng.choice([-1, 1]) * rng.randrange(10**19, 10**20 // t)
        gamma = t * (abs(beta) - t)  # k = |beta| - 2t
        delta, epsilon = _twenty(rng), _twenty(rng)
        x0, y0 = rng.randint(-3, 3), rng.randint(-3, 3)
        j = -(x0 * x0 + beta * x0 * y0 + gamma * y0 * y0 + delta * x0 + epsilon * y0)
        if not 10**19 <= abs(j) < 10**20:
            continue
        c = (1, beta, gamma, delta, epsilon, j)
        inv = reference.invariants(c)
        f1, f2 = reference.forms(c, inv)
        g1 = sum(a * v for a, v in zip(f1, (x0, y0, 1))) // math.gcd(*f1)
        g2 = sum(a * v for a, v in zip(f2, (x0, y0, 1))) // math.gcd(*f2)
        assert g1 * g2 == reference.reduced_target(c)
        halves = [factor(abs(g1)), factor(abs(g2))]
        print(f"draw {c}: {'kept' if None not in halves else 'not factored'}", file=sys.stderr)
        if None not in halves:
            kept.append((c, halves[0] + halves[1]))
    return kept


def seed_outcome(argv: list[str]) -> dict:
    from conicpoints.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    doc = json.loads(out.getvalue())
    if code != 0:
        return {"exit": code, "error": doc["error"]["code"]}
    return {"exit": code, "points": doc["points"]}


def main() -> None:
    items = []
    args = ["1", "1", str(-PSI_12)]
    items.append({
        "id": "big_target/overcap/psi12",
        "command": "sumform",
        "args": args,
        "factors": [[str(p), e] for p, e in PSI_12_FACTORS.items()],
        "seed_outcome": seed_outcome(["sumform", "--format", "json", *args]),
    })
    for i, (c, factors) in enumerate(twenty_digit_conics()):
        args = [str(v) for v in c]
        items.append({
            "id": f"big_target/overcap/digits20/{i}",
            "command": "solve",
            "args": args,
            "factors": [[str(p), e] for p, e in sorted(factors.items())],
            "seed_outcome": seed_outcome(["solve", "--format", "json", *args]),
        })
    lines = ",\n".join("  " + json.dumps(item) for item in items)
    (HERE / "overcap.json").write_text(f'{{"generator": "bench/make_overcap.py", "items": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
