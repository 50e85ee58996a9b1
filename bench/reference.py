"""Reference answers and the correctness gate.

Every answer the program prints is compared with a reference that the
solver route under test did not produce:

- the package's brute-force oracle, where its box is small enough to scan;
- otherwise the points rebuilt here from a known factorization of the
  content-reduced target (the benchmark makes its large targets from primes
  it chose, and the over-cap slice carries committed factorizations);
- for a degenerate conic, the two line components of the conic, against
  which the printed lines and their integer parametrizations are checked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import nt

# Oracle rows scanned per reference at most; beyond this the reference is
# rebuilt from the factorization of the target instead.
ORACLE_ROWS = 20_000


@dataclass(frozen=True)
class Invariants:
    k: int
    big_i: int
    delta_q: int
    m: int

    def doc(self) -> dict:
        return {"k": str(self.k), "i": str(self.big_i), "delta_q": str(self.delta_q), "m": str(self.m)}


def invariants(c: tuple[int, ...]) -> Invariants:
    alpha, beta, gamma, delta, epsilon, j = c
    k2 = beta * beta - 4 * alpha * gamma
    k = math.isqrt(k2)
    if k < 1 or k * k != k2 or alpha == 0 or gamma == 0:
        raise ValueError(f"not an admissible conic: {c}")
    m = 2 * alpha * epsilon - beta * delta
    delta_q = delta * delta - 4 * alpha * j
    return Invariants(k, k2 * delta_q - m * m, delta_q, m)


def evaluate(c: tuple[int, ...], x: int, y: int) -> int:
    alpha, beta, gamma, delta, epsilon, j = c
    return alpha * x * x + beta * x * y + gamma * y * y + delta * x + epsilon * y + j


def forms(c: tuple[int, ...], inv: Invariants) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """F1, F2 as (cx, cy, c0) with F1*F2 - I = 4*alpha*k^2 * (left side)."""
    alpha, beta, _, delta, _, _ = c
    k, m = inv.k, inv.m
    return (
        (2 * alpha * k, k * (beta - k), delta * k + m),
        (2 * alpha * k, k * (beta + k), delta * k - m),
    )


def reduced_target(c: tuple[int, ...]) -> int | None:
    """I / (content(F1) * content(F2)), or None when that is not an integer."""
    inv = invariants(c)
    f1, f2 = forms(c, inv)
    prod = math.gcd(*f1) * math.gcd(*f2)
    return None if inv.big_i % prod else inv.big_i // prod


def points_from_factorization(c: tuple[int, ...], factors: dict[int, int] | None) -> list[tuple[int, int]]:
    """All integral points of a finite conic from the factorization of its reduced target.

    Every point gives reduced forms g1, g2 whose values multiply to the
    reduced target T, so it is the exact solution of g1 = s, g2 = T/s for a
    signed divisor s of T.
    """
    inv = invariants(c)
    f1, f2 = forms(c, inv)
    c1, c2 = math.gcd(*f1), math.gcd(*f2)
    if inv.big_i % (c1 * c2):
        return []
    target = inv.big_i // (c1 * c2)
    if factors is None:
        factors = nt.trial_factor(target)
    if nt.product(factors) != abs(target) or not all(nt.is_prime(p) for p in factors):
        raise ValueError(f"factorization does not match the target {target}")
    (a1, b1, r1), (a2, b2, r2) = (tuple(v // c1 for v in f1), tuple(v // c2 for v in f2))
    det = a1 * b2 - a2 * b1
    points = set()
    for d in nt.divisors(factors):
        for s in (d, -d):
            u, v = s - r1, target // s - r2
            nx, ny = u * b2 - v * b1, a1 * v - a2 * u
            if nx % det == 0 and ny % det == 0:
                points.add((nx // det, ny // det))
    if any(evaluate(c, x, y) for x, y in points):
        raise ValueError(f"reference point off the conic {c}")
    return sorted(points)


def oracle_rows(c: tuple[int, ...]) -> int:
    from conicpoints import solution_bound, validate

    conic, inv = validate(*c)
    return 2 * solution_bound(conic, inv).by + 1


def oracle_points(c: tuple[int, ...]) -> list[tuple[int, int]]:
    from conicpoints import brute_force, solution_bound, validate

    conic, inv = validate(*c)
    return [tuple(p) for p in brute_force(conic, solution_bound(conic, inv))]


def finite_points(c: tuple[int, ...], factors: dict[int, int] | None = None) -> list[tuple[int, int]]:
    """Reference points: the oracle when it can reach the conic, else the factorization."""
    if factors is None and oracle_rows(c) <= ORACLE_ROWS:
        return oracle_points(c)
    return points_from_factorization(c, factors)


def sumform_points(l: int, m: int, c: int, factors: dict[int, int]) -> list[tuple[int, int]]:
    """Integral (x, y) with (l*x - m*y)*(l*x + m*y) = c, from the factorization of c."""
    if nt.product(factors) != abs(c):
        raise ValueError(f"factorization does not match {c}")
    points = set()
    for d in nt.divisors(factors):
        for s in (d, -d):
            e = c // s
            if (s + e) % 2 == 0 and (s + e) // 2 % l == 0 and (e - s) // 2 % m == 0:
                points.add(((s + e) // 2 // l, (e - s) // 2 // m))
    return sorted(points)


def finite_doc(points: list[tuple[int, int]], inv: Invariants) -> dict:
    """The JSON document `solve --format json` prints for a finite conic."""
    return {
        "kind": "finite",
        "points": [[str(x), str(y)] for x, y in points],
        "invariants": inv.doc(),
    }


def _normal_line(a: int, b: int, c: int) -> tuple[int, int, int]:
    g = math.gcd(math.gcd(a, b), c)
    a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return a, b, c


def line_components(c: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """The two lines a*x + b*y = c of a degenerate conic, normalized, sorted."""
    inv = invariants(c)
    if inv.big_i != 0:
        raise ValueError(f"not degenerate: {c}")
    return sorted(_normal_line(cx, cy, -c0) for cx, cy, c0 in forms(c, inv))


def check_lines(doc: dict, c: tuple[int, ...]) -> str | None:
    """None when ``doc`` is a correct `solve --format json` answer for the degenerate conic."""
    if doc.get("kind") != "lines" or doc.get("invariants") != invariants(c).doc():
        return "wrong kind or invariants"
    lines = doc.get("lines", [])
    try:
        got = sorted(_normal_line(int(line["a"]), int(line["b"]), int(line["c"])) for line in lines)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return "malformed line"
    if got != line_components(c):
        return "lines are not the components of the conic"
    for line in lines:
        a, b, cc = int(line["a"]), int(line["b"]), int(line["c"])
        g = math.gcd(a, b)
        dx, dy = (int(v) for v in line["dir"])
        if (dx, dy) not in ((b // g, -a // g), (-b // g, a // g)):
            return "wrong line direction"
        if line["solvable"] != (cc % g == 0):
            return "wrong solvability"
        if line["solvable"]:
            x0, y0 = (int(v) for v in line["base"])
            if a * x0 + b * y0 != cc:
                return "base point off its line"
    return None


def check(doc_text: str, code, expected) -> str | None:
    """None when an answer is correct, else the reason it is not.

    ``expected`` is either the exact document (finite answers) or the
    coefficient tuple of a degenerate conic.
    """
    if code != 0:
        return f"exit {code}"
    try:
        doc = json.loads(doc_text)
    except ValueError:
        return "output is not JSON"
    if isinstance(expected, tuple):
        return check_lines(doc, expected)
    if doc != expected:
        return "wrong answer"
    return None
