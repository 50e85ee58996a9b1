"""Spans around the package's layers, recorded from outside the package.

Span times are CPU time of the benchmark's thread, as for the calls.
The traced run replaces public functions at the module attribute where
their caller looks them up (``cli.solve``, ``solver.positive_divisors``,
...) with wrappers that record a span: name, start, end, parent span and
the id of the input being answered.  Nothing inside ``src/`` changes, and
no per-candidate function is wrapped, so the cost of tracing stays at a
few spans per CLI call.  Spans stay in memory and are written out once the
run is over.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or None, op id, pass, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: str | None = None
        self.pass_no: int | str | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.thread_time(), None, parent, self.op, self.pass_no, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.thread_time()
        span[6] = attrs
        self._stack.pop()

    def wrap(self, fn, name: str, note=None):
        """``fn`` recording a span; ``note(args, result)`` gives the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(index, {"error": type(exc).__name__})
                raise
            self.close(index, note(args, result) if note else None)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "pass", "attrs"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _reduce_note(args, result):
    if result is None:
        return None
    return {"big_i": abs(args[2]), "target": abs(result[2])}


# (module, attribute, span name, counts taken from the call)
TARGETS = (
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "validate", "conic.validate", None),
    ("cli", "solve", "solver.solve", None),
    ("cli", "solve_difference_of_squares", "solver.sumform", None),
    ("cli", "solution_bound", "oracle.bound", None),
    ("cli", "brute_force", "oracle.brute_force",
     lambda args, result: {"rows": 2 * args[1].by + 1, "found": len(result)}),
    ("solver", "solve_finite", "solver.solve_finite", lambda args, result: {"points": len(result)}),
    ("solver", "solve_degenerate", "solver.degenerate", None),
    ("solver", "factor_forms", "conic.factor_forms", None),
    ("solver", "content_reduce", "conic.content_reduce", _reduce_note),
    ("solver", "positive_divisors", "intmath.positive_divisors",
     lambda args, result: {"tau": len(result)}),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every function in TARGETS for the duration of the block."""
    import conicpoints.cli
    import conicpoints.solver

    modules = {"cli": conicpoints.cli, "solver": conicpoints.solver}
    saved = []
    try:
        for module, attr, name, note in TARGETS:
            fn = getattr(modules[module], attr)
            saved.append((modules[module], attr, fn))
            setattr(modules[module], attr, tracer.wrap(fn, name, note))
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


# Per-layer metrics and their units.  Times are seconds and counts are
# totals for one pass of the workload, plus the untimed slice once.
UNITS = {
    "cli.main_s": "s",
    "cli.build_parser_s": "s",
    "cli.self_s": "s",
    "conic.validate_s": "s",
    "conic.factor_s": "s",
    "conic.reduction_ratio": "ratio",
    "intmath.divisors_s": "s",
    "intmath.divisors_calls": "count",
    "intmath.tau_total": "count",
    "intmath.divisor_limit_count": "count",
    "solver.solve_s": "s",
    "solver.enumerate_self_s": "s",
    "solver.degenerate_s": "s",
    "solver.sumform_s": "s",
    "solver.candidates": "count",
    "solver.points": "count",
    "solver.hit_ratio": "ratio",
    "oracle.brute_force_s": "s",
    "oracle.bound_s": "s",
    "oracle.rows": "count",
    "oracle.rows_per_s": "1/s",
    "oracle.hit_ratio": "ratio",
    "trace.overhead_share": "ratio",
}


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics (all but trace.overhead_share).

    A span's self time is its duration minus that of its direct children;
    spans are sequential in one thread, so children never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _, pass_no, attrs) in enumerate(spans):
        weight = 1.0 if pass_no == "untimed" else 1.0 / passes
        total[name + ".time"] += weight * (end - start)
        total[name + ".self"] += weight * (end - start - child_time[i])
        total[name + ".calls"] += weight
        for key, value in (attrs or {}).items():
            if key == "error":
                total[f"{name}.{value}"] += weight
            else:
                total[f"{name}.{key}"] += weight * value

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    candidates = 2 * total["intmath.positive_divisors.tau"]
    return {
        "cli.main_s": total["cli.main.time"],
        "cli.build_parser_s": total["cli.build_parser.time"],
        "cli.self_s": total["cli.main.self"],
        "conic.validate_s": total["conic.validate.time"],
        "conic.factor_s": total["conic.factor_forms.time"] + total["conic.content_reduce.time"],
        "conic.reduction_ratio": ratio(total["conic.content_reduce.big_i"], total["conic.content_reduce.target"]),
        "intmath.divisors_s": total["intmath.positive_divisors.time"],
        "intmath.divisors_calls": total["intmath.positive_divisors.calls"],
        "intmath.tau_total": total["intmath.positive_divisors.tau"],
        "intmath.divisor_limit_count": total["intmath.positive_divisors.DivisorLimitExceeded"],
        "solver.solve_s": total["solver.solve.time"],
        "solver.enumerate_self_s": total["solver.solve_finite.self"],
        "solver.degenerate_s": total["solver.degenerate.time"],
        "solver.sumform_s": total["solver.sumform.time"],
        "solver.candidates": candidates,
        "solver.points": total["solver.solve_finite.points"],
        "solver.hit_ratio": ratio(total["solver.solve_finite.points"], candidates),
        "oracle.brute_force_s": total["oracle.brute_force.time"],
        "oracle.bound_s": total["oracle.bound.time"],
        "oracle.rows": total["oracle.brute_force.rows"],
        "oracle.rows_per_s": ratio(total["oracle.brute_force.rows"], total["oracle.brute_force.time"]),
        "oracle.hit_ratio": ratio(total["oracle.brute_force.found"], total["oracle.brute_force.rows"]),
    }
