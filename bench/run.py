"""The conicpoints benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cli_small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  Load comes from this one process: a single client in a closed
loop calls ``conicpoints.cli.main([...])`` in process with stdout
captured, waits for the answer, and checks it against a reference (see
reference.py) before the next call.  No worker threads or processes are
used; the only child process is the cold start that measures setup_s,
launched one at a time.

Workloads (workloads.py): cli_small, big_target, check_small.  A run
replays whole passes of the workload's inputs until --seconds have gone,
then big_target also answers its untimed over-cap slice once.

--trace 0 prints the end-to-end metrics, measured with tracing off; call
times are the thread's CPU time scaled to a reference speed (speed.py).
--trace 1 alternates untraced and traced passes over the same inputs and
prints the per-layer metrics (tracing.py) with trace.overhead_share, the
extra time of a traced pass over an untraced one; it writes the spans to
bench/out/.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object with keys correct, attempted, failed and metrics.  Its
``failed`` counts operations that failed other than as a known defect of
the over-cap slice; every failure, known ones included, is listed by input
and counted in the failed_share line and in correct_share.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Cold starts per run; setup_s is their median.
SETUP_RUNS = 9
SETUP_ARGV = ("solve", "--format", "json", "2", "-5", "2", "-1", "1", "-1")
# Calls made before timing starts, so imports and caches are warm.
WARMUP_OPS = 5
# A latency tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "conics_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "correct_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_program():
    """conicpoints.cli from this checkout's src/, or exit 2 when it is missing."""
    if not (SRC / "conicpoints" / "cli.py").is_file():
        print(f"error: no conicpoints package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import conicpoints.cli

    if Path(conicpoints.cli.__file__).resolve().parent != SRC / "conicpoints":
        print(f"error: conicpoints imported from {conicpoints.cli.__file__}", file=sys.stderr)
        sys.exit(2)
    return conicpoints.cli


class Tally:
    """Operations attempted and failed, with failures listed by input."""

    def __init__(self) -> None:
        self.attempted = 0
        self.inputs: set[str] = set()
        self.failures: Counter = Counter()  # (op id, reason, known) -> count

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def unexpected(self) -> int:
        return sum(n for (_, _, known), n in self.failures.items() if not known)

    @property
    def correct_share(self) -> float:
        """Share of the distinct inputs that never failed."""
        return 1 - len({op_id for op_id, _, _ in self.failures}) / len(self.inputs)

    def record(self, op_id: str, reason: str | None, known: bool = False) -> bool:
        self.attempted += 1
        self.inputs.add(op_id)
        if reason is not None:
            self.failures[(op_id, reason, known)] += 1
        return reason is None


def is_known_failure(op, code, out: str) -> bool:
    """True when ``op`` failed exactly as the seed commit fails on it."""
    known = op.known
    if known is None or code != known["exit"]:
        return False
    try:
        doc = json.loads(out)
    except ValueError:
        return False
    if code:
        return doc.get("error", {}).get("code") == known["error"]
    return doc.get("points") == known["points"]


def call(cli, argv) -> tuple[float, float, object, str]:
    """One in-process CLI call: (CPU seconds, wall seconds, exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a failed run
            code = f"raised {type(exc).__name__}"
        cpu, wall = time.thread_time() - cpu_start, time.perf_counter() - start
    return cpu, wall, code, out.getvalue()


def run_pass(cli, ops, tally: Tally, tracer=None, clock=None) -> tuple[list[tuple[float, float, float]], int]:
    """Answer each op once: (CPU seconds, wall seconds, wall start) per call, and how many were correct."""
    calls, correct = [], 0
    for op in ops:
        if clock is not None:
            clock.tick()
        start = time.perf_counter()
        if tracer is None:
            cpu, wall, code, out = call(cli, op.argv)
        else:
            tracer.op = op.id
            span = tracer.open("cli.main")
            cpu, wall, code, out = call(cli, op.argv)
            tracer.close(span)
        calls.append((cpu, wall, start))
        reason = reference.check(out, code, op.expected)
        correct += tally.record(op.id, reason, reason is not None and is_known_failure(op, code, out))
    return calls, correct


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    i = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def setup_times(tally: Tally) -> list[tuple[float, float]]:
    """Cold starts, one at a time: (`python -m conicpoints solve` seconds, bare `python -c pass` seconds)."""
    golden = reference.finite_doc(
        reference.oracle_points((2, -5, 2, -1, 1, -1)), reference.invariants((2, -5, 2, -1, 1, -1))
    )
    env = {k: v for k, v in os.environ.items() if k not in ("CONIC_DIVISOR_CAP", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)

    def cold(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        return time.perf_counter() - start, proc

    times = []
    for _ in range(SETUP_RUNS):
        bare, _ = cold([sys.executable, "-c", "pass"])
        seconds, proc = cold([sys.executable, "-m", "conicpoints", *SETUP_ARGV])
        times.append((seconds, bare))
        tally.record("setup/cold-start", reference.check(proc.stdout, proc.returncode, golden))
    return times


def end_to_end(cli, ops, untimed, seconds: float, tally: Tally, clock) -> dict[str, float]:
    calls, correct, passes = [], 0, 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        pass_calls, ok = run_pass(cli, ops, tally, clock=clock)
        calls += pass_calls
        correct += ok
        passes += 1
    run_pass(cli, untimed, tally)
    setup = setup_times(tally)
    raw = [wall for _, wall, _ in calls]
    latencies = [clock.scaled(cpu, at, wall) for cpu, wall, at in calls]
    tail_ms, tail_pct = tail(latencies)
    print(f"passes: {passes} of {len(ops)} inputs; timed calls: {len(latencies)}")
    print(f"latency_tail_ms is p{tail_pct:.2f} of {len(latencies)} samples ({TAIL_BEYOND} beyond)")
    print(f"reference loop: {len(clock.samples)} samples, median {statistics.median(clock.samples) * 1e3:.4f} ms "
          f"(nominal {clock.nominal * 1e3:.4f} ms)")
    print(f"raw wall times, unscaled: conics_per_s {correct / sum(raw):.6g}, latency_p50_ms {1e3 * statistics.median(raw):.6g}, "
          f"latency_tail_ms {1e3 * tail(raw)[0]:.6g}, setup_s {statistics.median(s for s, _ in setup):.6g}, "
          f"bare start {statistics.median(b for _, b in setup):.6g} s")
    return {
        "conics_per_s": correct / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_ms,
        "correct_share": tally.correct_share,
        "setup_s": speed.BARE_START_S * statistics.median(s / b for s, b in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(cli, ops, untimed, seconds: float, tally: Tally, spans_path: Path) -> dict[str, float]:
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(sum(cpu for cpu, _, _ in run_pass(cli, ops, tally)[0]))
        tracer.pass_no = len(traced)
        with tracing.installed(tracer):
            traced.append(sum(cpu for cpu, _, _ in run_pass(cli, ops, tally, tracer)[0]))
    tracer.pass_no = "untimed"
    with tracing.installed(tracer):
        run_pass(cli, untimed, tally, tracer)
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans, len(traced))
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    main_s = metrics["cli.main_s"]
    shares = {
        name: metrics[name] / main_s
        for name in ("cli.build_parser_s", "cli.self_s", "conic.validate_s", "conic.factor_s",
                     "intmath.divisors_s", "solver.enumerate_self_s", "solver.degenerate_s",
                     "oracle.brute_force_s", "oracle.bound_s")
    }
    print("share of cli.main_s: " + ", ".join(
        f"{name} {share:.1%}" for name, share in sorted(shares.items(), key=lambda kv: -kv[1])))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli_small", "big_target", "check_small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    os.environ.pop("CONIC_DIVISOR_CAP", None)
    ops, untimed = workloads.build(args.workload, args.seed)
    # The inputs and their references live for the whole run; keep them out
    # of the collector's scans so its pauses reflect the program's objects.
    gc.freeze()
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    print(f"workload: {args.workload}: {why[args.workload]}")
    print(f"seed: {args.seed}; python {platform.python_version()}; nproc {os.cpu_count()}; "
          "load: one process, one client, closed loop")
    tally = Tally()
    for op in ops[:WARMUP_OPS]:
        call(cli, op.argv)

    if args.trace:
        spans_path = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        metrics = per_layer(cli, ops, untimed, args.seconds, tally, spans_path)
        units = tracing.UNITS
    else:
        metrics = end_to_end(cli, ops, untimed, args.seconds, tally, speed.ReferenceClock(args.workload))
        units = END_TO_END_UNITS

    for (op_id, reason, known), n in sorted(tally.failures.items()):
        print(f"failed: {op_id}: {reason}{' (known defect)' if known else ''} x{n}")
    print(f"failed_share: {tally.failed / tally.attempted:.6f} ({tally.failed} of {tally.attempted}; "
          f"{tally.failed - tally.unexpected} known defects, {tally.unexpected} other)")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        # Known defects are reported above and in correct_share; an op
        # that fails in any other way counts here.
        "failed": tally.unexpected,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
