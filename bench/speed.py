"""Machine speed measured alongside the workload.

The 2-vCPU machine this benchmark was written on shares its cores: the
same code runs up to half again slower for seconds or minutes at a time,
which moved raw per-run medians by 20-45% between runs.  Each run therefore
times a fixed reference loop (code the program never runs, shaped like the
workload's hot path) between calls, about every 10 ms, and
reports each call's time scaled to the speed at which that loop takes its
nominal time, judged by the samples taken within 10 ms of the call.
Call and loop times are CPU time of the benchmark's thread
(time.thread_time): the closed loop does no I/O, so this is wall time less
the moments the kernel ran something else, which on a shared machine put
spikes of tens of milliseconds into single calls.
setup_s is scaled the same way by cold starts of a bare interpreter made
alternately with the program's.  Raw times are printed beside the scaled
ones.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import statistics
import time


def _argparse_loop() -> None:
    parser = argparse.ArgumentParser(prog="ref")
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("solve")
    p.add_argument("values", nargs="*", type=int)
    p.add_argument("--format", choices=("text", "json"))
    parser.parse_args(["solve", "1", "-2", "--format", "json"])
    json.dumps({"points": [[str(i), str(-i)] for i in range(10)]}, indent=2, sort_keys=True)


def _division_loop() -> None:
    # The last 2300 steps of trial division of a number near 2^46.
    n, d = 70368744177689, 8_386_300
    while d * d <= n:
        if n % d == 0:
            n += 1
        d += 1


def _isqrt_loop() -> None:
    for y in range(1500):
        v = 4 * y * y + 7 * y + 12345678901
        r = math.isqrt(v)
        if r * r == v:
            break


def _check_loop() -> None:
    _argparse_loop()
    _isqrt_loop()


# Reference loop per workload, mixed like the workload's own time (CLI
# overhead, trial division, oracle rows), and the loop's nominal time in
# seconds: about its median on the 2-vCPU machine the benchmark was
# written on.
LOOPS = {
    "cli_small": (_argparse_loop, 0.38e-3),
    "big_target": (_division_loop, 0.27e-3),
    "check_small": (_check_loop, 0.8e-3),
}
# Seconds between two samples of the reference loop, the most samples taken
# at once, and how far before and after a call the samples that scale it
# lie.  The window is short because slow spells as brief as a few
# milliseconds put single calls into the latency tail.
SAMPLE_EVERY = 0.01
MAX_RUNS = 20
WINDOW = 0.01
# Nominal cold start of a bare interpreter (`python -c pass`), the reference
# for setup_s.
BARE_START_S = 0.057


class ReferenceClock:
    """Samples a workload's reference loop between calls and scales call times by it."""

    def __init__(self, workload: str) -> None:
        self.loop, self.nominal = LOOPS[workload]
        self.starts: list[float] = []
        self.samples: list[float] = []
        for _ in range(20):
            self.loop()

    def tick(self) -> None:
        """Sample the loop once per SAMPLE_EVERY seconds passed since the last sample.

        After a long call the loop runs several times, up to MAX_RUNS, so a
        long call is judged by as many samples as a run of short ones.
        """
        now = time.perf_counter()
        due = (now - self.starts[-1]) / SAMPLE_EVERY if self.starts else 1
        for _ in range(min(int(due), MAX_RUNS)):
            start, cpu_start = time.perf_counter(), time.thread_time()
            self.loop()
            self.starts.append(start)
            self.samples.append(time.thread_time() - cpu_start)

    def scaled(self, cpu: float, start: float, wall: float) -> float:
        """A call's CPU time at nominal speed, by the median sample within WINDOW of the call."""
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, start + wall + WINDOW)
        return cpu * self.nominal / statistics.median(self.samples[lo:hi])
