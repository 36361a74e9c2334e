"""Closed-loop timing of a workload's ops and the statistics reported from it.

One client sends the next op only after the previous one returned.  The
first pass over the ops always completes, so every input is timed at least
once; later passes repeat the ops until the time budget is spent.  Each
op's latency is the median of its repeats, so the sample count of every
statistic is the number of distinct inputs, fixed by the workload and not
by how many repeats fitted into the budget.

Times are scaled by a yardstick.  On a shared machine the speed of a core
drifts: the same pass took 5.7 s in one run and 8.2 s in the next on a
2-vCPU host, and that swing would drown any change to the code.  The
yardstick is a fixed exact-rational computation that does not touch
freelip.  For ops that run in this process it runs every ``TICK_S`` from a
timer signal, so it also lands inside ops that last seconds.  For ops that
run in child processes it is itself a child process (interpreter start plus
the same arithmetic), run between ops at least every ``PROCESS_TICK_S``; a
yardstick in the parent would compete with the child for the core.  Each
stretch of work between two yardstick runs is scaled by the nominal
yardstick time over the median of the six measured runs around it, so
reported seconds are seconds on a machine where the yardstick takes its
nominal time.
Scaled, a 30-op loop varied by 2% from round to round where its raw time
varied by 11%.
"""

from __future__ import annotations

import math
import signal
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

NOMINAL_S = 0.001
TICK_S = 0.05
PROCESS_NOMINAL_S = 0.05
PROCESS_TICK_S = 0.25
SMOOTH = 3

clock = time.perf_counter

ARITHMETIC = """
from fractions import Fraction
acc = Fraction(0)
for i in range(1, {n}):
    acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(i % 3 + 1, i % 11 + 1)
"""
_IN_PROCESS = compile(ARITHMETIC.format(n=250), "<yardstick>", "exec")


def _yardstick() -> None:
    exec(_IN_PROCESS, {})


def _process_yardstick() -> None:
    subprocess.run([sys.executable, "-c", ARITHMETIC.format(n=1000)], check=True)


class SpeedClock:
    """Wall-clock intervals rescaled to the yardstick's nominal speed.

    ``in_process`` picks the yardstick for ops that run in this process;
    otherwise the process yardstick is used.
    """

    def __init__(self, in_process: bool = True):
        self.in_process = in_process
        self.nominal = NOMINAL_S if in_process else PROCESS_NOMINAL_S
        self.every = TICK_S if in_process else PROCESS_TICK_S
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._ref_cache: list[float] = []

    def tick(self) -> None:
        t0 = clock()
        (_yardstick if self.in_process else _process_yardstick)()
        self.starts.append(t0)
        self.ends.append(clock())

    def maybe_tick(self) -> None:
        if not self.ends or clock() - self.ends[-1] >= self.every:
            self.tick()

    @contextmanager
    def ticking(self):
        """Tick before and after the block, and from a timer inside it when in process."""
        self.tick()
        if self.in_process:
            previous = signal.signal(signal.SIGALRM, lambda *_: self.tick())
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            if self.in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.tick()

    def yardstick_s(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

    def _refs(self) -> list[float]:
        """Yardstick time for the stretch after each run: the median of the
        ``2 * SMOOTH`` runs around it, so one disturbed run does not count."""
        if len(self._ref_cache) != len(self.starts):
            times = [e - s for s, e in zip(self.starts, self.ends)]
            self._ref_cache = [
                statistics.median(times[max(0, k - SMOOTH + 1) : k + SMOOTH + 1])
                for k in range(len(times))
            ]
        return self._ref_cache

    def scaled(self, a: float, b: float) -> float:
        """Nominal-speed seconds of the work done in [a, b], yardstick runs excluded."""
        refs = self._refs()
        total = 0.0
        k = max(bisect_right(self.ends, a) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < b:
            lo, hi = max(a, self.ends[k]), min(b, self.starts[k + 1])
            if hi > lo:
                total += (hi - lo) * self.nominal / refs[k]
            k += 1
        return total


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]


@dataclass
class Timing:
    """Per-op scaled latency samples and the output of each op's first execution."""

    samples: list[list[float]]
    outputs: list[Any]
    errors: list[str | None]
    executions: int = 0
    failures: int = 0
    passes: float = 0.0
    elapsed: float = 0.0
    kinds: list[str] = field(default_factory=list)

    def op_latency(self) -> list[float | None]:
        return [statistics.median(s) if s else None for s in self.samples]


def run_ops(ops: list[Op], seconds: float, speed: SpeedClock, tracer=None) -> Timing:
    """Run ops in order, repeating passes until ``seconds`` have elapsed."""
    timing = Timing(
        samples=[[] for _ in ops],
        outputs=[None] * len(ops),
        errors=[None] * len(ops),
        kinds=[op.kind for op in ops],
    )
    intervals = []
    with speed.ticking():
        began = clock()
        deadline = began + seconds
        done = 0
        while done < len(ops) or clock() < deadline:
            idx = done % len(ops)
            if not speed.in_process:
                speed.maybe_tick()
            if tracer is not None:
                tracer.current_op = idx
            t0 = clock()
            try:
                out = ops[idx].run()
            except Exception:  # a failed op is counted and reported, the loop goes on
                timing.failures += 1
                if timing.errors[idx] is None:
                    timing.errors[idx] = traceback.format_exc(limit=3)
            else:
                intervals.append((idx, t0, clock()))
                if timing.outputs[idx] is None:
                    timing.outputs[idx] = out
            timing.executions += 1
            done += 1
        timing.elapsed = clock() - began
    if tracer is not None:
        tracer.current_op = -1
    for idx, t0, t1 in intervals:
        timing.samples[idx].append(speed.scaled(t0, t1))
    timing.passes = done / len(ops)
    return timing


def tail(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten or fewer samples no percentile
    has ten beyond it, and the maximum is returned as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def by_kind(timing: Timing) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for kind, lat in zip(timing.kinds, timing.op_latency()):
        if lat is not None:
            out.setdefault(kind, []).append(lat)
    return out


def latency_stats(timing: Timing) -> dict[str, Any]:
    """Median and tail per op kind, and their geometric means over kinds.

    Kinds are summarized separately so that no median or tail falls on the
    boundary between two kinds of very different cost.  Only kinds with
    more than twenty ops have a tail above their median; a workload with no
    such kind reports its slowest op as the tail.
    """
    kinds = {}
    for kind, lats in by_kind(timing).items():
        value, pct = tail(lats)
        kinds[kind] = {
            "count": len(lats),
            "p50_ms": 1000 * statistics.median(lats),
            "tail_ms": 1000 * value,
            "tail_pct": pct,
        }
    tails = [k["tail_ms"] for k in kinds.values() if k["count"] > 20]
    return {
        "kinds": kinds,
        "p50_ms": geomean([k["p50_ms"] for k in kinds.values()]),
        "tail_ms": geomean(tails) if tails else max(k["tail_ms"] for k in kinds.values()),
    }


def pass_seconds(timing: Timing) -> float:
    """Scaled seconds of one pass over every input, each op at its kind's median.

    The plain sum of the op latencies moved 10% from seed to seed, carried by
    a few heavy inputs; those show in the tail, and this sum stays steady.
    """
    return sum(len(lats) * statistics.median(lats) for lats in by_kind(timing).values())


SETUP_REPS = 5
SETUP_S = 0.5


def median_setup(setup: Callable[[], Any], speed: SpeedClock) -> tuple[Any, float, int]:
    """Run ``setup`` at least ``SETUP_REPS`` times and for at least ``SETUP_S``.

    Returns the last result, the median scaled time and the number of runs;
    a set-up of a few milliseconds gets enough runs for a steady median.
    """
    spans = []
    result = None
    with speed.ticking():
        began = clock()
        while len(spans) < SETUP_REPS or clock() - began < SETUP_S:
            t0 = clock()
            result = setup()
            spans.append((t0, clock()))
    return result, statistics.median(speed.scaled(a, b) for a, b in spans), len(spans)
