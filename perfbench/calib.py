"""Machine-speed calibration.

The machine this benchmark runs on shares its cores, and its speed drifts by
tens of percent within minutes; every timing moves with it.  So each child
interpreter also times a fixed reference kernel of standard-library work
(Fraction arithmetic, modular powers, dicts, string formatting, JSON): once
right after start-up, and then every INTERVAL seconds of wall time while the
commands run, from a SIGALRM handler.  The handler's time is taken out of the
command it interrupted.

run.py scales each time by REFERENCE_NS / (mean kernel time of the samples
taken during or within WINDOW_NS of it), which reads as "the time this would take on a machine where the kernel
takes REFERENCE_NS".  The kernel uses no cpairs code, so no change to the
program can move it.
"""

from __future__ import annotations

import json
import signal
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_NS = 2_500_000  # kernel time that defines the reference speed
INTERVAL = 0.05  # seconds of wall time between samples while commands run
WINDOW_NS = 100_000_000  # samples this close to a command describe its speed


def kernel() -> int:
    """Run the reference work once and return how long it took, in ns."""
    t0 = perf_counter_ns()
    seen: dict[int, tuple[int, int]] = {}
    words = []
    acc = Fraction(0)
    for i in range(1, 250):
        f = Fraction(i * 7 + 1, i * 3 + 2)
        acc += f * f - Fraction(1, i)
        n = pow(i * 7919 + 3, 65537, 1_000_000_007)
        seen[n % 211] = (i, n)
        words.append(f"{n}/{i}")
        if i % 60 == 0:
            acc = Fraction(acc.numerator % 1_000_003, acc.denominator % 1_000_003 + 1)
    json.dumps(words)
    sorted(seen.items())
    return perf_counter_ns() - t0


class Sampler:
    """Times the kernel every INTERVAL seconds of wall time until stopped."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []  # (start ns, kernel ns)
        self.busy_ns = 0  # wall time spent in the handler, to subtract from commands

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter_ns()
        self.samples.append((t0, kernel()))
        self.busy_ns += perf_counter_ns() - t0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)  # one-shot, so ticks never nest

    def start(self) -> None:
        """Take the first sample now, so every command has one near it."""
        signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> int:
        """perf_counter_ns() that stands still while the handler runs."""
        return perf_counter_ns() - self.busy_ns

    def around(self, t0: int, t1: int) -> int:
        """Mean kernel time of the samples within WINDOW of [t0, t1], else the nearest one."""
        near = [k for t, k in self.samples if t0 - WINDOW_NS <= t <= t1 + WINDOW_NS]
        if not near:
            near = [min(self.samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[1]]
        return sum(near) // len(near)
