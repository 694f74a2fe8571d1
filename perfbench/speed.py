"""Machine-speed sampling while the program runs.

On a shared host the speed of a core swings by up to 1.7x within fractions
of a second (another tenant on the sibling hardware thread), and CPU time
swings with wall time. A fixed kernel timed between operations cannot see
those swings, so `SpeedProbe` times it *during* them: a SIGALRM every
`interval` seconds runs the kernel in the main thread and records how long
it took. An interval's own time excludes the probe's; its speed-scaled
time is ``own × REF_KERNEL_S / mean kernel time`` over the samples taken
inside it, i.e. the time it would have taken at the reference speed.

The scaling holds while the core is in its usual states, but not under the
heaviest contention: there the kernel slows more than the program, and a
scaled time reads low. An interval whose kernel ran more than
`MAX_SLOWDOWN` times `REF_KERNEL_S` is therefore not scaled but dropped
(operations in `worker.main_run`, set-ups in `run.Bench.run`).
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass

# Typical kernel time inside an operation on the reference machine (2-core
# Intel Xeon, Python 3.11). Only a scale: it makes scaled times read close
# to the wall time there.
REF_KERNEL_S = 8.0e-5
# Above this mean kernel time / REF_KERNEL_S an interval counts as heavily
# contended. On the reference machine operations mostly read 1.1-1.9; the
# runs whose scaled times read 15-25% low had 2.0-2.6.
MAX_SLOWDOWN = 1.9
# The fewest timed operations, and set-ups, a run's medians are taken over.
MIN_KEPT = 3


def kernel():
    """Fixed interpreter work, independent of activelp and of numpy."""
    acc = 0.0
    for i in range(1, 401):
        acc += math.sqrt(i) / (1.0 + math.log(i))
    return acc


@dataclass
class Mark:
    t: float
    kernel_s: float
    samples: int


class SpeedProbe:
    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.kernel_s = 0.0  # total time spent in the kernel
        self.samples = 0
        self._previous = None

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        kernel()
        self.kernel_s += time.perf_counter() - t0
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), self.kernel_s, self.samples)

    def since(self, mark: Mark) -> tuple[float, float]:
        """Own time since `mark` and that time scaled to the reference speed.
        With no sample inside the interval, one kernel is timed right away."""
        own = time.perf_counter() - mark.t - (self.kernel_s - mark.kernel_s)
        n = self.samples - mark.samples
        if n:
            per_kernel = (self.kernel_s - mark.kernel_s) / n
        else:
            t0 = time.perf_counter()
            kernel()
            per_kernel = time.perf_counter() - t0
        return own, own * REF_KERNEL_S / per_kernel
