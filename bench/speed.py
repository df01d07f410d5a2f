"""Machine-speed meter for a shared, drifting CPU.

On a shared host the same code can run 1.5x slower for tens of seconds at a
time, because of what other tenants run, so the raw time of a 20-second run
depends on when it ran.  The meter samples the machine's speed while the
workload runs: a timer signal (every ``PERIOD_S``) runs a fixed calibration
kernel in the main thread, between two bytecodes of the workload, and records
how long it took.  A round's time is then rescaled to the speed at which the
kernel takes ``NOMINAL_S``:

    normalized = (round time - time spent in the kernel) * NOMINAL_S / mean kernel time

The kernel does not touch entsig, so a change to the program moves the
normalized time exactly as it moves the raw time; only the machine's drift is
divided out.  The kernel mixes the two kinds of work the workloads spend their
time in: many numpy calls on 16-element vectors (call overhead, as in
validation and per-setting estimates) and one three-operand ``einsum`` at
d = 64 (a dense contraction, as in outcome probabilities).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
NOMINAL_S = 0.0028

_VECTOR = np.random.default_rng(0).random(16)
_MATRIX = np.random.default_rng(1).standard_normal((64, 64)) + 0j


def kernel() -> float:
    total = 0.0
    for _ in range(150):
        x = np.asarray(_VECTOR, dtype=float)
        if np.all(np.isfinite(x)):
            total += float(x.sum())
    np.einsum("io,ij,jo->o", _MATRIX.conj(), _MATRIX, _MATRIX)
    return total


def probe(repeat: int = 5) -> float:
    """Median kernel time, measured directly (no timer)."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedMeter:
    """While entered, samples the kernel time every ``PERIOD_S`` seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # total seconds spent in the kernel
        self._previous = None

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def scale_since(self, mark: int) -> float:
        """NOMINAL_S over the mean kernel time sampled since ``mark`` (an
        index into ``samples``), or over a direct probe if none was taken."""
        taken = self.samples[mark:]
        return NOMINAL_S / (statistics.fmean(taken) if taken else probe())
