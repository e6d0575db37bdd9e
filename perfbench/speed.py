"""Machine-speed sampling for a shared host.

On a shared host the speed of one process drifts by up to about 1.8x over
seconds to minutes, and the drift slows every piece of Python code alike.
While a run measures, a SIGALRM handler times a fixed kernel at a fixed
wall-clock interval, so the samples are spread evenly over the measured time.
A measured interval is its wall time, minus the handler's own time,
multiplied by ``nominal / mean(kernel time)`` over the samples taken inside
it (at least the ``MIN_SAMPLES`` nearest).  That is the time on a machine
where the kernel takes ``nominal`` seconds.  The kernel shares no code with
the planner, so a change to the planner cannot move it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

KERNEL_STEPS = 24_000
NOMINAL_S = 0.010       # kernel time that defines one normalised second
INTERVAL_S = 0.2
MIN_SAMPLES = 10


def kernel(steps: int = KERNEL_STEPS) -> float:
    """Pure-Python float loop shaped like the planner's hot path (a scalar
    Mobius-map iteration)."""
    p11, p12, p21, p22 = 1.02, 0.03, 0.4, 0.97
    x, y = 1.0, 0.5
    kept = []
    for k in range(steps):
        x, y = p11 * x + p12 * y, p21 * x + p22 * y
        scale = max(abs(x), abs(y))
        x /= scale
        y /= scale
        if k % 64 == 0:
            kept.append(y / x)
    return sum(kept)


def kernel_seconds() -> float:
    """Median wall time of five kernel runs, for a process that is not
    sampled by a ``SpeedSampler``."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedSampler:
    """Context manager that samples the kernel every ``INTERVAL_S`` seconds.

    ``clock()`` is ``perf_counter()`` minus the time spent in the handler, so
    intervals read from it exclude the sampling itself.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (clock(), kernel seconds)
        self.paused = 0.0
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        return perf_counter() - self.paused

    def sample(self, *_signal_args) -> None:
        """Time the kernel once; callable directly or as the signal handler.
        A signal that lands inside a sample is dropped, so no time is
        subtracted twice."""
        if self._busy:
            return
        self._busy = True
        try:
            at = self.clock()
            t0 = perf_counter()
            kernel()
            elapsed = perf_counter() - t0
            self.samples.append((at, elapsed))
            self.paused += elapsed
        finally:
            self._busy = False

    def factor(self) -> float:
        """Scale for the whole run."""
        return NOMINAL_S / statistics.fmean(d for _, d in self.samples)

    def normalised(self, start: float, end: float) -> float:
        """Duration of the ``clock()`` interval [start, end] at nominal speed."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            mid = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            inside = [d for _, d in nearest]
        return (end - start) * NOMINAL_S / statistics.fmean(inside)

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
