"""Host speed through set-up and the timed phase, and times normalized to it.

On a shared host the same work runs up to twice as slow at times, in
spells of seconds to minutes, so raw wall times of identical runs spread
far more than a program change needs to show. A wall-clock timer runs a
small kernel that does not touch nlspd every ``TIMER_INTERVAL_S``: an
interpreted loop, elementwise numpy arithmetic on a few thousand values
and a small least-squares solve, the mix nlspd's solvers run.

The workload process and its children run on one CPU (worker.py), so
the samples measure the CPU the work runs on, and a sample delays the op
it lands in. An op's normalized time is its wall time, less the kernel's
own time inside it, times ``REFERENCE_KERNEL_S`` over the mean kernel
time sampled from ``WINDOW_S`` before the op to ``WINDOW_S`` after it
(widened to at least ``MIN_SAMPLES`` samples, where there are that
many). It reads as seconds on a host where the kernel takes
``REFERENCE_KERNEL_S``. A change to nlspd moves the op's wall time and
not the kernel's, so it moves the normalized time by the same share.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Sets the scale of normalized seconds: a typical mean kernel time on the
# reference host (2-vCPU Xeon, 0.55-0.9 ms), so they read close to its
# wall seconds.
REFERENCE_KERNEL_S = 0.0007

TIMER_INTERVAL_S = 0.05
# Host speed drifts over seconds, so a short op is normalized by the
# samples of its neighbourhood. Python signal handlers run between
# bytecodes, so none lands inside a long BLAS call: the window widens
# until it holds MIN_SAMPLES.
WINDOW_S = 0.5
MIN_SAMPLES = 40
# Kernel runs before sampling, so the first samples are not a cold start.
WARMUP = 20

_VALUES = np.linspace(0.0, 1.0, 4000)
_MATRIX = np.random.default_rng(0).random((40, 40))


def kernel() -> None:
    total = 0.0
    table = {}
    for i in range(400):
        total += i * 0.5
        table[i & 63] = total
    values = _VALUES
    for _ in range(8):
        values = np.sqrt(values * values + 1.0) - 0.5
    np.linalg.lstsq(_MATRIX, _MATRIX[:, 0], rcond=None)


class SpeedProbe:
    """Kernel times sampled from SIGALRM between ``start`` and ``stop``."""

    def __init__(self):
        # Start and duration of every sample, in perf_counter seconds.
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._sampling = False
        self._previous_handler = None

    def _on_timer(self, signum, frame) -> None:
        if self._sampling:
            return
        self._sampling = True
        try:
            started = time.perf_counter()
            kernel()
            self.durations.append(time.perf_counter() - started)
            self.starts.append(started)
        finally:
            self._sampling = False

    def start(self) -> None:
        for _ in range(WARMUP):
            kernel()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, TIMER_INTERVAL_S, TIMER_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def normalize(self, started: float, ended: float) -> tuple[float, float, int]:
        """(normalized seconds, mean kernel seconds, samples used) of one op.

        Call after ``stop``, so the window after the op is complete.
        """
        if not self.starts:
            raise RuntimeError("the speed probe took no sample")
        lo = bisect.bisect_left(self.starts, started - WINDOW_S)
        hi = bisect.bisect_left(self.starts, ended + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        kernel_s = statistics.fmean(self.durations[lo:hi])
        first = bisect.bisect_left(self.starts, started)
        last = bisect.bisect_left(self.starts, ended)
        work_s = ended - started - sum(self.durations[first:last])
        return work_s * REFERENCE_KERNEL_S / kernel_s, kernel_s, hi - lo
