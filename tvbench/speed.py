"""Correction of timings for the drifting speed of a shared CPU.

On a small shared machine the speed of the CPU a process runs on drifts by
30-60 % within seconds, so raw wall times of seconds of work spread more
than any useful bound. `SpeedProbe` samples that speed from inside the
process: every PERIOD seconds an interval timer runs a fixed probe in a
SIGALRM handler and records how long it took. The handler runs between
bytecodes of the main thread, so it samples the CPU the measured code runs
on (a probe process on the other CPU does not track it).

The probe is the geometric mean of four short kernels: a pure-Python
integer loop, random reads from a large Python list, a numpy stream through
arrays larger than the L2 cache, and many numpy calls on a tiny array.
Together they follow the slowdown of the Gibbs sweep, doc2vec instances, KNN
and t-SNE more closely than any one of them does. Each kernel runs twice and
only the second pass is timed, so the probe always finds its data where its
own first pass left it, whatever the measured code did to the caches since
the last probe.

A timed interval is reported in reference seconds: the wall time up to each
probe counts times REFERENCE_PROBE_S over that probe's duration, the time
after the last probe counts at the last probe's speed, and the probes' own
time is left out.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

PERIOD = 0.2  # seconds between probes
REFERENCE_PROBE_S = 200e-6  # probe duration that defines a reference second
CAPACITY = 1 << 14  # probes one process can record


class SpeedProbe:
    """Samples CPU speed while started; an inactive probe never starts, and
    its intervals count plain wall time."""

    def __init__(self, active: bool = True):
        self.active = active
        # start, end and duration of each probe, in arrays allocated once so
        # that a probe does not allocate memory while the measured code runs
        self._log = np.zeros((CAPACITY, 3))
        self._count = 0
        self._previous = None
        self._stream_in = np.linspace(0.0, 1.0, 1 << 18)  # 2 MiB
        self._stream_out = np.empty_like(self._stream_in)
        self._list = list(range(100_000))
        self._reads = np.random.default_rng(0).integers(0, 100_000, 1000).tolist()
        self._tiny = np.ones(16)
        self._kernels = (self._loop, self._random_reads, self._stream,
                         self._small_calls)

    @property
    def samples(self) -> np.ndarray:
        return self._log[:self._count]

    def _loop(self) -> None:
        s = 0
        for i in range(2500):
            s += i * i % 7

    def _random_reads(self) -> None:
        s = 0
        for j in self._reads:
            s += self._list[j]

    def _stream(self) -> None:
        np.multiply(self._stream_in, 1.0001, out=self._stream_out)

    def _small_calls(self) -> None:
        for _ in range(200):
            self._tiny * 2.0

    def sample(self, *_signal) -> None:
        """Run the probe once and record its duration."""
        if self._count == CAPACITY:
            return
        start = perf_counter()
        log_sum = 0.0
        for kernel in self._kernels:
            kernel()  # untimed pass: brings the kernel's data into cache
            before = perf_counter()
            kernel()
            log_sum += math.log(perf_counter() - before)
        self._log[self._count] = (start, perf_counter(),
                                  math.exp(log_sum / len(self._kernels)))
        self._count += 1

    def start(self) -> None:
        if not self.active:
            return
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        if not self.active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _inside(self, start: float, end: float) -> np.ndarray:
        s = self.samples
        return s[(s[:, 0] >= start) & (s[:, 0] < end)]

    def wall_seconds(self, start: float, end: float) -> float:
        """Wall time of [start, end) without the probes in it."""
        inside = self._inside(start, end)
        return end - start - float(np.sum(inside[:, 1] - inside[:, 0]))

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall time of [start, end) without the probes in it, at the
        reference speed. The stretch up to each probe is scaled by that
        probe and the rest by the last one. An interval with no probe in it
        is scaled by the nearest probe. Plain wall time for an inactive
        probe, or one that never ran."""
        s = self.samples
        if not self.active or len(s) == 0:
            return end - start
        inside = self._inside(start, end)
        if len(inside) == 0:
            nearest = np.argmin(np.maximum(s[:, 0] - end, start - s[:, 1]))
            return (end - start) * REFERENCE_PROBE_S / s[nearest, 2]
        total, t = 0.0, start
        for a, b, p in inside:
            total += (a - t) * REFERENCE_PROBE_S / p
            t = b
        return total + max(end - t, 0.0) * REFERENCE_PROBE_S / inside[-1, 2]

    def mean_probe_s(self) -> float:
        return float(np.mean(self.samples[:, 2]))

    def speed(self) -> float:
        """Mean reference speed over all probes: reference seconds per
        wall second."""
        return float(np.mean(REFERENCE_PROBE_S / self.samples[:, 2]))
