"""Call timing corrected for the speed of a shared host.

On a shared host the same work can run up to 1.8x slower, in stretches
from a fraction of a second to minutes, and the guest's CPU clock shows
the same slowdown as the wall clock.  The stopwatch therefore keeps timing
a fixed reference kernel: three runs before and after every timed call
and one run on a 20 Hz timer signal while the call runs.
A call's corrected time is its wall time scaled by the kernel's reference
time over its mean time (slowest fifth left out) around and during the
call: the time the call takes on a host where the kernel runs at its
reference time.  A program change moves the corrected time as it moves
wall time; host speed cancels.  Raw wall times are kept too.

Host load slows small-array NumPy code more than plain interpreter
arithmetic, so there are two kernels; a workload names the one whose mix
is closer to its own.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

SAMPLE_PERIOD = 0.05

_VEC = np.arange(6.0)
_POS = np.array([[0.1, 0.2], [1.0, -0.5], [-0.7, 0.9]])
_STRENGTHS = np.array([1.0, 2.0, -1.0])


def _interpreter_kernel() -> float:
    t0 = perf_counter()
    x = 0.0
    for j in range(4000):
        x += j * 0.5
    for _ in range(60):
        _VEC * 1.5 + _VEC
    return perf_counter() - t0


def _numpy_kernel() -> float:
    # pairwise interactions of three points, as a vortex kernel computes them
    t0 = perf_counter()
    for _ in range(12):
        d = _POS[:, None, :] - _POS[None, :, :]
        r2 = d[..., 0] ** 2 + d[..., 1] ** 2
        np.triu_indices(3, k=1)
        np.fill_diagonal(r2, np.inf)
        w = _STRENGTHS[None, :] / r2
        np.stack([-(w * d[..., 1]).sum(axis=1), (w * d[..., 0]).sum(axis=1)], axis=1)
    x = 0.0
    for j in range(800):
        x += j * 0.5
    return perf_counter() - t0


# kernel name -> (kernel, its time on a quiet 2-vCPU Xeon host with
# Python 3.11 and NumPy 2.4)
KERNELS = {
    "interpreter": (_interpreter_kernel, 300e-6),
    "numpy": (_numpy_kernel, 500e-6),
}


def _trimmed_mean(values: list[float]) -> float:
    """Mean without the slowest fifth: a kernel run that the host stopped
    for longer than the run itself says little about the call around it."""
    kept = sorted(values)[: max(1, len(values) - len(values) // 5)]
    return statistics.fmean(kept)


class Stopwatch:
    """Times calls; ``corrected()`` returns their host-corrected times.

    Use as a context manager, which runs the sampling timer.  A given
    tracer is active during the timed calls only, so work around them
    (such as output checks) leaves no spans.
    """

    def __init__(self, kernel: str = "interpreter", tracer=None) -> None:
        self._kernel, self.reference = KERNELS[kernel]
        self._tracer = tracer
        self.samples: list[float] = []
        self.raw: list[float] = []
        self._windows: list[tuple[int, int]] = []
        self._previous_handler = None
        self._last_tick = 0
        self._tick()

    def _tick(self) -> None:
        self._last_tick = len(self.samples)
        self.samples.extend(self._kernel() for _ in range(3))

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(self._kernel())

    def __enter__(self) -> "Stopwatch":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def time(self, fn, *args, **kwargs):
        """(fn's result, record index) of one timed call."""
        first = self._last_tick
        if self._tracer is not None:
            self._tracer.active = True
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            if self._tracer is not None:
                self._tracer.active = False
        self.raw.append(perf_counter() - t0)
        self._tick()
        self._windows.append((first, len(self.samples)))
        return out, len(self.raw) - 1

    def corrected(self) -> list[float]:
        return [
            raw * self.reference / _trimmed_mean(self.samples[a:b])
            for raw, (a, b) in zip(self.raw, self._windows)
        ]

    def host_speed(self) -> float:
        """Median kernel time over its reference: above 1, a slow host."""
        return statistics.median(self.samples) / self.reference
