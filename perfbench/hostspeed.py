"""Host-speed sampling, so that reported latencies follow the program.

On a shared 2-vCPU VM the same pure-Python loop takes 40 ms or 70 ms
depending on the moment, switching every few seconds, and process CPU time
slows down with wall time (it is not steal time), so neither clock can tell
the program's speed from the host's.  While a run is timed, a ``SIGALRM``
timer runs a small fixed kernel every ``interval`` seconds and records how
long it took.  The kernel mixes the three kinds of work the program does:
interpreter loops, calls on small numpy arrays and a small ``eigh``; its
working set is a few KiB, so it barely disturbs the program's caches.

Reference time is a piecewise-linear map of the clock.  It stands still
while the kernel runs; between two samples it advances at
``REF_KERNEL_S / k``, the mean over the two samples, where ``k`` is a
sample's local kernel time (median of the samples within ``smooth_s``
seconds) and ``REF_KERNEL_S`` the kernel's time on the fast state of a
2-vCPU Xeon VM (4 MiB L2, 105 MiB L3).  An interval measured on the clock
is reported in *reference seconds*, the difference of its ends in
reference time: on that host in its fast state they equal wall seconds,
less the sampling.  The raw figures go into the run's record.
"""

from __future__ import annotations

import bisect
import signal
import statistics

import numpy as np

#: Kernel time on the fast state of the 2-vCPU Xeon VM the benchmark was
#: defined on; reference seconds are seconds at that speed.
REF_KERNEL_S = 1.2e-3

_rng = np.random.default_rng(0)
_SYM = _rng.standard_normal((40, 40))
_SYM = _SYM + _SYM.T
_VEC = np.ones(16)


def kernel() -> None:
    """A fixed ~1.2 ms mix of interpreter, small-array and LAPACK work."""
    s = 0
    for i in range(6000):
        s += i * i
    v = _VEC
    for _ in range(250):
        v = v * 1.0 + 0.0
    np.linalg.eigh(_SYM)


class HostSpeed:
    """Samples the kernel on a wall-clock timer and rescales latencies."""

    def __init__(self, clock, interval: float = 0.1, smooth_s: float = 0.5):
        self.clock = clock
        self.interval = interval
        self.smooth_s = smooth_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._prefix = [0.0]
        self._local: list[float] | None = None
        self._knots = None
        self._previous = None
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a timer tick inside the kernel itself
            return
        self._busy = True
        t0 = self.clock()
        kernel()
        dt = self.clock() - t0
        self._busy = False
        self.starts.append(t0)
        self.durations.append(dt)
        self._prefix.append(self._prefix[-1] + dt)
        self._local = self._knots = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def kernel_time_within(self, t0: float, t1: float) -> float:
        """Kernel time of the samples that started inside ``[t0, t1]``."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return self._prefix[hi] - self._prefix[lo]

    def local_kernel_times(self) -> list[float]:
        """Each sample's kernel time smoothed: the median within ``smooth_s``."""
        if self._local is None:
            local = []
            for t in self.starts:
                lo = bisect.bisect_left(self.starts, t - self.smooth_s)
                hi = bisect.bisect_right(self.starts, t + self.smooth_s)
                local.append(statistics.median(self.durations[lo:hi]))
            self._local = local
        return self._local

    def reference_time(self, t):
        """Reference time at clock time(s) ``t`` (a float or an array)."""
        if not self.starts:
            raise RuntimeError("no host-speed samples taken")
        if self._knots is None:
            starts = np.array(self.starts)
            ends = starts + np.array(self.durations)
            f = REF_KERNEL_S / np.array(self.local_kernel_times())
            rate = np.append((f[:-1] + f[1:]) / 2, f[-1])  # after each sample's kernel
            at_start = np.concatenate(([0.0], np.cumsum((starts[1:] - ends[:-1]) * rate[:-1])))
            far = 1e9  # beyond the samples, time runs at the outer samples' rate
            x = np.concatenate(([starts[0] - far], np.column_stack((starts, ends)).ravel(), [ends[-1] + far]))
            y = np.concatenate(([-far * f[0]], np.repeat(at_start, 2), [at_start[-1] + far * rate[-1]]))
            self._knots = (x, y)
        return np.interp(t, *self._knots)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The interval's duration in reference seconds."""
        return float(self.reference_time(t1) - self.reference_time(t0))

    def net_seconds(self, t0: float, t1: float) -> float:
        """The interval's duration less the kernel time inside it."""
        return t1 - t0 - self.kernel_time_within(t0, t1)

    def summary(self) -> dict:
        """Sample count, sampling share of the time, and the median and
        extremes of the smoothed ``REF_KERNEL_S / k``."""
        factors = sorted(REF_KERNEL_S / k for k in self.local_kernel_times())
        span = self.starts[-1] - self.starts[0] if len(self.starts) > 1 else 0.0
        return {
            "samples": len(factors),
            "sampling_share": self._prefix[-1] / span if span else None,
            "factor_min": factors[0],
            "factor_median": statistics.median(factors),
            "factor_max": factors[-1],
        }
