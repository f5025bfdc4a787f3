"""Host-speed sampling, so that timings taken at different moments compare.

On a small shared host the speed of one CPU swings by up to 1.8x from
second to second, because other tenants load the same cores.  The
sampler runs a fixed pure-Python kernel every ``INTERVAL`` seconds from
a SIGALRM handler, on the same thread as the code being measured, and
records how long the kernel took.  A measured time is then scaled to
the reference speed, at which the kernel takes ``REF_KERNEL_NS``:

    normalized = (raw - kernel time inside the interval) * REF_KERNEL_NS / kernel_ns

where ``kernel_ns`` is the kernel time during the interval: the running
median of the samples within a quarter second, averaged over the
interval (one kernel run alone is too noisy to use).  The kernel uses
only the standard library, so no change to the program under test can
change it.
"""

from __future__ import annotations

import contextlib
import hashlib
import signal
import time

import numpy as np

#: kernel time at the reference speed; about the median on the host the
#: benchmark was tuned on, so normalized times read close to raw ones
REF_KERNEL_NS = 500_000
#: seconds between samples; the kernel then costs about 2.5% of the time
INTERVAL = 0.02
#: half-width of the running median over kernel samples
WINDOW_NS = 250_000_000

_MASK = (1 << 64) - 1
_perf = time.perf_counter_ns


def _kernel() -> int:
    # integer mixing and keyed hashing, the two things the library's
    # Python loops spend their time on
    x = 0x9E3779B97F4A7C15
    for _ in range(600):
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    d = x.to_bytes(8, "little")
    for _ in range(200):
        d = hashlib.blake2b(d, digest_size=16, key=b"speedref").digest()
    return x ^ d[0]


class SpeedSampler:
    """Samples host speed while active (a context manager)."""

    def __init__(self):
        self.stamps: list[int] = []
        self.costs: list[int] = []
        #: total time spent in the handler; subtract it from intervals
        self.handler_ns = 0
        self._old = None
        self._smooth = None
        self._busy = False
        self._active = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a late tick inside a slow sample: skip it
            return
        self._busy = True
        t0 = _perf()
        _kernel()
        dt = _perf() - t0
        self.stamps.append(t0 + dt // 2)
        self.costs.append(dt)
        self.handler_ns += dt
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._active = True
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample(None, None)

    @contextlib.contextmanager
    def paused(self):
        """No samples inside the block, one on each side of it.

        For timings of single calls, where the kernel would evict the
        measured code's data from the caches."""
        if not self._active:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample(None, None)
        try:
            yield
        finally:
            self._sample(None, None)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def start(self) -> tuple[int, int]:
        """Mark an instant: the clock and the sampling time spent so far."""
        return _perf(), self.handler_ns

    def _smoothed(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample instants and the running median of kernel times around each."""
        if self._smooth is None or len(self._smooth[0]) != len(self.stamps):
            stamps = np.asarray(self.stamps, dtype=np.float64)
            costs = np.asarray(self.costs, dtype=np.float64)
            lo = np.searchsorted(stamps, stamps - WINDOW_NS)
            hi = np.searchsorted(stamps, stamps + WINDOW_NS, side="right")
            smooth = np.array([np.median(costs[a:b]) for a, b in zip(lo, hi)])
            self._smooth = (stamps, smooth)
        return self._smooth

    def scale(self, t0: int, t1: int) -> float:
        """Reference-speed factor for the interval [t0, t1]."""
        stamps, smooth = self._smoothed()
        lo, hi = np.searchsorted(stamps, [t0, t1])
        cost = smooth[lo:hi].mean() if hi > lo else np.interp((t0 + t1) / 2, stamps, smooth)
        return REF_KERNEL_NS / float(cost)

    def scales_at(self, times) -> np.ndarray:
        """Reference-speed factors at the given instants."""
        stamps, smooth = self._smoothed()
        return REF_KERNEL_NS / np.interp(np.asarray(times, dtype=np.float64), stamps, smooth)
