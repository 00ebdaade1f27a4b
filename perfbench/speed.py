"""Machine-speed probe, to report timings at a fixed reference speed.

On a shared 2-vCPU Xeon guest (2.1 GHz) the host changes speed by up to
1.5x over minutes (the same `spex sweep argmax --n 259` took 26 s and 40 s
a quarter of an hour apart) with no sign of it inside the guest: no steal
time, no frequency change, and no other process. A run that lasts tens of seconds
cannot average that away. So while a run measures, a timer signal
interrupts the program every PROBE_INTERVAL_S and times a fixed kernel of
interpreter and small numpy work, much like the program's own mix, that
does not call the program. Every measured interval is then reported as

    (its duration - the probes inside it) * REFERENCE_KERNEL_S / local kernel time

where the local kernel time is the harmonic mean of the (5-probe running
median) kernel times within a second of the interval. On a host running at
reference speed this equals the wall-clock duration; when the host slows
down, program and kernel slow down together and the ratio stays put. The
raw durations are printed to stderr next to the reported ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.1
# kernel time at the reference speed: what a 2-core 2.1 GHz Xeon guest with
# Python 3.11 and numpy 2.4 takes on a quiet host
REFERENCE_KERNEL_S = 4.2e-4
WINDOW_S = 1.0
MIN_PROBES = 5

_A = np.random.default_rng(0).random((96, 96))
_A = _A + _A.T


def kernel() -> None:
    """Fixed work: a dict-update loop and 60 steps of a 96x96 power iteration."""
    d: dict[int, int] = {}
    for i in range(1500):
        d[i % 61] = d.get(i % 61, 0) + i
    x = np.ones(96)
    for _ in range(60):
        z = _A @ x
        x = z / z.max()


def spot_factor(repeats: int = 5) -> float:
    """REFERENCE_KERNEL_S over the median of `repeats` kernel runs now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return REFERENCE_KERNEL_S / statistics.median(times)


class Speedometer:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self._prev = None
        self._smooth_len = -1
        self._inv_cum = np.zeros(1)
        self._busy_cum = np.zeros(1)

    def start(self) -> None:
        self._prev = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._prev or signal.SIG_DFL)

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        try:
            kernel()
        except RecursionError:  # interrupted a frame at the recursion limit
            return
        self.starts.append(t0)
        self.kernel_s.append(time.perf_counter() - t0)

    def _prepare(self) -> int:
        """Cumulative sums over the probes so far; returns their count. A
        probe may land at any bytecode, so later ones are left for next time."""
        n = min(len(self.starts), len(self.kernel_s))
        if self._smooth_len == n:
            return n
        k = np.asarray(self.kernel_s[:n])
        smooth = np.array([np.median(k[max(0, i - 2):i + 3]) for i in range(len(k))])
        self._inv_cum = np.concatenate(([0.0], np.cumsum(1.0 / smooth)))
        self._busy_cum = np.concatenate(([0.0], np.cumsum(k)))
        self._smooth_len = n
        return n

    def probe_time(self, a: float, b: float) -> float:
        """Seconds spent in probes that started inside [a, b]."""
        n = self._prepare()
        lo = bisect.bisect_left(self.starts, a, 0, n)
        hi = bisect.bisect_right(self.starts, b, 0, n)
        return float(self._busy_cum[hi] - self._busy_cum[lo])

    def factor(self, a: float, b: float) -> float:
        """REFERENCE_KERNEL_S over the local kernel time around [a, b]."""
        n = self._prepare()
        if n == 0:
            raise RuntimeError("no speed probes were taken")
        lo = bisect.bisect_left(self.starts, a - WINDOW_S, 0, n)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S, 0, n)
        if hi - lo < MIN_PROBES:
            mid = bisect.bisect_left(self.starts, (a + b) / 2, 0, n)
            lo = max(0, min(mid - MIN_PROBES // 2, n - MIN_PROBES))
            hi = min(n, lo + MIN_PROBES)
        mean_inv = (self._inv_cum[hi] - self._inv_cum[lo]) / (hi - lo)
        return float(REFERENCE_KERNEL_S * mean_inv)

    def normalize(self, a: float, b: float) -> float:
        """Duration of [a, b] without probes, at the reference speed."""
        return (b - a - self.probe_time(a, b)) * self.factor(a, b)

    def summary(self) -> str:
        k = self.kernel_s
        return (f"{len(k)} probes, kernel median {statistics.median(k) * 1e3:.3f} ms"
                if k else "no probes")
