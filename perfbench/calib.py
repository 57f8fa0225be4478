"""Calibration clock: every benchmark timing is divided by host speed.

The benchmark host switches between speed states far enough apart (about
1.7x) that raw wall times of identical runs disagree by more than any
useful regression bound.  A fixed, stdlib-only kernel runs in the client
process every few tens of milliseconds, next to the timed work.  Each
wall interval is divided by the kernel time measured around it and
multiplied by :data:`REFERENCE_KERNEL_S`, the kernel's time on a quiet
host, so calibrated values read close to real seconds there while drift
between speed states cancels out.  Raw wall times and the kernel series
are kept beside the calibrated values so drift stays visible.

The kernel touches no ``repro`` code, so no change to the program under
test can move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Kernel time (seconds) on a quiet host.  Fixed once: changing it
#: rescales every calibrated result.
REFERENCE_KERNEL_S = 0.00027

#: Seconds between kernel samples while work is being timed.  The host's
#: speed state can change within a second, so samples stay dense.
SPACING_S = 0.02

#: An interval's speed estimate is the median kernel time of the samples
#: within this many seconds of it, or of the ``MIN_SAMPLES`` nearest if
#: fewer are that close -- for one op, the samples just before and just
#: after it.
MARGIN_S = 0.01
MIN_SAMPLES = 2

_BLOB = bytes((i * 7 + 3) & 0xFF for i in range(1 << 15))


def kernel() -> int:
    """Fixed work: big-integer arithmetic and int/bytes conversions, then
    a bytecode loop of small-integer arithmetic.

    Chosen by measurement: across the host's speed states the time of
    this mix moves in proportion to the program's per-record ops (a
    log-log slope of about 1.0 against read, write and delete, where
    either half alone gave about 0.9), so dividing by it cancels the
    drift for the ops that dominate.
    """
    total = 0
    for shift in (3, 5):
        x = int.from_bytes(_BLOB, "big")
        y = (x * shift) ^ (x >> shift)
        total += len(y.to_bytes(len(_BLOB) + 1, "big"))
    for i in range(1500):
        total = (total * 31 + i) & 0xFFFFFFFF
    return total


class CalibrationClock:
    """Kernel samples on the shared monotonic clock, and the calibration
    of wall intervals against them.

    All timestamps are ``time.monotonic()`` values, which on Linux are
    system-wide, so intervals measured in a server child process can be
    calibrated against the client's samples.
    """

    def __init__(self) -> None:
        self.times: list[float] = []      # sample midpoints
        self.kernel_s: list[float] = []   # kernel wall time per sample
        self._next = 0.0

    def sample(self) -> None:
        start = time.monotonic()
        kernel()
        end = time.monotonic()
        self.times.append((start + end) / 2)
        self.kernel_s.append(end - start)
        self._next = end + SPACING_S

    def tick(self) -> None:
        """Take a sample if the last one is older than the spacing."""
        if time.monotonic() >= self._next:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_KERNEL_S`` over the local kernel time of
        ``[start, end]``."""
        times = self.times
        if not times:
            raise RuntimeError("no calibration samples taken")
        lo = bisect.bisect_left(times, start - MARGIN_S)
        hi = bisect.bisect_right(times, end + MARGIN_S)
        if hi - lo < MIN_SAMPLES:
            mid = (start + end) / 2
            lo = hi = bisect.bisect_left(times, mid)
            while hi - lo < min(MIN_SAMPLES, len(times)):
                if lo > 0 and (hi == len(times)
                               or mid - times[lo - 1] <= times[hi] - mid):
                    lo -= 1
                else:
                    hi += 1
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s[lo:hi])

    def calibrate(self, start: float, end: float) -> float:
        """Calibrated seconds of the wall interval ``[start, end]``."""
        return (end - start) * self.factor(start, end)

    def series(self) -> dict:
        """The raw kernel series, for the run's detail file."""
        return {"reference_kernel_s": REFERENCE_KERNEL_S,
                "margin_s": MARGIN_S,
                "times": self.times, "kernel_s": self.kernel_s}
