"""Host-speed probe: time a fixed kernel while the workload runs.

On a shared host the same code runs at different speeds from one
second to the next; on the 2-CPU host this benchmark was written on,
speed switches between two levels about 1.5x apart every few seconds
and sometimes stays at the slow one for a minute, so a run's median
wall time depended mostly on when it ran (IQR/median up to 0.45 over
five seeds).  A daemon thread therefore times a small fixed pure-Python
kernel every :data:`PERIOD_S` for the whole sample.  The benchmark
scales each timed call's wall time by the mean, over the kernel runs
during the call, of :data:`REFERENCE_KERNEL_S` divided by the kernel's
time: the result reads as seconds at the host's fast speed and moves
with the program, not with the host (the same calls repeated in one
process: coefficient of variation 0.10-0.14 in wall time, about 0.02
normalised, for both the cold repro and the VM calls).

The probe costs the timed calls about 1.5%: every period it takes the
interpreter lock for one kernel run.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

#: Seconds between kernel runs.
PERIOD_S = 0.02

#: The kernel's time at the fast speed of the host the benchmark was
#: written on (5th percentile of 3000 runs); it only sets the scale.
REFERENCE_KERNEL_S = 0.0002


def kernel() -> int:
    """A fixed slice of interpreter work: arithmetic and dict stores."""
    total = 0
    table: dict[int, int] = {}
    for i in range(2_000):
        total += i * i % 7
        table[i & 255] = total
    return total


def _ended(reading: tuple[float, float]) -> float:
    return reading[0]


class SpeedProbe:
    """Times :func:`kernel` every :data:`PERIOD_S` on a daemon thread."""

    def __init__(self) -> None:
        #: (end time, kernel seconds) of every kernel run so far.
        self.readings: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-speed", daemon=True
        )

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _loop(self) -> None:
        while not self._stop.is_set():
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.readings.append((end, end - start))
            self._stop.wait(PERIOD_S)

    def factor(self, start: float, end: float) -> float:
        """Mean of reference over actual kernel time while ``[start, end]``
        ran.

        The readings are evenly spaced, so the mean of their ratios is
        the time average of the host's speed over the interval.  It uses
        the readings that ended inside the interval or, when there are
        none, the nearest one, so a call shorter than a period still
        gets the speed of its moment.
        """
        readings = self.readings  # appended in time order
        if not readings:
            raise RuntimeError("the speed probe has no reading yet")
        low = bisect.bisect_left(readings, start, key=_ended)
        high = bisect.bisect_right(readings, end, key=_ended)
        if high <= low:
            middle = (start + end) / 2
            low = min(
                (i for i in (low - 1, low) if 0 <= i < len(readings)),
                key=lambda i: abs(readings[i][0] - middle),
            )
            high = low + 1
        return statistics.fmean(
            REFERENCE_KERNEL_S / took for _, took in readings[low:high]
        )

    def normalise(self, start: float, end: float) -> float:
        """``end - start`` in seconds at the reference speed."""
        return (end - start) * self.factor(start, end)
