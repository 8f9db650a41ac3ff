"""Phase detection via prediction-rate monitoring (paper §6.1).

Dynamo watches the *rate* of new path predictions: a sudden, sharp
increase is a strong signal that the program entered a new phase (its
working set changed, so previously-unseen paths turn hot).  Reacting with
a cache flush removes the phase-induced noise — fragments that were hot
in the old phase but are now dead weight.

:class:`PredictionRateMonitor` holds the heuristic's rule: the simulator
counts predictions over fixed windows of path occurrences and hands the
monitor each window's count as the window closes; a count above
``spike_factor`` × the trailing-median rate (after a minimum history)
calls for a flush.
"""

from __future__ import annotations

from collections import deque
from statistics import median

from repro.errors import DynamoError


class PredictionRateMonitor:
    """Windowed spike detector over prediction (materialization) counts.

    Parameters
    ----------
    window:
        Window length in path occurrences.
    spike_factor:
        A window is a spike when its prediction count exceeds
        ``spike_factor × median`` of the eight trailing windows (and a
        small absolute floor, so start-up noise does not trigger).
    min_count:
        Absolute minimum predictions in a window for it to qualify.
    """

    def __init__(
        self,
        window: int = 10_000,
        spike_factor: float = 3.0,
        min_count: int = 5,
    ):
        if window < 1:
            raise DynamoError("window must be positive")
        if spike_factor <= 1.0:
            raise DynamoError("spike_factor must exceed 1")
        self.window = window
        self.spike_factor = spike_factor
        self.min_count = min_count
        self._history: deque[int] = deque(maxlen=8)
        #: Occurrence indices at which a flush was called for.
        self.flush_recommendations: list[int] = []

    def close_window(self, count: int, time: int) -> bool:
        """Close a window that saw ``count`` predictions; ``time`` is
        the occurrence index that opens the next one.

        True when the window is a spike: ``time`` joins
        :attr:`flush_recommendations` and the history restarts, as the
        flush that follows restarts the simulator's counters.
        """
        history = self._history
        if (
            len(history) >= 3
            and count >= self.min_count
            and count > self.spike_factor * max(median(history), 1.0)
        ):
            self.flush_recommendations.append(time)
            history.clear()
            return True
        history.append(count)
        return False
