"""Phase detection via prediction-rate monitoring (paper §6.1).

Dynamo watches the *rate* of new path predictions: a sudden, sharp
increase is a strong signal that the program entered a new phase (its
working set changed, so previously-unseen paths turn hot).  Reacting with
a cache flush removes the phase-induced noise — fragments that were hot
in the old phase but are now dead weight.

:class:`PredictionRateMonitor` implements the heuristic: prediction
events are bucketed into fixed windows of path occurrences, and a window
whose count exceeds ``spike_factor`` × the trailing-median rate (after a
minimum history) recommends a flush.
"""

from __future__ import annotations

from collections import deque
from statistics import median

from repro.errors import DynamoError


class PredictionRateMonitor:
    """Windowed spike detector over prediction (materialization) events.

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
        self._current_window = 0
        self._current_count = 0
        self.flush_recommendations: list[int] = []

    def record_prediction(self, time: int) -> None:
        """Note a prediction made at occurrence index ``time``."""
        self._advance_to(time)
        self._current_count += 1

    def observe(self, time: int) -> bool:
        """Advance to ``time``; True when a flush is recommended now.

        A recommendation is issued at most once per window, when the
        *previous* window closed as a spike.
        """
        return self._advance_to(time)

    def _advance_to(self, time: int) -> bool:
        window_index = time // self.window
        recommended = False
        while self._current_window < window_index:
            recommended = self._close_window() or recommended
            self._current_window += 1
        if recommended:
            self.flush_recommendations.append(time)
        return recommended

    def _close_window(self) -> bool:
        count = self._current_count
        self._current_count = 0
        spike = False
        if len(self._history) >= 3 and count >= self.min_count:
            baseline = median(self._history)
            spike = count > self.spike_factor * max(baseline, 1.0)
        self._history.append(count)
        return spike

    def reset(self) -> None:
        """Forget history (called after an actual flush)."""
        self._history.clear()
        self._current_count = 0
