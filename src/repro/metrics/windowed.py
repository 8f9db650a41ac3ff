"""Time-sensitive prediction metrics with path retirement.

The paper's §6.1 closes with its future work: "We plan to extend our
path metrics to model path removal from the prediction set. With a path
removal model we obtain an abstract measure to evaluate how well a
prediction scheme reacts to phase changes and how well it handles
phase-induced noise."  This module implements that extension.

The trace is divided into fixed windows.  Within each window a path in
the current prediction set either *hits* (it is hot in this window's
sub-trace), or contributes *phase noise* (it is resident but cold here).
Between windows a :class:`RetirementPolicy` may remove paths from the
set; the paper's Dynamo flush is the ``FlushOnSpike`` policy, and two
reference policies bracket it (never retire; retire when idle).

The summary statistics answer the §6.1 questions quantitatively:

* ``windowed_hit_rate`` — hot flow captured per window, averaged;
* ``phase_noise_rate`` — flow-weighted share of resident-but-cold
  predictions (the "formerly hot, turned cold" noise that a longer
  prediction delay cannot fix);
* ``retired_total`` / ``useful_retired`` — how much the policy removed,
  and how much of that was still useful (the flush-timing cost the
  paper wants minimized).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.metrics.hotpaths import DEFAULT_HOT_FRACTION, hot_path_set_absolute
from repro.prediction.base import PredictionOutcome
from repro.trace.recorder import PathTrace


class RetirementPolicy(abc.ABC):
    """Decides which resident predictions to drop at a window boundary."""

    name: str = "abstract"

    @abc.abstractmethod
    def retire(
        self,
        window_index: int,
        resident: set[int],
        window_freqs: np.ndarray,
        new_predictions: int,
    ) -> set[int]:
        """Return the subset of ``resident`` to remove.

        ``window_freqs`` is the per-path frequency inside the window just
        finished; ``new_predictions`` is how many paths entered the set
        during it (the §6.1 monitoring signal).
        """


class NeverRetire(RetirementPolicy):
    """The accumulated-profile baseline: predictions live forever."""

    name = "never"

    def retire(self, window_index, resident, window_freqs, new_predictions):
        return set()


class RetireIdle(RetirementPolicy):
    """Drop paths unused for ``patience`` consecutive windows.

    An idealized per-fragment reclamation — cheaper than a flush in
    noise terms but needs per-path bookkeeping Dynamo avoided.
    """

    name = "idle"

    def __init__(self, patience: int = 2):
        if patience < 1:
            raise ReproError("patience must be at least 1")
        self.patience = patience
        self._idle: dict[int, int] = {}

    def retire(self, window_index, resident, window_freqs, new_predictions):
        victims = set()
        for path_id in resident:
            if window_freqs[path_id] > 0:
                self._idle[path_id] = 0
                continue
            idle = self._idle.get(path_id, 0) + 1
            self._idle[path_id] = idle
            if idle >= self.patience:
                victims.add(path_id)
        for victim in victims:
            self._idle.pop(victim, None)
        return victims


class FlushOnSpike(RetirementPolicy):
    """Dynamo's heuristic: flush everything when predictions spike
    above ``spike_factor`` times the median of the last six windows."""

    name = "flush-on-spike"

    def __init__(self, spike_factor: float = 3.0):
        if spike_factor <= 1.0:
            raise ReproError("spike_factor must exceed 1")
        self.spike_factor = spike_factor
        self._rates: list[int] = []
        self.flush_windows: list[int] = []

    def retire(self, window_index, resident, window_freqs, new_predictions):
        spike = False
        if len(self._rates) >= 3:
            baseline = sorted(self._rates)[len(self._rates) // 2]
            spike = new_predictions > self.spike_factor * max(baseline, 1)
        self._rates.append(new_predictions)
        if len(self._rates) > 6:
            self._rates.pop(0)
        if spike:
            self.flush_windows.append(window_index)
            self._rates.clear()
            return set(resident)
        return set()


@dataclass
class WindowedQuality:
    """Per-window scores plus run-level aggregates."""

    window: int
    policy: str
    #: Hot flow captured by resident predictions, per window.
    hits_per_window: list[int] = field(default_factory=list)
    #: Hot flow per window (the denominator).
    hot_flow_per_window: list[int] = field(default_factory=list)
    #: Flow of resident-but-window-cold predictions, per window.
    phase_noise_per_window: list[int] = field(default_factory=list)
    #: Resident-set size at each window end.
    resident_per_window: list[int] = field(default_factory=list)
    retired_total: int = 0
    #: Retired paths that were hot again in a later window (mistimed).
    useful_retired: int = 0

    @property
    def windowed_hit_rate(self) -> float:
        """Mean per-window hit rate (%), hot-flow weighted."""
        hot = sum(self.hot_flow_per_window)
        if hot == 0:
            return 0.0
        return 100.0 * sum(self.hits_per_window) / hot

    @property
    def phase_noise_rate(self) -> float:
        """Phase noise as % of total captured-window flow."""
        captured = sum(self.hits_per_window) + sum(
            self.phase_noise_per_window
        )
        if captured == 0:
            return 0.0
        return 100.0 * sum(self.phase_noise_per_window) / captured

    @property
    def mean_resident(self) -> float:
        """Average resident-set size."""
        if not self.resident_per_window:
            return 0.0
        return sum(self.resident_per_window) / len(self.resident_per_window)


def evaluate_windowed(
    trace: PathTrace,
    outcome: PredictionOutcome,
    policy: RetirementPolicy | None = None,
    window: int = 20_000,
) -> WindowedQuality:
    """Score a prediction outcome window by window under a policy.

    A path enters the resident set at its prediction time and stays
    until the policy retires it.  In each window, resident paths that
    are hot *in that window* (frequency above 0.1% of the window) count
    their window flow as hits; resident paths executing below the
    threshold contribute their window flow as phase noise.
    """
    if window < 1:
        raise ReproError("window must be positive")
    policy = policy or NeverRetire()
    n = trace.flow
    num_windows = max(-(-n // window), 1)
    threshold = DEFAULT_HOT_FRACTION * window

    # Predictions grouped by the window they fire in.
    predictions_by_window: dict[int, list[int]] = {}
    for path_id, time in zip(outcome.predicted_ids, outcome.prediction_times):
        predictions_by_window.setdefault(int(time) // window, []).append(
            int(path_id)
        )

    quality = WindowedQuality(window=window, policy=policy.name)
    resident: set[int] = set()
    retired_ever: set[int] = set()

    for index in range(num_windows):
        sub = trace.slice(index * window, min((index + 1) * window, n))
        window_freqs = sub.freqs()
        window_hot = hot_path_set_absolute(sub, threshold)

        new_predictions = predictions_by_window.get(index, [])
        resident.update(new_predictions)

        hits = 0
        phase_noise = 0
        for path_id in resident:
            flow = int(window_freqs[path_id])
            if flow == 0:
                continue
            if window_hot.is_hot(path_id):
                hits += flow
            else:
                phase_noise += flow
        # Retired-too-early accounting: a retired path that turns hot
        # again in a later window was still useful (counted once).
        reactivated = {
            path_id
            for path_id in retired_ever
            if window_hot.is_hot(path_id)
        }
        quality.useful_retired += len(reactivated)
        retired_ever -= reactivated

        quality.hits_per_window.append(hits)
        quality.hot_flow_per_window.append(window_hot.hot_flow)
        quality.phase_noise_per_window.append(phase_noise)

        victims = policy.retire(
            index, resident, window_freqs, len(new_predictions)
        )
        quality.retired_total += len(victims)
        retired_ever.update(victims)
        resident.difference_update(victims)
        quality.resident_per_window.append(len(resident))

    return quality
