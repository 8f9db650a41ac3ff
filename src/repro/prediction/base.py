"""Shared vocabulary of the online prediction schemes.

Every predictor consumes a :class:`repro.trace.PathTrace` and produces a
:class:`PredictionOutcome`: which paths were predicted, *when* (the
occurrence index of the prediction moment), and how much of each predicted
path's flow remains after that moment (its *captured* flow).  The abstract
metrics of :mod:`repro.metrics.quality` are pure functions of an outcome
plus the trace's hot set, so the same evaluation code scores every scheme.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import PredictionError
from repro.obs.core import Registry, get_registry
from repro.trace.recorder import PathTrace


@dataclass(frozen=True)
class PredictionOutcome:
    """Result of running one predictor over one trace.

    Attributes
    ----------
    scheme:
        Human-readable scheme name (``"path-profile"``, ``"net"``, …).
    delay:
        The prediction delay τ the scheme ran with.
    predicted_ids:
        Path ids predicted hot, in prediction order.
    prediction_times:
        Occurrence index at which each prediction was made (aligned with
        ``predicted_ids``).  The execution at the prediction index is
        already part of the captured flow, matching the paper's
        ``freq(p) − τ`` accounting.
    captured:
        Captured flow per predicted path: the number of its executions at
        or after the prediction moment.
    counter_space:
        Number of counters the scheme allocated during the run — the
        space-consumption measure of paper §5.2.
    profiling_ops:
        Approximate count of dynamic profiling operations (counter bumps,
        history-bit shifts, path-table updates) — the runtime-overhead
        measure of paper §4.
    """

    scheme: str
    delay: int
    predicted_ids: np.ndarray
    prediction_times: np.ndarray
    captured: np.ndarray
    counter_space: int
    profiling_ops: int

    def __post_init__(self) -> None:
        lengths = {
            len(self.predicted_ids),
            len(self.prediction_times),
            len(self.captured),
        }
        if len(lengths) != 1:
            raise PredictionError(
                "predicted_ids, prediction_times and captured must be "
                "aligned arrays"
            )

    @property
    def num_predictions(self) -> int:
        """How many paths the scheme predicted hot."""
        return int(len(self.predicted_ids))

    @property
    def captured_flow(self) -> int:
        """Total flow captured across all predictions."""
        return int(self.captured.sum())

    def publish(self, obs: Registry | None) -> None:
        """Accumulate this outcome's accounting into an obs registry.

        Counters (relative to ``obs``): ``outcomes``, ``predictions``,
        ``captured_flow``, and the paper's two cost axes —
        ``profiling_ops`` (dynamic profiling operations, §4) and
        ``counter_space`` (counters allocated, §5.2).  Sums are
        meaningful across any number of outcomes, which is how a sweep
        reports scheme cost totals.  No-op on the null registry.
        """
        reg = get_registry(obs)
        reg.counter("outcomes").inc()
        reg.counter("predictions").inc(self.num_predictions)
        reg.counter("captured_flow").inc(self.captured_flow)
        reg.counter("profiling_ops").inc(int(self.profiling_ops))
        reg.counter("counter_space").inc(int(self.counter_space))


class OnlinePredictor(abc.ABC):
    """Base class of the online hot-path prediction schemes.

    Subclasses implement :meth:`run`.  ``delay`` is the prediction delay
    τ: the number of profiled executions a counter must accumulate before
    its unit is predicted hot.
    """

    #: Scheme name used in outcomes and reports.
    name: str = "abstract"

    def __init__(self, delay: int):
        if delay < 0:
            raise PredictionError(f"delay must be non-negative, got {delay}")
        self.delay = int(delay)

    @abc.abstractmethod
    def run(self, trace: PathTrace) -> PredictionOutcome:
        """Simulate the scheme over ``trace`` and return its outcome."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(delay={self.delay})"


def occurrence_index_arrays(
    path_ids: np.ndarray, num_paths: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group occurrence indices by path id.

    Returns ``(order, starts)`` where ``order`` is a stable argsort of
    ``path_ids`` and ``starts[i]`` is the offset in ``order`` of path
    ``i``'s first occurrence; ``order[starts[i]:starts[i+1]]`` lists the
    occurrence indices of path ``i`` in execution order.  ``starts`` has
    ``num_paths + 1`` entries.

    When grouping a :class:`~repro.trace.recorder.PathTrace`'s own
    occurrence array, prefer :meth:`PathTrace.occurrence_index`, which
    returns the identical pair but caches it on the trace so every
    predictor replaying the same trace shares one argsort.
    """
    order = np.argsort(path_ids, kind="stable")
    sorted_ids = path_ids[order]
    starts = np.searchsorted(sorted_ids, np.arange(num_paths + 1), side="left")
    return order, starts

