"""NET — Next Executing Tail prediction (paper §4.1/§4.2).

NET splits a path into its *head* (the starting block, a target of a
backward taken branch) and its *tail* (the remainder).  Profiling is
limited to heads: one counter per head, bumped whenever a backward taken
branch lands there.  Once a head's counter exceeds the prediction delay τ
the head is *hot*, and the next executing tail is speculatively selected
as a hot path — no per-branch history shifting, no path table.

Two models of what happens after the first selection are provided:

* ``retire_heads=False`` (default) — the *region* model used for the
  paper's abstract evaluation: once a head is hot, every distinct tail
  that subsequently executes from it is materialized at its first
  post-hot execution and captured from then on.  This abstracts Dynamo's
  secondary trace selection, where exits of an existing fragment become
  new trace heads, so the second (third, …) hot path through a loop is
  still captured shortly after the region turns hot.
* ``retire_heads=True`` — the literal single-shot model: the head
  counter is retired after its first prediction and only the one
  next-executing tail is ever selected for that head.  Useful as an
  ablation; it shows how much of NET's hit rate rests on secondary
  selection when loops have more than one dominant path.

Either way the counter population is bounded by the number of
backward-branch targets (a fraction of |B|), against up to 2^|B| path
counters for path-profile based prediction.

Head counters only ever increase, so τ is a threshold: an occurrence
executes from a hot head exactly when its head's counted-arrival rank
(:meth:`PathTrace.head_arrival_ranks`, computed once per trace) exceeds
τ.  Every delay replays the trace with one comparison per occurrence.
"""

from __future__ import annotations

import numpy as np

from repro.prediction.base import OnlinePredictor, PredictionOutcome
from repro.trace.recorder import PathTrace


class NETPredictor(OnlinePredictor):
    """The paper's NET prediction scheme.

    Parameters
    ----------
    delay:
        The prediction delay τ.  A head turns hot at its (τ+1)-th counted
        execution; tails captured from a hot head include the execution
        that materializes them, mirroring the ``freq(p) − τ`` accounting
        of path-profile prediction.
    count_backward_arrivals_only:
        When True (default, matching Dynamo) the head counter is bumped
        only when control reaches the head *via a backward taken branch*.
        When False every path start bumps the counter.
    retire_heads:
        Single-shot ablation; see the module docstring.
    """

    name = "net"

    def __init__(
        self,
        delay: int,
        count_backward_arrivals_only: bool = True,
        retire_heads: bool = False,
    ):
        super().__init__(delay)
        self.count_backward_arrivals_only = count_backward_arrivals_only
        self.retire_heads = retire_heads

    # ------------------------------------------------------------------
    def run(self, trace: PathTrace) -> PredictionOutcome:
        tau = self.delay
        rank, arrivals = trace.head_arrival_ranks(
            self.count_backward_arrivals_only
        )
        captured = np.bincount(
            trace.path_ids[rank > tau], minlength=trace.num_paths
        )
        predicted = np.flatnonzero(captured)
        captured = captured[predicted]
        # A path has one head and its rank never decreases, so a path's
        # hot occurrences are a suffix of its occurrences: the path is
        # predicted at the first occurrence of that suffix.
        order, starts = trace.occurrence_index()
        times = order[starts[predicted + 1] - captured]

        by_time = np.argsort(times, kind="stable")
        predicted = predicted[by_time]
        times = times[by_time]
        captured = captured[by_time]
        if self.retire_heads:
            # A retired head predicts only the tail executing when it
            # turns hot, which is its earliest region-model prediction;
            # that tail's captured flow is the same in both models.
            _, first = np.unique(
                trace.start_uids()[predicted], return_index=True
            )
            first.sort()
            predicted, times, captured = (
                predicted[first],
                times[first],
                captured[first],
            )

        return PredictionOutcome(
            scheme=self.name,
            delay=tau,
            predicted_ids=predicted,
            prediction_times=times,
            captured=captured,
            counter_space=len(arrivals),
            # Each head performs at most τ+1 counter increments before
            # turning hot; collecting a selected tail costs one
            # incremental instrumentation step per block (paper §4.2).
            profiling_ops=int(np.minimum(arrivals, tau + 1).sum())
            + int(trace.blocks_per_path()[predicted].sum()),
        )
