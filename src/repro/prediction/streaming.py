"""Incremental NET prediction over a live occurrence stream.

:class:`~repro.prediction.net.NETPredictor` replays a complete
:class:`~repro.trace.recorder.PathTrace` in one vectorized pass — the
right shape for sweeps, and the wrong one for a server that watches a
program *while it executes*.  :class:`NETSession` is the online form:
it consumes each batch of path occurrences the extractor completes
(:meth:`NETSession.observe_batch`), bumps head counters on backward
arrivals, and announces a hot-path selection the moment a tail first
executes from a hot head.  A 256-event batch completes about fifty
occurrences, too few for the offline rank-and-threshold kernel to pay
for its sorts, so the batch is applied by one plain loop whose state
lives in locals.

The session implements the paper's region model
(``retire_heads=False``): once a head's counter exceeds the prediction
delay τ, every distinct tail subsequently executing from it is selected
at its first post-hot execution and counted as captured from then on.
Determinism is the point — after any prefix of a stream, the session's
state is a pure function of the occurrences seen so far, and after the
*whole* stream its :meth:`outcome` is byte-identical to
``NETPredictor(delay).run(trace)`` over the materialized trace.  That
identity is what the serving property tests lean on to prove tenant
isolation; a property test pins :meth:`~NETSession.observe_batch`,
after every batch, to a per-occurrence reference session.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import PredictionError
from repro.prediction.base import PredictionOutcome


class NETSession:
    """Streaming NET state for one program execution (one tenant).

    Parameters
    ----------
    delay:
        The prediction delay τ; a head turns hot at its (τ+1)-th counted
        arrival, and the occurrence that makes it hot is itself eligible
        for selection (matching ``NETPredictor``'s accounting).
    count_backward_arrivals_only:
        When True (default, matching Dynamo) only arrivals via a
        backward taken branch bump the head counter.
    """

    __slots__ = (
        "delay",
        "count_backward_arrivals_only",
        "_counters",
        "_captured",
        "_predicted",
        "_times",
        "_flow",
        "_prev_ends_backward",
        "_increments",
        "_collection_blocks",
    )

    def __init__(
        self, delay: int, count_backward_arrivals_only: bool = True
    ):
        if delay < 0:
            raise PredictionError(
                f"delay must be non-negative, got {delay}"
            )
        self.delay = int(delay)
        self.count_backward_arrivals_only = count_backward_arrivals_only
        #: head uid -> counted arrivals so far (created on first count).
        self._counters: dict[int, int] = {}
        #: path id -> post-hot executions (created at selection time).
        self._captured: dict[int, int] = {}
        self._predicted: list[int] = []
        self._times: list[int] = []
        self._flow = 0
        self._prev_ends_backward = False
        self._increments = 0
        self._collection_blocks = 0

    # ------------------------------------------------------------------
    def observe_batch(
        self,
        path_ids: Sequence[int],
        heads: Sequence[int],
        ends_backward: Sequence[bool],
        num_blocks: Sequence[int],
    ) -> list[int]:
        """Feed a batch of path occurrences; return the selecting ones.

        ``heads``/``ends_backward``/``num_blocks`` are per-path tables
        indexed by path id: each path's head uid, whether it ended with
        a backward taken branch, and its block count (the stream
        equivalent of the trace's per-path columns).  An occurrence
        arrives via a backward taken branch exactly when the *previous*
        occurrence's path ended with one — the session carries that bit
        across batches itself.  Returns the positions within
        ``path_ids`` whose occurrence triggered a selection, ascending.

        The rule is applied one occurrence at a time, in order: a
        counted arrival bumps its head's counter, and an occurrence is
        hot exactly when its head has accumulated more than τ counted
        arrivals by then — the streaming restatement of
        ``index >= hot_time[head]``.  A hot occurrence of a path not yet
        captured selects it.
        """
        delay = self.delay
        last_increment = delay + 1
        count_all = not self.count_backward_arrivals_only
        counters = self._counters
        captured = self._captured
        predicted = self._predicted
        times = self._times
        start = self._flow
        prev_backward = self._prev_ends_backward
        increments = 0
        collection_blocks = 0
        selected: list[int] = []
        for position, path_id in enumerate(path_ids):
            head = heads[path_id]
            if prev_backward or count_all:
                count = counters.get(head, 0) + 1
                counters[head] = count
                if count <= last_increment:
                    increments += 1
            else:
                count = counters.get(head, 0)
            prev_backward = ends_backward[path_id]
            if count > delay:
                hits = captured.get(path_id)
                if hits is None:
                    captured[path_id] = 1
                    predicted.append(path_id)
                    times.append(start + position)
                    collection_blocks += num_blocks[path_id]
                    selected.append(position)
                else:
                    captured[path_id] = hits + 1
        self._flow = start + len(path_ids)
        self._prev_ends_backward = bool(prev_backward)
        self._increments += increments
        self._collection_blocks += collection_blocks
        return selected

    # ------------------------------------------------------------------
    # Durable state (serving checkpoints)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The session's complete mutable state as plain JSON-able data.

        Together with the constructor parameters this is everything a
        restored session needs to continue the stream byte-identically;
        :meth:`load_state` is the inverse.  Counter and capture maps are
        emitted as ``[key, value]`` pairs (JSON objects cannot carry int
        keys), in insertion order.
        """
        return {
            "counters": [
                [int(k), int(v)] for k, v in self._counters.items()
            ],
            "captured": [
                [int(k), int(v)] for k, v in self._captured.items()
            ],
            "predicted": [int(p) for p in self._predicted],
            "times": [int(t) for t in self._times],
            "flow": self._flow,
            "prev_ends_backward": bool(self._prev_ends_backward),
            "increments": self._increments,
            "collection_blocks": self._collection_blocks,
        }

    def load_state(self, state: dict) -> None:
        """Restore the exact state captured by :meth:`state_dict`.

        Only valid on a fresh session (nothing observed yet); the
        configuration (τ, counting mode) comes from the constructor and
        is *not* part of the state.
        """
        if self._flow:
            raise PredictionError(
                "cannot load state into a session that already "
                f"observed {self._flow} occurrences"
            )
        self._counters = {int(k): int(v) for k, v in state["counters"]}
        self._captured = {int(k): int(v) for k, v in state["captured"]}
        self._predicted = [int(p) for p in state["predicted"]]
        self._times = [int(t) for t in state["times"]]
        self._flow = int(state["flow"])
        self._prev_ends_backward = bool(state["prev_ends_backward"])
        self._increments = int(state["increments"])
        self._collection_blocks = int(state["collection_blocks"])

    # ------------------------------------------------------------------
    @property
    def flow(self) -> int:
        """Occurrences observed so far."""
        return self._flow

    @property
    def counter_space(self) -> int:
        """Head counters allocated so far (paper §5.2 space measure)."""
        return len(self._counters)

    @property
    def profiling_ops(self) -> int:
        """Dynamic profiling operations so far (paper §4 cost measure)."""
        return self._increments + self._collection_blocks

    def outcome(self) -> PredictionOutcome:
        """The session's state as a :class:`PredictionOutcome`.

        After a complete stream this equals (array for array, field for
        field) what ``NETPredictor(delay, count_backward_arrivals_only)``
        returns for the materialized trace.
        """
        predicted = np.asarray(self._predicted, dtype=np.int64)
        return PredictionOutcome(
            scheme="net",
            delay=self.delay,
            predicted_ids=predicted,
            prediction_times=np.asarray(self._times, dtype=np.int64),
            captured=np.asarray(
                [self._captured[int(p)] for p in self._predicted],
                dtype=np.int64,
            ),
            counter_space=self.counter_space,
            profiling_ops=self.profiling_ops,
        )
