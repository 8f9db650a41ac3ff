"""Edge profiling baseline.

Edge profiles are the classic cheap alternative to path profiles; the
paper's related work (§7) cites Ball/Mataga/Sagiv's result that edge
profiles recover a large share of the hot path profile offline.  The
profiler counts every traversed (src, dst) block pair.
"""

from __future__ import annotations

import numpy as np

from repro.profiling.base import Profiler, ProfileReport
from repro.profiling.counters import CounterTable
from repro.trace.batch import HALT_DST, EventBatch


class EdgeProfiler(Profiler):
    """Counts control-flow edge traversals."""

    name = "edge"

    def __init__(self) -> None:
        self._counters = CounterTable("edges")

    def observe_batch(self, batch: EventBatch) -> None:
        """Vectorized: encode (src, dst) pairs, count distinct codes."""
        live = batch.dst != HALT_DST
        src = batch.src[live]
        dst = batch.dst[live]
        if not len(src):
            return
        stride = int(dst.max()) + 1
        codes, counts = np.unique(src * stride + dst, return_counts=True)
        keys = [
            (code // stride, code % stride) for code in codes.tolist()
        ]
        self._counters.bump_many(keys, counts.tolist())

    def report(self) -> ProfileReport:
        return ProfileReport(
            scheme=self.name,
            frequencies={key: count for key, count in self._counters.items()},
            counter_space=self._counters.high_water,
            profiling_ops=self._counters.updates,
        )
