"""Basic-block profiling baseline.

Counts block entries.  The paper notes (§4.2) that NET "requires even
less profiling than block or branch profiling schemes" — this baseline
makes that comparison concrete: block profiling bumps a counter at every
block entry, NET only at backward-taken-branch targets.
"""

from __future__ import annotations

import numpy as np

from repro.profiling.base import Profiler, ProfileReport
from repro.profiling.counters import CounterTable
from repro.trace.batch import HALT_DST, EventBatch


class BlockProfiler(Profiler):
    """Counts basic-block entries (the destination of every transfer)."""

    name = "block"

    def __init__(self, entry_uid: int | None = None):
        self._counters = CounterTable("blocks")
        if entry_uid is not None:
            # The entry block is entered once without a branch event.
            self._counters.bump(entry_uid)

    def observe_batch(self, batch: EventBatch) -> None:
        """Vectorized: count distinct destinations in one pass."""
        dst = batch.dst[batch.dst != HALT_DST]
        if not len(dst):
            return
        uids, counts = np.unique(dst, return_counts=True)
        self._counters.bump_many(uids.tolist(), counts.tolist())

    def report(self) -> ProfileReport:
        return ProfileReport(
            scheme=self.name,
            frequencies={key: count for key, count in self._counters.items()},
            counter_space=self._counters.high_water,
            profiling_ops=self._counters.updates,
        )
