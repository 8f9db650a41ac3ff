"""Side-by-side overhead comparison of the profiling schemes.

Paper §4 argues that path-profile based prediction's runtime overhead
(counter space + per-branch profiling operations) is what disqualifies it
online.  :func:`compare_schemes` runs every profiler over one event
stream and tabulates the two cost figures, plus a NET-style head-only
counter for reference.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.cfg.program import Program
from repro.profiling.ball_larus import BallLarusProfiler
from repro.profiling.base import Profiler, ProfileReport
from repro.profiling.bit_tracing import BitTracingProfiler
from repro.profiling.block_profile import BlockProfiler
from repro.profiling.counters import CounterTable
from repro.profiling.edge_profile import EdgeProfiler
from repro.profiling.kpaths import KBoundedPathProfiler
from repro.trace.batch import EventBatch


@dataclass(frozen=True)
class OverheadRow:
    """One scheme's cost figures on one event stream."""

    scheme: str
    counter_space: int
    profiling_ops: int
    num_units: int


class HeadCounterProfiler(Profiler):
    """NET's profiling component alone: counters at backward-branch targets."""

    name = "net-heads"

    def __init__(self) -> None:
        self._counters = CounterTable("heads")

    def observe_batch(self, batch: EventBatch) -> None:
        """Vectorized: count distinct backward-branch targets."""
        heads = batch.dst[batch.backward]
        if not len(heads):
            return
        uids, counts = np.unique(heads, return_counts=True)
        self._counters.bump_many(uids.tolist(), counts.tolist())

    def report(self) -> ProfileReport:
        return ProfileReport(
            scheme=self.name,
            frequencies={key: count for key, count in self._counters.items()},
            counter_space=self._counters.high_water,
            profiling_ops=self._counters.updates,
        )


def compare_schemes(
    program: Program,
    events: EventBatch | Iterable[EventBatch],
) -> list[OverheadRow]:
    """Run every profiling scheme over ``events`` and tabulate costs.

    ``events`` is one :class:`~repro.trace.batch.EventBatch` or an
    iterable of batches forming one stream; an iterator is read into a
    list first, because every profiler consumes the whole stream.  The
    rows do not depend on how the stream is split into batches.
    """
    if not isinstance(events, EventBatch):
        events = list(events)
    profilers = [
        BitTracingProfiler(program),
        BallLarusProfiler(program),
        KBoundedPathProfiler(k=8),
        EdgeProfiler(),
        BlockProfiler(entry_uid=program.entry_block.uid),
        HeadCounterProfiler(),
    ]
    rows = []
    for profiler in profilers:
        report = profiler.run(events)
        rows.append(
            OverheadRow(
                scheme=report.scheme,
                counter_space=report.counter_space,
                profiling_ops=report.profiling_ops,
                num_units=report.num_units,
            )
        )
    return rows
