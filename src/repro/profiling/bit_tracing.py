"""Bit tracing: on-the-fly path signatures (paper §2).

A path is identified by ``<start_address>.<history>,<indirect targets>``.
At run time a signature register shifts in one bit per conditional
branch outcome, appends indirect branch targets, and on reaching a path
end uses the signature as a hash-table key to bump the path's counter.
No preparatory static analysis is needed — the advantage over
Ball–Larus numbering the paper highlights — at the price of per-branch
shift operations on *every* branch.

The path ends and signatures are the path extractor's: a
:class:`~repro.trace.path.PathTable` row *is* its path's signature, so
the profiler feeds its stream to a
:class:`~repro.trace.extractor.PathStream` and counts the ids it
returns.  What the profiler adds is the register's cost: one shift per
conditional branch and one append per indirect branch, a vectorized
count.
"""

from __future__ import annotations

import numpy as np

from repro.cfg.program import Program
from repro.profiling.base import Profiler, ProfileReport
from repro.profiling.counters import CounterTable
from repro.trace.batch import (
    CODE_FALLTHROUGH,
    CODE_INDIRECT,
    CODE_TAKEN,
    HALT_DST,
    EventBatch,
)
from repro.trace.extractor import PathExtractor, PathStream


class BitTracingProfiler(Profiler):
    """Online path profiling via signature registers.

    Parameters
    ----------
    program:
        Supplies block addresses for the signatures.

    Paths are capped at 256 blocks, the extractor's default.
    """

    name = "bit-tracing"

    def __init__(self, program: Program):
        self._extractor = PathExtractor(program)
        self._stream: PathStream | None = None
        self._counters = CounterTable("paths")
        self._shift_ops = 0
        self._halted = False

    def observe_batch(self, batch: EventBatch) -> None:
        """Count the batch's completed paths and its register operations.

        Events after a halt are ignored (the trace has ended).
        """
        if self._halted or len(batch) == 0:
            return
        if self._stream is None:
            self._stream = self._extractor.stream(start_uid=int(batch.src[0]))
        for path_id in self._stream.feed(batch):
            self._counters.bump(path_id)

        dst = batch.dst
        kind = batch.kind
        halts = np.flatnonzero(dst == HALT_DST)
        if halts.size:
            end = int(halts[0]) + 1
            dst = dst[:end]
            kind = kind[:end]
            self._halted = True
        conditional = (kind == CODE_TAKEN) | (kind == CODE_FALLTHROUGH)
        indirect = (kind == CODE_INDIRECT) & (dst != HALT_DST)
        self._shift_ops += int(np.count_nonzero(conditional | indirect))

    def report(self) -> ProfileReport:
        if self._stream is not None:
            # Flush the path in flight when the stream ended.
            for path_id in self._stream.finish():
                self._counters.bump(path_id)
            self._stream = None
        table = self._extractor.table
        return ProfileReport(
            scheme=self.name,
            frequencies={
                table.path(path_id).signature: count
                for path_id, count in self._counters.items()
            },
            counter_space=self._counters.high_water,
            profiling_ops=self._shift_ops + self._counters.updates,
        )
