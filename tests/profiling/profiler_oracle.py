"""Reference profilers: one event at a time.

Production profilers consume columnar batches only, through vectorized
``observe_batch`` paths.  Each class here adds back the smallest scalar
form of one of them: an ``observe`` that processes a single event, as
an instrumented binary would.  Most reuse the production class's
counters and ``report``; the bit-tracing reference, whose production
class is the path extractor plus an operation count, stands alone on
the scalar :class:`~tests.trace.event_oracle.SignatureRegister`.
:func:`scalar_report` drives one over a whole stream; the equivalence
tests require its report to equal the production one for every split
of the stream into batches.
"""

from __future__ import annotations

from repro.cfg.block import BranchKind
from repro.profiling import (
    BallLarusProfiler,
    BitTracingProfiler,
    BlockProfiler,
    EdgeProfiler,
    HeadCounterProfiler,
    KBoundedPathProfiler,
    ProfileReport,
)
from repro.trace.batch import (
    CODE_CALL,
    CODE_FALLTHROUGH,
    CODE_INDIRECT,
    CODE_RETURN,
    CODE_TAKEN,
    HALT_DST,
    EventBatch,
)
from tests.trace.event_oracle import SignatureRegister


class ScalarEdgeProfiler(EdgeProfiler):
    def observe(self, src, dst, kind, backward) -> None:
        if dst != HALT_DST:
            self._counters.bump((src, dst))


class ScalarBlockProfiler(BlockProfiler):
    def observe(self, src, dst, kind, backward) -> None:
        if dst != HALT_DST:
            self._counters.bump(dst)


class ScalarHeadCounterProfiler(HeadCounterProfiler):
    def observe(self, src, dst, kind, backward) -> None:
        if backward:
            self._counters.bump(dst)


class ScalarKBoundedPathProfiler(KBoundedPathProfiler):
    def observe(self, src, dst, kind, backward) -> None:
        if dst == HALT_DST or (
            self.intraprocedural and kind in (CODE_CALL, CODE_RETURN)
        ):
            self._window.clear()
            return
        self._window.append((src, dst))
        self._queue_ops += 1
        if len(self._window) == self.k:
            self._counters.bump(tuple(self._window))


class ScalarBitTracingProfiler:
    """A signature register shifted per branch, flushed at path ends.

    Standalone: it applies the §3 path ends itself and counts signatures
    in its own table, sharing no code with the extractor-backed
    :class:`BitTracingProfiler` it checks.
    """

    def __init__(self, program, max_blocks: int | None = 256):
        self._program = program
        self._max_blocks = max_blocks
        self._counts: dict = {}
        self._shift_ops = 0
        self._register: SignatureRegister | None = None
        self._started = False
        self._blocks_in_path = 1
        self._open_calls = 0

    def _start(self, uid: int) -> None:
        address = self._program.block_by_uid(uid).address
        self._register = SignatureRegister(address)
        self._blocks_in_path = 1
        self._open_calls = 0

    def _finish(self) -> None:
        if self._register is not None:
            signature = self._register.snapshot()
            self._counts[signature] = self._counts.get(signature, 0) + 1
            self._register = None

    def observe(self, src, dst, kind, backward) -> None:
        if not self._started:
            self._started = True
            self._start(src)
        if kind in (CODE_TAKEN, CODE_FALLTHROUGH):
            self._register.shift(1 if kind == CODE_TAKEN else 0)
            self._shift_ops += 1
        elif kind == CODE_INDIRECT and dst != HALT_DST:
            address = self._program.block_by_uid(dst).address
            self._register.record_indirect(address)
            self._shift_ops += 1
        if dst == HALT_DST:
            self._finish()
            return
        if backward:
            self._finish()
            self._start(dst)
            return
        if kind == CODE_CALL:
            self._open_calls += 1
        elif kind == CODE_RETURN and self._open_calls > 0:
            self._finish()
            self._start(dst)
            return
        if (
            self._max_blocks is not None
            and self._blocks_in_path >= self._max_blocks
        ):
            self._finish()
            self._start(dst)
        else:
            self._blocks_in_path += 1

    def report(self) -> ProfileReport:
        """One counter per signature; one update per path end plus one
        register operation per conditional or indirect branch."""
        self._finish()
        return ProfileReport(
            scheme="bit-tracing",
            frequencies=dict(self._counts),
            counter_space=len(self._counts),
            profiling_ops=self._shift_ops + sum(self._counts.values()),
        )


class ScalarBallLarusProfiler(BallLarusProfiler):
    """One chord increment per edge, on a per-activation register stack."""

    def observe(self, src, dst, kind, backward) -> None:
        stack = self._stack
        if not self._started:
            self._started = True
            self._enter_procedure(src)
        if dst == HALT_DST:
            self._end_path(src)
            stack.clear()
            return
        if kind == CODE_CALL:
            # The caller's path pauses across the call.
            self._enter_procedure(dst)
            return
        terminator = self._program.block_by_uid(src).terminator.kind
        if kind == CODE_RETURN or terminator is BranchKind.RETURN:
            # The returning activation's path ends at the return.
            self._end_path(src)
            if stack:
                stack.pop()
            if stack:
                proc_name, register, current = stack[-1]
                stack[-1][1] = self._apply(proc_name, current, dst, register)
                stack[-1][2] = dst
            return
        proc_name, register, _ = stack[-1]
        if backward:
            # The branch target starts the activation's next path.
            self._end_path(src)
            entry = self._numberings[proc_name].virtual_entry
            stack[-1][1] = self._apply(proc_name, entry, dst, 0)
        else:
            stack[-1][1] = self._apply(proc_name, src, dst, register)
        stack[-1][2] = dst


#: Production profiler class -> its one-event-at-a-time reference.
SCALAR = {
    EdgeProfiler: ScalarEdgeProfiler,
    BlockProfiler: ScalarBlockProfiler,
    HeadCounterProfiler: ScalarHeadCounterProfiler,
    KBoundedPathProfiler: ScalarKBoundedPathProfiler,
    BitTracingProfiler: ScalarBitTracingProfiler,
    BallLarusProfiler: ScalarBallLarusProfiler,
}


def scalar_report(profiler, events: EventBatch) -> ProfileReport:
    """Feed ``events`` to a reference profiler one by one and report."""
    for event in zip(
        events.src.tolist(),
        events.dst.tolist(),
        events.kind.tolist(),
        events.backward.tolist(),
    ):
        profiler.observe(*event)
    return profiler.report()
