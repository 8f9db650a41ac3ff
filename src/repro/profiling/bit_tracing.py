"""Bit tracing: on-the-fly path signatures (paper §2).

A path is identified by ``<start_address>.<history>,<indirect targets>``.
The profiler mirrors the paper's description exactly: a signature register
shifts in one bit per conditional branch outcome, appends indirect branch
targets, and on reaching a path end uses the signature as a hash-table key
to bump the path's counter.  No preparatory static analysis is needed —
the advantage over Ball–Larus numbering the paper highlights — at the
price of per-branch shift operations on *every* branch.

Path-end detection follows the interprocedural forward-path definition:
segments end where :func:`repro.trace.columnar.find_cuts` cuts, as in
:mod:`repro.trace.extractor` (and tested to agree with it).  A batch
replays only the first occurrence of each distinct segment through a
register; recurring segments hit a memo.
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
from repro.trace.columnar import find_cuts
from repro.trace.path import PathSignature, SignatureRegister


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
        self._program = program
        self._max_blocks = 256
        self._counters = CounterTable("paths")
        self._shift_ops = 0
        self._started = False
        self._batch_halted = False
        # The open segment's start uid and its events so far, carried
        # between observe_batch calls.
        self._seg_uid: int | None = None
        self._carry_dst: np.ndarray | None = None
        self._carry_kind: np.ndarray | None = None
        self._carry_backward: np.ndarray | None = None
        self._sig_memo: dict[tuple, PathSignature] = {}

    def _bump_segment(
        self, uid: int, dst_seg: np.ndarray, kind_seg: np.ndarray
    ) -> None:
        """Bump the signature of one segment.

        The signature only depends on the start uid, the kind codes and
        the indirect targets, so recurring segments hit a memo instead
        of replaying their shifts.
        """
        key = (uid, (dst_seg * np.int64(8) + kind_seg).tobytes())
        signature = self._sig_memo.get(key)
        if signature is None:
            signature = self._build_signature(uid, dst_seg, kind_seg)
            self._sig_memo[key] = signature
        self._counters.bump(signature)

    def _build_signature(
        self, uid: int, dst_seg: np.ndarray, kind_seg: np.ndarray
    ) -> PathSignature:
        """Replay one segment's shifts into a fresh register (memo miss)."""
        register = SignatureRegister(self._program.block_by_uid(uid).address)
        for kc, dc in zip(kind_seg.tolist(), dst_seg.tolist()):
            if kc == CODE_TAKEN:
                register.shift(1)
            elif kc == CODE_FALLTHROUGH:
                register.shift(0)
            elif kc == CODE_INDIRECT and dc != HALT_DST:
                register.record_indirect(
                    self._program.block_by_uid(dc).address
                )
        return register.snapshot()

    def observe_batch(self, batch: EventBatch) -> None:
        """Segment with find_cuts and bump memoized signatures.

        Every conditional branch costs one shift and every indirect
        branch one target append (a vectorized count); each cut segment
        bumps the signature its register would have accumulated.
        Events after a halt are ignored (the trace has ended).
        """
        if self._batch_halted or len(batch) == 0:
            return
        if not self._started:
            self._started = True
            self._seg_uid = int(batch.src[0])

        dst = batch.dst
        kind = batch.kind
        backward = batch.backward
        halts = np.flatnonzero(dst == HALT_DST)
        if halts.size:
            end = int(halts[0]) + 1
            dst = dst[:end]
            kind = kind[:end]
            backward = backward[:end]
            self._batch_halted = True

        conditional = (kind == CODE_TAKEN) | (kind == CODE_FALLTHROUGH)
        indirect = (kind == CODE_INDIRECT) & (dst != HALT_DST)
        self._shift_ops += int(np.count_nonzero(conditional))
        self._shift_ops += int(np.count_nonzero(indirect))

        if self._carry_dst is not None and len(self._carry_dst):
            dst = np.concatenate((self._carry_dst, dst))
            kind = np.concatenate((self._carry_kind, kind))
            backward = np.concatenate((self._carry_backward, backward))

        # One combined column keys the segment memo: the signature only
        # depends on (start uid, kinds, indirect targets), all captured
        # by dst * 8 + kind.
        comb = dst * np.int64(8) + kind
        cuts = find_cuts(dst, kind, backward, self._max_blocks)
        memo = self._sig_memo
        bump = self._counters.bump
        begin = 0
        for cut, next_uid in zip(cuts.tolist(), dst[cuts].tolist()):
            stop = cut + 1
            key = (self._seg_uid, comb[begin:stop].tobytes())
            signature = memo.get(key)
            if signature is None:
                signature = self._build_signature(
                    self._seg_uid, dst[begin:stop], kind[begin:stop]
                )
                memo[key] = signature
            bump(signature)
            self._seg_uid = None if next_uid == HALT_DST else next_uid
            begin = stop
        if self._batch_halted:
            self._carry_dst = None
            self._carry_kind = None
            self._carry_backward = None
        else:
            self._carry_dst = dst[begin:].copy()
            self._carry_kind = kind[begin:].copy()
            self._carry_backward = backward[begin:].copy()

    def report(self) -> ProfileReport:
        if self._seg_uid is not None:
            # Flush the open segment: the path in flight when the
            # stream ended.
            dst_tail = (
                self._carry_dst
                if self._carry_dst is not None
                else np.empty(0, np.int64)
            )
            kind_tail = (
                self._carry_kind
                if self._carry_kind is not None
                else np.empty(0, np.uint8)
            )
            self._bump_segment(self._seg_uid, dst_tail, kind_tail)
            self._seg_uid = None
            self._carry_dst = None
            self._carry_kind = None
            self._carry_backward = None
        return ProfileReport(
            scheme=self.name,
            frequencies={key: count for key, count in self._counters.items()},
            counter_space=self._counters.high_water,
            profiling_ops=self._shift_ops + self._counters.updates,
        )
