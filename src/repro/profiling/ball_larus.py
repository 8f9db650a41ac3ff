"""Ball–Larus runtime path profiling (paper §2).

Uses the static numbering and spanning-tree instrumentation plan from
:mod:`repro.cfg.spanning_tree` to profile *intraprocedural acyclic forward
paths* at run time the way an instrumented binary would: a per-activation
register ``r`` starts at 0, every traversed *chord* edge adds its
increment, and reaching the procedure's path end bumps ``count[r]``.

The profiler demonstrates the scheme's offline strengths and online costs:
increments only on chord edges (fewer dynamic operations than bit
tracing), but a preparatory static analysis and a counter space bounded by
the *static* path count, which can be exponential in the procedure size.
"""

from __future__ import annotations

import numpy as np

from repro.cfg.block import BranchKind
from repro.cfg.program import Program
from repro.cfg.spanning_tree import BallLarusNumbering, number_program
from repro.profiling.base import Profiler, ProfileReport
from repro.profiling.counters import CounterTable
from repro.trace.batch import CODE_CALL, CODE_RETURN, HALT_DST, EventBatch


class BallLarusProfiler(Profiler):
    """Runtime profiler over the Ball–Larus instrumentation plan.

    Keys of the resulting frequency map are ``(procedure_name, path_id)``
    pairs; :meth:`decode` recovers the block sequence of any profiled
    path.
    """

    name = "ball-larus"

    def __init__(self, program: Program):
        self._program = program
        self._numberings: dict[str, BallLarusNumbering] = number_program(
            program
        )
        # chord increment lookup per procedure: (src, dst) -> increment.
        self._chords: dict[str, dict[tuple[int, int], int]] = {}
        for name, numbering in self._numberings.items():
            chords = {}
            chord_set = set(numbering.chord_indices)
            for edge in numbering.edges:
                if edge.index in chord_set:
                    chords[(edge.src, edge.dst)] = numbering.increments[
                        edge.index
                    ]
            self._chords[name] = chords

        self._counters = CounterTable("bl-paths")
        self._increment_ops = 0
        # Per-activation register stack: (proc_name, register, current uid).
        self._stack: list[list] = []
        self._started = False
        # Batch-path lookup tables: a dense per-uid "terminator is
        # RETURN" mask, a per-edge-code (increment, is_chord) cache,
        # and dense virtual-exit increment tables.
        self._return_term: np.ndarray | None = None
        self._edge_cache: dict[int, tuple[int, bool]] = {}
        self._virtual_tables: tuple[np.ndarray, ...] | None = None

    # ------------------------------------------------------------------
    def _enter_procedure(self, uid: int) -> None:
        proc_name = self._program.block_by_uid(uid).proc_name
        numbering = self._numberings[proc_name]
        register = self._apply(proc_name, numbering.virtual_entry, uid, 0)
        self._stack.append([proc_name, register, uid])

    def _apply(
        self, proc_name: str, src: int, dst: int, register: int
    ) -> int:
        increment = self._chords[proc_name].get((src, dst))
        if increment is not None:
            register += increment
            self._increment_ops += 1
        return register

    def _end_path(self, last_uid: int) -> None:
        """Close the current activation's path at ``last_uid``."""
        if not self._stack:
            return
        proc_name, register, _ = self._stack[-1]
        numbering = self._numberings[proc_name]
        register = self._apply(
            proc_name, last_uid, numbering.virtual_exit, register
        )
        self._counters.bump((proc_name, register))

    # ------------------------------------------------------------------
    def _edge_tables(
        self, codes: np.ndarray, stride: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-event ``(increment, is_chord)`` via an edge-code cache.

        Non-edges (halt events, virtual-edge codes never seen as plain
        transfers) resolve to ``(0, False)``.
        """
        uniq, inverse = np.unique(codes, return_inverse=True)
        inc = np.empty(len(uniq), np.int64)
        chord = np.empty(len(uniq), bool)
        cache = self._edge_cache
        for i, code in enumerate(uniq.tolist()):
            entry = cache.get(code)
            if entry is None:
                s, d_plus1 = divmod(code, stride)
                d = d_plus1 - 1
                increment = None
                if d >= 0:
                    proc = self._program.block_by_uid(s).proc_name
                    increment = self._chords[proc].get((s, d))
                entry = (
                    (0, False) if increment is None else (increment, True)
                )
                cache[code] = entry
            inc[i] = entry[0]
            chord[i] = entry[1]
        return inc[inverse], chord[inverse]

    def _virtual_exit_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense per-uid virtual-exit ``(increment, is_chord)`` tables.

        A path that ends at a backward branch leaves through its
        source's edge to the virtual exit, which may be a chord.  The
        next path enters its head through an edge from the virtual
        entry, which needs no table: the spanning tree keeps every such
        edge into a loop head, and the only chords out of the virtual
        entry lead to the entry block of a single-path procedure, with
        increment 0, where no back edge lands.
        """
        if self._virtual_tables is None:
            blocks = self._program.blocks
            exit_inc = np.zeros(len(blocks), np.int64)
            exit_chord = np.zeros(len(blocks), bool)
            for uid, block in enumerate(blocks):
                numbering = self._numberings[block.proc_name]
                inc = self._chords[block.proc_name].get(
                    (uid, numbering.virtual_exit)
                )
                if inc is not None:
                    exit_inc[uid] = inc
                    exit_chord[uid] = True
            self._virtual_tables = (exit_inc, exit_chord)
        return self._virtual_tables

    def observe_batch(self, batch: EventBatch) -> None:
        """Vectorized activation spans, one Python step per stack event.

        Only halt/call/return events change the activation stack; the
        Python loop visits just those.  A call pauses the caller's path
        (Ball–Larus paths are intraprocedural) and starts a fresh
        activation; a return, or any transfer out of a RETURN block,
        ends the returning activation's path; halt ends every path.
        Everything in between — chord accumulation over plain edges and
        the backward-branch path ends of the top activation, whose
        targets start the activation's next path — reduces to
        prefix-sum differences plus a dense virtual-exit lookup, with
        path counts bumped from a per-span ``np.unique``.
        """
        n = len(batch)
        if n == 0:
            return
        src = batch.src
        dst = batch.dst
        kind = batch.kind
        if self._return_term is None:
            self._return_term = np.asarray(
                [
                    block.terminator.kind is BranchKind.RETURN
                    for block in self._program.blocks
                ],
                bool,
            )
        return_term = self._return_term
        exit_inc, exit_chord = self._virtual_exit_tables()
        special = (
            (dst == HALT_DST)
            | (kind == CODE_CALL)
            | (kind == CODE_RETURN)
            | return_term[src]
        )
        bw = batch.backward & ~special
        stride = len(return_term) + 1
        inc_event, chord_event = self._edge_tables(
            src * stride + (dst + 1), stride
        )
        plain = ~special & ~bw
        cum_inc = np.concatenate(([0], np.cumsum(inc_event * plain)))
        cum_chords = np.concatenate(([0], np.cumsum(chord_event & plain)))
        bw_idx = np.flatnonzero(bw)

        if not self._started:
            self._started = True
            self._enter_procedure(int(src[0]))

        stack = self._stack

        def apply_span(begin: int, end: int) -> None:
            # Fold the span [begin, end) — plain edges plus top-of-stack
            # backward path ends — into the stack top.
            top = stack[-1]
            lo = np.searchsorted(bw_idx, begin)
            hi = np.searchsorted(bw_idx, end)
            cuts = bw_idx[lo:hi]
            if not cuts.size:
                top[1] += int(cum_inc[end] - cum_inc[begin])
                top[2] = int(dst[end - 1])
                self._increment_ops += int(
                    cum_chords[end] - cum_chords[begin]
                )
                return
            ends_src = src[cuts]
            # Path i runs from its start (span entry, or the restart
            # after cut i-1) to cut i; its register is the top's value
            # for path 0 (0 after a restart) plus plain chords plus the
            # virtual exit.
            base = np.concatenate(([cum_inc[begin]], cum_inc[cuts[:-1]]))
            regs = cum_inc[cuts] - base + exit_inc[ends_src]
            regs[0] += top[1]
            uniq, counts = np.unique(regs, return_counts=True)
            proc_name = top[0]
            self._counters.bump_many(
                [(proc_name, register) for register in uniq.tolist()],
                counts.tolist(),
            )
            last = int(cuts[-1])
            ops = int(cum_chords[last] - cum_chords[begin])
            ops += int(np.count_nonzero(exit_chord[ends_src]))
            # Restart after the last cut, then the trailing plain run.
            ops += int(cum_chords[end] - cum_chords[last + 1])
            self._increment_ops += ops
            top[1] = int(cum_inc[end] - cum_inc[last + 1])
            top[2] = int(dst[end - 1])

        pos = 0
        for j in np.flatnonzero(special).tolist():
            if j > pos:
                apply_span(pos, j)
            s = int(src[j])
            d = int(dst[j])
            kd = int(kind[j])
            if d == HALT_DST:
                self._end_path(s)
                stack.clear()
            elif kd == CODE_CALL:
                self._enter_procedure(d)
            else:  # return edge, or a RETURN-terminated source block
                self._end_path(s)
                if stack:
                    stack.pop()
                if stack:
                    proc_name, register, current = stack[-1]
                    stack[-1][1] = self._apply(proc_name, current, d, register)
                    stack[-1][2] = d
            pos = j + 1
        if pos < n:
            apply_span(pos, n)

    def report(self) -> ProfileReport:
        # Close any paths still open at stream end.
        while self._stack:
            _, _, current = self._stack[-1]
            self._end_path(current)
            self._stack.pop()
        return ProfileReport(
            scheme=self.name,
            frequencies={key: count for key, count in self._counters.items()},
            counter_space=self._counters.high_water,
            profiling_ops=self._increment_ops + self._counters.updates,
        )
