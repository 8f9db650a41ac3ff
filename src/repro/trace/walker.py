"""Execution of a CFG program under a branch oracle.

The walker is the bridge between static programs and dynamic traces when
no real ISA-level code exists: it executes a :class:`repro.cfg.Program`
block by block, asking a :class:`BranchOracle` to resolve every
conditional, indirect and call decision, and emits the resulting branch
events as columnar :class:`~repro.trace.batch.EventBatch` batches.
Oracles are deterministic given their seed, so every trace in the
test-suite and the experiments is reproducible.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Protocol

from repro.cfg.block import BasicBlock, BranchKind
from repro.cfg.program import Program
from repro.errors import MachineLimitExceeded, TraceError
from repro.obs.core import Registry, get_registry
from repro.trace.batch import (
    CODE_CALL,
    CODE_FALLTHROUGH,
    CODE_INDIRECT,
    CODE_JUMP,
    CODE_RETURN,
    CODE_STRAIGHT,
    CODE_TAKEN,
    HALT_DST,
    EventBatch,
)


class BranchOracle(Protocol):
    """Decision source for dynamic control flow."""

    def decide_cond(self, block: BasicBlock) -> bool:
        """Whether the conditional branch ending ``block`` is taken."""

    def decide_multiway(self, block: BasicBlock, arity: int) -> int:
        """Index of the chosen target for an indirect jump or call."""


class RandomOracle:
    """Seeded random decisions: every conditional branch is taken with
    probability ``default_bias``."""

    def __init__(self, seed: int, default_bias: float = 0.5):
        self._rng = random.Random(seed)
        self._default_bias = default_bias

    def decide_cond(self, block: BasicBlock) -> bool:
        return self._rng.random() < self._default_bias

    def decide_multiway(self, block: BasicBlock, arity: int) -> int:
        return self._rng.randrange(arity)


class TripCountOracle:
    """Loop-aware oracle: bounded trip counts over a random base oracle.

    ``trip_counts`` maps loop-header uids to the number of consecutive
    *taken* decisions before one not-taken (loop exit); the counter then
    resets so re-entered loops iterate again.  The generator convention is
    that a loop header's taken edge enters the loop body.  Blocks without
    an entry fall back to the base oracle.
    """

    def __init__(self, base: BranchOracle, trip_counts: dict[int, int]):
        for uid, trips in trip_counts.items():
            if trips < 0:
                raise TraceError(
                    f"trip count for block {uid} must be non-negative"
                )
        self._base = base
        self._trip_counts = dict(trip_counts)
        self._remaining: dict[int, int] = {}

    def decide_cond(self, block: BasicBlock) -> bool:
        if block.uid not in self._trip_counts:
            return self._base.decide_cond(block)
        remaining = self._remaining.get(block.uid, self._trip_counts[block.uid])
        if remaining > 0:
            self._remaining[block.uid] = remaining - 1
            return True
        self._remaining[block.uid] = self._trip_counts[block.uid]
        return False

    def decide_multiway(self, block: BasicBlock, arity: int) -> int:
        return self._base.decide_multiway(block, arity)


@dataclass(frozen=True, slots=True)
class _TerminatorTables:
    """Dense per-uid terminator data for the walk loop.

    Everything the loop would otherwise look up per event — terminator
    kinds, static targets, backwardness — resolved once per program
    into flat lists indexed by block uid.
    """

    kind: list[BranchKind]
    blocks: list[BasicBlock]  # for oracle calls
    taken: list[int | None]  # taken/jump/call static target
    fall: list[int | None]  # fall-through successor
    taken_backward: list[bool]  # backwardness of the static target edge
    targets: list[tuple[int, ...]]  # indirect/icall target sets
    target_backward: list[tuple[bool, ...]]
    address: list[int]  # block start address (return backwardness)
    branch_address: list[int]  # terminator address


class CFGWalker:
    """Executes a program under an oracle, yielding event batches."""

    def __init__(self, program: Program, oracle: BranchOracle):
        if not program.finalized:
            raise TraceError("program must be finalized before walking")
        self._program = program
        self._oracle = oracle
        self._tables: _TerminatorTables | None = None

    def walk_batched(
        self,
        max_events: int | None = None,
        batch_size: int = 1 << 16,
        truncate: bool = False,
        obs: Registry | None = None,
    ) -> Iterator[EventBatch]:
        """Yield the program's event stream as columnar batches.

        Runs from the entry block until HALT (the halt event included),
        one event per executed terminator.  A return from the entry
        procedure with an empty call stack is treated as program
        termination (a halt event is emitted).  The hot loop appends
        each event's four scalars to plain lists, with per-block
        terminator data resolved once up front, and converts each
        full batch into one :class:`EventBatch`; every batch but the
        last holds ``batch_size`` events.

        Raises :class:`MachineLimitExceeded` when ``max_events`` run
        out before the program halts; ``truncate=True`` instead ends
        the stream cleanly after ``max_events`` events.  ``obs``
        publishes ``tracegen.*`` instruments: events and batches
        produced, the walker's own time (not the time its consumer
        spends between batches), and events/second over that time.
        """
        if batch_size < 1:
            raise TraceError("batch_size must be positive")
        registry = get_registry(obs)
        tables = self._terminator_tables()
        oracle = self._oracle
        kind = tables.kind
        blocks = tables.blocks
        taken = tables.taken
        fall = tables.fall
        taken_backward = tables.taken_backward
        targets = tables.targets
        target_backward = tables.target_backward
        address = tables.address
        branch_address = tables.branch_address
        # Terminator kinds as locals, tested most frequent first: a
        # fall-through ends about half of the blocks a walk executes.
        FALLTHROUGH = BranchKind.FALLTHROUGH
        COND = BranchKind.COND
        JUMP = BranchKind.JUMP
        CALL = BranchKind.CALL
        RETURN = BranchKind.RETURN
        INDIRECT = BranchKind.INDIRECT
        ICALL = BranchKind.ICALL
        HALT = BranchKind.HALT

        srcs: list[int] = []
        dsts: list[int] = []
        codes: list[int] = []
        backwards: list[bool] = []
        uid = self._program.entry_block.uid
        call_stack: list[int] = []
        emitted = 0  # events before the current batch
        batches = 0
        elapsed = 0.0  # the walker's own time, its consumer's excluded
        resumed: float | None = time.perf_counter()
        try:
            while True:
                room = batch_size
                if max_events is not None:
                    room = min(room, max_events - emitted)
                halted = False
                for _ in range(room):
                    term = kind[uid]
                    if term is FALLTHROUGH:
                        dst = fall[uid]
                        code = CODE_STRAIGHT
                        backward = False
                    elif term is COND:
                        if oracle.decide_cond(blocks[uid]):
                            dst = taken[uid]
                            code = CODE_TAKEN
                            backward = taken_backward[uid]
                        else:
                            dst = fall[uid]
                            code = CODE_FALLTHROUGH
                            backward = False
                    elif term is JUMP:
                        dst = taken[uid]
                        code = CODE_JUMP
                        backward = taken_backward[uid]
                    elif term is CALL:
                        call_stack.append(fall[uid])
                        dst = taken[uid]
                        code = CODE_CALL
                        backward = taken_backward[uid]
                    elif term is RETURN and call_stack:
                        dst = call_stack.pop()
                        code = CODE_RETURN
                        backward = address[dst] <= branch_address[uid]
                    elif term is INDIRECT:
                        index = oracle.decide_multiway(
                            blocks[uid], len(targets[uid])
                        )
                        dst = targets[uid][index]
                        code = CODE_INDIRECT
                        backward = target_backward[uid][index]
                    elif term is ICALL:
                        index = oracle.decide_multiway(
                            blocks[uid], len(targets[uid])
                        )
                        call_stack.append(fall[uid])
                        dst = targets[uid][index]
                        code = CODE_CALL
                        backward = target_backward[uid][index]
                    elif term is HALT or term is RETURN:
                        srcs.append(uid)
                        dsts.append(HALT_DST)
                        codes.append(CODE_JUMP)
                        backwards.append(False)
                        halted = True
                        break
                    else:
                        raise TraceError(f"unknown terminator kind {term!r}")
                    srcs.append(uid)
                    dsts.append(dst)
                    codes.append(code)
                    backwards.append(backward)
                    uid = dst

                if halted or len(srcs) == batch_size or (truncate and srcs):
                    batches += 1
                    batch = EventBatch(srcs, dsts, codes, backwards)
                    elapsed += time.perf_counter() - resumed
                    resumed = None  # a close() here is the consumer's time
                    yield batch
                    resumed = time.perf_counter()
                    if halted:
                        return
                emitted += len(srcs)
                srcs.clear()
                dsts.clear()
                codes.clear()
                backwards.clear()
                if max_events is not None and emitted >= max_events:
                    if truncate:
                        return
                    raise MachineLimitExceeded(emitted)
        finally:
            if registry.enabled:
                if resumed is not None:
                    elapsed += time.perf_counter() - resumed
                emitted += len(srcs)
                registry.counter("tracegen.events").inc(emitted)
                registry.counter("tracegen.batches").inc(batches)
                registry.timer("tracegen.generate").observe(elapsed)
                if elapsed > 0:
                    registry.gauge("tracegen.events_per_sec").set(
                        emitted / elapsed
                    )

    def _terminator_tables(self) -> _TerminatorTables:
        """Build (once) the dense per-uid tables the batched loop reads."""
        if self._tables is not None:
            return self._tables
        program = self._program
        n = program.num_blocks
        tables = _TerminatorTables(
            kind=[BranchKind.HALT] * n,
            blocks=[None] * n,  # type: ignore[list-item]
            taken=[None] * n,
            fall=[None] * n,
            taken_backward=[False] * n,
            targets=[()] * n,
            target_backward=[()] * n,
            address=[0] * n,
            branch_address=[0] * n,
        )

        def is_backward(src: BasicBlock, dst_uid: int) -> bool:
            dst = program.block_by_uid(dst_uid)
            return dst.address <= src.branch_address

        for uid in range(n):
            block = program.block_by_uid(uid)
            term = block.terminator
            tables.kind[uid] = term.kind
            tables.blocks[uid] = block
            tables.address[uid] = block.address
            tables.branch_address[uid] = block.branch_address
            if term.kind in (
                BranchKind.COND,
                BranchKind.JUMP,
                BranchKind.CALL,
            ):
                tables.taken[uid] = block.taken_uid
                tables.taken_backward[uid] = is_backward(
                    block, block.taken_uid
                )
            if term.kind in (
                BranchKind.COND,
                BranchKind.CALL,
                BranchKind.ICALL,
                BranchKind.FALLTHROUGH,
            ):
                tables.fall[uid] = block.fallthrough_uid
            if term.kind in (BranchKind.INDIRECT, BranchKind.ICALL):
                tables.targets[uid] = tuple(block.target_uids)
                tables.target_backward[uid] = tuple(
                    is_backward(block, t) for t in block.target_uids
                )
        self._tables = tables
        return tables
