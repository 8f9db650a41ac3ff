"""Reference oracles for the columnar event pipeline.

Production code produces and consumes branch events as columns:
``CFGWalker.walk_batched`` and ``Machine.run_batched`` append to plain
column lists from per-program dense tables and per-opcode rules, and
:class:`~repro.trace.extractor.PathExtractor` segments with
``find_cuts`` and a segment memo.  The smallest one-transfer-at-a-time
form of each is kept here as the reference the equivalence tests
compare production code against:

* :func:`walk_events` resolves each block's terminator from the
  program's block objects;
* :func:`machine_events` steps a machine one instruction at a time;
* :func:`segment_paths` applies the paper's §3 path rules event by
  event through a :class:`SignatureRegister`, the bit-tracing
  register the scalar profiler of
  :mod:`tests.profiling.profiler_oracle` shifts too.

Both producer oracles buffer their events in an
:class:`EventBatchBuilder` and derive every event's backward flag from
one general rule: a transfer other than a fall-through is backward
when its target does not lie after the branch.

:class:`ScriptedOracle` replays a fixed list of decisions, for tests
that force an exact control-flow sequence.
"""

from __future__ import annotations

from repro.cfg.block import BasicBlock, BranchKind
from repro.cfg.program import Program
from repro.errors import MachineError, MachineLimitExceeded, TraceError
from repro.isa import Machine
from repro.isa.instructions import COND_BRANCHES, Op
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
from repro.trace.path import Path, PathSignature, PathTable
from repro.trace.recorder import PathTrace

#: Codes whose transfers are never backward.
_NEVER_BACKWARD = (CODE_FALLTHROUGH, CODE_STRAIGHT)


class EventBatchBuilder:
    """The oracles' event buffer: events appended one at a time, then
    published once as an :class:`EventBatch`."""

    def __init__(self) -> None:
        self._src: list[int] = []
        self._dst: list[int] = []
        self._kind: list[int] = []
        self._backward: list[bool] = []

    def append(
        self, src: int, dst: int, kind_code: int, backward: bool
    ) -> None:
        self._src.append(src)
        self._dst.append(dst)
        self._kind.append(kind_code)
        self._backward.append(backward)

    def __len__(self) -> int:
        return len(self._src)

    def build(self) -> EventBatch:
        return EventBatch(self._src, self._dst, self._kind, self._backward)


class SignatureRegister:
    """The run-time shift register that builds signatures incrementally.

    Mirrors the paper's description of bit tracing: "path signatures are
    constructed as the program executes by shifting a 1 or 0 value into
    the current signature register".
    """

    def __init__(self, start_address: int):
        self._start_address = start_address
        self._history = 0
        self._bit_count = 0
        self._indirect: list[int] = []

    def shift(self, bit: int) -> None:
        """Shift one conditional-branch outcome into the register."""
        if bit not in (0, 1):
            raise TraceError(f"history bit must be 0 or 1, got {bit!r}")
        self._history = (self._history << 1) | bit
        self._bit_count += 1

    def record_indirect(self, target_address: int) -> None:
        """Append an indirect-branch target to the signature."""
        self._indirect.append(target_address)

    def snapshot(self) -> PathSignature:
        """Freeze the register into an immutable signature."""
        return PathSignature(
            start_address=self._start_address,
            history=self._history,
            bit_count=self._bit_count,
            indirect_targets=tuple(self._indirect),
        )


class ScriptedOracle:
    """Replays a fixed list of decisions; raises when the script runs dry.

    Conditional decisions consume booleans; multiway decisions consume
    integers.
    """

    def __init__(self, decisions: list[bool | int]):
        self._decisions = list(decisions)
        self._cursor = 0

    def _next(self) -> bool | int:
        if self._cursor >= len(self._decisions):
            raise TraceError("scripted oracle ran out of decisions")
        value = self._decisions[self._cursor]
        self._cursor += 1
        return value

    def decide_cond(self, block: BasicBlock) -> bool:
        value = self._next()
        if not isinstance(value, bool):
            raise TraceError(
                f"expected a boolean decision for {block}, got {value!r}"
            )
        return value

    def decide_multiway(self, block: BasicBlock, arity: int) -> int:
        value = self._next()
        if isinstance(value, bool) or not isinstance(value, int):
            raise TraceError(
                f"expected an integer decision for {block}, got {value!r}"
            )
        if not 0 <= value < arity:
            raise TraceError(
                f"multiway decision {value} out of range [0, {arity})"
            )
        return value


def walk_events(
    program: Program,
    oracle,
    max_events: int | None = None,
    truncate: bool = False,
) -> EventBatch:
    """The CFG walk, one terminator at a time.

    Ends after the halt event; at ``max_events`` it raises
    :class:`MachineLimitExceeded`, or returns the events so far when
    ``truncate`` is set.
    """
    builder = EventBatchBuilder()
    block = program.entry_block
    call_stack: list[int] = []
    while max_events is None or len(builder) < max_events:
        term = block.terminator.kind
        if term is BranchKind.COND:
            if oracle.decide_cond(block):
                dst, code = block.taken_uid, CODE_TAKEN
            else:
                dst, code = block.fallthrough_uid, CODE_FALLTHROUGH
        elif term is BranchKind.JUMP:
            dst, code = block.taken_uid, CODE_JUMP
        elif term in (BranchKind.INDIRECT, BranchKind.ICALL):
            targets = block.target_uids
            dst = targets[oracle.decide_multiway(block, len(targets))]
            code = CODE_INDIRECT
            if term is BranchKind.ICALL:
                call_stack.append(block.fallthrough_uid)
                code = CODE_CALL
        elif term is BranchKind.CALL:
            call_stack.append(block.fallthrough_uid)
            dst, code = block.taken_uid, CODE_CALL
        elif term is BranchKind.RETURN and call_stack:
            dst, code = call_stack.pop(), CODE_RETURN
        elif term is BranchKind.FALLTHROUGH:
            dst, code = block.fallthrough_uid, CODE_STRAIGHT
        elif term in (BranchKind.HALT, BranchKind.RETURN):
            builder.append(block.uid, HALT_DST, CODE_JUMP, False)
            return builder.build()
        else:
            raise TraceError(f"unknown terminator kind {term!r}")
        target = program.block_by_uid(dst)
        backward = (
            code not in _NEVER_BACKWARD
            and target.address <= block.branch_address
        )
        builder.append(block.uid, dst, code, backward)
        block = target
    if truncate:
        return builder.build()
    raise MachineLimitExceeded(len(builder))


def machine_events(
    machine: Machine, max_steps: int = 10_000_000
) -> EventBatch:
    """Run ``machine`` to its halt, one instruction at a time."""
    state = machine.state
    instructions = machine.program.instructions
    block_of = machine.program.block_of
    regs = state.registers
    builder = EventBatchBuilder()

    def transfer(target: int, code: int) -> None:
        backward = code not in _NEVER_BACKWARD and target <= state.pc
        builder.append(block_of[state.pc], block_of[target], code, backward)
        state.pc = target

    while True:
        if state.steps >= max_steps:
            raise MachineLimitExceeded(state.steps)
        if not 0 <= state.pc < len(instructions):
            raise MachineError(f"pc {state.pc} outside the program")
        instr = instructions[state.pc]
        state.steps += 1
        op = instr.op
        if op in COND_BRANCHES:
            if machine._compare(op, regs[instr.rs], regs[instr.rt]):
                transfer(instr.target, CODE_TAKEN)
            else:
                transfer(state.pc + 1, CODE_FALLTHROUGH)
        elif op is Op.JMP:
            transfer(instr.target, CODE_JUMP)
        elif op in (Op.JR, Op.CALLR):
            target = regs[instr.rs]
            machine._check_leader(target, op.value)
            if op is Op.CALLR:
                state.call_stack.append(state.pc + 1)
            transfer(target, CODE_INDIRECT if op is Op.JR else CODE_CALL)
        elif op is Op.CALL:
            state.call_stack.append(state.pc + 1)
            transfer(instr.target, CODE_CALL)
        elif op is Op.RET and state.call_stack:
            transfer(state.call_stack.pop(), CODE_RETURN)
        elif op in (Op.RET, Op.HALT):
            builder.append(block_of[state.pc], HALT_DST, CODE_JUMP, False)
            return builder.build()
        else:
            machine._execute_straightline(instr, regs, state.memory)
            next_pc = state.pc + 1
            if next_pc >= len(instructions):
                raise MachineError("execution ran past the last instruction")
            if block_of[next_pc] != block_of[state.pc]:
                transfer(next_pc, CODE_STRAIGHT)
            else:
                state.pc = next_pc


def segment_paths(
    program: Program, events: EventBatch, max_blocks: int | None = 256
) -> PathTrace:
    """Segment ``events`` into paths, one event at a time (paper §3).

    A path ends at a backward taken transfer, at a forward return that
    closes a call made inside the path, after ``max_blocks`` blocks, and
    at the halt; the stream's unterminated tail is a path too.
    """
    table = PathTable()
    ids: list[int] = []
    blocks = [program.entry_block.uid]
    register = SignatureRegister(program.entry_block.address)
    open_calls = 0

    def flush(ends_backward: bool) -> None:
        signature = register.snapshot()
        path = Path(
            signature=signature,
            blocks=tuple(blocks),
            start_uid=blocks[0],
            num_instructions=sum(
                program.block_by_uid(uid).size for uid in blocks
            ),
            num_cond_branches=signature.bit_count,
            num_indirect_branches=len(signature.indirect_targets),
            ends_with_backward_branch=ends_backward,
        )
        ids.append(table.intern(path))

    def start(uid: int) -> None:
        nonlocal blocks, register, open_calls
        blocks = [uid]
        register = SignatureRegister(program.block_by_uid(uid).address)
        open_calls = 0

    for src, dst, kind, backward in zip(
        events.src.tolist(),
        events.dst.tolist(),
        events.kind.tolist(),
        events.backward.tolist(),
    ):
        if src != blocks[-1]:
            raise TraceError(
                f"event source {src} does not match current block "
                f"{blocks[-1]}"
            )
        if kind == CODE_TAKEN:
            register.shift(1)
        elif kind == CODE_FALLTHROUGH:
            register.shift(0)
        elif kind == CODE_INDIRECT and dst != HALT_DST:
            register.record_indirect(program.block_by_uid(dst).address)
        if dst == HALT_DST:
            flush(False)
            return PathTrace(table, ids)
        if backward:
            flush(True)
            start(dst)
            continue
        if kind == CODE_CALL:
            open_calls += 1
        elif kind == CODE_RETURN and open_calls:
            flush(False)
            start(dst)
            continue
        if max_blocks is not None and len(blocks) >= max_blocks:
            flush(False)
            start(dst)
        else:
            blocks.append(dst)
    flush(False)
    return PathTrace(table, ids)
