"""Interpreter for the reproduction's register machine.

The machine executes an :class:`repro.isa.AssembledProgram` and *emits a
branch event for every control transfer* — including fall-throughs across
block boundaries — as columnar event batches, so its event stream feeds
the path extractor exactly like the CFG walker's.  This is the
"emulation" profiling channel the paper describes: a system like Dynamo
observes the program through interpretation and collects NET counters
for free while doing so.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import MachineError, MachineLimitExceeded
from repro.isa.assembler import AssembledProgram
from repro.isa.instructions import COND_BRANCHES, NUM_REGISTERS, Op
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

#: Default data memory size in words.
DEFAULT_MEMORY_WORDS = 1 << 16


@dataclass
class MachineState:
    """Mutable machine state, exposed for tests and debugging."""

    registers: list[int] = field(
        default_factory=lambda: [0] * NUM_REGISTERS
    )
    memory: list[int] = field(default_factory=list)
    call_stack: list[int] = field(default_factory=list)
    output: list[int] = field(default_factory=list)
    pc: int = 0
    steps: int = 0


class Machine:
    """Executes an assembled program, yielding event batches.

    Parameters
    ----------
    program:
        The assembled program to run.
    memory_words:
        Addressable data memory size — a *cap*, not an allocation.  The
        backing list starts empty and grows in place on demand (from
        :meth:`load_memory` images and stores/loads during a run), so
        tiny programs never pay for the full 64K-word image.
    """

    def __init__(
        self,
        program: AssembledProgram,
        memory_words: int = DEFAULT_MEMORY_WORDS,
    ):
        self.program = program
        self.memory_words = memory_words
        self.state = MachineState()

    # ------------------------------------------------------------------
    def load_memory(self, values: list[int], base: int = 0) -> None:
        """Copy ``values`` into memory starting at ``base``."""
        if base < 0 or base + len(values) > self.memory_words:
            raise MachineError("initial memory image does not fit")
        self._grow_memory(base + len(values) - 1)
        self.state.memory[base : base + len(values)] = list(values)

    def run_batched(
        self,
        max_steps: int = 10_000_000,
        batch_size: int = 1 << 16,
    ) -> Iterator[EventBatch]:
        """Execute until HALT, yielding columnar event batches.

        One event per control transfer, the halt event last; every
        batch but the last holds ``batch_size`` events.  Raises
        :class:`MachineLimitExceeded` if the step budget runs out and
        :class:`MachineError` on faults (bad addresses, division by
        zero, a jump to a non-leader, …).  A return with an empty call
        stack halts the program.
        """
        if batch_size < 1:
            raise MachineError("batch_size must be positive")
        state = self.state
        program = self.program
        instructions = program.instructions
        block_of = program.block_of
        regs = state.registers
        memory = state.memory
        # Per-pc flags, so the loop never tests ``op in COND_BRANCHES``:
        # that runs Op's Python-level ``Enum.__hash__`` per instruction.
        is_cond = [instr.op in COND_BRANCHES for instr in instructions]

        srcs: list[int] = []
        dsts: list[int] = []
        codes: list[int] = []
        backwards: list[bool] = []
        while True:
            if state.steps >= max_steps:
                raise MachineLimitExceeded(state.steps)
            pc = state.pc
            if not 0 <= pc < len(instructions):
                raise MachineError(f"pc {pc} outside the program")
            instr = instructions[pc]
            state.steps += 1
            op = instr.op

            if is_cond[pc]:
                if self._compare(op, regs[instr.rs], regs[instr.rt]):
                    target = instr.target
                    code = CODE_TAKEN
                    backward = target <= pc
                else:
                    target = pc + 1
                    code = CODE_FALLTHROUGH
                    backward = False
            elif op is Op.JMP:
                target = instr.target
                code = CODE_JUMP
                backward = target <= pc
            elif op is Op.JR:
                target = regs[instr.rs]
                self._check_leader(target, "jr")
                code = CODE_INDIRECT
                backward = target <= pc
            elif op is Op.CALL:
                target = instr.target
                state.call_stack.append(pc + 1)
                code = CODE_CALL
                backward = target <= pc
            elif op is Op.CALLR:
                target = regs[instr.rs]
                self._check_leader(target, "callr")
                state.call_stack.append(pc + 1)
                code = CODE_CALL
                backward = target <= pc
            elif op is Op.RET and state.call_stack:
                target = state.call_stack.pop()
                code = CODE_RETURN
                backward = target <= pc
            elif op is Op.RET or op is Op.HALT:
                srcs.append(block_of[pc])
                dsts.append(HALT_DST)
                codes.append(CODE_JUMP)
                backwards.append(False)
                yield EventBatch(srcs, dsts, codes, backwards)
                return
            else:
                self._execute_straightline(instr, regs, memory)
                target = pc + 1
                if target >= len(instructions):
                    raise MachineError(
                        "execution ran past the last instruction"
                    )
                if block_of[target] == block_of[pc]:
                    state.pc = target
                    continue
                code = CODE_STRAIGHT
                backward = False

            srcs.append(block_of[pc])
            dsts.append(block_of[target])
            codes.append(code)
            backwards.append(backward)
            state.pc = target
            if len(srcs) >= batch_size:
                yield EventBatch(srcs, dsts, codes, backwards)
                srcs.clear()
                dsts.clear()
                codes.clear()
                backwards.clear()

    # ------------------------------------------------------------------
    def _check_leader(self, target: int, what: str) -> None:
        if not 0 <= target < len(self.program.instructions):
            raise MachineError(f"{what} target {target} outside the program")
        if self.program.leader_of.get(self.program.block_of[target]) != target:
            raise MachineError(
                f"{what} target {target} is not a basic-block leader"
            )

    @staticmethod
    def _compare(op: Op, a: int, b: int) -> bool:
        if op is Op.BEQ:
            return a == b
        if op is Op.BNE:
            return a != b
        if op is Op.BLT:
            return a < b
        if op is Op.BLE:
            return a <= b
        if op is Op.BGT:
            return a > b
        return a >= b  # BGE

    def _execute_straightline(self, instr, regs, memory) -> None:
        op = instr.op
        if op is Op.LI:
            regs[instr.rd] = instr.imm
        elif op is Op.LA:
            regs[instr.rd] = instr.target
        elif op is Op.MOV:
            regs[instr.rd] = regs[instr.rs]
        elif op is Op.ADD:
            regs[instr.rd] = regs[instr.rs] + regs[instr.rt]
        elif op is Op.SUB:
            regs[instr.rd] = regs[instr.rs] - regs[instr.rt]
        elif op is Op.MUL:
            regs[instr.rd] = regs[instr.rs] * regs[instr.rt]
        elif op is Op.DIV:
            if regs[instr.rt] == 0:
                raise MachineError(
                    f"division by zero at instruction {self.state.pc}"
                )
            regs[instr.rd] = regs[instr.rs] // regs[instr.rt]
        elif op is Op.MOD:
            if regs[instr.rt] == 0:
                raise MachineError(
                    f"modulo by zero at instruction {self.state.pc}"
                )
            regs[instr.rd] = regs[instr.rs] % regs[instr.rt]
        elif op is Op.AND:
            regs[instr.rd] = regs[instr.rs] & regs[instr.rt]
        elif op is Op.OR:
            regs[instr.rd] = regs[instr.rs] | regs[instr.rt]
        elif op is Op.XOR:
            regs[instr.rd] = regs[instr.rs] ^ regs[instr.rt]
        elif op is Op.SHL:
            regs[instr.rd] = regs[instr.rs] << (regs[instr.rt] & 63)
        elif op is Op.SHR:
            regs[instr.rd] = regs[instr.rs] >> (regs[instr.rt] & 63)
        elif op is Op.ADDI:
            regs[instr.rd] = regs[instr.rs] + instr.imm
        elif op is Op.LD:
            address = regs[instr.rs] + instr.imm
            self._check_memory(address)
            regs[instr.rd] = memory[address]
        elif op is Op.ST:
            address = regs[instr.rt] + instr.imm
            self._check_memory(address)
            memory[address] = regs[instr.rs]
        elif op is Op.OUT:
            self.state.output.append(regs[instr.rs])
        elif op is Op.NOP:
            pass
        else:  # pragma: no cover - control ops handled in run_batched()
            raise MachineError(f"unexpected opcode {op.value!r}")

    def _check_memory(self, address: int) -> None:
        if not 0 <= address < self.memory_words:
            raise MachineError(
                f"memory access at {address} outside 0..{self.memory_words - 1}"
            )
        self._grow_memory(address)

    def _grow_memory(self, address: int) -> None:
        """Extend the backing list (in place) to cover ``address``.

        In place matters: ``run_batched`` and the Dynamo VM hold direct
        references to ``state.memory``, so the list object must never
        be replaced.
        """
        memory = self.state.memory
        if address >= len(memory):
            memory.extend([0] * (address + 1 - len(memory)))


def run_to_completion(
    program: AssembledProgram,
    memory_image: list[int] | None = None,
    max_steps: int = 10_000_000,
) -> tuple[EventBatch, Machine]:
    """Run a program and return (events as one batch, machine)."""
    machine = Machine(program)
    if memory_image:
        machine.load_memory(memory_image)
    events = EventBatch.concat(list(machine.run_batched(max_steps=max_steps)))
    return events, machine
