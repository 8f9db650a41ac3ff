"""Fragment optimization: Dynamo's "lightweight optimization techniques".

Dynamo's speedup comes from optimizing and laying out hot paths in the
code cache (paper §6): a trace is a straight-line instruction sequence,
so classic local optimizations become trivial and very effective.  This
module implements the real passes over the reproduction's ISA so that,
for traces of genuine machine code, the fragment speedup factor can be
*measured* per path instead of assumed:

* **branch straightening** — on-trace conditional branches are replaced
  by cheap exit guards; on-trace unconditional jumps disappear entirely
  (the layout is the trace);
* **constant & copy propagation** — register values known within the
  trace (``li``/``la``/``mov`` chains) fold into later uses;
* **redundant-load elimination** — a reload of the same constant or the
  same ``mov`` source is dropped;
* **dead-code elimination** — writes overwritten before any use, with
  the conservative rule that every register is live-out at trace exits.

The passes work on an explicit :class:`TraceInstruction` list, so the
optimizer is inspectable: tests assert which instructions were removed
and why, and the Dynamo demo prints measured per-fragment speedups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DynamoError
from repro.isa.assembler import AssembledProgram
from repro.isa.instructions import ALU_OPS, COND_BRANCHES, Instruction, Op
from repro.trace.path import Path

#: Opcodes removed outright by straightening (the trace is the layout).
_STRAIGHTENED_AWAY = frozenset({Op.JMP})

#: Opcodes that become a one-instruction exit guard on the trace.
_GUARDED = frozenset(COND_BRANCHES) | {Op.JR, Op.CALLR}


@dataclass
class TraceInstruction:
    """One instruction of a fragment under optimization."""

    instruction: Instruction
    #: Why the instruction survives / what happened to it.
    disposition: str = "kept"
    #: Whether this is a synthesized exit guard replacing a branch.
    is_guard: bool = False

    @property
    def live(self) -> bool:
        """Whether the instruction still occupies a slot."""
        return self.disposition in ("kept", "guard")


@dataclass
class OptimizedFragment:
    """The optimizer's result for one path."""

    path_blocks: tuple[int, ...]
    original_instructions: int
    instructions: list[TraceInstruction] = field(default_factory=list)

    @property
    def optimized_instructions(self) -> int:
        """Surviving instruction count."""
        return sum(1 for entry in self.instructions if entry.live)

    @property
    def speedup_factor(self) -> float:
        """Optimized size over original size (the measured S_opt)."""
        if self.original_instructions == 0:
            return 1.0
        return self.optimized_instructions / self.original_instructions

    def removed(self, disposition: str) -> int:
        """How many instructions a given pass removed."""
        return sum(
            1
            for entry in self.instructions
            if entry.disposition == disposition
        )


class TraceOptimizer:
    """Optimizes the instruction sequence of one path of a program."""

    def __init__(self, program: AssembledProgram):
        self._program = program

    # ------------------------------------------------------------------
    def optimize(self, path: Path) -> OptimizedFragment:
        """Run all passes over ``path``'s concatenated blocks."""
        entries = self._collect(path)
        fragment = OptimizedFragment(
            path_blocks=path.blocks,
            original_instructions=len(entries),
            instructions=entries,
        )
        self._straighten(entries)
        self._propagate_and_fold(entries)
        self._eliminate_dead(entries)
        return fragment

    # ------------------------------------------------------------------
    def _collect(self, path: Path) -> list[TraceInstruction]:
        program = self._program
        entries: list[TraceInstruction] = []
        for uid in path.blocks:
            block = program.cfg.block_by_uid(uid)
            start = program.leader_of.get(uid)
            if start is None:
                raise DynamoError(f"block uid {uid} is not in this program")
            for index in range(start, start + block.size):
                entries.append(
                    TraceInstruction(instruction=program.instructions[index])
                )
        return entries

    def _straighten(self, entries: list[TraceInstruction]) -> None:
        """Remove on-trace jumps; turn branches into exit guards."""
        for position, entry in enumerate(entries):
            op = entry.instruction.op
            last = position == len(entries) - 1
            if op in _STRAIGHTENED_AWAY:
                entry.disposition = "straightened"
            elif op in _GUARDED:
                # The branch's on-trace direction is implied by the next
                # block in the trace; off-trace directions exit the
                # fragment through a one-instruction guard.
                entry.disposition = "guard"
                entry.is_guard = True
            elif op in (Op.CALL, Op.RET, Op.HALT) and not last:
                # Inlined call/return pairs inside the trace keep their
                # stack effects (Dynamo emitted them too).
                entry.disposition = "kept"

    def _propagate_and_fold(self, entries: list[TraceInstruction]) -> None:
        """Constant/copy propagation with redundant-load elimination."""
        known: dict[int, tuple[str, int]] = {}  # reg -> ("const"/"la", v)
        copies: dict[int, int] = {}  # reg -> source reg
        for entry in entries:
            if not entry.live:
                continue
            instr = entry.instruction
            op = instr.op

            if op is Op.LI or op is Op.LA:
                value = (
                    ("const", instr.imm)
                    if op is Op.LI
                    else ("la", instr.target)
                )
                if known.get(instr.rd) == value:
                    entry.disposition = "redundant-load"
                    continue
                known[instr.rd] = value
                copies.pop(instr.rd, None)
                continue
            if op is Op.MOV:
                source = copies.get(instr.rs, instr.rs)
                if copies.get(instr.rd) == source and instr.rd in copies:
                    entry.disposition = "redundant-copy"
                    continue
                if instr.rs in known and known.get(instr.rd) == known[instr.rs]:
                    entry.disposition = "redundant-copy"
                    continue
                if instr.rs in known:
                    known[instr.rd] = known[instr.rs]
                else:
                    known.pop(instr.rd, None)
                copies[instr.rd] = source
                continue

            # Generic: any write invalidates knowledge of the target.
            written = instr.rd if op in ALU_OPS or op in (
                Op.ADDI,
                Op.LD,
            ) else None
            if written is not None:
                known.pop(written, None)
                copies.pop(written, None)
            if entry.is_guard or op in (Op.CALL, Op.CALLR, Op.RET):
                # Control leaving the straight line invalidates nothing
                # for *our* registers, but inlined callees may clobber:
                # be conservative across calls.
                if op in (Op.CALL, Op.CALLR):
                    known.clear()
                    copies.clear()

    def _eliminate_dead(self, entries: list[TraceInstruction]) -> None:
        """Backward pass: drop writes never read before the next write.

        Every register is assumed live at trace exits (guards) and at
        the trace end, so only writes *provably* overwritten within the
        straight line with no intervening read or exit are removed.
        """
        needed: set[int] = set(range(16))
        for entry in reversed(entries):
            if not entry.live:
                continue
            instr = entry.instruction
            op = instr.op
            if entry.is_guard or op in (
                Op.CALL,
                Op.CALLR,
                Op.RET,
                Op.HALT,
                Op.OUT,
                Op.ST,
            ):
                needed = set(range(16))
                continue
            writes = (
                instr.rd
                if (op in ALU_OPS or op in (Op.ADDI, Op.LD, Op.LI, Op.LA, Op.MOV))
                else None
            )
            reads = {
                reg
                for reg in (instr.rs, instr.rt)
                if reg is not None
            }
            if writes is not None and writes not in needed:
                entry.disposition = "dead"
                continue
            if writes is not None:
                needed.discard(writes)
            needed.update(reads)

