"""Fluent construction of control-flow graphs.

Example
-------
A two-path loop (blocks A..D, loop back edge D→A)::

    builder = ProgramBuilder("demo")
    main = builder.procedure("main")
    main.block("A", size=3).cond(taken="B", fallthrough="C")
    main.block("B", size=2).jump("D")
    main.block("C", size=5).fallthrough("D")
    main.block("D", size=2).cond(taken="A", fallthrough="exit")
    main.block("exit", size=1).halt()
    program = builder.build()

Blocks are laid out in declaration order; ``D``'s taken branch targets the
earlier block ``A`` and is therefore a *backward* branch, making ``A`` a
potential path head.
"""

from __future__ import annotations

from repro.cfg.block import BasicBlock, BranchKind, Terminator
from repro.cfg.procedure import Procedure
from repro.cfg.program import Program
from repro.cfg.validate import validate_program
from repro.errors import CFGError


class BlockBuilder:
    """Pending basic block: created by :meth:`ProcedureBuilder.block`,
    completed by exactly one terminator call."""

    def __init__(self, proc_builder: "ProcedureBuilder", label: str, size: int):
        self._proc_builder = proc_builder
        self._label = label
        self._size = size
        self._terminated = False

    def _finish(self, terminator: Terminator) -> "ProcedureBuilder":
        if self._terminated:
            raise CFGError(
                f"block {self._label!r} already has a terminator"
            )
        self._terminated = True
        block = BasicBlock(
            proc_name=self._proc_builder.name,
            label=self._label,
            size=self._size,
            terminator=terminator,
        )
        self._proc_builder._append(block)
        return self._proc_builder

    def cond(self, taken: str, fallthrough: str) -> "ProcedureBuilder":
        """End the block with a two-way conditional branch."""
        return self._finish(
            Terminator(
                BranchKind.COND, taken_label=taken, fallthrough_label=fallthrough
            )
        )

    def jump(self, target: str) -> "ProcedureBuilder":
        """End the block with an unconditional direct jump."""
        return self._finish(Terminator(BranchKind.JUMP, taken_label=target))

    def indirect(self, *targets: str) -> "ProcedureBuilder":
        """End the block with an indirect jump over ``targets``."""
        return self._finish(
            Terminator(BranchKind.INDIRECT, targets=tuple(targets))
        )

    def call(self, callee: str, then: str) -> "ProcedureBuilder":
        """End the block with a direct call; control resumes at ``then``."""
        return self._finish(
            Terminator(BranchKind.CALL, callee=callee, fallthrough_label=then)
        )

    def icall(self, callees: tuple[str, ...], then: str) -> "ProcedureBuilder":
        """End the block with an indirect call over possible ``callees``."""
        return self._finish(
            Terminator(
                BranchKind.ICALL,
                callees=tuple(callees),
                fallthrough_label=then,
            )
        )

    def ret(self) -> "ProcedureBuilder":
        """End the block with a procedure return."""
        return self._finish(Terminator(BranchKind.RETURN))

    def fallthrough(self, successor: str) -> "ProcedureBuilder":
        """End the block by falling through to ``successor``."""
        return self._finish(
            Terminator(BranchKind.FALLTHROUGH, fallthrough_label=successor)
        )

    def halt(self) -> "ProcedureBuilder":
        """End the block (and the program) with a halt."""
        return self._finish(Terminator(BranchKind.HALT))


class ProcedureBuilder:
    """Accumulates blocks for one procedure in layout order."""

    def __init__(self, program_builder: "ProgramBuilder", name: str):
        self._program_builder = program_builder
        self.name = name
        self._procedure = Procedure(name)
        self._open_block: str | None = None

    def block(self, label: str, size: int = 1) -> BlockBuilder:
        """Start a new block; it must be terminated before ``build``."""
        if self._open_block is not None:
            raise CFGError(
                f"block {self._open_block!r} in {self.name!r} was never "
                f"terminated"
            )
        self._open_block = label
        return BlockBuilder(self, label, size)

    def _append(self, block: BasicBlock) -> None:
        self._procedure.add(block)
        self._open_block = None

    def done(self) -> Procedure:
        """Finish the procedure and hand back the built object."""
        if self._open_block is not None:
            raise CFGError(
                f"block {self._open_block!r} in {self.name!r} was never "
                f"terminated"
            )
        if not self._procedure.blocks:
            raise CFGError(f"procedure {self.name!r} has no blocks")
        return self._procedure


class ProgramBuilder:
    """Top-level builder producing a finalized, validated :class:`Program`."""

    def __init__(self, name: str = "program"):
        self._name = name
        self._procedures: dict[str, ProcedureBuilder] = {}

    def procedure(self, name: str) -> ProcedureBuilder:
        """Open (or reopen) the builder for procedure ``name``."""
        if name not in self._procedures:
            self._procedures[name] = ProcedureBuilder(self, name)
        return self._procedures[name]

    def build(self, validate: bool = True) -> Program:
        """Finalize every procedure, lay out the program and validate it."""
        program = Program(name=self._name)
        for proc_builder in self._procedures.values():
            program.add_procedure(proc_builder.done())
        program.finalize()
        if validate:
            validate_program(program)
        return program
