"""Compiled fragment tier: closure-specialized superblocks with linking.

Replaying a recorded fragment one :class:`~repro.dynamo.vm.VMStep` at a
time makes every hot instruction pay a step-object fetch, a kind string
compare, operand attribute lookups and a call into the machine's
semantics — no faster than plain interpretation.  This module removes
all of it: each recorded fragment is compiled, once, into a specialized
Python closure whose body *is* the trace:

* operands are pre-decoded into literal list indices and immediates at
  compile time — the closure only ever touches ``r[3]``, never
  ``step.instruction.rs``;
* straight-line arithmetic is inlined against the pre-bound register and
  memory lists captured in the closure's cells;
* guards are straightened into early-``return`` exit stubs that carry
  their (statically known, where possible) exit pc;
* a fragment whose final target is its own head spins inside the closure
  — the superblock back-edge never re-enters the dispatcher — and
  completed fragments hand the dispatcher a *direct reference* to their
  successor's closure through patched link cells.

Linking is maintained by :class:`CompiledCache`: installing a fragment
patches every resident completion link and guard-exit stub that targets
its head (guard-exit retargeting), and a flush unpatches every link
cell so a stale closure can never be entered.

Correctness is proven, not assumed: :func:`state_digest` hashes the full
architectural state (output, registers, memory, call stack) and the test
suite requires compiled execution to be digest-identical to the plain
interpreter, and counter- and checkpoint-identical to a step-by-step
fragment replay kept there as the reference oracle, on every bundled
ISA program (the PR 5 proof pattern applied to execution tiers).
"""

from __future__ import annotations

import hashlib

from repro.errors import DynamoError, MachineError
from repro.isa.instructions import Op

__all__ = [
    "EXIT_LOOKUP",
    "CompiledCache",
    "CompiledFragment",
    "compile_fragment",
    "state_digest",
]

#: Sentinel returned as the ``linked`` slot of a dynamic guard exit
#: (indirect jump / call / return targets are only known at run time, so
#: the dispatcher must consult the cache instead of a patched cell).
EXIT_LOOKUP = object()

#: Comparison source for each branch op, and its negation (used to turn
#: an expected-taken guard into a straightened early-exit test).
_CMP = {
    Op.BEQ: "==",
    Op.BNE: "!=",
    Op.BLT: "<",
    Op.BLE: "<=",
    Op.BGT: ">",
    Op.BGE: ">=",
}
_NEG = {
    Op.BEQ: "!=",
    Op.BNE: "==",
    Op.BLT: ">=",
    Op.BLE: ">",
    Op.BGT: "<=",
    Op.BGE: "<",
}

#: Inline templates for three-register ALU ops (SHL/SHR mask the shift
#: amount exactly like the machine does).
_ALU_EXPR = {
    Op.ADD: "r[{rs}] + r[{rt}]",
    Op.SUB: "r[{rs}] - r[{rt}]",
    Op.MUL: "r[{rs}] * r[{rt}]",
    Op.AND: "r[{rs}] & r[{rt}]",
    Op.OR: "r[{rs}] | r[{rt}]",
    Op.XOR: "r[{rs}] ^ r[{rt}]",
    Op.SHL: "r[{rs}] << (r[{rt}] & 63)",
    Op.SHR: "r[{rs}] >> (r[{rt}] & 63)",
}


def _zero_fault(what: str, pc: int) -> None:
    """Slow path for DIV/MOD by zero — same message as the machine's."""
    raise MachineError(f"{what} by zero at instruction {pc}")


class CompiledFragment:
    """One fragment compiled to a specialized closure.

    ``fn(fuel)`` executes the fragment body (looping internally over its
    own back-edge while ``fuel`` instruction-steps remain) and returns
    ``(linked, exit_pc, completed, executed, iters)``:

    * ``linked`` — the successor :class:`CompiledFragment` patched into
      the taken exit's link cell, ``None`` when the exit is cold, or
      :data:`EXIT_LOOKUP` when the exit target is dynamic;
    * ``exit_pc`` — where interpretation resumes (``None`` on halt);
    * ``completed`` — True when every guard passed and execution reached
      the fragment's final target;
    * ``executed`` — instruction-steps actually executed (partial bodies
      stop at their failing guard);
    * ``iters`` — body passes taken inside the closure (> 1 only for a
      self-linked superblock).
    """

    __slots__ = (
        "fragment",
        "head_pc",
        "final_target",
        "num_instructions",
        "n_guard_conds",
        "fn",
        "succ_cell",
        "loop_cell",
        "static_exits",
        "source",
    )

    def __init__(self, fragment, fn, succ_cell, loop_cell, static_exits,
                 n_guard_conds, source):
        self.fragment = fragment
        self.head_pc = fragment.head_pc
        self.final_target = fragment.final_target
        self.num_instructions = fragment.num_instructions
        self.n_guard_conds = n_guard_conds
        self.fn = fn
        self.succ_cell = succ_cell
        self.loop_cell = loop_cell
        self.static_exits = static_exits
        self.source = source


def compile_fragment(machine, fragment) -> CompiledFragment:
    """Compile a recorded :class:`~repro.dynamo.vm.VMFragment`.

    The generated closure captures the machine's register list, memory
    list, call stack and output buffer as cells (all four are grown in
    place by the machine, never replaced, so the references stay valid
    for the life of the run) plus one link cell per static exit.
    """
    state = machine.state
    lines: list[str] = []
    emit = lines.append
    static_exits: list[tuple[int, list]] = []
    n_guard_conds = 0
    n = fragment.num_instructions

    for index, step in enumerate(fragment.steps):
        instr = step.instruction
        op = instr.op
        done = index + 1  # steps executed once this one retires
        emit(f"        # pc {step.pc}: {instr.render()} [{step.kind}]")
        if step.kind == "exec":
            _emit_exec(emit, instr, step.pc)
        elif step.kind == "guard_cond":
            n_guard_conds += 1
            cell: list = [None]
            name = f"X{len(static_exits)}"
            if step.expected_taken:
                exit_pc = step.pc + 1
                cmp_src = _NEG[op]
            else:
                exit_pc = instr.target
                cmp_src = _CMP[op]
            static_exits.append((exit_pc, cell))
            emit(f"        if r[{instr.rs}] {cmp_src} r[{instr.rt}]:")
            emit(
                f"            return ({name}[0], {exit_pc}, False, "
                f"executed + {done}, iters)"
            )
        elif step.kind == "guard_target":
            what = "jr" if op is Op.JR else "callr"
            emit(f"        t = r[{instr.rs}]")
            if op is Op.CALLR:
                emit(f"        if t == {step.expected_target}:")
                emit(f"            push({step.pc + 1})")
                emit("        else:")
                emit(f"            check_leader(t, {what!r})")
                emit(f"            push({step.pc + 1})")
                emit(
                    f"            return (LOOKUP, t, False, "
                    f"executed + {done}, iters)"
                )
            else:
                emit(f"        if t != {step.expected_target}:")
                emit(f"            check_leader(t, {what!r})")
                emit(
                    f"            return (LOOKUP, t, False, "
                    f"executed + {done}, iters)"
                )
        elif step.kind == "guard_ret":
            emit("        if not stack:")
            emit(
                f"            return (None, None, False, "
                f"executed + {done}, iters)"
            )
            emit("        t = pop()")
            emit(f"        if t != {step.expected_target}:")
            emit(
                f"            return (LOOKUP, t, False, "
                f"executed + {done}, iters)"
            )
        elif step.kind == "halt":
            emit(
                f"        return (None, None, False, "
                f"executed + {done}, iters)"
            )
        else:  # pragma: no cover - _compile only emits the kinds above
            raise DynamoError(f"cannot compile step kind {step.kind!r}")

    body = "\n".join(lines)
    params = [
        "r", "mem", "stack", "push", "pop", "out", "check_leader",
        "ld_slow", "st_slow", "zero_fault", "LOOKUP", "LOOP", "SUCC",
        "_len",
    ] + [f"X{i}" for i in range(len(static_exits))]
    source = (
        f"def _make({', '.join(params)}):\n"
        f"    def _fragment(fuel):\n"
        f"        executed = 0\n"
        f"        iters = 0\n"
        f"        while True:\n"
        f"            iters += 1\n"
        # The while-body below is generated at 8-space depth; re-indent.
        + "\n".join("    " + line if line.strip() else line
                    for line in body.splitlines())
        + "\n"
        f"            executed += {n}\n"
        # Superblock back-edge: a self-linked fragment loops without
        # returning while the step budget allows another full pass.
        f"            if LOOP[0] and executed < fuel:\n"
        f"                continue\n"
        f"            return (SUCC[0], {fragment.final_target}, True, "
        f"executed, iters)\n"
        f"    return _fragment\n"
    )
    namespace: dict = {}
    exec(  # noqa: S102 - code is generated from the trace, not input
        compile(source, f"<fragment@{fragment.head_pc}>", "exec"), namespace
    )
    succ_cell: list = [None]
    loop_cell: list = [False]

    def ld_slow(address, _machine=machine, _mem=state.memory):
        _machine._check_memory(address)
        return _mem[address]

    def st_slow(address, value, _machine=machine, _mem=state.memory):
        _machine._check_memory(address)
        _mem[address] = value

    args = [
        state.registers,
        state.memory,
        state.call_stack,
        state.call_stack.append,
        state.call_stack.pop,
        state.output.append,
        machine._check_leader,
        ld_slow,
        st_slow,
        _zero_fault,
        EXIT_LOOKUP,
        loop_cell,
        succ_cell,
        len,
    ] + [cell for _, cell in static_exits]
    fn = namespace["_make"](*args)
    return CompiledFragment(
        fragment, fn, succ_cell, loop_cell, static_exits, n_guard_conds,
        source,
    )


def _emit_exec(emit, instr, pc: int) -> None:
    """Inline one straight-line instruction into the closure body."""
    op = instr.op
    if op is Op.LI:
        emit(f"        r[{instr.rd}] = {instr.imm}")
    elif op is Op.LA:
        emit(f"        r[{instr.rd}] = {instr.target}")
    elif op is Op.MOV:
        emit(f"        r[{instr.rd}] = r[{instr.rs}]")
    elif op in _ALU_EXPR:
        expr = _ALU_EXPR[op].format(rs=instr.rs, rt=instr.rt)
        emit(f"        r[{instr.rd}] = {expr}")
    elif op is Op.DIV or op is Op.MOD:
        what = "division" if op is Op.DIV else "modulo"
        symbol = "//" if op is Op.DIV else "%"
        emit(f"        t = r[{instr.rt}]")
        emit("        if t == 0:")
        emit(f"            zero_fault({what!r}, {pc})")
        emit(f"        r[{instr.rd}] = r[{instr.rs}] {symbol} t")
    elif op is Op.ADDI:
        emit(f"        r[{instr.rd}] = r[{instr.rs}] + {instr.imm}")
    elif op is Op.LD:
        emit(f"        a = r[{instr.rs}] + {instr.imm}")
        emit("        if 0 <= a < _len(mem):")
        emit(f"            r[{instr.rd}] = mem[a]")
        emit("        else:")
        emit(f"            r[{instr.rd}] = ld_slow(a)")
    elif op is Op.ST:
        emit(f"        a = r[{instr.rt}] + {instr.imm}")
        emit("        if 0 <= a < _len(mem):")
        emit(f"            mem[a] = r[{instr.rs}]")
        emit("        else:")
        emit(f"            st_slow(a, r[{instr.rs}])")
    elif op is Op.OUT:
        emit(f"        out(r[{instr.rs}])")
    elif op is Op.CALL:
        emit(f"        push({pc + 1})")
    elif op is Op.NOP:
        pass  # occupies a slot in the step count, emits no code
    else:  # pragma: no cover - _compile never records other ops as exec
        raise DynamoError(f"cannot inline op {op.value!r}")


class CompiledCache:
    """Resident compiled fragments plus their patched superblock links.

    The linking invariant: a completion link cell (``succ_cell``) or a
    static guard-exit cell holds a :class:`CompiledFragment` *iff* that
    fragment is currently resident at the cell's target pc.  Installing
    patches and flushing unpatches — closures consult only their cells,
    so the invariant is what makes dispatcher-free transfers safe.
    """

    def __init__(self):
        self._resident: dict[int, CompiledFragment] = {}
        #: Closures built over the cache's lifetime (survives flushes).
        self.compiles = 0
        #: Link cells patched to a resident fragment.
        self.link_patches = 0
        #: Link cells cleared on flush or on replacing a resident head.
        self.link_unpatches = 0

    # ------------------------------------------------------------------
    def get(self, head_pc: int) -> CompiledFragment | None:
        """The compiled fragment at ``head_pc``, if resident."""
        return self._resident.get(head_pc)

    def __contains__(self, head_pc: int) -> bool:
        return head_pc in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def resident(self) -> dict[int, CompiledFragment]:
        """Snapshot of the resident fragments by head pc."""
        return dict(self._resident)

    # ------------------------------------------------------------------
    def install(self, compiled: CompiledFragment) -> None:
        """Make ``compiled`` resident and patch every affected link.

        Patches the new fragment's own completion/guard-exit cells
        against the residents, and retargets every resident cell whose
        exit pc is the new fragment's head — Dynamo's exit-stub
        patching, so earlier fragments jump straight into later ones.
        """
        previous = self._resident.pop(compiled.head_pc, None)
        if previous is not None:  # pragma: no cover - heads are unique
            self._unlink_references_to(previous)
            self._unlink_outgoing(previous)
        self._resident[compiled.head_pc] = compiled
        self.compiles += 1

        succ = self._resident.get(compiled.final_target)
        if succ is not None:
            compiled.succ_cell[0] = succ
            self.link_patches += 1
            if succ is compiled:
                compiled.loop_cell[0] = True
        for exit_pc, cell in compiled.static_exits:
            target = self._resident.get(exit_pc)
            if target is not None and cell[0] is None:
                cell[0] = target
                self.link_patches += 1

        head = compiled.head_pc
        for other in self._resident.values():
            if other is compiled:
                continue
            if other.final_target == head and other.succ_cell[0] is None:
                other.succ_cell[0] = compiled
                self.link_patches += 1
            for exit_pc, cell in other.static_exits:
                if exit_pc == head and cell[0] is None:
                    cell[0] = compiled
                    self.link_patches += 1

    def flush(self) -> None:
        """Drop everything, clearing every link cell first."""
        for compiled in self._resident.values():
            self._unlink_outgoing(compiled)
        self._resident.clear()

    # ------------------------------------------------------------------
    def _unlink_outgoing(self, compiled: CompiledFragment) -> None:
        if compiled.succ_cell[0] is not None:
            compiled.succ_cell[0] = None
            self.link_unpatches += 1
        compiled.loop_cell[0] = False
        for _, cell in compiled.static_exits:
            if cell[0] is not None:
                cell[0] = None
                self.link_unpatches += 1

    def _unlink_references_to(self, compiled: CompiledFragment) -> None:
        for other in self._resident.values():
            if other.succ_cell[0] is compiled:
                other.succ_cell[0] = None
                other.loop_cell[0] = False
                self.link_unpatches += 1
            for _, cell in other.static_exits:
                if cell[0] is compiled:
                    cell[0] = None
                    self.link_unpatches += 1


def state_digest(machine) -> str:
    """SHA-256 over the machine's full architectural state.

    Output buffer, register file, data memory and call stack — the
    quantities an execution tier is *not* allowed to change.  Two tiers
    that agree on this digest after every bundled program are, for the
    reproduction's purposes, the same machine.
    """
    state = machine.state
    digest = hashlib.sha256()
    for part in (
        state.output, state.registers, state.memory, state.call_stack
    ):
        digest.update(repr(part).encode("ascii"))
        digest.update(b"|")
    return digest.hexdigest()
