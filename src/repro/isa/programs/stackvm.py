"""Bytecode stack-machine interpreter (li/perl-like workload).

The classic interpreter shape: a dispatch loop reads an opcode, looks its
handler up in an in-memory jump table built at start-up with ``la``, and
transfers control with ``jr`` — an indirect branch whose target varies
per iteration.  Every handler jumps back to the loop head, so the
dispatch head is a path head with one tail per opcode, exactly the
many-paths-one-head structure the paper's li rows show.

Bytecode (one word per slot, immediates inline):

====  =========  ==========================================
code  mnemonic   effect
====  =========  ==========================================
0     push imm   push the next word
1     add        pop b, a; push a + b
2     sub        pop b, a; push a − b
3     mul        pop b, a; push a × b
4     jnz off    pop v; if v ≠ 0 jump to bytecode offset
5     jmp off    jump to bytecode offset
6     out        pop v; emit v
7     halt       stop the VM
11    load v     push var[v]
12    store v    pop into var[v]
====  =========  ==========================================

Memory layout: bytecode at :data:`BC_BASE`, the operand stack at
:data:`STACK_BASE`, VM variables at :data:`VAR_BASE`, and the dispatch
table at :data:`TABLE_BASE`.
"""

from __future__ import annotations

from repro.isa.assembler import AssembledProgram, assemble

BC_BASE = 4096
STACK_BASE = 8192
VAR_BASE = 200
TABLE_BASE = 100

#: Opcode numbers.
OP_PUSH, OP_ADD, OP_SUB, OP_MUL = 0, 1, 2, 3
OP_JNZ, OP_JMP, OP_OUT, OP_HALT = 4, 5, 6, 7
OP_LOAD, OP_STORE = 11, 12

SOURCE = f"""
.proc main
    # Build the dispatch table: table[opcode] = handler address.
    li   r5, {TABLE_BASE}
    la   r4, op_bad
    li   r6, 0
fill:
    li   r7, 13
    bge  r6, r7, fill_done
    add  r8, r5, r6
    st   r4, r8, 0
    addi r6, r6, 1
    jmp  fill
fill_done:
    la   r4, op_push
    st   r4, r5, 0
    la   r4, op_add
    st   r4, r5, 1
    la   r4, op_sub
    st   r4, r5, 2
    la   r4, op_mul
    st   r4, r5, 3
    la   r4, op_jnz
    st   r4, r5, 4
    la   r4, op_jmp
    st   r4, r5, 5
    la   r4, op_out
    st   r4, r5, 6
    la   r4, op_halt
    st   r4, r5, 7
    la   r4, op_load
    st   r4, r5, 11
    la   r4, op_store
    st   r4, r5, 12
    li   r1, {BC_BASE}      # VM pc
    li   r2, {STACK_BASE}   # stack pointer (next free slot)
    li   r0, 0
loop:
    ld   r6, r1, 0          # opcode
    addi r1, r1, 1
    li   r5, {TABLE_BASE}
    add  r7, r5, r6
    ld   r8, r7, 0
    jr   r8
op_push:
    ld   r9, r1, 0
    addi r1, r1, 1
    st   r9, r2, 0
    addi r2, r2, 1
    jmp  loop
op_add:
    addi r2, r2, -1
    ld   r9, r2, 0
    addi r2, r2, -1
    ld   r10, r2, 0
    add  r9, r10, r9
    st   r9, r2, 0
    addi r2, r2, 1
    jmp  loop
op_sub:
    addi r2, r2, -1
    ld   r9, r2, 0
    addi r2, r2, -1
    ld   r10, r2, 0
    sub  r9, r10, r9
    st   r9, r2, 0
    addi r2, r2, 1
    jmp  loop
op_mul:
    addi r2, r2, -1
    ld   r9, r2, 0
    addi r2, r2, -1
    ld   r10, r2, 0
    mul  r9, r10, r9
    st   r9, r2, 0
    addi r2, r2, 1
    jmp  loop
op_jnz:
    ld   r11, r1, 0         # branch offset
    addi r1, r1, 1
    addi r2, r2, -1
    ld   r9, r2, 0
    beq  r9, r0, loop
    li   r12, {BC_BASE}
    add  r1, r12, r11
    jmp  loop
op_jmp:
    ld   r11, r1, 0
    li   r12, {BC_BASE}
    add  r1, r12, r11
    jmp  loop
op_out:
    addi r2, r2, -1
    ld   r9, r2, 0
    out  r9
    jmp  loop
op_load:
    ld   r11, r1, 0
    addi r1, r1, 1
    li   r12, {VAR_BASE}
    add  r13, r12, r11
    ld   r9, r13, 0
    st   r9, r2, 0
    addi r2, r2, 1
    jmp  loop
op_store:
    ld   r11, r1, 0
    addi r1, r1, 1
    li   r12, {VAR_BASE}
    add  r13, r12, r11
    addi r2, r2, -1
    ld   r9, r2, 0
    st   r9, r13, 0
    jmp  loop
op_bad:
    halt
op_halt:
    halt
.endproc
"""


def build() -> AssembledProgram:
    """Assemble the interpreter."""
    return assemble(SOURCE, name="stackvm")


def sum_program(k: int) -> list[int]:
    """Bytecode computing ``sum(1..k)``: emits the sum, then halts."""
    code: list[int] = []
    code += [OP_PUSH, k, OP_STORE, 0]          # i = k
    code += [OP_PUSH, 0, OP_STORE, 1]          # acc = 0
    loop_offset = len(code)
    code += [OP_LOAD, 1, OP_LOAD, 0, OP_ADD, OP_STORE, 1]   # acc += i
    code += [OP_LOAD, 0, OP_PUSH, -1, OP_ADD, OP_STORE, 0]  # i -= 1
    code += [OP_LOAD, 0, OP_JNZ, loop_offset]
    code += [OP_LOAD, 1, OP_OUT, OP_HALT]
    return code


def make_memory(bytecode: list[int]) -> list[int]:
    """A memory image with ``bytecode`` placed at :data:`BC_BASE`."""
    image = [0] * (BC_BASE + len(bytecode))
    image[BC_BASE:] = bytecode
    return image


def reference(bytecode: list[int]) -> list[int]:
    """Reference interpreter for the bytecode (expected ``out`` values)."""
    stack: list[int] = []
    variables: dict[int, int] = {}
    output: list[int] = []
    pc = 0
    for _ in range(10_000_000):
        op = bytecode[pc]
        pc += 1
        if op == OP_PUSH:
            stack.append(bytecode[pc])
            pc += 1
        elif op == OP_ADD:
            b, a = stack.pop(), stack.pop()
            stack.append(a + b)
        elif op == OP_SUB:
            b, a = stack.pop(), stack.pop()
            stack.append(a - b)
        elif op == OP_MUL:
            b, a = stack.pop(), stack.pop()
            stack.append(a * b)
        elif op == OP_JNZ:
            offset = bytecode[pc]
            pc += 1
            if stack.pop() != 0:
                pc = offset
        elif op == OP_JMP:
            pc = bytecode[pc]
        elif op == OP_OUT:
            output.append(stack.pop())
        elif op == OP_HALT:
            return output
        elif op == OP_LOAD:
            output_var = bytecode[pc]
            pc += 1
            stack.append(variables.get(output_var, 0))
        elif op == OP_STORE:
            variables[bytecode[pc]] = stack.pop()
            pc += 1
        else:
            return output
    raise RuntimeError("reference interpreter did not halt")
