"""Exhaustive coverage of the straight-line instruction semantics."""

import pytest

from repro.isa import assemble, run_to_completion
from repro.trace.batch import CODE_CALL


def _outputs(body: str, memory=None) -> list[int]:
    source = f".proc main\n{body}\n    halt\n.endproc\n"
    _, machine = run_to_completion(assemble(source), memory)
    return machine.state.output


@pytest.mark.parametrize(
    "op,a,b,expected",
    [
        ("add", 7, 5, 12),
        ("sub", 7, 5, 2),
        ("mul", 7, 5, 35),
        ("div", 17, 5, 3),
        ("mod", 17, 5, 2),
        ("and", 0b1100, 0b1010, 0b1000),
        ("or", 0b1100, 0b1010, 0b1110),
        ("xor", 0b1100, 0b1010, 0b0110),
        ("shl", 3, 4, 48),
        ("shr", 48, 4, 3),
    ],
)
def test_alu_ops(op, a, b, expected):
    body = f"""
    li r1, {a}
    li r2, {b}
    {op} r3, r1, r2
    out r3
"""
    assert _outputs(body) == [expected]


def test_shift_amount_masked_to_63():
    body = """
    li r1, 1
    li r2, 64
    shl r3, r1, r2
    out r3
"""
    # 64 & 63 == 0: shifting by 64 is a no-op, like most real ISAs.
    assert _outputs(body) == [1]


def test_mov_and_addi():
    body = """
    li r1, 10
    mov r2, r1
    addi r2, r2, -3
    out r2
    out r1
"""
    assert _outputs(body) == [7, 10]


def test_negative_division_floors():
    body = """
    li r1, -7
    li r2, 2
    div r3, r1, r2
    out r3
    mod r4, r1, r2
    out r4
"""
    # Python floor semantics: -7 // 2 == -4, -7 % 2 == 1.
    assert _outputs(body) == [-4, 1]


def test_la_loads_instruction_index():
    source = """
.proc main
    la r1, target
    out r1
    jmp target
target:
    halt
.endproc
"""
    program = assemble(source)
    _, machine = run_to_completion(program)
    assert machine.state.output == [program.labels["target"]]


def test_out_order_preserved():
    body = "\n".join(
        f"    li r1, {value}\n    out r1" for value in (5, 3, 9, 1)
    )
    assert _outputs(body) == [5, 3, 9, 1]


def test_nop_does_nothing():
    body = """
    li r1, 1
    nop
    nop
    out r1
"""
    assert _outputs(body) == [1]


def test_callr_indirect_call():
    source = """
.proc main
    la r1, helper
    callr r1
    out r5
    halt
.endproc
.proc helper
    li r5, 77
    ret
.endproc
"""
    events, machine = run_to_completion(assemble(source))
    assert machine.state.output == [77]
    assert (events.kind == CODE_CALL).any()


def test_conditional_coverage():
    # Each comparison both ways.
    body = """
    li r1, 3
    li r2, 5
    li r9, 0
    beq r1, r1, a
    jmp end
a:  bne r1, r2, b
    jmp end
b:  blt r1, r2, c
    jmp end
c:  ble r1, r1, d
    jmp end
d:  bgt r2, r1, e
    jmp end
e:  bge r2, r2, f
    jmp end
f:  li r9, 1
end:
    out r9
"""
    assert _outputs(body) == [1]
