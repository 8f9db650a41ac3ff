"""Assembler parsing, label resolution and CFG derivation."""

import pytest

from repro.errors import AssemblerError
from repro.isa import Op, assemble
from tests.conftest import block_at

MINIMAL = """
.proc main
    li r1, 5
loop:
    addi r1, r1, -1
    bgt r1, r0, loop
    halt
.endproc
"""


def test_assemble_minimal():
    program = assemble(MINIMAL)
    assert program.num_instructions == 4
    assert program.labels["loop"] == 1
    assert program.entry_proc == "main"


def test_cfg_addresses_equal_instruction_indices():
    program = assemble(MINIMAL)
    for block in program.cfg.blocks:
        assert program.leader_of[block.uid] == block.address
    assert program.cfg.num_instructions == program.num_instructions


def test_backward_branch_is_loop():
    program = assemble(MINIMAL)
    heads = program.cfg.backward_branch_targets()
    loop_block = block_at(program.cfg, program.labels["loop"])
    assert heads == {loop_block.uid}


def test_unknown_opcode():
    with pytest.raises(AssemblerError):
        assemble(".proc main\n    frobnicate r1\n    halt\n.endproc")


def test_undefined_label():
    with pytest.raises(AssemblerError):
        assemble(".proc main\n    jmp nowhere\n.endproc")


def test_duplicate_label():
    source = """
.proc main
x:
    nop
x:
    halt
.endproc
"""
    with pytest.raises(AssemblerError):
        assemble(source)


def test_bad_register():
    with pytest.raises(AssemblerError):
        assemble(".proc main\n    li r99, 1\n    halt\n.endproc")


def test_operand_count_checked():
    with pytest.raises(AssemblerError):
        assemble(".proc main\n    add r1, r2\n    halt\n.endproc")


def test_procedure_must_not_fall_off_end():
    with pytest.raises(AssemblerError) as excinfo:
        assemble(".proc main\n    nop\n.endproc")
    assert "falls off" in str(excinfo.value)


def test_instructions_outside_proc_rejected():
    with pytest.raises(AssemblerError):
        assemble("    nop\n.proc main\n    halt\n.endproc")


def test_duplicate_procedure_rejected():
    source = """
.proc main
    halt
.endproc
.proc main
    ret
.endproc
"""
    with pytest.raises(AssemblerError):
        assemble(source)


def test_call_target_must_be_procedure_entry():
    source = """
.proc main
    call inner
    halt
inner:
    nop
.endproc
"""
    with pytest.raises(AssemblerError):
        assemble(source)


def test_jr_requires_la_candidates():
    source = """
.proc main
    jr r1
.endproc
"""
    with pytest.raises(AssemblerError):
        assemble(source)


def test_call_and_ret_cfg():
    source = """
.proc main
    call helper
    halt
.endproc
.proc helper
    nop
    ret
.endproc
"""
    program = assemble(source)
    assert set(program.procs) == {"main", "helper"}
    call_block = block_at(program.cfg, 0)
    assert call_block.terminator.callee == "helper"


def test_comments_and_blank_lines_ignored():
    source = """
# leading comment
.proc main
    li r1, 1   # trailing comment

    halt
.endproc
"""
    program = assemble(source)
    assert program.num_instructions == 2


def test_negative_and_hex_immediates():
    source = """
.proc main
    li r1, -3
    li r2, 0x10
    halt
.endproc
"""
    program = assemble(source)
    assert program.instructions[0].imm == -3
    assert program.instructions[1].imm == 16


def test_instruction_render():
    program = assemble(MINIMAL)
    rendered = program.instructions[2].render()
    assert rendered.startswith("bgt")
    assert "loop" in rendered


def test_la_targets_recorded():
    source = """
.proc main
    la r1, spot
    jr r1
spot:
    halt
.endproc
"""
    program = assemble(source)
    assert program.labels["spot"] in program.la_targets
    assert program.instructions[0].op is Op.LA
