"""Interpreter semantics and event emission."""

import pytest

from repro.errors import MachineError, MachineLimitExceeded
from repro.isa import Machine, assemble, run_to_completion
from repro.trace.batch import CODE_CALL, CODE_INDIRECT, CODE_RETURN, HALT_DST


def _run(source, memory=None, max_steps=100_000):
    return run_to_completion(assemble(source), memory, max_steps)


def test_arithmetic_and_out():
    source = """
.proc main
    li r1, 6
    li r2, 7
    mul r3, r1, r2
    out r3
    sub r4, r3, r1
    out r4
    halt
.endproc
"""
    events, machine = _run(source)
    assert machine.state.output == [42, 36]
    assert events.dst[-1] == HALT_DST


def test_memory_roundtrip():
    source = """
.proc main
    li r1, 100
    li r2, 31
    st r2, r1, 5
    ld r3, r1, 5
    out r3
    halt
.endproc
"""
    _, machine = _run(source)
    assert machine.state.output == [31]
    assert machine.state.memory[105] == 31


def test_loop_emits_backward_events():
    source = """
.proc main
    li r1, 4
loop:
    addi r1, r1, -1
    bgt r1, r0, loop
    halt
.endproc
"""
    events, _ = _run(source)
    # taken three times for r1=3,2,1
    assert int(events.backward.sum()) == 3


def test_division_by_zero_faults():
    source = """
.proc main
    li r1, 1
    div r2, r1, r0
    halt
.endproc
"""
    with pytest.raises(MachineError):
        _run(source)


def test_step_budget():
    source = """
.proc main
loop:
    jmp loop
.endproc
"""
    with pytest.raises(MachineLimitExceeded):
        _run(source, max_steps=100)


def test_bad_memory_access_faults():
    source = """
.proc main
    li r1, -5
    ld r2, r1, 0
    halt
.endproc
"""
    with pytest.raises(MachineError):
        _run(source)


def test_jr_to_non_leader_faults():
    source = """
.proc main
    la r1, spot
    addi r1, r1, 1
    jr r1
spot:
    nop
    halt
.endproc
"""
    with pytest.raises(MachineError):
        _run(source)


def test_call_and_ret_events():
    source = """
.proc main
    call helper
    out r5
    halt
.endproc
.proc helper
    li r5, 9
    ret
.endproc
"""
    events, machine = _run(source)
    kinds = set(events.kind.tolist())
    assert CODE_CALL in kinds and CODE_RETURN in kinds
    assert machine.state.output == [9]


def test_ret_with_empty_stack_halts():
    source = """
.proc main
    li r1, 2
    ret
.endproc
"""
    events, _ = _run(source)
    assert events.dst[-1] == HALT_DST


def test_indirect_dispatch():
    source = """
.proc main
    la r1, there
    jr r1
    halt
there:
    li r2, 3
    out r2
    halt
.endproc
"""
    events, machine = _run(source)
    assert machine.state.output == [3]
    assert (events.kind == CODE_INDIRECT).any()


def test_event_stream_feeds_extractor():
    from repro.trace import record_path_trace

    source = """
.proc main
    li r1, 5
loop:
    addi r1, r1, -1
    bgt r1, r0, loop
    halt
.endproc
"""
    program = assemble(source)
    events, _ = run_to_completion(program)
    trace = record_path_trace(program.cfg, events, name="tiny")
    assert trace.flow >= 2
    assert trace.freqs().sum() == trace.flow


def test_load_memory_bounds():
    machine = Machine(assemble(".proc main\n    halt\n.endproc"))
    with pytest.raises(MachineError):
        machine.load_memory([1, 2, 3], base=-1)


def test_memory_allocation_is_lazy():
    """The backing list grows on demand instead of pre-allocating 64K."""
    machine = Machine(assemble(".proc main\n    halt\n.endproc"))
    assert machine.state.memory == []
    list(machine.run_batched())
    assert machine.state.memory == []  # no loads or stores, no growth


def test_memory_grows_to_highest_touched_address():
    source = """
.proc main
    li r1, 100
    li r2, 31
    st r2, r1, 5
    halt
.endproc
"""
    _, machine = _run(source)
    assert len(machine.state.memory) == 106
    assert machine.state.memory[105] == 31


def test_load_memory_grows_lazily():
    machine = Machine(assemble(".proc main\n    halt\n.endproc"))
    machine.load_memory([1, 2, 3], base=10)
    assert len(machine.state.memory) == 13
    assert machine.state.memory[10:13] == [1, 2, 3]


def test_memory_cap_still_enforced_despite_laziness():
    source = """
.proc main
    li r1, 20
    st r0, r1, 0
    halt
.endproc
"""
    machine = Machine(assemble(source), memory_words=16)
    with pytest.raises(MachineError):
        list(machine.run_batched())
    capped = Machine(assemble(source), memory_words=16)
    with pytest.raises(MachineError):
        capped.load_memory([0] * 20)


def test_memory_growth_is_in_place():
    """run_batched() holds a direct reference; growth must never rebind
    the list."""
    source = """
.proc main
    li r1, 50
    st r1, r1, 0
    ld r2, r1, 0
    out r2
    halt
.endproc
"""
    machine = Machine(assemble(source))
    backing = machine.state.memory
    list(machine.run_batched())
    assert machine.state.memory is backing
    assert machine.state.output == [50]
