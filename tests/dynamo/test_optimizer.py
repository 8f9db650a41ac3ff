"""The trace optimizer: straightening, propagation, dead code."""

import pytest

from repro.dynamo import (
    DynamoConfig,
    DynamoSystem,
    TraceOptimizer,
    measured_fragment_sizes,
)
from repro.errors import ReproError
from repro.isa import assemble, run_to_completion
from repro.isa.programs import rle, stackvm
from repro.trace import record_path_trace


def _trace_of(source, memory=None):
    program = assemble(source)
    events, _ = run_to_completion(program, memory)
    return program, record_path_trace(program.cfg, events)


def test_straightening_removes_jumps():
    source = """
.proc main
    li r1, 3
loop:
    addi r1, r1, -1
    bgt r1, r0, loop
    halt
.endproc
"""
    program, trace = _trace_of(source)
    optimizer = TraceOptimizer(program)
    # The hot loop path: addi + bgt (+ the jump-free layout).
    loop_path = next(
        path for path in trace.table if path.ends_with_backward_branch
    )
    fragment = optimizer.optimize(loop_path)
    assert fragment.optimized_instructions <= fragment.original_instructions
    # The conditional branch survives as a guard.
    assert any(entry.is_guard for entry in fragment.instructions)


def test_jump_heavy_path_shrinks():
    source = """
.proc main
    li r2, 5
top:
    jmp a
a:
    jmp b
b:
    addi r2, r2, -1
    bgt r2, r0, top
    halt
.endproc
"""
    program, trace = _trace_of(source)
    loop_path = max(trace.table, key=lambda p: p.num_blocks)
    fragment = TraceOptimizer(program).optimize(loop_path)
    assert fragment.removed("straightened") >= 2
    assert fragment.speedup_factor < 1.0


def test_redundant_constant_loads_folded():
    source = """
.proc main
    li r1, 100
    li r2, 7
    st r2, r1, 0
    li r1, 100
    ld r3, r1, 1
    out r3
    halt
.endproc
"""
    program, trace = _trace_of(source)
    path = trace.table.path(0)
    fragment = TraceOptimizer(program).optimize(path)
    assert fragment.removed("redundant-load") == 1


def test_dead_write_eliminated():
    source = """
.proc main
    li r1, 1
    li r1, 2
    out r1
    halt
.endproc
"""
    program, trace = _trace_of(source)
    fragment = TraceOptimizer(program).optimize(trace.table.path(0))
    assert fragment.removed("dead") == 1


def test_stores_and_out_keep_everything_live():
    source = """
.proc main
    li r1, 5
    out r1
    li r1, 6
    out r1
    halt
.endproc
"""
    program, trace = _trace_of(source)
    fragment = TraceOptimizer(program).optimize(trace.table.path(0))
    assert fragment.removed("dead") == 0


def test_unknown_block_rejected():
    program, trace = _trace_of(
        ".proc main\n    li r1, 1\n    halt\n.endproc"
    )
    from repro.trace.path import Path, PathSignature

    alien = Path(
        signature=PathSignature.from_bits(999, "1"),
        blocks=(42,),
        start_uid=42,
        num_instructions=1,
        num_cond_branches=1,
        num_indirect_branches=0,
    )
    with pytest.raises(ReproError):
        TraceOptimizer(program).optimize(alien)


def test_measured_speedups_on_real_programs():
    program = rle.build()
    events, _ = run_to_completion(program, rle.make_memory(seed=1, size=2000))
    trace = record_path_trace(program.cfg, events)
    optimizer = TraceOptimizer(program)
    fragments = {
        path.blocks: optimizer.optimize(path) for path in trace.table.paths()
    }
    assert len(fragments) == trace.num_paths
    for fragment in fragments.values():
        assert 0 < fragment.optimized_instructions
        assert fragment.optimized_instructions <= (
            fragment.original_instructions
        )
    # Loops with unconditional back-jumps shrink.
    assert any(f.speedup_factor < 1.0 for f in fragments.values())


def test_measured_sizes_feed_the_simulator():
    program = stackvm.build()
    memory = stackvm.make_memory(stackvm.sum_program(400))
    events, _ = run_to_completion(program, memory)
    trace = record_path_trace(program.cfg, events)
    sizes = measured_fragment_sizes(program, trace)
    system = DynamoSystem(DynamoConfig(amortization=100.0))
    modelled = system.run_detailed(trace, "net", 10)
    measured = system.run_detailed(trace, "net", 10, fragment_sizes=sizes)
    assert measured.num_fragments == modelled.num_fragments
    # Measured fragment costs differ from the constant-S_opt model but
    # stay in the same regime.
    assert abs(measured.speedup_percent - modelled.speedup_percent) < 25
