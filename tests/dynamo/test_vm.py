"""The miniature Dynamo: correctness first, then mechanism."""

import pytest

from repro.dynamo import DynamoSystem, DynamoVM
from repro.errors import DynamoError, MachineLimitExceeded
from repro.isa import assemble, run_to_completion
from repro.isa.programs import ALL_PROGRAMS, propagate, rle, sort, stackvm


def _native_output(program, memory):
    _, machine = run_to_completion(program, memory, max_steps=60_000_000)
    return machine.state.output


def test_constructor_validation():
    program = assemble(".proc main\n    halt\n.endproc")
    with pytest.raises(DynamoError):
        DynamoVM(program, delay=-1)
    with pytest.raises(DynamoError):
        DynamoVM(program, max_trace_instructions=1)


@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
def test_vm_output_equals_native(name):
    """The defining property: acceleration never changes results."""
    module = ALL_PROGRAMS[name]
    if name == "stackvm":
        memory = module.make_memory(stackvm.sum_program(500))
    else:
        memory = module.make_memory(seed=5)
    program = module.build()
    result = DynamoSystem().run_vm(
        program, memory, delay=15, max_steps=60_000_000
    )
    assert result.output == _native_output(program, memory), name


@pytest.mark.parametrize("delay", [0, 5, 200])
def test_vm_correct_across_delays(delay):
    memory = sort.make_memory(seed=2, size=200)
    program = sort.build()
    result = DynamoSystem().run_vm(
        program, memory, delay=delay, max_steps=60_000_000
    )
    assert result.output == _native_output(program, memory)


def test_vm_builds_fragments_and_caches_execution():
    memory = rle.make_memory(seed=3, size=8000)
    program = rle.build()
    result = DynamoSystem().run_vm(program, memory, delay=10)
    assert result.stats.fragments_built >= 2
    assert result.stats.cached_fraction > 0.9
    assert result.stats.linked_transfers > 0


def test_vm_high_delay_stays_interpreted():
    memory = rle.make_memory(seed=3, size=300)
    program = rle.build()
    result = DynamoSystem().run_vm(program, memory, delay=10**6)
    assert result.stats.fragments_built == 0
    assert result.stats.cached_fraction == 0.0
    assert result.output == _native_output(program, memory)


def test_vm_guard_exits_spawn_secondary_fragments():
    """The interpreter's dispatch loop has many tails; exit counters
    materialize the others (Dynamo's secondary trace selection)."""
    bytecode = stackvm.sum_program(800)
    memory = stackvm.make_memory(bytecode)
    program = stackvm.build()
    result = DynamoSystem().run_vm(
        program, memory, delay=10, max_steps=60_000_000
    )
    assert result.stats.guard_exits > 0
    assert result.stats.fragments_built >= 3
    assert result.output == _native_output(program, memory)


def test_vm_steady_state_speedup_positive():
    memory = propagate.make_memory(seed=3, sweeps=120)
    program = propagate.build()
    result = DynamoSystem().run_vm(
        program, memory, delay=20, max_steps=60_000_000
    )
    assert result.steady_speedup_percent() > 5.0
    assert 0 < result.steady_rate() < 1.0


def test_vm_tiny_cache_flushes():
    memory = stackvm.make_memory(stackvm.sum_program(600))
    program = stackvm.build()
    vm = DynamoVM(program, delay=10, cache_budget_instructions=20)
    vm.load_memory(memory)
    result = vm.run(max_steps=60_000_000)
    assert result.stats.flushes > 0
    assert result.output == _native_output(program, memory)


def test_vm_step_budget():
    program = assemble(
        ".proc main\nloop:\n    jmp loop\n.endproc"
    )
    with pytest.raises(MachineLimitExceeded):
        DynamoVM(program, delay=5).run(max_steps=1000)


def test_vm_fragment_contents_are_straightened():
    source = """
.proc main
    li r1, 2000
loop:
    addi r1, r1, -1
    jmp test
test:
    bgt r1, r0, loop
    halt
.endproc
"""
    program = assemble(source)
    result = DynamoSystem().run_vm(program, delay=10)
    assert result.fragments
    fragment = next(iter(result.fragments.values()))
    # The on-trace jmp disappeared; the loop branch became a guard.
    ops = [step.instruction.op.value for step in fragment.steps]
    assert "jmp" not in ops
    assert any(step.kind == "guard_cond" for step in fragment.steps)


def test_vm_redundant_li_folded_in_fragment():
    source = """
.proc main
    li r1, 500
loop:
    li r2, 7
    li r2, 7
    addi r1, r1, -1
    bgt r1, r0, loop
    halt
.endproc
"""
    program = assemble(source)
    result = DynamoSystem().run_vm(program, delay=10)
    fragment = next(iter(result.fragments.values()))
    li_count = sum(
        1
        for step in fragment.steps
        if step.instruction.op.value == "li" and step.instruction.rd == 2
    )
    assert li_count == 1  # the duplicate reload was folded


def test_vm_path_profile_mode_is_correct():
    bytecode = stackvm.sum_program(600)
    memory = stackvm.make_memory(bytecode)
    program = stackvm.build()
    vm = DynamoVM(program, delay=15, scheme="path-profile")
    vm.load_memory(memory)
    result = vm.run(max_steps=60_000_000)
    assert result.output == _native_output(program, memory)
    assert result.stats.cached_fraction > 0.9
    # The defining overhead: bit tracing and table updates never stop.
    assert result.stats.shift_ops > 0
    assert result.stats.table_ops > 0


def test_vm_unknown_scheme_rejected():
    program = assemble(".proc main\n    halt\n.endproc")
    with pytest.raises(DynamoError):
        DynamoVM(program, scheme="oracle")


def test_vm_net_beats_path_profile_live():
    """Figure 5's verdict on real machine code: same cache behaviour,
    but path-profile prediction pays per-branch profiling forever."""
    memory = rle.make_memory(seed=3, size=12_000)
    program = rle.build()
    results = {}
    for scheme in ("net", "path-profile"):
        vm = DynamoVM(program, delay=20, scheme=scheme)
        vm.load_memory(memory)
        results[scheme] = vm.run(max_steps=60_000_000)
        assert results[scheme].output == _native_output(program, memory)
    assert (
        results["net"].steady_speedup_percent()
        > results["path-profile"].steady_speedup_percent()
    )
    assert results["net"].stats.shift_ops == 0
    assert results["path-profile"].stats.shift_ops > 0
