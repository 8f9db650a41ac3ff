"""The compiled fragment tier: digest identity, linking, accounting.

The contract under test is the PR 5 proof pattern applied to execution
tiers: ``compiled`` must be digest-identical (output, registers, memory,
call stack) to ``interp`` and to the step-by-step fragment replay kept
as the reference oracle (:mod:`tests.dynamo.replay_oracle`), and
counter- and checkpoint-identical to that oracle, on every bundled
program under every cache/flush/trace-cap regime.  Link patching
(install, guard-exit retargeting, flush) is unit-tested
against :class:`repro.dynamo.compiler.CompiledCache`.
"""

from dataclasses import replace

import pytest

from repro.dynamo import (
    DEFAULT_CONFIG,
    TIERS,
    CompiledCache,
    DynamoConfig,
    DynamoSystem,
    DynamoVM,
    compile_fragment,
)
from repro.errors import DynamoError, MachineError, MachineLimitExceeded
from repro.isa import assemble
from repro.isa.machine import Machine
from repro.isa.programs import ALL_PROGRAMS, demo_memory, rle, sort, stackvm
from tests.dynamo.replay_oracle import assert_same_accounting, make_vm

#: Small per-program inputs that still build and reuse fragments.
SMALL_INPUT_SCALE = 0.2

#: The production tiers plus the replay oracle.
RUNS = TIERS + ("replay",)


def _run_tier(program, memory, tier, **kwargs):
    vm = make_vm(program, tier, **kwargs)
    vm.load_memory(memory)
    result = vm.run(max_steps=50_000_000)
    return vm, result


def assert_tier_identity(program, memory, **kwargs):
    """interp, replay and compiled digest-equal; compiled counts, and
    checkpoints, exactly what the replay oracle does."""
    digests = {}
    results = {}
    for tier in RUNS:
        vm, result = _run_tier(program, memory, tier, **kwargs)
        digests[tier] = vm.state_digest()
        results[tier] = result
    assert digests["interp"] == digests["replay"] == digests["compiled"]
    assert_same_accounting(results["replay"], results["compiled"])
    return results


# ----------------------------------------------------------------------
# Digest identity across every bundled program.
@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
def test_tiers_digest_identical(name):
    program = ALL_PROGRAMS[name].build()
    memory = demo_memory(name, scale=SMALL_INPUT_SCALE)
    results = assert_tier_identity(program, memory, delay=5)
    # The compiled tier actually compiled and ran something.
    comp = results["compiled"].stats
    assert comp.fragments_compiled == comp.fragments_built > 0
    assert comp.fragment_instructions > 0
    assert results["compiled"].compiled  # resident closures exposed


@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
def test_tiers_digest_identical_path_profile(name):
    program = ALL_PROGRAMS[name].build()
    memory = demo_memory(name, scale=SMALL_INPUT_SCALE)
    assert_tier_identity(program, memory, delay=5, scheme="path-profile")


@pytest.mark.parametrize("budget", [8, 16])
def test_tiers_identical_under_flush_pressure(budget):
    """A tiny budget forces repeated whole-cache flushes + unlinking."""
    program = rle.build()
    memory = rle.make_memory(seed=3, size=1500)
    results = assert_tier_identity(
        program, memory, delay=3, cache_budget_instructions=budget
    )
    comp = results["compiled"].stats
    assert comp.flushes > 0
    assert comp.link_unpatches > 0


def test_tiers_identical_under_short_traces():
    program = sort.build()
    memory = sort.make_memory(seed=3, size=60)
    assert_tier_identity(
        program, memory, delay=3, max_trace_instructions=4
    )


def test_compiled_respects_max_steps():
    """The self-loop fuel check: compiled stops on the oracle's step."""
    program = rle.build()
    memory = rle.make_memory(seed=3, size=4000)
    for max_steps in (3000, 12345):
        outcomes = {}
        for tier in ("replay", "compiled"):
            vm = make_vm(program, tier, delay=5)
            vm.load_memory(memory)
            with pytest.raises(MachineLimitExceeded) as err:
                vm.run(max_steps=max_steps)
            outcomes[tier] = (err.value.args, vm.state_digest())
        assert outcomes["replay"] == outcomes["compiled"]


def test_checkpoints_sampled_inside_superblock_loops():
    """Regression: a self-looping superblock used to run past several
    2048-step checkpoints in one closure call, and to charge its
    back-edge passes' path-profile ops after the checkpoint, so the
    checkpoint series (and steady_rate) drifted from the replay tier's
    (4.93845 instead of 4.92122 here)."""
    kwargs = dict(
        delay=29,
        scheme="path-profile",
        max_trace_instructions=32,
        cache_budget_instructions=16,
    )
    memory = demo_memory("stackvm", scale=0.04)
    results = {
        tier: _run_tier(stackvm.build(), memory, tier, **kwargs)[1]
        for tier in ("replay", "compiled")
    }
    assert_same_accounting(results["replay"], results["compiled"])
    assert results["compiled"].steady_rate() == pytest.approx(
        4.92122, abs=5e-6
    )


# ----------------------------------------------------------------------
# Fault parity: compiled slow paths raise the machine's own errors.
def test_compiled_division_by_zero_message():
    source = """
.proc main
    li r1, 12
    li r2, 3
    li r3, 0
loop:
    div r4, r1, r2
    out r4
    addi r2, r2, -1
    bge r2, r3, loop
    halt
.endproc
"""
    program = assemble(source)
    errors = {}
    for tier in ("replay", "compiled"):
        vm = make_vm(program, tier, delay=0)
        with pytest.raises(MachineError) as err:
            vm.run(max_steps=100_000)
        errors[tier] = str(err.value)
    assert errors["replay"] == errors["compiled"]
    assert "division by zero at instruction" in errors["compiled"]


def test_compiled_memory_growth_and_fault():
    """ST beyond the current list grows in place; beyond the cap faults."""
    grow = """
.proc main
    li r1, 0
    li r2, 40
    li r3, 5000
loop:
    st r1, r3, 0
    addi r3, r3, 7
    addi r1, r1, 1
    blt r1, r2, loop
    ld r4, r3, -7
    out r4
    halt
.endproc
"""
    program = assemble(grow)
    digests = {}
    outputs = {}
    for tier in ("replay", "compiled"):
        vm = make_vm(program, tier, delay=0)
        result = vm.run(max_steps=100_000)
        digests[tier] = vm.state_digest()
        outputs[tier] = result.output
    assert digests["replay"] == digests["compiled"]
    assert outputs["compiled"] == [39]

    fault = """
.proc main
    li r1, 0
    li r2, 40
    li r3, 5000
loop:
    st r1, r3, 0
    addi r3, r3, 7000000
    addi r1, r1, 1
    blt r1, r2, loop
    halt
.endproc
"""
    program = assemble(fault)
    errors = {}
    for tier in ("replay", "compiled"):
        vm = make_vm(program, tier, delay=0)
        with pytest.raises(MachineError) as err:
            vm.run(max_steps=100_000)
        errors[tier] = str(err.value)
    assert errors["replay"] == errors["compiled"]


# ----------------------------------------------------------------------
# Fragment accounting (the satellite fix): halting executions count as
# executions, never as completions.
def test_halt_mid_fragment_counts_execution_not_completion():
    source = """
.proc main
    li r1, 0
    li r2, 30
loop:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
.endproc
"""
    program = assemble(source)
    for tier in ("replay", "compiled"):
        vm = make_vm(program, tier, delay=2)
        result = vm.run(max_steps=100_000)
        # The loop fragment spins, then its guard fails and the halt
        # runs interpreted — or the halt lands inside a fragment; in
        # both cases executions strictly exceed completions.
        for fragment in result.fragments.values():
            assert fragment.executions >= fragment.completions
        stats = result.stats
        total_exec = sum(
            f.executions for f in result.fragments.values()
        )
        total_complete = sum(
            f.completions for f in result.fragments.values()
        )
        assert total_complete == stats.fragment_completions
        assert total_exec > total_complete


def test_stats_publish_includes_tier_counters():
    from repro.obs import Registry

    registry = Registry()
    program = rle.build()
    memory = rle.make_memory(seed=3, size=1200)
    vm = DynamoVM(program, delay=5, tier="compiled", obs=registry)
    vm.load_memory(memory)
    vm.run(max_steps=10_000_000)
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    assert counters["vm.fragments_compiled"] > 0
    assert counters["vm.link_patches"] > 0
    assert counters["vm.fragment_completions"] > 0
    assert snapshot["gauges"]["vm.resident_compiled"] > 0


# ----------------------------------------------------------------------
# The interp tier really is the bare interpreter.
def test_interp_tier_never_profiles():
    program = rle.build()
    memory = rle.make_memory(seed=3, size=1200)
    vm = DynamoVM(program, delay=0, tier="interp")
    vm.load_memory(memory)
    result = vm.run(max_steps=10_000_000)
    stats = result.stats
    assert stats.counter_bumps == 0
    assert stats.fragments_built == 0
    assert stats.fragment_instructions == 0
    assert not result.fragments
    assert not result.compiled
    assert stats.interpreted_instructions > 0


# ----------------------------------------------------------------------
# Tier knob validation and threading.
def test_tier_validation():
    program = assemble(".proc main\n    halt\n.endproc")
    assert TIERS == ("interp", "compiled")
    # "fragments" (fragment replay) survives only as the test oracle.
    for tier in ("jit", "fragments"):
        with pytest.raises(DynamoError, match="unknown execution tier"):
            DynamoVM(program, tier=tier)
    for tier in ("native", "fragments"):
        with pytest.raises(DynamoError, match="unknown execution tier"):
            DynamoConfig(tier=tier)


def test_default_tier_comes_from_the_config():
    program = assemble(".proc main\n    halt\n.endproc")
    assert DEFAULT_CONFIG.tier == "compiled"
    assert DynamoVM(program).tier == DEFAULT_CONFIG.tier


def test_config_tier_threads_through_system_and_wrapper():
    program = rle.build()
    memory = rle.make_memory(seed=3, size=800)
    config = DynamoConfig(tier="compiled")
    result = DynamoSystem(config=config).run_vm(program, memory, delay=5)
    assert result.stats.fragments_compiled > 0
    interp = DynamoSystem(config=replace(config, tier="interp"))
    result = interp.run_vm(program, memory, delay=5)
    assert result.stats.fragments_built == 0


# ----------------------------------------------------------------------
# CompiledCache link-patching units.
def _make_compiled(machine, head_pc, final_target, n_ops=2):
    """A tiny synthetic fragment (NOP bodies) compiled for ``machine``."""
    from repro.dynamo.vm import VMFragment, VMStep
    from repro.isa.instructions import Instruction, Op

    steps = [
        VMStep(
            pc=head_pc + i,
            instruction=Instruction(op=Op.NOP),
            kind="exec",
        )
        for i in range(n_ops)
    ]
    fragment = VMFragment(
        head_pc=head_pc,
        steps=steps,
        final_target=final_target,
        created_at_step=0,
    )
    return compile_fragment(machine, fragment)


@pytest.fixture
def machine():
    return Machine(assemble(".proc main\n    halt\n.endproc"))


def test_install_patches_completion_links(machine):
    cache = CompiledCache()
    a = _make_compiled(machine, 10, 20)
    b = _make_compiled(machine, 20, 10)
    cache.install(a)
    assert a.succ_cell[0] is None  # b not resident yet
    cache.install(b)
    # Installing b retargets a's completion link and patches b's own.
    assert a.succ_cell[0] is b
    assert b.succ_cell[0] is a
    assert cache.link_patches == 2


def test_install_self_loop_sets_loop_cell(machine):
    cache = CompiledCache()
    loop = _make_compiled(machine, 30, 30)
    cache.install(loop)
    assert loop.succ_cell[0] is loop
    assert loop.loop_cell[0] is True


def test_flush_unlinks_everything(machine):
    cache = CompiledCache()
    loop = _make_compiled(machine, 10, 10)
    other = _make_compiled(machine, 20, 10)
    cache.install(loop)
    cache.install(other)
    assert other.succ_cell[0] is loop
    cache.flush()
    assert len(cache) == 0
    assert loop.succ_cell[0] is None
    assert loop.loop_cell[0] is False
    assert other.succ_cell[0] is None


def test_guard_exit_retargeting_on_install():
    """A live run patches existing guard-exit stubs when the fragment
    at that exit pc materializes later (Dynamo's exit-stub patching)."""
    program = sort.build()
    memory = sort.make_memory(seed=3, size=80)
    vm = DynamoVM(program, delay=3, tier="compiled")
    vm.load_memory(memory)
    result = vm.run(max_steps=10_000_000)
    # Some resident closure must have a patched static guard exit —
    # proof that exit stubs were retargeted to later fragments.
    patched = [
        (exit_pc, cell[0])
        for cf in result.compiled.values()
        for exit_pc, cell in cf.static_exits
        if cell[0] is not None
    ]
    assert patched
    for exit_pc, target in patched:
        assert target.head_pc == exit_pc
    assert result.stats.link_patches > 0


def test_compiled_source_is_kept_for_inspection():
    program = rle.build()
    memory = rle.make_memory(seed=3, size=800)
    vm = DynamoVM(program, delay=5, tier="compiled")
    vm.load_memory(memory)
    result = vm.run(max_steps=10_000_000)
    assert result.compiled
    some = next(iter(result.compiled.values()))
    assert "def _fragment(fuel):" in some.source
    assert "return _fragment" in some.source
