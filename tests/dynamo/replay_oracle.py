"""Reference oracle: the step-interpreted fragment-replay tier.

``DynamoVM`` runs recorded fragments only as compiled closures.  Before
that it could also *replay* them, re-interpreting one
:class:`~repro.dynamo.vm.VMStep` at a time between per-pass accounting.
That tier ran no faster than the plain interpreter, so it left the
package; its smallest faithful form lives here as the oracle the
compiled tier is checked against.  Both must agree on the final machine
state, on every shared :class:`~repro.dynamo.vm.VMStats` counter and on
the :attr:`~repro.dynamo.vm.VMResult.checkpoints` series — the replay
tier samples its counts after every single fragment pass, which is what
the compiled dispatcher's checkpoint fuel has to reproduce.

The recording, trace straightening (``DynamoVM._compile``) and
single-instruction semantics (``DynamoVM._interpret``) are shared with
the production VM; only fragment execution and its accounting are
re-implemented.
"""

from __future__ import annotations

from repro.dynamo.vm import DynamoVM, VMFragment, VMResult, VMStats
from repro.errors import MachineLimitExceeded
from repro.isa.instructions import COND_BRANCHES, Op

#: Counters the oracle and the compiled tier must agree on exactly; the
#: compiled-only counters (fragments_compiled, link_patches,
#: link_unpatches) stay zero here.
SHARED_STAT_FIELDS = (
    "interpreted_instructions",
    "fragment_instructions",
    "counter_bumps",
    "shift_ops",
    "table_ops",
    "recorded_instructions",
    "fragments_built",
    "fragment_entries",
    "fragment_completions",
    "linked_transfers",
    "guard_exits",
    "flushes",
)


class ReplayVM(DynamoVM):
    """``DynamoVM`` with fragments replayed step by step (test oracle).

    Takes every ``DynamoVM`` argument except ``tier``.
    """

    def __init__(self, program, **kwargs):
        super().__init__(program, **kwargs)
        self.tier = "replay"

    def _run(self, max_steps: int) -> VMResult:
        state = self._machine.state
        instructions = self.program.instructions
        max_trace = self.max_trace_instructions
        path_profile = self.scheme == "path-profile"
        stats = VMStats()
        fragments: dict[int, VMFragment] = {}
        counters: dict[int, int] = {}
        hot: set[int] = set()
        path_counts: dict[tuple, int] = {}
        checkpoints: list[tuple[int, int, int, int]] = []
        occupancy = steps = 0
        next_checkpoint = 2048
        recording: list | None = None
        recording_head = -1
        segment: list = []
        segment_head = state.pc
        segment_bits: list[int] = []

        def bump(target_pc):
            nonlocal recording, recording_head
            if target_pc in hot or target_pc in fragments:
                return
            counters[target_pc] = count = counters.get(target_pc, 0) + 1
            stats.counter_bumps += 1
            if count > self.delay and recording is None:
                hot.add(target_pc)
                counters.pop(target_pc, None)
                recording, recording_head = [], target_pc

        def install(trace, head_pc, final_target):
            nonlocal occupancy
            if len(trace) < 2:
                return
            fragment = self._compile(trace, head_pc, final_target)
            if not fragment.steps:
                return  # jmps only: nothing to execute, no fuel to spend
            stats.recorded_instructions += len(trace)
            stats.fragments_built += 1
            if occupancy + fragment.num_instructions > self.cache_budget:
                fragments.clear()
                counters.clear()
                hot.clear()
                path_counts.clear()
                occupancy = 0
                stats.flushes += 1
            fragments[head_pc] = fragment
            occupancy += fragment.num_instructions

        def end_segment(final_target):
            nonlocal segment, segment_head, segment_bits
            stats.table_ops += 1
            key = (segment_head, tuple(segment_bits))
            path_counts[key] = count = path_counts.get(key, 0) + 1
            if count > self.delay and segment_head not in fragments:
                install(list(segment), segment_head, final_target)
            segment, segment_head, segment_bits = [], final_target, []

        def checkpoint():
            nonlocal next_checkpoint
            while steps >= next_checkpoint:
                checkpoints.append(
                    (
                        stats.interpreted_instructions,
                        stats.fragment_instructions,
                        stats.shift_ops,
                        stats.table_ops,
                    )
                )
                next_checkpoint += 2048

        def finish():
            return VMResult(
                output=state.output,
                stats=stats,
                fragments=fragments,
                checkpoints=checkpoints,
            )

        while True:
            if steps >= max_steps:
                raise MachineLimitExceeded(steps)
            checkpoint()
            fragment = fragments.get(state.pc)
            if fragment is not None and recording is None:
                segment, segment_bits = [], []
                stats.fragment_entries += 1
                while fragment is not None:
                    exit_pc, completed = self._replay(fragment, stats)
                    steps += fragment.num_instructions
                    checkpoint()
                    if steps >= max_steps:
                        raise MachineLimitExceeded(steps)
                    if exit_pc is None:
                        return finish()
                    state.pc = exit_pc
                    if path_profile:
                        # The instrumented fragment counted its own path.
                        stats.shift_ops += sum(
                            step.kind == "guard_cond"
                            for step in fragment.steps
                        )
                        stats.table_ops += 1
                        segment, segment_head, segment_bits = [], exit_pc, []
                    successor = fragments.get(exit_pc)
                    if completed:
                        fragment.completions += 1
                        stats.fragment_completions += 1
                    elif successor is None and not path_profile:
                        bump(exit_pc)  # a cold exit: secondary trace head
                    if successor is not None:
                        stats.linked_transfers += 1
                    fragment = successor
                continue

            pc = state.pc
            instr = instructions[pc]
            steps += 1
            stats.interpreted_instructions += 1
            next_pc, taken, halted = self._interpret(instr, pc)
            if halted:
                return finish()
            if recording is not None:
                recording.append((pc, taken, next_pc))
            backward_taken = taken and next_pc <= pc
            if path_profile:
                segment.append((pc, taken, next_pc))
                if instr.op in COND_BRANCHES:
                    segment_bits.append(int(taken))
                    stats.shift_ops += 1
                if backward_taken or len(segment) >= max_trace:
                    end_segment(next_pc)
            elif backward_taken:
                if recording is not None:
                    trace, recording = recording, None
                    install(trace, recording_head, next_pc)
                bump(next_pc)
            elif recording is not None and len(recording) >= max_trace:
                trace, recording = recording, None
                install(trace, recording_head, next_pc)
            state.pc = next_pc

    def _replay(
        self, fragment: VMFragment, stats: VMStats
    ) -> tuple[int | None, bool]:
        """One pass: (exit pc, or None on halt; whether it completed)."""
        machine = self._machine
        state = machine.state
        regs = state.registers
        stack = state.call_stack
        fragment.executions += 1
        executed = 0
        for step in fragment.steps:
            executed += 1
            instr = step.instruction
            if step.kind == "exec":
                if instr.op is Op.CALL:
                    stack.append(step.pc + 1)
                else:
                    state.pc = step.pc  # faults name this instruction
                    machine._execute_straightline(instr, regs, state.memory)
                continue
            if step.kind == "guard_cond":
                taken = machine._compare(
                    instr.op, regs[instr.rs], regs[instr.rt]
                )
                if taken == step.expected_taken:
                    continue
                target = instr.target if taken else step.pc + 1
            elif step.kind == "guard_target":
                target = regs[instr.rs]
                if target != step.expected_target:
                    machine._check_leader(
                        target, "jr" if instr.op is Op.JR else "callr"
                    )
                if instr.op is Op.CALLR:
                    stack.append(step.pc + 1)
                if target == step.expected_target:
                    continue
            elif step.kind == "guard_ret" and stack:
                target = stack.pop()
                if target == step.expected_target:
                    continue
            else:  # halt, or a return from main
                stats.fragment_instructions += executed
                return None, False
            fragment.guard_exits += 1
            stats.guard_exits += 1
            stats.fragment_instructions += executed
            return target, False
        stats.fragment_instructions += executed
        return fragment.final_target, True


def make_vm(program, tier: str, **kwargs) -> DynamoVM:
    """A VM for one of ``TIERS``, or the oracle for ``tier="replay"``."""
    if tier == "replay":
        return ReplayVM(program, **kwargs)
    return DynamoVM(program, tier=tier, **kwargs)


def fragment_counts(result: VMResult) -> dict[int, tuple[int, int, int]]:
    """``{head pc: (executions, completions, guard exits)}`` of the
    fragments resident at the end of the run."""
    return {
        pc: (frag.executions, frag.completions, frag.guard_exits)
        for pc, frag in result.fragments.items()
    }


def assert_same_accounting(reference: VMResult, result: VMResult, context=()):
    """``result`` counts exactly what the replay ``reference`` counted.

    Every shared counter, each resident fragment's own counts, the
    whole checkpoint series and the steady-state rate derived from it.
    """
    for name in SHARED_STAT_FIELDS:
        assert getattr(result.stats, name) == getattr(
            reference.stats, name
        ), (*context, name)
    assert fragment_counts(result) == fragment_counts(reference), context
    assert result.checkpoints == reference.checkpoints, context
    assert result.steady_rate() == reference.steady_rate(), context
