"""A working miniature Dynamo: interpret, profile, compile, run.

Where :mod:`repro.dynamo.system` *models* Dynamo's costs over path
traces, this module *is* a small Dynamo for the reproduction's ISA.  It
executes real programs the way the paper's system does:

1. **interpret** instructions, bumping a NET counter whenever a backward
   taken branch lands on a target (paper §4.2's "only profiling the
   potential trace heads");
2. once a counter exceeds the prediction delay τ, **record the next
   executing tail** while continuing to interpret — exactly the
   speculative NET selection;
3. **compile** the recorded trace into a fragment: on-trace jumps
   disappear (the layout is the trace), conditional branches become
   guards that exit to the interpreter when execution diverges, indirect
   jumps/calls guard on their recorded target, returns guard on the
   recorded continuation;
4. **execute fragments natively**, chaining fragment→fragment transfers
   through patched links without returning to the dispatcher's
   accounting (linking);
5. plant **exit counters** on guard exits — Dynamo's secondary trace
   heads — so the working set's other hot tails materialize too.

The VM runs in one of two tiers (:data:`repro.dynamo.config.TIERS`):

``interp``
    The honest baseline: plain interpretation, no profiling, no
    fragments.  What running the program costs without Dynamo.
``compiled``
    The default: each recorded fragment is compiled — once — into a
    specialized Python closure (:mod:`repro.dynamo.compiler`): operands
    pre-decoded, straight-line arithmetic inlined, guards straightened
    into early-return exit stubs, superblock back-edges looping inside
    the closure.  Every exit returns the successor fragment's closure,
    so a linked transfer costs one call from a two-line loop in
    :meth:`DynamoVM._run`, and counts itself in the closure's cells;
    the VM derives its totals from those counters at checkpoints,
    flushes and the end of the run.

Correctness is testable, not assumed: for every bundled program the VM's
output must equal the plain interpreter's, whatever mix of interpreted
and fragment execution produced it — and the compiled tier must be
digest-identical (:meth:`DynamoVM.state_digest`) to ``interp`` *and*
counter- and checkpoint-identical to a pass-by-pass fragment replay
(the reference oracle in the test suite).  The VM also keeps the same
cycle accounting as the cost model, so measured speedups of real
executions can be compared with the simulator's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dynamo.compiler import (
    CompiledCache,
    CompiledFragment,
    compile_fragment,
    state_digest,
)
from repro.dynamo.config import DEFAULT_CONFIG, TIERS
from repro.errors import DynamoError, MachineLimitExceeded
from repro.isa.assembler import AssembledProgram
from repro.isa.instructions import (
    BLOCK_TERMINATORS,
    COND_BRANCHES,
    Instruction,
    Op,
)
from repro.isa.machine import DEFAULT_MEMORY_WORDS, Machine
from repro.obs.core import Registry, get_registry

#: Trace-length cap in recorded instructions (Dynamo bounded traces).
DEFAULT_MAX_TRACE_INSTRUCTIONS = 128


@dataclass
class VMStep:
    """One compiled fragment slot."""

    pc: int
    instruction: Instruction
    #: "exec", "guard_cond", "guard_target", "guard_ret", or "halt".
    kind: str = "exec"
    #: guard_cond: the recorded direction.
    expected_taken: bool = False
    #: guard_target / guard_ret / call: the recorded next pc.
    expected_target: int = -1


@dataclass
class VMFragment:
    """A compiled trace resident in the VM's code cache."""

    head_pc: int
    steps: list[VMStep]
    #: Where execution continues after the last step.
    final_target: int
    executions: int = 0
    #: Executions that passed every guard and reached ``final_target``.
    #: An execution that halts mid-body counts in ``executions`` but
    #: never here.
    completions: int = 0
    guard_exits: int = 0

    @property
    def num_instructions(self) -> int:
        """Occupied slots (the cache-budget unit)."""
        return len(self.steps)


@dataclass
class VMStats:
    """Everything the VM counts during a run."""

    interpreted_instructions: int = 0
    fragment_instructions: int = 0
    counter_bumps: int = 0
    #: Path-profile mode: history-bit shifts (interpreter + fragments).
    shift_ops: int = 0
    #: Path-profile mode: path-table updates.
    table_ops: int = 0
    recorded_instructions: int = 0
    fragments_built: int = 0
    fragment_entries: int = 0
    #: Fragment executions that passed every guard (tier-independent).
    fragment_completions: int = 0
    linked_transfers: int = 0
    guard_exits: int = 0
    flushes: int = 0
    #: Closures built over the run (survives flushes; 0 under ``interp``).
    fragments_compiled: int = 0
    #: Superblock link cells patched / unpatched (0 under ``interp``).
    link_patches: int = 0
    link_unpatches: int = 0

    @property
    def cached_fraction(self) -> float:
        """Share of instructions executed inside fragments."""
        total = self.interpreted_instructions + self.fragment_instructions
        if total == 0:
            return 0.0
        return self.fragment_instructions / total

    def publish(self, obs: Registry | None) -> None:
        """Accumulate these counts into an obs registry.

        One counter per field (relative to ``obs``), published once at
        the end of a run — the dispatch loop itself stays uninstrumented
        so measurement never costs cycles.  No-op on the null registry.
        """
        reg = get_registry(obs)
        reg.counter("interpreted_instructions").inc(
            self.interpreted_instructions
        )
        reg.counter("fragment_instructions").inc(self.fragment_instructions)
        reg.counter("counter_bumps").inc(self.counter_bumps)
        reg.counter("shift_ops").inc(self.shift_ops)
        reg.counter("table_ops").inc(self.table_ops)
        reg.counter("recorded_instructions").inc(self.recorded_instructions)
        reg.counter("fragments_built").inc(self.fragments_built)
        reg.counter("fragment_entries").inc(self.fragment_entries)
        reg.counter("fragment_completions").inc(self.fragment_completions)
        reg.counter("linked_transfers").inc(self.linked_transfers)
        reg.counter("guard_exits").inc(self.guard_exits)
        reg.counter("flushes").inc(self.flushes)
        reg.counter("fragments_compiled").inc(self.fragments_compiled)
        reg.counter("link_patches").inc(self.link_patches)
        reg.counter("link_unpatches").inc(self.link_unpatches)


@dataclass
class VMResult:
    """Outcome of one VM run."""

    output: list[int]
    stats: VMStats
    fragments: dict[int, VMFragment] = field(default_factory=dict)
    #: Resident closures by head pc at run end (empty under ``interp``).
    compiled: dict[int, CompiledFragment] = field(default_factory=dict)
    #: Periodic (interpreted, fragment, shift-op, table-op) checkpoints.
    checkpoints: list[tuple[int, int, int, int]] = field(
        default_factory=list
    )

    def steady_rate(self) -> float:
        """Warm Dynamo cycles per native cycle, from the run's tail,
        under the default cost constants.

        Measured over the final quarter of the checkpoint series, where
        the working set is resident; one-time selection costs are
        excluded (they amortize over long runs).
        """
        if len(self.checkpoints) < 4:
            interp = self.stats.interpreted_instructions
            cached = self.stats.fragment_instructions
            shifts = self.stats.shift_ops
            tables = self.stats.table_ops
        else:
            cut = len(self.checkpoints) * 3 // 4
            last, base = self.checkpoints[-1], self.checkpoints[cut]
            interp = last[0] - base[0]
            cached = last[1] - base[1]
            shifts = last[2] - base[2]
            tables = last[3] - base[3]
        total = interp + cached
        if total == 0:
            return 1.0
        config = DEFAULT_CONFIG
        dynamo = (
            interp * config.interp_per_instr
            + cached * config.native_per_instr * config.fragment_speedup
            + shifts * config.bit_cost
            + tables * config.table_cost
        )
        return dynamo / (total * config.native_per_instr)

    def steady_speedup_percent(self) -> float:
        """Warm steady-state speedup over native."""
        rate = self.steady_rate()
        if rate <= 0:
            return 0.0
        return 100.0 * (1.0 / rate - 1.0)


class DynamoVM:
    """The miniature Dynamo.

    Parameters
    ----------
    program:
        The assembled program to accelerate.
    delay:
        NET prediction delay τ for head and exit counters.
    max_trace_instructions:
        Trace-length cap.
    cache_budget_instructions:
        Fragment-cache capacity; overflow flushes everything (Dynamo's
        policy) and restarts the counters.
    tier:
        Execution tier, one of :data:`repro.dynamo.config.TIERS`:
        ``interp`` (plain interpreter, no profiling) or ``compiled``
        (closure-specialized superblocks with linking).  Defaults to
        ``DEFAULT_CONFIG.tier``.
    obs:
        Optional metrics registry; the VM's accounting is published
        under ``vm.*`` relative to it when a run finishes.  Without it
        nothing is measured.
    """

    def __init__(
        self,
        program: AssembledProgram,
        delay: int = 50,
        scheme: str = "net",
        max_trace_instructions: int = DEFAULT_MAX_TRACE_INSTRUCTIONS,
        cache_budget_instructions: int = 60_000,
        memory_words: int = DEFAULT_MEMORY_WORDS,
        tier: str = DEFAULT_CONFIG.tier,
        obs: Registry | None = None,
    ):
        if delay < 0:
            raise DynamoError("delay must be non-negative")
        if scheme not in ("net", "path-profile"):
            raise DynamoError(f"unknown VM scheme {scheme!r}")
        if max_trace_instructions < 2:
            raise DynamoError("traces need at least two instructions")
        if tier not in TIERS:
            raise DynamoError(
                f"unknown execution tier {tier!r}; expected one of "
                f"{', '.join(TIERS)}"
            )
        self.program = program
        self.delay = delay
        self.scheme = scheme
        self.tier = tier
        self.max_trace_instructions = max_trace_instructions
        self.cache_budget = cache_budget_instructions
        self._machine = Machine(program, memory_words=memory_words)
        self._obs = get_registry(obs).child("vm")
        # Per-pc opcode classes, computed once: the dispatch loops index
        # these instead of testing ``op in <set>``, which would run Op's
        # Python-level ``Enum.__hash__`` on every interpreted instruction.
        ops = [instr.op for instr in program.instructions]
        self._ends_block = [op in BLOCK_TERMINATORS for op in ops]
        self._is_cond = [op in COND_BRANCHES for op in ops]

    # ------------------------------------------------------------------
    def load_memory(self, values: list[int], base: int = 0) -> None:
        """Pre-populate data memory (program input)."""
        self._machine.load_memory(values, base)

    def state_digest(self) -> str:
        """Digest of the machine's architectural state.

        The PR 5 proof pattern applied to execution tiers: two runs that
        agree on this digest produced the same output, registers, memory
        and call stack, whatever mix of interpreted and compiled
        execution got them there.
        """
        return state_digest(self._machine)

    # ------------------------------------------------------------------
    def run(self, max_steps: int = 10_000_000) -> VMResult:
        """Execute until HALT; returns output, stats and the cache.

        The run's wall time lands in the ``vm.run`` timer and the final
        :class:`VMStats` in ``vm.*`` counters — published once here, so
        the dispatch loop pays nothing for observability.
        """
        with self._obs.span("run"):
            result = self._run(max_steps)
        result.stats.publish(self._obs)
        self._obs.gauge("resident_fragments").set(len(result.fragments))
        if self.tier == "compiled":
            self._obs.gauge("resident_compiled").set(len(result.compiled))
        return result

    def _run(self, max_steps: int) -> VMResult:
        if self.tier == "interp":
            return self._run_interp(max_steps)
        machine = self._machine
        state = machine.state
        instructions = self.program.instructions
        # Hot-loop locals: every name below is touched per interpreted
        # instruction; binding them once beats attribute lookups in the
        # dispatch loop.
        regs = state.registers
        memory = state.memory
        execute = machine._execute_straightline
        interpret = self._interpret
        ends_block = self._ends_block
        is_cond = self._is_cond
        max_trace = self.max_trace_instructions
        stats = VMStats()
        ccache = CompiledCache()
        occupancy = 0
        counters: dict[int, int] = {}
        hot: set[int] = set()
        recording: list[tuple[int, bool, int]] | None = None
        recording_head = -1
        steps = 0
        checkpoints: list[tuple[int, int, int, int]] = []
        next_checkpoint = 2048
        path_profile = self.scheme == "path-profile"
        # Path-profile mode: the always-on shadow segment (bit tracing).
        segment: list[tuple[int, bool, int]] = []
        segment_head = state.pc
        segment_bits: list[int] = []
        path_counts: dict[tuple, int] = {}
        # Fragment passes are counted by the closures' exit counters
        # (CompiledFragment.tally); ``flushed`` keeps the totals of
        # fragments a flush dropped, in tally()'s order.
        flushed = (0, 0, 0, 0, 0)
        cold_exits = 0

        def tally() -> tuple[int, int, int, int, int]:
            """Fragment-side totals so far: instructions, completions,
            guard exits, non-halting passes and those passes' path-profile
            shift ops (each pass counts its own path).  Also brings each
            resident fragment's own counts up to date."""
            instructions, completions, guard_exits, passes, shifts = flushed
            for cf in ccache.resident().values():
                instructions += cf.tally()
                frag = cf.fragment
                completions += frag.completions
                guard_exits += frag.guard_exits
                done = frag.completions + frag.guard_exits
                passes += done
                shifts += done * cf.n_guard_conds
            return instructions, completions, guard_exits, passes, shifts

        def bump(target_pc: int) -> None:
            nonlocal recording, recording_head
            if target_pc in hot or target_pc in ccache:
                return
            count = counters.get(target_pc, 0) + 1
            counters[target_pc] = count
            stats.counter_bumps += 1
            if count > self.delay and recording is None:
                hot.add(target_pc)
                counters.pop(target_pc, None)
                recording = []
                recording_head = target_pc

        def install(trace, head_pc, final_target) -> None:
            nonlocal occupancy, flushed
            if len(trace) < 2:
                return
            fragment = self._compile(trace, head_pc, final_target)
            if not fragment.steps:
                # A trace of jmps only straightens to nothing: a pass
                # would spend no fuel, so the chain would never return.
                return
            stats.recorded_instructions += len(trace)
            stats.fragments_built += 1
            if occupancy + fragment.num_instructions > self.cache_budget:
                flushed = tally()
                ccache.flush()
                occupancy = 0
                counters.clear()
                hot.clear()
                path_counts.clear()
                stats.flushes += 1
            occupancy += fragment.num_instructions
            ccache.install(compile_fragment(machine, fragment, ccache))

        def finish_recording(final_target: int) -> None:
            nonlocal recording, recording_head
            trace = recording
            recording = None
            if trace is None:
                return
            install(trace, recording_head, final_target)

        def end_segment(final_target: int) -> None:
            """Path-profile mode: a segment (path) just completed."""
            nonlocal segment, segment_head, segment_bits
            stats.table_ops += 1
            key = (segment_head, tuple(segment_bits))
            count = path_counts.get(key, 0) + 1
            path_counts[key] = count
            if count > self.delay and segment_head not in ccache:
                install(list(segment), segment_head, final_target)
            segment = []
            segment_head = final_target
            segment_bits = []

        def checkpoint(last_pass: CompiledFragment | None = None) -> None:
            """Sample the counts at each 2048-step boundary reached.

            ``last_pass`` is the fragment whose non-halting pass reached
            the boundary: a pass-by-pass replay charges that pass's path
            after the sample, so it is left out.
            """
            nonlocal next_checkpoint
            instructions, _, _, passes, shifts = tally()
            if not path_profile:
                passes = shifts = 0
            elif last_pass is not None:
                passes -= 1
                shifts -= last_pass.n_guard_conds
            sample = (
                stats.interpreted_instructions,
                instructions,
                stats.shift_ops + shifts,
                stats.table_ops + passes,
            )
            while steps >= next_checkpoint:
                checkpoints.append(sample)
                next_checkpoint += 2048

        def finish() -> VMResult:
            instructions, completions, guard_exits, passes, shifts = tally()
            stats.fragment_instructions = instructions
            stats.fragment_completions = completions
            stats.guard_exits = guard_exits
            # Every non-halting pass moves to a resident fragment unless
            # it left cold.
            stats.linked_transfers = passes - cold_exits
            if path_profile:
                stats.shift_ops += shifts
                stats.table_ops += passes
            stats.fragments_compiled = ccache.compiles
            stats.link_patches = ccache.link_patches
            stats.link_unpatches = ccache.link_unpatches
            resident = ccache.resident()
            return VMResult(
                output=state.output,
                stats=stats,
                fragments={pc: cf.fragment for pc, cf in resident.items()},
                compiled=resident,
                checkpoints=checkpoints,
            )

        while True:
            if steps >= max_steps:
                raise MachineLimitExceeded(steps)
            if steps >= next_checkpoint:
                checkpoint()

            cf = ccache.get(state.pc)
            if cf is not None and recording is None:
                if path_profile:
                    segment = []
                    segment_bits = []
                stats.fragment_entries += 1
                # Each closure returns the next one, so a linked transfer
                # is one call.  Fuel runs out on the pass that reaches the
                # next checkpoint (or max_steps), so every checkpoint
                # samples the counts a pass-by-pass replay would.
                while True:
                    limit = min(max_steps, next_checkpoint)
                    fuel = limit - steps
                    while fuel > 0 and cf is not None:
                        last = cf
                        cf, fuel = cf.fn(fuel)
                    steps = limit - fuel
                    if fuel > 0:
                        break
                    halted = cf is None and ccache.last_exit[0] is None
                    checkpoint(None if halted else last)
                    if steps >= max_steps:
                        raise MachineLimitExceeded(steps)
                    if cf is None:
                        break
                exit_pc, guard = ccache.last_exit
                if exit_pc is None:
                    # The halting pass never reaches its path end.
                    return finish()
                cold_exits += 1
                state.pc = exit_pc
                if path_profile:
                    # The interpreter resumes a fresh segment here.
                    segment_head = exit_pc
                elif guard:
                    # Cold guard exit: plant a secondary trace head
                    # (NET's exit counters).
                    bump(exit_pc)
                continue

            # ----------------------------------------------------------
            # Interpret one instruction.
            pc = state.pc
            instr = instructions[pc]
            steps += 1
            stats.interpreted_instructions += 1
            if ends_block[pc]:
                next_pc, taken, halted = interpret(instr, pc)
                if halted:
                    if recording is not None:
                        recording = None
                    return finish()
            else:
                # Straight-line fast path: no control flow, so taken is
                # statically False and next_pc is pc + 1.  state.pc is
                # set (not saved/restored) so memory faults still report
                # the right instruction; the loop overwrites it below.
                state.pc = pc
                execute(instr, regs, memory)
                next_pc = pc + 1
                taken = False

            if recording is not None:
                recording.append((pc, taken, next_pc))

            backward_taken = taken and next_pc <= pc
            if path_profile:
                segment.append((pc, taken, next_pc))
                if is_cond[pc]:
                    segment_bits.append(int(taken))
                    stats.shift_ops += 1
                if backward_taken or len(segment) >= max_trace:
                    end_segment(next_pc)
            elif backward_taken:
                if recording is not None:
                    finish_recording(next_pc)
                bump(next_pc)
            elif recording is not None and len(recording) >= max_trace:
                finish_recording(next_pc)

            state.pc = next_pc

    # ------------------------------------------------------------------
    def _run_interp(self, max_steps: int) -> VMResult:
        """The ``interp`` tier: plain interpretation, no profiling.

        No counters, no recording, no fragments — the baseline the
        other tiers are measured against.
        """
        machine = self._machine
        state = machine.state
        instructions = self.program.instructions
        regs = state.registers
        memory = state.memory
        execute = machine._execute_straightline
        interpret = self._interpret
        ends_block = self._ends_block
        stats = VMStats()
        steps = 0
        checkpoints: list[tuple[int, int, int, int]] = []
        next_checkpoint = 2048
        while True:
            if steps >= max_steps:
                raise MachineLimitExceeded(steps)
            while steps >= next_checkpoint:
                checkpoints.append(
                    (stats.interpreted_instructions, 0, 0, 0)
                )
                next_checkpoint += 2048
            pc = state.pc
            instr = instructions[pc]
            steps += 1
            stats.interpreted_instructions += 1
            if ends_block[pc]:
                next_pc, _taken, halted = interpret(instr, pc)
                if halted:
                    return VMResult(
                        output=state.output,
                        stats=stats,
                        checkpoints=checkpoints,
                    )
                state.pc = next_pc
            else:
                state.pc = pc
                execute(instr, regs, memory)
                state.pc = pc + 1

    # ------------------------------------------------------------------
    def _interpret(
        self, instr: Instruction, pc: int
    ) -> tuple[int, bool, bool]:
        """Execute one instruction; returns (next_pc, taken, halted)."""
        machine = self._machine
        state = machine.state
        regs = state.registers
        op = instr.op

        if self._is_cond[pc]:
            if machine._compare(op, regs[instr.rs], regs[instr.rt]):
                return instr.target, True, False
            return pc + 1, False, False
        if op is Op.JMP:
            return instr.target, True, False
        if op is Op.JR:
            target = regs[instr.rs]
            machine._check_leader(target, "jr")
            return target, True, False
        if op is Op.CALL:
            state.call_stack.append(pc + 1)
            return instr.target, True, False
        if op is Op.CALLR:
            target = regs[instr.rs]
            machine._check_leader(target, "callr")
            state.call_stack.append(pc + 1)
            return target, True, False
        if op is Op.RET:
            if not state.call_stack:
                return pc, False, True
            return state.call_stack.pop(), True, False
        if op is Op.HALT:
            return pc, False, True

        # Straight-line execution through the machine's own semantics.
        # The caller overwrites state.pc afterwards; setting it here
        # (without save/restore) keeps fault messages pointing at the
        # faulting instruction.
        state.pc = pc
        machine._execute_straightline(instr, regs, state.memory)
        return pc + 1, False, False

    # ------------------------------------------------------------------
    def _compile(
        self,
        trace: list[tuple[int, bool, int]],
        head_pc: int,
        final_target: int,
    ) -> VMFragment:
        """Straighten a recorded trace into a guarded fragment."""
        instructions = self.program.instructions
        steps: list[VMStep] = []
        known: dict[int, tuple[str, int]] = {}
        for pc, taken, next_pc in trace:
            instr = instructions[pc]
            op = instr.op
            if op is Op.JMP:
                continue  # the layout is the trace
            if self._is_cond[pc]:
                steps.append(
                    VMStep(
                        pc=pc,
                        instruction=instr,
                        kind="guard_cond",
                        expected_taken=taken,
                    )
                )
                continue
            if op in (Op.JR, Op.CALLR):
                steps.append(
                    VMStep(
                        pc=pc,
                        instruction=instr,
                        kind="guard_target",
                        expected_target=next_pc,
                    )
                )
                known.clear()
                continue
            if op is Op.RET:
                steps.append(
                    VMStep(
                        pc=pc,
                        instruction=instr,
                        kind="guard_ret",
                        expected_target=next_pc,
                    )
                )
                continue
            if op is Op.CALL:
                steps.append(
                    VMStep(pc=pc, instruction=instr, kind="exec")
                )
                known.clear()
                continue
            if op is Op.HALT:
                steps.append(VMStep(pc=pc, instruction=instr, kind="halt"))
                continue
            # Safe redundant-constant elimination: reloading the value a
            # register already holds is a no-op at any exit.
            if op in (Op.LI, Op.LA):
                value = (
                    ("const", instr.imm) if op is Op.LI else ("la", instr.target)
                )
                if known.get(instr.rd) == value:
                    continue
                known[instr.rd] = value
            else:
                written = instr.rd
                if written is not None:
                    known.pop(written, None)
            steps.append(VMStep(pc=pc, instruction=instr, kind="exec"))
        return VMFragment(
            head_pc=head_pc,
            steps=steps,
            final_target=final_target,
        )

